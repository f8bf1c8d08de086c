#ifndef CONCORD_BENCH_BENCH_TM_ENV_H_
#define CONCORD_BENCH_BENCH_TM_ENV_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "rpc/invalidation.h"
#include "rpc/network.h"
#include "rpc/transactional_rpc.h"
#include "storage/repository.h"
#include "txn/client_tm.h"
#include "txn/placement.h"
#include "txn/scope_authority.h"
#include "txn/server_service.h"
#include "txn/server_tm.h"
#include "txn/shard_router.h"

namespace concord::bench {

/// Shared benchmark fixture for the full TM stack: a server plane of
/// one or more nodes — each with its own repository shard (DOV ids
/// namespaced per shard), server-TM and ServerService RPC endpoint —
/// an invalidation bus, the placement authority on the coordinator,
/// and one workstation/client-TM per benchmark thread (each routing
/// through per-node ServerStubs, so every server trip is a
/// countable TransactionalRpc call on the link it takes), each with a
/// seeded warm DOV owned by DA(t+1) on shard 0. Used by bench_cache,
/// the client-TM scenarios in bench_concurrent_checkout, and the
/// multi-server plane scenarios in bench_multi_server — one place to
/// update when the stack's wiring changes.
struct TmEnv {
  struct Shard {
    NodeId node;
    std::unique_ptr<storage::Repository> repo;
    std::unique_ptr<txn::ServerTm> tm;
  };

  SimClock clock;
  rpc::Network network{&clock, 42};
  rpc::TransactionalRpc rpc{&network};
  txn::PermissiveScopeAuthority scope;
  txn::PlacementMap placement;
  std::vector<Shard> shards;
  std::unique_ptr<rpc::InvalidationBus> bus;
  std::vector<std::unique_ptr<txn::ServerStub>> stubs;
  std::vector<std::unique_ptr<txn::PlacementClient>> placement_clients;
  std::vector<std::unique_ptr<txn::ClientTm>> clients;  // one per thread
  DotId dot;
  std::vector<DovId> warm_dov;  // per-thread seeded input on shard 0

  // Single-server (shard 0) aliases kept for the existing benches.
  NodeId server_node;
  txn::ServerTm* server = nullptr;  // == shards[0].tm
  storage::Repository& repo() { return *shards[0].repo; }
  txn::ServerTm& server_at(size_t shard) { return *shards[shard].tm; }

  explicit TmEnv(int threads, int server_nodes = 1, int partitions = 1) {
    for (int s = 0; s < server_nodes; ++s) {
      Shard shard;
      shard.node =
          network.AddNode(s == 0 ? "server" : "server" + std::to_string(s));
      shard.repo = std::make_unique<storage::Repository>(&clock);
      shard.repo->set_dov_id_shard(static_cast<uint32_t>(s));
      storage::DesignObjectType* type = shard.repo->schema().DefineType("cell");
      type->AddAttr({"value", storage::AttrType::kInt, true, 0.0, 1e9});
      if (s == 0) dot = type->id();
      shards.push_back(std::move(shard));
      placement.RegisterNode(shards.back().node);
    }
    server_node = shards.front().node;
    bus = std::make_unique<rpc::InvalidationBus>(&network, server_node);
    for (Shard& shard : shards) {
      shard.tm = std::make_unique<txn::ServerTm>(shard.repo.get(), &network,
                                                 shard.node, &scope, bus.get(),
                                                 partitions);
      if (server_nodes > 1) shard.tm->JoinPlane(&placement);
      rpc.RegisterHandler(shard.node, txn::kServerServiceMethod,
                          txn::ServerServiceHandler(shard.tm.get()));
    }
    placement.SetLivenessProbe(
        [this](NodeId node) { return network.IsUp(node); });
    rpc.RegisterHandler(server_node, txn::kPlacementMethod,
                        txn::PlacementHandler(&placement));
    server = shards.front().tm.get();
    for (int t = 0; t < threads; ++t) {
      NodeId ws = network.AddNode("ws" + std::to_string(t));
      std::vector<std::pair<NodeId, txn::ServerService*>> routes;
      for (Shard& shard : shards) {
        stubs.push_back(std::make_unique<txn::ServerStub>(
            shard.node, rpc.Bind(ws, shard.node)));
        routes.emplace_back(shard.node, stubs.back().get());
      }
      placement_clients.push_back(
          std::make_unique<txn::PlacementClient>(rpc.Bind(ws, server_node)));
      clients.push_back(std::make_unique<txn::ClientTm>(
          txn::ShardRouter(std::move(routes), placement_clients.back().get()),
          &network, ws, &clock, bus.get()));
      warm_dov.push_back(Seed(DaId(t + 1), t));
    }
  }

  /// Commits one DOV owned by `da` on shard 0 (as that node's
  /// server-TM checkin would) and places the DA there.
  DovId Seed(DaId da, int64_t value) { return SeedOn(0, da, value); }

  /// Commits one DOV owned by `da` on the given shard.
  DovId SeedOn(size_t shard, DaId da, int64_t value) {
    storage::Repository& r = *shards[shard].repo;
    TxnId txn = r.Begin();
    storage::DovRecord record;
    record.id = r.NextDovId();
    record.owner_da = da;
    record.type = dot;
    record.data = storage::DesignObject(dot);
    record.data.SetAttr("value", value);
    DovId id = record.id;
    r.Put(txn, std::move(record)).ok();
    r.Commit(txn).ok();
    shards[shard].tm->locks().SetScopeOwner(id, da);
    if (shards.size() > 1) {
      placement.Assign(da, shards[shard].node).ok();
    }
    return id;
  }
};

}  // namespace concord::bench

#endif  // CONCORD_BENCH_BENCH_TM_ENV_H_
