#include "core/server_plane.h"

#include <algorithm>
#include <utility>

#include "common/strings.h"
#include "storage/repository_router.h"
#include "txn/lock_router.h"

namespace concord::core {

ServerPlane::ServerPlane(uint64_t network_seed, size_t nodes, int partitions,
                         const SchemaFn& define_schema)
    : network_(&clock_, network_seed), rpc_(&network_) {
  nodes = std::max<size_t>(1, nodes);
  const bool sharded = nodes > 1;
  for (size_t s = 0; s < nodes; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->node = network_.AddNode(
        s == 0 ? std::string("server")
               : IndexedName("server", static_cast<long long>(s)));
    shard->repo = std::make_unique<storage::Repository>(&clock_);
    shard->repo->set_dov_id_shard(static_cast<uint32_t>(s));
    define_schema(&shard->repo->schema());
    placement_.RegisterNode(shard->node);
    shards_.push_back(std::move(shard));
  }
  bus_ = std::make_unique<rpc::InvalidationBus>(&network_, coordinator());

  std::vector<storage::Repository*> repos;
  std::vector<txn::ServerLockTable*> lock_shards;
  for (auto& shard : shards_) {
    shard->tm = std::make_unique<txn::ServerTm>(
        shard->repo.get(), &network_, shard->node, this, bus_.get(),
        partitions);
    if (sharded) shard->tm->JoinPlane(&placement_);
    // Server-side half of the ServerService protocol: every client-TM
    // envelope lands here as a real, countable RPC.
    rpc_.RegisterHandler(shard->node, txn::kServerServiceMethod,
                         txn::ServerServiceHandler(shard->tm.get()));
    repos.push_back(shard->repo.get());
    lock_shards.push_back(&shard->tm->locks());
  }
  // Workstation placement caches fetch from the coordinator, and new
  // DAs are never homed on a node currently crashed.
  placement_.SetLivenessProbe(
      [this](NodeId node) { return network_.IsUp(node); });
  rpc_.RegisterHandler(coordinator(), txn::kPlacementMethod,
                       txn::PlacementHandler(&placement_));

  cm_ = std::make_unique<cooperation::CooperationManager>(
      storage::RepositoryRouter(std::move(repos)),
      txn::LockRouter(std::move(lock_shards)),
      sharded ? &placement_ : nullptr, &clock_);
  // CM withdrawal/invalidation -> push to every workstation DOV cache,
  // published from the node that owns the withdrawn DOV.
  cm_->SetWithdrawalSink(
      [this](DaId da, DovId dov, bool invalidated, DovId replacement) {
        rpc::InvalidationMessage message;
        message.kind = invalidated
                           ? rpc::InvalidationMessage::Kind::kInvalidated
                           : rpc::InvalidationMessage::Kind::kWithdrawn;
        message.dov = dov;
        message.origin_da = da;
        message.replacement = replacement;
        message.origin_node =
            shards_[DovShardClamped(dov, shards_.size())]->node;
        bus_->Publish(message);
      });
}

ServerPlane::~ServerPlane() = default;

bool ServerPlane::InScope(DaId da, DovId dov) {
  return cm_->InScope(da, dov);
}

ServerPlane::Workstation& ServerPlane::AddWorkstation(const std::string& name) {
  auto ws = std::make_unique<Workstation>();
  ws->node = network_.AddNode(name);
  // One stub per server node: every server trip is a countable RPC on
  // the link the request actually takes.
  std::vector<std::pair<NodeId, txn::ServerService*>> routes;
  for (auto& shard : shards_) {
    ws->stubs.push_back(std::make_unique<txn::ServerStub>(
        shard->node, rpc_.Bind(ws->node, shard->node)));
    routes.emplace_back(shard->node, ws->stubs.back().get());
  }
  ws->placement_client = std::make_unique<txn::PlacementClient>(
      rpc_.Bind(ws->node, coordinator()));
  ws->client = std::make_unique<txn::ClientTm>(
      txn::ShardRouter(std::move(routes), ws->placement_client.get()),
      &network_, ws->node, &clock_, bus_.get());
  workstations_.push_back(std::move(ws));
  return *workstations_.back();
}

ServerPlane::Workstation* ServerPlane::FindWorkstation(NodeId node) {
  for (auto& ws : workstations_) {
    if (ws->node == node) return ws.get();
  }
  return nullptr;
}

void ServerPlane::CrashNode(size_t s) {
  Shard& shard = *shards_[s];
  shard.up.store(false, std::memory_order_release);
  shard.tm->Crash();
  // The RPC at-most-once dedup table is volatile server memory: a
  // retried pre-crash envelope re-executes after recovery (and gets
  // the typed kUnknownDop answer for its wiped registration).
  rpc_.ClearNodeState(shard.node);
  // The coordinator hosts the CM: its crash takes the cooperation
  // state down with it. Other shards leave the CM running — their DAs
  // elsewhere keep cooperating.
  if (s == 0) cm_->Crash();
}

Status ServerPlane::RecoverNode(size_t s) {
  Shard& shard = *shards_[s];
  CONCORD_RETURN_NOT_OK(shard.tm->Recover());
  shard.up.store(true, std::memory_order_release);
  if (s == 0) return cm_->Recover();
  // The CM never went down; only this node's lock tables restarted
  // empty. Re-derive them from the persisted cooperation state (the
  // writes route per DOV, so surviving shards just see idempotent
  // re-applies).
  return cm_->ReestablishLocks();
}

Status ServerPlane::RecoverAll() {
  for (auto& shard : shards_) {
    CONCORD_RETURN_NOT_OK(shard->tm->Recover());
    shard->up.store(true, std::memory_order_release);
  }
  return cm_->Recover();
}

}  // namespace concord::core
