#ifndef CONCORD_CORE_SERVER_PLANE_H_
#define CONCORD_CORE_SERVER_PLANE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/ids.h"
#include "common/status.h"
#include "cooperation/cooperation_manager.h"
#include "rpc/invalidation.h"
#include "rpc/network.h"
#include "rpc/transactional_rpc.h"
#include "storage/repository.h"
#include "storage/schema.h"
#include "txn/client_tm.h"
#include "txn/placement.h"
#include "txn/scope_authority.h"
#include "txn/server_service.h"
#include "txn/server_tm.h"
#include "txn/shard_router.h"

namespace concord::core {

/// The CONCORD server plane (paper Sect. 5), built in one place: N
/// server nodes over the simulated LAN, each a repository shard (DOV
/// ids namespaced by shard index) fronted by a server-TM registered as
/// its own ServerService endpoint; the placement authority and the
/// cooperation manager on the coordinator (node 0); the invalidation
/// bus that pushes the CM's withdrawals to every workstation DOV
/// cache; and the workstations, each with one stub per server node, a
/// placement cache and a client-TM routing across them.
///
/// The plane is its own server-TMs' scope authority: the CM is built
/// after them (it needs their lock tables), so the TMs ask the plane,
/// which forwards to the CM.
class ServerPlane : public txn::ScopeAuthority {
 public:
  /// Defines the plane's design-object types on one shard's catalog.
  /// Called once per shard in shard order, so DOT ids agree plane-wide.
  using SchemaFn = std::function<void(storage::SchemaCatalog*)>;

  struct Shard {
    NodeId node;
    std::unique_ptr<storage::Repository> repo;
    std::unique_ptr<txn::ServerTm> tm;
    /// Cleared by CrashNode, set again by RecoverNode.
    std::atomic<bool> up{true};
  };

  struct Workstation {
    NodeId node;
    std::vector<std::unique_ptr<txn::ServerStub>> stubs;
    std::unique_ptr<txn::PlacementClient> placement_client;
    std::unique_ptr<txn::ClientTm> client;
  };

  /// `network_seed` seeds the simulated LAN's loss draws. With more
  /// than one node the TMs join the plane and the CM places DAs across
  /// it; a one-node plane is the classic single-server system.
  ServerPlane(uint64_t network_seed, size_t nodes, int partitions,
              const SchemaFn& define_schema);
  ~ServerPlane() override;
  ServerPlane(const ServerPlane&) = delete;
  ServerPlane& operator=(const ServerPlane&) = delete;

  bool InScope(DaId da, DovId dov) override;

  /// Registers a workstation node with its stubs, placement cache and
  /// client-TM.
  Workstation& AddWorkstation(const std::string& name);
  /// The workstation on `node`, or nullptr.
  Workstation* FindWorkstation(NodeId node);

  /// Server-node crash: deterministic partition drain, volatile wipe,
  /// RPC dedup loss; the coordinator takes the CM down with it. The
  /// other nodes keep serving their DAs.
  void CrashNode(size_t shard);
  /// WAL replay + (coordinator) CM rebuild or (other nodes) scope-lock
  /// re-derivation from persisted cooperation state.
  Status RecoverNode(size_t shard);
  /// Recovers every node: all server-TMs first, then one CM rebuild
  /// (which re-derives every shard's scope locks) from the meta store.
  Status RecoverAll();

  size_t node_count() const { return shards_.size(); }
  Shard& shard(size_t s) { return *shards_[s]; }
  /// The coordinator node (hosts the CM and the placement authority).
  NodeId coordinator() const { return shards_.front()->node; }
  size_t workstation_count() const { return workstations_.size(); }
  Workstation& workstation(size_t w) { return *workstations_[w]; }
  SimClock& clock() { return clock_; }
  rpc::Network& network() { return network_; }
  /// The channel every client<->server TM envelope rides.
  rpc::TransactionalRpc& rpc() { return rpc_; }
  rpc::InvalidationBus& bus() { return *bus_; }
  txn::PlacementMap& placement() { return placement_; }
  cooperation::CooperationManager& cm() { return *cm_; }

 private:
  SimClock clock_;
  rpc::Network network_;
  /// At-most-once dedup lives callee-side; a node crash wipes it like
  /// any other volatile server memory.
  rpc::TransactionalRpc rpc_;
  /// DA -> server-node placement, driven by the CM. Outlives the TMs
  /// that joined it.
  txn::PlacementMap placement_;
  /// Outlives the server-TMs that publish on it and the client-TMs
  /// that unsubscribe from it in their destructors.
  std::unique_ptr<rpc::InvalidationBus> bus_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<cooperation::CooperationManager> cm_;
  std::vector<std::unique_ptr<Workstation>> workstations_;
};

}  // namespace concord::core

#endif  // CONCORD_CORE_SERVER_PLANE_H_
