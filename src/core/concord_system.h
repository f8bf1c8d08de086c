#ifndef CONCORD_CORE_CONCORD_SYSTEM_H_
#define CONCORD_CORE_CONCORD_SYSTEM_H_

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/ids.h"
#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "common/sync.h"
#include "core/server_plane.h"
#include "vlsi/tools.h"
#include "workflow/constraints.h"
#include "workflow/design_manager.h"

namespace concord::core {

/// Configuration of a ConcordSystem instance.
struct SystemConfig {
  uint64_t seed = 42;
  /// Simulated time per unit of tool work.
  SimTime time_per_work_unit = 5 * kMillisecond;
  /// Client-TM automatic recovery-point interval in work units
  /// (0 = only checkout-triggered points).
  uint64_t recovery_point_interval = 200;
  SimTime lan_latency = 2 * kMillisecond;
  SimTime local_latency = 20 * kMicrosecond;
  double message_loss_probability = 0.0;
  /// Server-plane width: number of server-TM nodes the DAs/DOVs shard
  /// across. 1 (the default) is the classic single-server system; with
  /// N >= 2 the CM places each DA on the least-loaded node, DOV ids
  /// carry their shard, and cross-shard interactions run true
  /// multi-participant 2PC.
  int server_nodes = 1;
  /// Executor partitions per server node (txn/partition.h): each node's
  /// TM state — repository sub-shards, lock-table slices, the 2PC
  /// ledger — is sliced across this many single-threaded executors.
  /// 1 (the default) spawns no executor threads and reproduces the
  /// classic single-executor behaviour bit-identically.
  int partitions_per_node = 1;
};

/// The assembled CONCORD system (Fig. 8): a ServerPlane of one or more
/// nodes — each carrying a repository shard and a server-TM, with the
/// CM and the placement authority on the coordinator (node 0) — plus
/// one DM per DA and the VLSI tools on top. This facade is the public
/// API the examples and benchmarks program against; it routes
/// cooperation events from the CM to the DMs over the simulated LAN.
class ConcordSystem {
 public:
  explicit ConcordSystem(SystemConfig config = SystemConfig{});
  ~ConcordSystem();
  ConcordSystem(const ConcordSystem&) = delete;
  ConcordSystem& operator=(const ConcordSystem&) = delete;

  // --- Topology -------------------------------------------------------

  /// Coordinator node (shard 0; hosts the CM and placement authority).
  NodeId server_node() const { return plane_.coordinator(); }
  size_t server_node_count() const { return plane_.node_count(); }
  /// Node id of server shard `shard`.
  NodeId server_node_at(size_t shard) { return plane_.shard(shard).node; }
  /// Registers a designer workstation (client-TM included).
  NodeId AddWorkstation(const std::string& name);

  // --- DA lifecycle -----------------------------------------------------

  /// Init_Design + design-manager creation on the DA's workstation.
  Result<DaId> InitDesign(cooperation::DaDescription description);
  /// Create_Sub_DA + design-manager creation.
  Result<DaId> CreateSubDa(DaId super, cooperation::DaDescription description);
  /// Starts the DA at the CM and its DM.
  Status StartDa(DaId da);
  /// Drives the DA's work flow to completion (or pause). With an
  /// executor pool bound (SetExecutorPool), ready DOPs of
  /// branch-parallel scripts overlap across the pool's threads.
  Status RunDa(DaId da);

  /// An open asynchronous tool run: Begin-of-DOP registered and the
  /// input version checked out, tool processing not yet performed.
  /// FinishToolRun completes (or aborts) it. Splitting the two halves
  /// lets one workstation hold hundreds of DOPs open concurrently.
  struct ToolRun {
    DaId da;
    std::string dop_type;
    DopId dop;
    storage::DesignObject input;
    std::vector<DovId> inputs;
  };
  /// First half of a DOP: Begin-of-DOP + input selection/checkout.
  Result<ToolRun> BeginToolRun(DaId da, const std::string& dop_type);
  /// Second half: tool processing + checkin/commit (or abort).
  Result<workflow::DopOutcome> FinishToolRun(ToolRun run);

  /// Binds a shared executor pool to every DM (existing and future).
  /// The pool must outlive this system. Passing nullptr detaches.
  void SetExecutorPool(workflow::ExecutorPool* pool);

  /// Installs the object a DA starts from when it has no initial DOV
  /// (e.g. the behavioral description for the top-level DA).
  Status SetSeedObject(DaId da, storage::DesignObject object);

  /// The DA's current working version (last checkin), if any.
  Result<DovId> CurrentVersion(DaId da) const;

  // --- Components -------------------------------------------------------

  /// The server plane: shards, CM, workstations, node crash/recover.
  ServerPlane& plane() { return plane_; }
  SimClock& clock() { return plane_.clock(); }
  Rng& rng() { return rng_; }
  rpc::Network& network() { return plane_.network(); }
  /// The transactional-RPC channel every client<->server TM envelope
  /// rides; its stats count the server round trips (and their retries
  /// under loss) of all checkout/checkin/begin/commit/abort traffic.
  rpc::TransactionalRpc& rpc() { return plane_.rpc(); }
  rpc::InvalidationBus& invalidation_bus() { return plane_.bus(); }
  /// Coordinator-shard components (the whole system when
  /// server_nodes == 1).
  storage::Repository& repository() { return repository_at(0); }
  txn::ServerTm& server_tm() { return server_tm_at(0); }
  /// Per-shard components of the server plane.
  storage::Repository& repository_at(size_t shard) {
    return *plane_.shard(shard).repo;
  }
  txn::ServerTm& server_tm_at(size_t shard) { return *plane_.shard(shard).tm; }
  txn::PlacementMap& placement() { return plane_.placement(); }
  cooperation::CooperationManager& cm() { return plane_.cm(); }
  /// `workstation` must come from AddWorkstation.
  txn::ClientTm& client_tm(NodeId workstation);
  workflow::DesignManager& dm(DaId da);
  const vlsi::ToolBox& toolbox() const { return *toolbox_; }
  const vlsi::VlsiDots& dots() const { return dots_; }
  workflow::ConstraintSet& constraints() { return constraints_; }

  /// Binds a decision maker to a DA's DM (defaults to first-path).
  Status SetDecisionMaker(DaId da, workflow::DecisionMaker* maker);

  // --- Failure injection -------------------------------------------------

  /// Crashes one workstation: its client-TM loses volatile DOP state,
  /// every DM hosted there loses its execution machine. Events sent to
  /// DAs on a crashed workstation queue up and are delivered at
  /// recovery (reliable messaging, Sect. 5.4).
  void CrashWorkstation(NodeId workstation);
  Status RecoverWorkstation(NodeId workstation);

  /// Crashes the whole server plane: repositories, server-TM lock
  /// tables and CM state are volatile; WAL + meta store survive and
  /// recovery rebuilds all of it. One node alone crashes through
  /// plane().CrashNode / RecoverNode.
  void CrashServer();
  Status RecoverServer();

 private:
  struct DaRuntime {
    std::unique_ptr<workflow::DesignManager> dm;
    NodeId workstation;
    /// Latest version checked in by this DA's DOPs.
    DovId current;
    /// Seed object when the DA starts from scratch.
    std::optional<storage::DesignObject> seed;
    /// Events awaiting delivery (workstation down).
    std::deque<workflow::Event> pending_events;
  };

  /// The default tool runner bound to each DA's DM: wraps one ToolBox
  /// invocation in a full DOP (Begin, checkout, work, checkin, commit).
  Result<workflow::DopOutcome> RunTool(DaId da, const std::string& dop_type);
  /// The default DA-operation runner for kDaOp script nodes: binds the
  /// operation names of Sect. 4.2 ("Evaluate", "Propagate",
  /// "Sub_DA_Ready_To_Commit", ...) to the cooperation manager,
  /// applied to the DA's current version.
  Status RunDaOp(DaId da, const std::string& op_name);
  void BindDm(DaId da, DaRuntime* runtime);
  void DeliverEvent(DaId da, const workflow::Event& event);
  Result<DaRuntime*> RuntimeOf(DaId da);

  SystemConfig config_;
  Rng rng_;
  /// Filled by the plane's schema callback, so declared before plane_.
  vlsi::VlsiDots dots_;
  ServerPlane plane_;
  std::unique_ptr<vlsi::ToolBox> toolbox_;
  workflow::ConstraintSet constraints_;
  /// Optional shared executor pool for DM script scheduling.
  workflow::ExecutorPool* executor_pool_ = nullptr;
  /// Serializes the tool-run path (runtime `current`/`seed` fields and
  /// the shared tool RNG) against concurrent executor threads. Never
  /// held while calling into the CM's event sinks.
  mutable Mutex tool_mu_;

  std::map<uint64_t, DaRuntime> das_;
};

/// Registers the paper's VLSI domain constraints (Sect. 4.2 examples):
/// chip assembly only after structure synthesis; pad-frame edit
/// immediately followed by chip planning; chip planning only after
/// shape-function generation.
void RegisterVlsiDomainConstraints(workflow::ConstraintSet* constraints);

}  // namespace concord::core

#endif  // CONCORD_CORE_CONCORD_SYSTEM_H_
