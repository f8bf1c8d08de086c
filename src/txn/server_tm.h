#ifndef CONCORD_TXN_SERVER_TM_H_
#define CONCORD_TXN_SERVER_TM_H_

#include <atomic>
#include <memory>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/result.h"
#include "common/status.h"
#include "common/sync.h"
#include "rpc/invalidation.h"
#include "rpc/network.h"
#include "storage/repository.h"
#include "txn/lock_manager.h"
#include "txn/partition.h"
#include "txn/placement.h"
#include "txn/scope_authority.h"
#include "txn/server_lock_table.h"
#include "txn/server_service.h"

namespace concord::txn {

/// Aggregated snapshot of the checkout/checkin traffic counters.
/// Increments land in the owning partition's padded atomic slice
/// (one cache line per partition, never shared); stats() sums the
/// slices on read. Read at quiescence for exact values.
struct ServerTmStats {
  uint64_t checkouts = 0;
  uint64_t checkouts_denied_scope = 0;
  uint64_t checkouts_denied_lock = 0;
  uint64_t checkins = 0;
  uint64_t checkin_failures = 0;
  uint64_t dops_begun = 0;
  uint64_t dops_committed = 0;
  uint64_t dops_aborted = 0;
  /// Requests naming a DOP whose registration a server crash wiped.
  uint64_t unknown_dop_requests = 0;
  /// Checkins rejected because this node does not own the DA (the
  /// workstation routed via a stale placement cache).
  uint64_t wrong_shard_requests = 0;
  /// Cross-shard 2PC ledger activity: staged transactions that reached
  /// a phase-2 decision, and how each was resolved.
  uint64_t txns_prepared = 0;
  uint64_t txns_decided_commit = 0;
  uint64_t txns_decided_abort = 0;
  /// Operations whose choreography spanned more than one partition
  /// (e.g. a lock-taking checkout whose DOP and DOV live on different
  /// executors) — the intra-node messaging cost of partitioning.
  uint64_t cross_partition_ops = 0;
  /// Execute calls carrying more than one data op (independent
  /// envelopes run as one wavefront set), and the data ops they carried.
  uint64_t pipelined_batches = 0;
  uint64_t pipelined_ops = 0;
};

/// Server half of the transaction manager (Sect. 5.1/5.2): "handles
/// checkout/checkin and controls concurrent access to DOVs, thus
/// residing on the server". It owns the lock tables and fronts the
/// repository; the client-TM talks to it for every critical
/// interaction.
///
/// ## Partitioned execution model
///
/// The node's state is sliced across K single-threaded executor
/// partitions (txn/partition.h):
///  - DOP registrations, per-DOP derivation-lock lists and the
///    lost-DOP set live on DopPartitionOf(dop);
///  - lock-table slices (ServerLockTable) and the repository's
///    sub-shards live on DovPartitionOf(dov);
///  - the prepared-2PC ledger lives on TxnPartitionOf(txn).
/// A public operation is a choreography run by the DISPATCHING thread
/// (the RPC handler): it runs each state-touching step as a task of
/// the owning partition (PartitionEngine::Run — on the dispatcher
/// itself when the partition is idle, else through its mailbox) and
/// waits for it; steps never hop partitions themselves, so executors
/// cannot deadlock on each other. Scope-authority callouts and
/// invalidation publishes also stay on the dispatcher — the
/// cooperation manager's recursive mutex may be held by that very
/// thread (event delivery running a tool), and an executor-side
/// callout would deadlock against it.
///
/// K == 1 (the default) spawns no threads and executes every step
/// inline on the caller — bit-identical to the pre-partitioning
/// behaviour. Each partition's maps still sit behind a slice mutex:
/// with K == 1 concurrent designers share partition 0, and with K > 1
/// the mutex is uncontended (only the partition's token holder takes
/// it).
class ServerTm {
 public:
  /// `invalidations` (optional) is the push channel to the workstation
  /// DOV caches: granting a derivation lock publishes on it, so remote
  /// cached copies cannot short-circuit the lock-compatibility test a
  /// server checkout would now fail. `partitions` is the number of
  /// executor partitions (1 = inline single-executor mode); the
  /// repository is re-sharded to match (must be traffic-free).
  ServerTm(storage::Repository* repository, rpc::Network* network,
           NodeId server_node, ScopeAuthority* scope_authority,
           rpc::InvalidationBus* invalidations = nullptr, int partitions = 1);
  ~ServerTm();
  ServerTm(const ServerTm&) = delete;
  ServerTm& operator=(const ServerTm&) = delete;

  NodeId node() const { return node_; }
  ServerLockTable& locks() { return locks_; }
  storage::Repository& repository() { return *repository_; }
  size_t partition_count() const { return engine_.count(); }

  /// Joins this server-TM to a sharded plane: `placement` is the
  /// plane's placement authority and this node must reject checkins
  /// for DAs it does not own (kWrongShard — how stale workstation
  /// placement caches are detected). Call before traffic; a null
  /// placement (the default) keeps the single-server behaviour.
  void JoinPlane(const PlacementMap* placement) { placement_ = placement; }

  /// The server-TM's one executor: runs the data ops of `ops`
  /// (Begin-of-DOP, checkout, checkin, End-of-DOP, DA-of-DOP) and fills
  /// `replies` positionally. Control legs (Prepare, Decide) are skipped
  /// and their replies left untouched; every data op's reply must
  /// arrive default-constructed. The ops are treated as one
  /// independent set and execute in steps, each of which gives every
  /// partition it touches ONE task carrying all of its ops in envelope
  /// order, the last of them run by the dispatcher itself:
  ///  1. Begin-of-DOP registrations (an envelope may open a DOP and
  ///     work in it);
  ///  2. registration lookups for checkouts, checkins and DA-of-DOP
  ///     reads, then — on the dispatcher — the checkin placement
  ///     checks and the checkouts' short locks and scope tests;
  ///  3. per-DOV checkout steps (Sect. 5.2: lock-compatibility test,
  ///     optional derivation-lock acquisition, read), then the held
  ///     lock records and their invalidation pushes;
  ///  4. checkins, in envelope order, each its own repository
  ///     transaction;
  ///  5. End-of-DOP extractions with their lock-release fan-out.
  /// A lock-taking checkout is therefore recorded before its DOP's
  /// End-of-DOP in the same call releases it. A one-op call runs the
  /// same partition tasks the op alone needs, and an op set on one
  /// partition runs each step as a single Run.
  ///
  /// A valid `stage` makes the call phase 1 of that cross-shard 2PC
  /// transaction (see the ledger section below). Begin-of-DOP, DA-of-DOP
  /// and checkouts run as above; a checkout that took a derivation lock
  /// also records it for Decide(abort) to release. A checkin passes its
  /// lookup, placement check and schema integrity test and is answered
  /// with its new DOV id, but its record is staged, not applied; an
  /// End-of-DOP is validated by the step-2 lookup and staged, not
  /// extracted. Every staged piece reaches the txn's ledger slice in
  /// ONE task at the end of the call. Nothing is persisted here.
  void Execute(std::span<const ServerRequest> ops,
               std::span<ServerReply> replies, TxnId stage = TxnId());

  /// Single-op forms of Execute, for Decide, tests and benches.
  ///
  /// Registers a new DOP for DA `da`. The server remembers the
  /// association for scope checks and lock release.
  Status BeginDop(DopId dop, DaId da);

  /// Checkout (Sect. 5.2): scope test, derivation-lock compatibility
  /// test, optional derivation-lock acquisition, then the read. Short
  /// locks bracket the operation.
  Result<storage::DovRecord> Checkout(DopId dop, DovId dov,
                                      bool take_derivation_lock);

  /// Checkin: integrity check via a repository transaction, extension
  /// of the DA's derivation graph, scope-lock to the owning DA. On
  /// integrity failure the caller (client-TM/DM) learns the "checkin
  /// failure" situation.
  Result<DovId> Checkin(DopId dop, storage::DesignObject object,
                        const std::vector<DovId>& predecessors,
                        SimTime created_at);

  /// End-of-DOP, commit outcome: release the DOP's derivation locks.
  Status CommitDop(DopId dop);
  /// End-of-DOP, abort outcome: release locks; versions already checked
  /// in by this DOP stay (each checkin was its own ACID unit — the DOP
  /// abort concerns the in-flight work, handled client-side).
  Status AbortDop(DopId dop);

  /// DA of `dop`, or the typed failure: kUnknownDop if a crash wiped
  /// the registration, kNotFound if it never existed.
  Result<DaId> DaOfDop(DopId dop);

  // --- Cross-shard 2PC (prepared-transaction ledger) -----------------
  //
  // A critical interaction whose operations span several server nodes
  // cannot ride one degenerate [Prepare, ops, Decide] envelope: each
  // participant must hold its effects until the coordinator has heard
  // every vote. DispatchBatch runs a phase-1 envelope's data ops
  // ([Prepare, ops...] with no Decide) as staged Execute calls — reads
  // execute immediately (with undo records), while state-changing
  // operations are validated, answered, and *staged* — and a later
  // [Decide] envelope applies or discards the stage. The ledger lives
  // in server memory (sliced per txn partition); a stage carrying a
  // checkin is also made durable (PersistPrepared) before the
  // yes-vote, every other stage stays volatile — a crash wipes it,
  // which is the presumed-abort outcome.

  /// Phase-2: applies (commit) or discards + undoes (abort) the staged
  /// transaction. A commit publishes every staged checkin AND deletes
  /// the durable ledger key in ONE repository transaction (one WAL
  /// batch, one fsync), so no crash can separate the apply from the
  /// erase; the staged End-of-DOP outcomes then release their locks.
  /// Idempotent: a repeated decision for an already-resolved or
  /// never-prepared transaction answers OK — "nothing staged here" and
  /// "already resolved" are indistinguishable and both are safe to
  /// acknowledge. EXCEPT while a crash wipe is pending (between
  /// Crash() and the end of Recover()): there "nothing staged" may
  /// mean the wipe beat the lookup to a persisted stage that recovery
  /// will re-stage, so an OK would acknowledge a commit whose effects
  /// never applied — the decision answers kUnavailable instead and the
  /// coordinator must retry against the recovered node.
  Status Decide(TxnId txn, bool commit);
  /// Test introspection: true while `txn` has staged/undoable state.
  bool HasPrepared(TxnId txn) const;
  /// Control-plane introspection: every transaction with staged
  /// phase-1 state across all partitions, without stopping traffic
  /// (slice-mutex reads, like HasPrepared). The scale harness uses it
  /// to measure orphaned-2PC residue at checkpoints and end-of-run.
  std::vector<TxnId> PreparedTxns() const;

  /// Makes `txn`'s staged state durable: the entry's checkins and
  /// End-of-DOP outcomes are written to the repository's meta table
  /// (key "2pc/<txn>") in one short repository transaction.
  /// DispatchBatch calls this at the end of a phase-1 envelope BEFORE
  /// the yes-vote returns — a server that cannot persist its stage
  /// must not vote yes, or a kill -9 between the vote and the Decide
  /// would lose a checkin the coordinator goes on to commit. No-op
  /// unless a checkin is staged (presumed abort: a participant whose
  /// stage leaves no durable trace writes no log record). Finish-only
  /// and lock-only stages stay volatile — the registrations and
  /// derivation locks they would release die with the process anyway,
  /// and a Decide that finds nothing staged acknowledges (or, during a
  /// crash wipe, refuses). Direct staged Execute callers that skip
  /// this call keep presumed-abort crash semantics for every stage.
  Status PersistPrepared(TxnId txn);

  /// Re-stages persisted phase-1 entries from the repository's meta
  /// table after a restart (Recover() runs it; a fresh concordd
  /// process calls it after constructing over a recovered repository).
  /// Staged checkins already present in the committed store are
  /// skipped. Decide applies and erases in one transaction, but logs
  /// written by older servers applied each checkin and erased the
  /// ledger key in separate commits, and a crash between them left an
  /// applied record under a live key. Staged End-of-DOP outcomes are
  /// dropped — the registrations and derivation locks they would
  /// release were volatile and died with the previous incarnation.
  /// Every staged id is reserved against the DOV id generator so new
  /// checkins cannot collide with a stage that applies later. Returns
  /// the number of transactions re-staged.
  size_t RestagePreparedFromStable();

  /// Simulated server crash. One wipe task is posted to EVERY
  /// partition and all are awaited: each mailbox drains its in-flight
  /// work first, so by the time Crash() returns no executor is
  /// touching pre-crash state (the deterministic drain), and the wiped
  /// registrations are remembered — a client naming one after
  /// Recover() gets the typed kUnknownDop status. The repository
  /// crashes alongside, then the node leaves the network.
  void Crash();
  Status Recover();

  /// Aggregated across all partitions.
  ServerTmStats stats() const;
  /// One partition's counter slice (per-partition throughput view).
  ServerTmStats partition_stats(size_t p) const;
  /// One partition's executor mailbox counters (contention view).
  PartitionQueueSnapshot partition_queue_stats(size_t p) const {
    return engine_.queue_stats(p);
  }

 private:
  /// Per-partition padded counter slice: only the owning partition (or
  /// the dispatcher, for rare denial/routing errors) bumps it, so hot
  /// counters stop bouncing a shared cache line between partitions.
  struct alignas(64) PartitionCounters {
    std::atomic<uint64_t> checkouts{0};
    std::atomic<uint64_t> checkouts_denied_scope{0};
    std::atomic<uint64_t> checkouts_denied_lock{0};
    std::atomic<uint64_t> checkins{0};
    std::atomic<uint64_t> checkin_failures{0};
    std::atomic<uint64_t> dops_begun{0};
    std::atomic<uint64_t> dops_committed{0};
    std::atomic<uint64_t> dops_aborted{0};
    std::atomic<uint64_t> unknown_dop_requests{0};
    std::atomic<uint64_t> wrong_shard_requests{0};
    std::atomic<uint64_t> txns_prepared{0};
    std::atomic<uint64_t> txns_decided_commit{0};
    std::atomic<uint64_t> txns_decided_abort{0};
    std::atomic<uint64_t> cross_partition_ops{0};
    std::atomic<uint64_t> pipelined_batches{0};
    std::atomic<uint64_t> pipelined_ops{0};
  };

  /// One staged (phase-1-executed, undecided) transaction.
  struct PreparedTxn {
    /// Checkin records to publish at Decide(commit), in arrival order.
    std::vector<storage::DovRecord> staged_checkins;
    /// End-of-DOP outcomes to apply at Decide(commit).
    struct StagedFinish {
      DopId dop;
      bool commit_outcome = true;
    };
    std::vector<StagedFinish> staged_finishes;
    /// Derivation locks acquired by this transaction's phase-1
    /// checkouts — released again at Decide(abort).
    std::vector<std::pair<DovId, DaId>> acquired_locks;
    /// True once PersistPrepared wrote the entry to the meta table —
    /// Decide then erases the durable copy as it resolves.
    bool persisted = false;
  };

  /// One partition's exclusive state slice. The slice mutex is a leaf
  /// (never held across repository or lock-manager calls); with K > 1
  /// only the owning executor takes it, with K == 1 it is the old
  /// single mu_.
  struct Partition {
    mutable Mutex mu;
    std::unordered_map<DopId, DaId> dop_da GUARDED_BY(mu);
    /// Derivation locks taken per DOP (released at End-of-DOP).
    std::unordered_map<DopId, std::vector<DovId>> dop_derivation_locks
        GUARDED_BY(mu);
    /// Registrations wiped by Crash() and not re-registered since.
    std::unordered_set<DopId> lost_dops GUARDED_BY(mu);
    /// Cross-shard 2PC ledger slice. A crash wipes it; recovery
    /// re-stages the persisted (checkin-carrying) stages and the rest
    /// are presumed aborted.
    std::unordered_map<TxnId, PreparedTxn> prepared GUARDED_BY(mu);
    mutable PartitionCounters counters;
  };

  size_t DopPart(DopId dop) const { return DopPartitionOf(dop, engine_.count()); }
  size_t DovPart(DovId dov) const { return DovPartitionOf(dov, engine_.count()); }
  size_t TxnPart(TxnId txn) const { return TxnPartitionOf(txn, engine_.count()); }

  /// Execute over the single op `op`.
  ServerReply RunOne(ServerRequest op);

  /// The partition-resident body of a registration lookup (runs on the
  /// owner; see DaOfDop).
  Result<DaId> LookupDopIn(const Partition& part, DopId dop) const;

  /// kWrongShard when a sharded plane's placement says `da` is homed
  /// elsewhere; OK otherwise. Runs on the dispatcher (the placement
  /// map is internally synchronized); the counter lands in `part`.
  Status CheckOwnsDa(const Partition& part, DaId da) const;

  /// The executor-resident tail of a checkout: derivation-lock
  /// compatibility test, optional acquisition, repository read into
  /// `reply`. Expects the short lock already taken by the dispatcher.
  /// Returns whether a derivation lock was acquired (even when the read
  /// then failed: End-of-DOP must still release it).
  bool CheckoutStepIn(size_t pv, const CheckoutRequest& checkout, DaId da,
                      ServerReply* reply);
  /// Records `dov`'s derivation lock as held by `dop` (released at
  /// End-of-DOP). Runs on the DOP's partition.
  void RecordHeldLockIn(Partition& part, DopId dop, DovId dov);

  /// Publishes the derivation-lock invalidation push for `dov`
  /// acquired by `da`. Dispatcher thread only — the bus fans out over
  /// the network.
  void PublishDerivationLock(DovId dov, DaId da);

  /// The record of a checkin's new version, stamped with a fresh DOV id.
  storage::DovRecord NewRecord(DaId da, DopId dop,
                               storage::DesignObject object,
                               const std::vector<DovId>& predecessors,
                               SimTime created_at);

  /// Commits a fully-built record to the repository and hands the new
  /// DOV to the creating DA's scope — the tail of an executor checkin.
  /// One task on the new DOV's partition.
  Status ApplyCheckin(storage::DovRecord record);

  /// Decide(commit)'s apply: ONE repository transaction writes every
  /// staged record and, when `erase_ledger`, deletes "2pc/<txn>"; the
  /// short locks, scope owners and checkin counters stay on the
  /// records' partitions. Records on one partition run as one task on
  /// it; records spanning partitions take their short locks on the
  /// dispatcher, commit there, and fan the scope hand-over out per
  /// partition.
  Status ApplyStagedCheckins(TxnId txn,
                             std::vector<storage::DovRecord> records,
                             bool erase_ledger);

  /// The partition-resident body of Begin-of-DOP (runs on the owner).
  Status BeginDopIn(Partition& part, DopId dop, DaId da);

  /// The partition-resident head of End-of-DOP: deregisters `dop` and
  /// extracts its DA and held derivation locks for the dispatcher's
  /// release fan-out.
  Status FinishExtractIn(Partition& part, DopId dop, DaId* da,
                         std::vector<DovId>* held);

  /// Releases `locks` grouped per owning partition, one task each, and
  /// waits for all of them.
  void ReleaseDerivationLocks(const std::vector<std::pair<DovId, DaId>>& locks);

  /// Serde for the durable 2PC ledger entry (meta-table value): the
  /// staged checkins and finishes — the parts whose loss would break
  /// atomicity. acquired_locks stay volatile (locks die with the
  /// process anyway).
  static std::string EncodePreparedStage(const PreparedTxn& entry);
  static Result<PreparedTxn> DecodePreparedStage(std::string_view payload);
  /// Deletes `txn`'s meta-table entry in its own repository transaction
  /// (Decide(abort), and a commit whose apply failed).
  void ErasePersistedPrepared(TxnId txn);

  storage::Repository* repository_;
  rpc::Network* network_;
  NodeId node_;
  ScopeAuthority* scope_authority_;
  rpc::InvalidationBus* invalidations_;
  const PlacementMap* placement_ = nullptr;

  /// Destruction order matters: the destructor stops the engine FIRST
  /// (joining every executor), so no task can touch parts_ or locks_
  /// while they die.
  mutable PartitionEngine engine_;
  std::vector<std::unique_ptr<Partition>> parts_;
  ServerLockTable locks_;
  /// True from the start of Crash() until Recover() has re-staged the
  /// persisted 2PC ledger. Decide's nothing-staged path consults it:
  /// with a wipe pending, absence from the volatile ledger proves
  /// nothing (FIFO mailboxes order an in-flight decision's lookup
  /// after the wipe task), so acknowledging would be unsound.
  std::atomic<bool> crash_wipe_pending_{false};
};

}  // namespace concord::txn

#endif  // CONCORD_TXN_SERVER_TM_H_
