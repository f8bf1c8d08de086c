#ifndef CONCORD_TXN_CLIENT_TM_H_
#define CONCORD_TXN_CLIENT_TM_H_

#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/ids.h"
#include "common/result.h"
#include "common/status.h"
#include "common/sync.h"
#include "rpc/invalidation.h"
#include "rpc/network.h"
#include "txn/dop_context.h"
#include "txn/dov_cache.h"
#include "txn/server_service.h"
#include "txn/shard_router.h"

namespace concord::txn {

/// Commit-protocol accounting of one client-TM, the coordinator of the
/// envelope 2PC every critical interaction runs (Sect. 5.2).
struct TwoPcStats {
  uint64_t protocols_run = 0;
  uint64_t committed = 0;
  uint64_t aborted = 0;
  /// LAN hops (request + reply per envelope).
  uint64_t messages = 0;
  /// Client-side participant legs, which take the co-located
  /// main-memory path of Sect. 6 (local hops, no LAN messages).
  uint64_t local_fast_paths = 0;
  /// Interactions whose operations spanned more than one server node
  /// (true multi-participant 2PC: phase-1 envelopes + Decide fan-out),
  /// vs. the single-node degenerate case that folds both legs into one
  /// envelope.
  uint64_t multi_node_protocols = 0;
  /// Participant envelopes shipped by the multi-node path (phase 1 and
  /// phase 2 combined) — each is one server round trip.
  uint64_t participant_envelopes = 0;
};

struct ClientTmStats {
  /// DOPs this client-TM committed (exactly one per DOP, however many
  /// server nodes the End-of-DOP fanned out to — the per-node
  /// ServerTmStats count resolved registrations instead, so a
  /// cross-shard DOP bumps several of those).
  uint64_t dops_committed = 0;
  uint64_t savepoints_taken = 0;
  uint64_t restores = 0;
  uint64_t recovery_points_taken = 0;
  uint64_t suspends = 0;
  uint64_t resumes = 0;
  uint64_t crashes = 0;
  uint64_t dops_recovered = 0;
  uint64_t work_units_lost = 0;
  uint64_t work_units_done = 0;
  uint64_t context_handovers = 0;
  /// Checkouts served from the workstation DOV cache (no server
  /// round-trip) vs. forwarded to the server-TM.
  uint64_t checkouts_from_cache = 0;
  uint64_t checkouts_from_server = 0;
  /// Checkins whose new DOV was inserted into the local cache
  /// (validated for the creating DA), so re-reading one's own checkin
  /// is a hit.
  uint64_t checkin_cache_inserts = 0;
  /// Checkin+commit pairs collapsed into one server round trip.
  uint64_t batched_checkin_commits = 0;
  /// Cache entries re-armed by the post-recovery revalidation batch.
  uint64_t recovery_warmup_checkouts = 0;
  /// Placement-cache entries dropped and re-fetched after a server
  /// answered kWrongShard (the DA migrated under this workstation).
  uint64_t placement_refreshes = 0;
  /// Critical interactions whose operations spanned several server
  /// nodes (ran as true multi-participant 2PC).
  uint64_t cross_shard_interactions = 0;
  /// DOPs begun and not yet committed/aborted (crashed-but-recoverable
  /// DOPs count: they are still open). With the async script engine one
  /// workstation holds many DOPs open at once; the peak gauge is the
  /// concurrency evidence the sim and benches report.
  uint64_t dops_in_flight = 0;
  uint64_t peak_dops_in_flight = 0;
};

/// Client half of the transaction manager: "resides on the workstation
/// managing the internal structure of DOPs" (Sect. 5.1). One ClientTm
/// per workstation. It implements the TE-level facilities of Sect. 4.3
/// (Save/Restore, Suspend/Resume) and the recovery-point machinery of
/// Sect. 5.2, and drives a two-phase commit with the server-TM for
/// every critical interaction (Begin-of-DOP, checkout, checkin,
/// End-of-DOP).
///
/// All server traffic goes through the typed ServerService protocol,
/// routed across the server plane by a ShardRouter: DOV-addressed
/// requests go to the shard encoded in the DOV id, DA-addressed ones
/// to the DA's home node (workstation placement cache, refreshed on
/// kWrongShard). A critical interaction whose operations land on ONE
/// node rides a single [Prepare, ops..., Decide] envelope — one server
/// round trip, the degenerate 2PC. Operations spanning several nodes
/// run the true multi-participant protocol: one [Prepare, ops...]
/// phase-1 envelope per participant (effects staged in the server's
/// 2PC ledger), then a [Decide] fan-out that commits everywhere or
/// nowhere. The client-TM neither includes nor stores a ServerTm.
///
/// It also owns the workstation's DOV cache: a Checkout whose DOV is
/// cached and validated for the DOP's DA is served locally with no
/// server round-trip (DOVs are immutable, so the bytes are always
/// right; validation covers visibility). Misses run the full envelope
/// as before and re-arm the cache; a Checkin inserts the newly created
/// version validated for the creating DA, so re-reading one's own
/// checkin hits. When an InvalidationBus is wired up, server-pushed
/// withdrawals/invalidations drop cache entries, so a withdrawn
/// version is never served locally; without a bus the cache still
/// works but relies on crashes/evictions only — embedders that use the
/// cooperation manager's withdrawal machinery must connect the bus.
///
/// Thread-safe: every public operation takes the (recursive) TM mutex,
/// so script-engine executor threads may drive concurrent DOPs of the
/// same workstation. Interactions serialize at DOP-operation
/// granularity — the paper's client-TM is one workstation process —
/// while tool processing between operations overlaps freely.
class ClientTm {
 public:
  /// Single-server plane: every envelope goes to `service`.
  ClientTm(ServerService* service, rpc::Network* network, NodeId workstation,
           SimClock* clock, rpc::InvalidationBus* invalidations = nullptr);
  /// Sharded plane: envelopes route through `router`.
  ClientTm(ShardRouter router, rpc::Network* network, NodeId workstation,
           SimClock* clock, rpc::InvalidationBus* invalidations = nullptr);
  ~ClientTm();
  ClientTm(const ClientTm&) = delete;
  ClientTm& operator=(const ClientTm&) = delete;

  NodeId node() const { return node_; }

  /// Recovery points are taken automatically after this many units of
  /// tool work (0 disables automatic points; checkout-triggered points
  /// are always taken, per Sect. 5.2).
  void set_auto_recovery_interval(uint64_t units) { auto_rp_units_ = units; }

  /// When on (the default), CheckinCommit ships checkin + derivation-
  /// lock release as ONE BatchRequest envelope (one server round trip);
  /// off, it degrades to the sequential Checkin(); CommitDop() pair —
  /// the ablation knob for the batching experiments.
  void set_batching(bool on) { batching_ = on; }
  bool batching() const { return batching_; }

  /// When on (the default), Recover() revalidates every recovered
  /// recovery point's inputs with one BatchRequest and re-warms the
  /// DOV cache from the replies; off, the cache restarts cold.
  void set_warm_cache_on_recovery(bool on) { warm_cache_on_recovery_ = on; }

  // --- DOP lifecycle -------------------------------------------------

  /// Begin-of-DOP: registers the DOP here and at the server (2PC).
  Result<DopId> BeginDop(DaId da);

  /// Checkout of an input version into the DOP context. Always followed
  /// by a recovery point "to avoid duplicate requests of a DOV from
  /// the server in the case of a failure".
  Status Checkout(DopId dop, DovId dov, bool take_derivation_lock = false);

  /// Read access to a checked-out input.
  Result<storage::DesignObject> Input(DopId dop, DovId dov) const;
  std::vector<DovId> CheckedOut(DopId dop) const;

  /// Tool-side working state.
  Status PutWorkspace(DopId dop, const std::string& key,
                      storage::DesignObject object);
  Result<storage::DesignObject> GetWorkspace(DopId dop,
                                             const std::string& key) const;

  /// Records `units` of tool work (advances the work counter and
  /// possibly takes an automatic recovery point).
  Status DoWork(DopId dop, uint64_t units);

  // --- Designer-visible structuring (Sect. 4.3) -----------------------

  Status Save(DopId dop, const std::string& savepoint_name);
  Status Restore(DopId dop, const std::string& savepoint_name);
  Status Suspend(DopId dop);
  Status Resume(DopId dop);

  /// Takes an explicit (system) recovery point.
  Status TakeRecoveryPoint(DopId dop);

  /// Hands the in-memory context of a finished (committed) DOP over to
  /// a successor DOP on the same workstation. The paper allows this
  /// data-flow shortcut explicitly: "in quite a number of cases ...
  /// the in-memory data structure can be handed over from one DOP to
  /// the succeeding DOP" (Sect. 5, fn. 1), so the successor need not
  /// re-checkout what the predecessor had loaded. The successor gets a
  /// recovery point immediately (the handed-over state must survive a
  /// crash exactly like a checkout would).
  Status HandOverContext(DopId from, DopId to);

  // --- End-of-DOP ------------------------------------------------------

  /// Checkin of the derived version (its own ACID unit against the
  /// repository, under 2PC with the server). On integrity failure the
  /// DOP stays active and the caller sees the "checkin failure".
  Result<DovId> Checkin(DopId dop, storage::DesignObject object,
                        const std::vector<DovId>& predecessors);

  /// Checkin immediately followed by End-of-DOP commit. With batching
  /// on, both ride ONE envelope: the server executes checkin and
  /// derivation-lock release in order (a failed checkin skips the
  /// commit, so the DOP stays active exactly as with the sequential
  /// pair) and the workstation pays a single round trip.
  Result<DovId> CheckinCommit(DopId dop, storage::DesignObject object,
                              const std::vector<DovId>& predecessors);

  /// Commit: releases server-side locks, then removes savepoints and
  /// recovery points (Sect. 5.2 ordering).
  Status CommitDop(DopId dop);
  Status AbortDop(DopId dop);

  Result<DopState> StateOf(DopId dop) const;
  Result<uint64_t> WorkDone(DopId dop) const;

  // --- Failure handling -----------------------------------------------

  /// Workstation crash: all volatile DOP state (contexts, savepoints)
  /// is lost; recovery points survive on local stable storage.
  void Crash();
  /// Restart: re-establishes each crashed DOP from its most recent
  /// recovery point ("partial rollback to recovery points"). Returns
  /// the total units of work lost.
  Result<uint64_t> Recover();

  /// Snapshot under the TM mutex: executor threads drive concurrent
  /// DOPs, so a reference into the live struct would race the mutators.
  ClientTmStats stats() const {
    RecursiveMutexLock lock(&mu_);
    return stats_;
  }
  TwoPcStats two_pc_stats() const {
    RecursiveMutexLock lock(&mu_);
    return two_pc_stats_;
  }
  DovCache& cache() { return cache_; }
  const DovCache& cache() const { return cache_; }

 private:
  struct DopRuntime {
    DaId da;
    DopState state = DopState::kActive;
    DopContext context;                 // volatile
    std::vector<Savepoint> savepoints;  // volatile
    uint64_t work_at_last_rp = 0;
    /// Server nodes this DOP is registered at (home node at Begin-of-
    /// DOP, plus every node a cross-shard checkout enlisted). End-of-
    /// DOP fans out to exactly these participants.
    std::vector<NodeId> participants;
  };

  /// One operation plus the server node it routes to.
  struct RoutedOp {
    NodeId node;
    ServerRequest op;
  };

  Result<DopRuntime*> ActiveDop(DopId dop) REQUIRES(mu_);
  /// Fresh interaction (2PC transaction) id, namespaced by workstation
  /// like DOP ids — the server's prepared-transaction ledger keys on
  /// it, so two interactions must never share one.
  TxnId NextTxnId() REQUIRES(mu_);
  bool Enlisted(const DopRuntime& runtime, NodeId node) const;
  /// One critical interaction client<->server plane. Ops landing on a
  /// single node ride one [Prepare, ops..., Decide] envelope (one
  /// round trip). Ops spanning nodes run true multi-participant 2PC:
  /// a [Prepare, ops...] envelope per participant (staged server-
  /// side), then a [Decide] fan-out — commit only when every
  /// participant was reachable and, for dependent chains, every
  /// operation succeeded. Returns the replies in the original op
  /// order; ops on an unreachable participant carry kUnavailable.
  /// Non-OK only when the protocol could not complete at all.
  /// `independent` declares the ops unrelated: no cross-node
  /// atomicity, each participant gets its own degenerate envelope.
  Result<BatchReply> RunCriticalInteraction(TxnId txn,
                                            std::vector<RoutedOp> ops,
                                            bool independent = false)
      REQUIRES(mu_);
  /// One participant's envelope carrying `ops[indices...]` (moved
  /// out), in order: [Prepare, ops...] — phase 1 of a multi-participant
  /// 2PC — or, `with_decide`, the degenerate [Prepare, ops...,
  /// Decide(commit)] in which both legs ride one round trip.
  static BatchRequest ParticipantEnvelope(TxnId txn,
                                          std::vector<RoutedOp>& ops,
                                          const std::vector<size_t>& indices,
                                          bool independent, bool with_decide);
  /// The multi-participant leg of RunCriticalInteraction.
  Result<BatchReply> RunMultiNodeInteraction(
      TxnId txn, const std::vector<NodeId>& participants,
      const std::vector<std::vector<size_t>>& op_indices,
      std::vector<RoutedOp>& ops, bool independent) REQUIRES(mu_);
  /// Shared checkin routing: resolves the DA's home (two attempts —
  /// a kWrongShard reply refreshes the placement cache and reroutes),
  /// piggybacks enlistment, and optionally appends the End-of-DOP
  /// commit legs for every participant (the batched CheckinCommit).
  /// On success with `with_commit` the DOP is finished client-side.
  Result<DovId> RoutedCheckin(DopId dop, DopRuntime* runtime,
                              storage::DesignObject object,
                              const std::vector<DovId>& predecessors,
                              bool with_commit) REQUIRES(mu_);
  /// End-of-DOP commit bookkeeping shared by CommitDop/CheckinCommit.
  void FinishCommitted(DopId dop, DopRuntime* runtime) REQUIRES(mu_);
  /// Inserts a freshly checked-in version into the DOV cache,
  /// validated for the creating DA.
  void CacheOwnCheckin(const DopRuntime& runtime, DopId dop, DovId dov,
                       storage::DesignObject object,
                       const std::vector<DovId>& predecessors,
                       SimTime created_at) REQUIRES(mu_);
  /// One-envelope revalidation of the recovered contexts' inputs.
  void WarmCacheFromRecoveredContexts(const std::vector<DopId>& recovered)
      REQUIRES(mu_);
  void PersistRecoveryPoint(DopId dop, const DopRuntime& runtime)
      REQUIRES(mu_);

  ShardRouter router_;
  rpc::Network* network_;
  NodeId node_;
  SimClock* clock_;
  rpc::InvalidationBus* invalidations_;
  /// Serializes public operations against each other (executor threads
  /// drive concurrent DOPs). Recursive: operations compose (e.g.
  /// CheckinCommit without batching runs Checkin + CommitDop).
  mutable RecursiveMutex mu_;

  IdGenerator<DopId> dop_gen_ GUARDED_BY(mu_);
  IdGenerator<TxnId> txn_gen_ GUARDED_BY(mu_);
  /// Config knobs: set before traffic, unguarded by design.
  uint64_t auto_rp_units_ = 0;
  bool batching_ = true;
  bool warm_cache_on_recovery_ = true;

  /// Workstation DOV cache (volatile: dropped at Crash()). The
  /// invalidation-bus handler mutates it from the server's thread; the
  /// cache synchronizes itself.
  DovCache cache_;

  std::unordered_map<DopId, DopRuntime> dops_ GUARDED_BY(mu_);  // volatile
  /// Stable storage: latest recovery point per DOP + the DOP's DA (so
  /// recovery can re-register with the server).
  std::map<uint64_t, std::pair<DaId, RecoveryPoint>> stable_rp_
      GUARDED_BY(mu_);
  uint64_t rp_sequence_ GUARDED_BY(mu_) = 0;

  ClientTmStats stats_ GUARDED_BY(mu_);
  /// Per-interaction commit-protocol accounting (the protocol itself
  /// rides the service envelope).
  TwoPcStats two_pc_stats_ GUARDED_BY(mu_);
};

}  // namespace concord::txn

#endif  // CONCORD_TXN_CLIENT_TM_H_
