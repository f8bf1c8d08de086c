#ifndef CONCORD_SIM_SCALE_HARNESS_H_
#define CONCORD_SIM_SCALE_HARNESS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/random.h"
#include "common/status.h"
#include "common/sync.h"
#include "core/server_plane.h"

namespace concord::sim {

/// One deterministic seed governs everything: the plane generator, the
/// per-workstation traffic mixes, and the chaos schedule (which node
/// crashes when, which DA migrates where). Replaying a failed run is
/// `CONCORD_SEED=<n>` — see docs/SCALE.md.
struct ScaleConfig {
  uint64_t seed = 42;

  // Plane shape.
  size_t server_nodes = 4;
  int partitions = 2;
  size_t workstations = 8;

  // Generator: `dovs` committed versions spread over `das` design
  // activities (Zipf-hot selection, exponent `zipf_s`), derivation
  // chains up to `chain_depth` deep with occasional branches.
  size_t das = 32;
  size_t dovs = 100000;
  size_t chain_depth = 64;
  double branch_probability = 0.15;
  double zipf_s = 1.1;
  /// Propagated versions pre-established per DA so cross-DA (and thus
  /// cross-shard) checkouts have material from the first op on.
  size_t propagated_per_da = 8;

  // Traffic: DOP attempts per workstation thread.
  size_t ops_per_workstation = 1500;
  double abort_probability = 0.15;
  double derivation_lock_probability = 0.2;
  double cross_da_checkout_probability = 0.35;
  /// Probability a traffic op is a cooperation op (propagate /
  /// withdraw / invalidate-and-replace) instead of a DOP.
  double cm_op_probability = 0.04;
  /// Probability of a deliberate probe checkout of a retired
  /// (withdrawn/invalidated) DOV — the live cache-coherence test: such
  /// a checkout must never be served from the workstation cache.
  double probe_probability = 0.03;

  // Chaos schedule.
  double loss_probability = 0.05;
  size_t crash_cycles = 3;          ///< rolling server-node crash/recover
  size_t workstation_crashes = 2;   ///< workstation kill/recover cycles
  size_t migrations = 1;            ///< MigrateDa churn events
  size_t checkpoints = 4;           ///< periodic Checkpoint() sweeps
  /// WAL records allowed to remain right after a checkpoint truncation
  /// (only appends racing the checkpoint should survive it).
  size_t wal_bound = 50000;
};

/// Violation classes the checker can report.
enum class ViolationClass {
  kLostCommit,           ///< acked committed DOV missing or corrupted
  kResurrectedVersion,   ///< withdrawn/invalidated flag flipped back
  kAtomicityViolation,   ///< acked DOP still half-applied on a participant
  kCacheCoherence,       ///< retired DOV served from a workstation cache
  kDuplicateId,          ///< DOV id reissued across recoveries
  kWalUnbounded,         ///< WAL not truncated by checkpoint
};

const char* ViolationClassName(ViolationClass c);

struct Violation {
  ViolationClass klass;
  std::string detail;
};

class ScalePlane;

/// Always-on invariant checker: traffic threads record every acked
/// effect (commits, withdrawals, probe observations) as they happen;
/// the chaos driver cross-examines those records against authoritative
/// server/repository state at checkpoints (skipping crashed nodes) and
/// at end-of-run (after recovering everything). Thread-safe.
class InvariantChecker {
 public:
  struct AckedCommit {
    size_t ws;
    DopId dop;
    DovId dov;
    int64_t value;
    DaId da;
    std::vector<size_t> participants;  ///< shard indexes the DOP touched
  };

  /// Monotone event sequence: ordering witness between retirements and
  /// checkout observations (no wall clock — the schedule is seeded).
  uint64_t CurrentSeq() const { return seq_.load(std::memory_order_acquire); }

  /// Records a client-acked committed checkin. Flags kDuplicateId
  /// immediately if the DOV id was already acked (an id reissued
  /// across a recovery would collide here).
  void RecordAckedCommit(AckedCommit acked);

  /// Records a propagation retirement the CM acked. `invalidated`
  /// distinguishes InvalidateAndReplace from WithdrawPropagation.
  /// `armed` marks retirements whose invalidation push provably
  /// reached every live workstation cache (publisher and subscribers
  /// up) — only armed retirements participate in the coherence check.
  void RecordRetired(DovId dov, bool invalidated, bool armed);

  /// Online cache-coherence check: a checkout of `dov` served from the
  /// workstation cache is a violation iff the DOV was retired-and-armed
  /// before the op started (seq ordering excludes the in-flight race),
  /// the workstation has not crashed since the retirement (a crash
  /// wipes the cache's never-invalidated memory), and the server has
  /// not re-validated the DOV for this workstation since the
  /// retirement. The last exclusion is load-bearing: a withdrawal only
  /// revokes the *requiring* DA's visibility, so the owning DA may
  /// legitimately check the version back out from the server — the
  /// authoritative scope test runs there — and that round trip re-arms
  /// the cache. Server-served observations (from_cache=false) are
  /// therefore recorded as (ws, dov) re-validation points; each
  /// workstation is driven by a single thread, so a cache hit always
  /// follows its enabling server round trip in this order.
  void NoteCheckoutObservation(size_t ws, DovId dov, bool from_cache,
                               uint64_t seq_at_op_start);

  /// Sequence-stamps a workstation crash (see NoteCheckoutObservation).
  void NoteWorkstationCrash(size_t ws);

  /// WAL-bound check, fed after each Checkpoint() with the surviving
  /// record count.
  void NoteWalSize(size_t shard, size_t records_after_checkpoint,
                   size_t bound);

  /// Cross-examines all records against the plane. With `only_up_nodes`
  /// the scan skips crashed shards (checkpoint mode); the end-of-run
  /// scan recovers everything first and passes false.
  void VerifyAgainst(ScalePlane* plane, bool only_up_nodes);

  /// Random retired DOV for probe checkouts (invalid id when none yet).
  DovId SampleRetired(uint64_t entropy) const;

  std::vector<Violation> violations() const;
  size_t violation_count() const;
  size_t violation_count(ViolationClass c) const;
  size_t acked_commits() const;

 private:
  void AddViolation(ViolationClass c, std::string detail) REQUIRES(mu_);
  /// Same, but keyed: repeated VerifyAgainst scans report one broken
  /// id once, not once per scan. Returns whether it was new.
  bool AddViolationOnce(ViolationClass c, uint64_t key, std::string detail)
      REQUIRES(mu_);

  struct Retired {
    bool invalidated = false;
    bool armed = false;
    uint64_t seq = 0;
  };

  mutable Mutex mu_;
  std::atomic<uint64_t> seq_{1};
  std::vector<AckedCommit> acked_ GUARDED_BY(mu_);
  std::set<uint64_t> acked_ids_ GUARDED_BY(mu_);
  std::map<uint64_t, Retired> retired_ GUARDED_BY(mu_);
  std::vector<uint64_t> retired_order_ GUARDED_BY(mu_);
  std::map<size_t, uint64_t> ws_crash_seq_ GUARDED_BY(mu_);
  /// Last sequence point at which the server (re-)served (ws, dov) —
  /// an authoritative scope decision that legitimizes later cache hits.
  std::map<std::pair<size_t, uint64_t>, uint64_t> server_validated_
      GUARDED_BY(mu_);
  std::set<std::pair<size_t, uint64_t>> reported_ GUARDED_BY(mu_);
  std::vector<Violation> violations_ GUARDED_BY(mu_);
  size_t counts_[6] GUARDED_BY(mu_) = {0, 0, 0, 0, 0, 0};
};

/// The full multi-node plane the harness drives: a core::ServerPlane of
/// at least two nodes carrying the harness's cell/chip schema, with one
/// workstation (ws0..wsN) per designer thread.
class ScalePlane : public core::ServerPlane {
 public:
  explicit ScalePlane(const ScaleConfig& config);

  DotId root_dot() const { return root_dot_; }
  DotId cell_dot() const { return cell_dot_; }

 private:
  DotId root_dot_;
  DotId cell_dot_;
};

/// End-of-run report (the bench serializes this into
/// BENCH_scale_chaos.json).
struct ScaleResult {
  uint64_t seed = 0;
  size_t dovs_generated = 0;
  size_t das = 0;
  size_t ops_attempted = 0;
  size_t acked_commits = 0;
  size_t aborts = 0;
  size_t op_errors = 0;  ///< tolerated failures (crash windows, denials)
  size_t cm_ops = 0;
  size_t probe_checkouts = 0;
  size_t crash_cycles_done = 0;
  size_t workstation_crashes_done = 0;
  size_t migrations_done = 0;
  size_t checkpoints_done = 0;
  size_t wal_records_after_last_checkpoint = 0;
  size_t prepared_residue = 0;  ///< orphaned 2PC stages left at the end
  double wall_seconds = 0.0;
  double throughput_ops_per_sec = 0.0;
  double checkin_p50_us = 0.0;
  double checkin_p95_us = 0.0;
  double checkin_p99_us = 0.0;
  std::vector<Violation> violations;
  size_t violations_total = 0;
  size_t violations_by_class[6] = {0, 0, 0, 0, 0, 0};
};

/// Generator + traffic driver + chaos scheduler + checker, wired
/// together over one ScalePlane. Run() executes the whole scenario:
/// generate the plane, start the designer threads, run the seeded
/// chaos schedule to completion, quiesce, recover everything and run
/// the final full-plane verification.
class ScaleHarness {
 public:
  explicit ScaleHarness(const ScaleConfig& config);
  ~ScaleHarness();

  /// Phase 1: materialize the design plane (DA hierarchy through the
  /// CM, DOV derivation chains bulk-loaded per shard in parallel,
  /// cooperation relationships + initial propagations). Idempotent
  /// guard: call once.
  void Generate();

  /// Phases 2-4: mixed traffic + chaos schedule + final verification.
  /// Calls Generate() first if it has not run yet.
  ScaleResult Run();

  ScalePlane& plane() { return plane_; }
  InvariantChecker& checker() { return checker_; }

 private:
  struct DaState;

  void TrafficThread(size_t ws, std::vector<double>* checkin_latencies_us);
  void ChaosThread();
  void RunDopOnce(size_t ws, Rng* rng, std::vector<double>* latencies);
  void RunCmOpOnce(size_t ws, Rng* rng);
  void RunProbeOnce(size_t ws, Rng* rng);
  size_t ZipfPick(Rng* rng) const;
  void CheckpointSweep();
  void FinalVerify();

  ScaleConfig config_;
  ScalePlane plane_;
  InvariantChecker checker_;

  std::vector<std::unique_ptr<DaState>> da_states_;
  std::vector<double> zipf_cdf_;
  std::atomic<bool> stop_traffic_{false};
  std::atomic<size_t> ops_attempted_{0};
  std::atomic<size_t> aborts_{0};
  std::atomic<size_t> op_errors_{0};
  std::atomic<size_t> cm_ops_{0};
  std::atomic<size_t> probes_{0};
  std::atomic<size_t> traffic_done_{0};
  bool generated_ = false;
  size_t dovs_generated_ = 0;

  // Chaos bookkeeping (chaos thread only, read at report time).
  size_t crash_cycles_done_ = 0;
  size_t workstation_crashes_done_ = 0;
  size_t migrations_done_ = 0;
  size_t checkpoints_done_ = 0;
  size_t last_checkpoint_wal_records_ = 0;
};

/// Serializes a result into the BENCH_scale_chaos.json shape (one key
/// per line — tools/check_scale_chaos.sh greps `violations_total`).
std::string ScaleResultJson(const ScaleResult& result);

}  // namespace concord::sim

#endif  // CONCORD_SIM_SCALE_HARNESS_H_
