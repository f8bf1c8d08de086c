#ifndef CONCORD_BENCH_E2E_HARNESS_H_
#define CONCORD_BENCH_E2E_HARNESS_H_

// The closed-loop load model shared by every workload: designer
// threads that issue their next operation only when the previous one
// returned, the per-run bookkeeping they fill, and the Workload
// interface the four workloads implement.

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/e2e/probes.h"
#include "common/random.h"
#include "common/status.h"
#include "storage/object.h"

namespace concord::bench_e2e {

struct Flags {
  std::string workload;
  uint64_t seed = 1;
  /// Length of the measured window.
  double seconds = 20.0;
  bool trace = false;
  /// Per-run JSON results, traces and the data directories go here.
  std::string out = "build-e2e/out";
};

/// Designer threads of every workload (the load model, sized for a
/// 4-core host: two closed loops leave the server threads room).
inline constexpr size_t kDesigners = 2;
/// Discarded warm-up before the measured window.
inline constexpr double kWarmupSeconds = 2.0;
/// Set-ups per run — at least kMinSetups, more while they took under
/// kSetupBudgetSeconds in total (cheap set-ups need many samples for a
/// steady median), at most kMaxSetups. setup_s is their median.
inline constexpr int kMinSetups = 3;
inline constexpr int kMaxSetups = 100;
inline constexpr double kSetupBudgetSeconds = 2.0;

inline Status StatusOf(const Status& status) { return status; }
template <typename T>
Status StatusOf(const Result<T>& result) {
  return result.status();
}

/// The "value" attribute of a plane object, or -1 when absent.
inline int64_t ValueOf(const storage::DesignObject& object) {
  auto value = object.GetAttr("value");
  return value.ok() && value->is_int() ? value->as_int() : -1;
}

/// Correctness bookkeeping: every comparison the run makes counts as a
/// check; the first few failure messages are kept for the log.
class Checks {
 public:
  /// `what` (plus `id` when non-zero) is formatted only on failure.
  void Expect(bool ok, const char* what, uint64_t id = 0) {
    ++performed_;
    if (ok) return;
    ++failed_;
    Log(id == 0 ? std::string(what) : std::string(what) + " " + std::to_string(id));
  }
  void Log(std::string message) {
    if (log_.size() < 8) log_.push_back(std::move(message));
  }
  void Merge(const Checks& other) {
    performed_ += other.performed_;
    failed_ += other.failed_;
    for (const std::string& message : other.log_) Log(message);
  }
  uint64_t performed() const { return performed_; }
  uint64_t failed() const { return failed_; }
  const std::vector<std::string>& log() const { return log_; }

 private:
  uint64_t performed_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> log_;
};

/// Run timeline: warm-up, then the measured window.
struct Window {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  bool Contains(int64_t from, int64_t to) const {
    return from >= start_ns && to <= end_ns;
  }
  /// One-second slices of the window (the last one may be partial).
  size_t slices() const {
    return static_cast<size_t>((end_ns - start_ns + kSliceNs - 1) / kSliceNs);
  }
  size_t SliceOf(int64_t t) const {
    return static_cast<size_t>((t - start_ns) / kSliceNs);
  }
};

/// One closed-loop designer. Owned and driven by one thread; nothing
/// here is shared.
class Designer {
 public:
  Designer(size_t index, uint64_t seed, Window window,
           const TraceSchedule* schedule)
      : index_(index),
        rng_(seed * 0x9e3779b97f4a7c15ULL ^ (index + 1)),
        window_(window),
        schedule_(schedule),
        dop_us_by_slice_(window.slices()) {}

  size_t index() const { return index_; }
  Rng& rng() { return rng_; }
  Checks& checks() { return checks_; }
  DesignerTrace& trace() { return trace_; }

  /// Begin-of-DOP from the designer's view: DOP latency runs from here
  /// to EndDop, and the DOP is traced iff it starts in a traced slice.
  void StartDop() {
    dop_start_ = NowNs();
    StartUnit(dop_start_);
  }

  /// `committed`: the DOP ended with an acknowledged commit.
  void EndDop(bool committed) {
    int64_t end = NowNs();
    trace_.active = false;
    if (!committed || !window_.Contains(dop_start_, end)) return;
    dop_us_by_slice_[window_.SliceOf(dop_start_)].push_back(
        static_cast<double>(end - dop_start_) / 1e3);
  }

  /// Runs `fn` as one timed designer operation. Cooperation ops run
  /// outside any DOP and are their own trace unit.
  template <typename F>
  auto Op(OpKind kind, F&& fn) {
    int64_t start = NowNs();
    if (IsCoopOp(kind)) StartUnit(start);
    uint32_t first_envelope = static_cast<uint32_t>(trace_.envelopes.size());
    auto result = fn();
    int64_t end = NowNs();
    Status status = StatusOf(result);
    ++attempted_;
    if (!status.ok()) {
      ++failed_;
      checks_.Log(std::string(kOpKindNames[static_cast<size_t>(kind)]) +
                  " failed: " + status.ToString());
    }
    if (window_.Contains(start, end)) {
      op_us_[static_cast<size_t>(kind)].push_back(
          static_cast<double>(end - start) / 1e3);
    }
    if (trace_.active) {
      OpSpan span;
      span.kind = kind;
      span.unit_seq = unit_seq_;
      span.unit_start = unit_start_;
      span.start = start;
      span.end = end;
      span.first_envelope = first_envelope;
      span.envelope_count =
          static_cast<uint32_t>(trace_.envelopes.size()) - first_envelope;
      trace_.ops.push_back(span);
    }
    if (IsCoopOp(kind)) trace_.active = false;
    return result;
  }

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  std::vector<double>& op_us(OpKind kind) {
    return op_us_[static_cast<size_t>(kind)];
  }
  /// Latencies of the committed in-window DOPs, by the one-second slice
  /// they started in (in a traced run, odd slices are the traced ones).
  const std::vector<std::vector<double>>& dop_us_by_slice() const {
    return dop_us_by_slice_;
  }

 private:
  void StartUnit(int64_t start) {
    ++unit_seq_;
    unit_start_ = start;
    trace_.active = schedule_ != nullptr && schedule_->ClientTraced(start);
  }

  const size_t index_;
  Rng rng_;
  const Window window_;
  const TraceSchedule* schedule_;
  Checks checks_;
  DesignerTrace trace_;
  int64_t dop_start_ = 0;
  uint64_t unit_seq_ = 0;
  int64_t unit_start_ = 0;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::array<std::vector<double>, kOpKinds> op_us_;
  std::vector<std::vector<double>> dop_us_by_slice_;
};

/// Raw counters read from the system's public stats() structs at the
/// window edges. Per-layer ratios divide the window's deltas.
struct Counters {
  double envelopes = 0;
  double dops_committed = 0;
  double cross_shard_interactions = 0;
  double cache_hits = 0;
  double cache_misses = 0;
  double cache_evictions = 0;
  double cache_invalidations = 0;
  double channel_retries = 0;
  double channel_timeouts = 0;
  double dedup_hits = 0;
  double txns_prepared = 0;
  double txns_decided_abort = 0;
  double cross_partition_ops = 0;
  double pipelined_ops = 0;
  double derivation_locks = 0;
  double derivation_conflicts = 0;
  double wal_flushes = 0;
  double wal_records = 0;
  double wal_bytes = 0;
  double repo_txns = 0;
  double dovs_written = 0;
  double bus_deliveries = 0;
  double sim_messages = 0;
  /// Executor tasks, [shard][partition].
  std::vector<std::vector<double>> partition_tasks;
  /// Deepest any partition mailbox got (lifetime high-water mark, so
  /// not a delta).
  double queue_high_water = 0;

  Counters DeltaSince(const Counters& before) const;
};

/// One workload: a plane, its seeding, and one designer cycle.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds and seeds a fresh plane. Timed: setup_s.
  virtual Status Setup() = 0;
  /// Destroys the plane built by Setup (between repeated set-ups and
  /// at the end of the run) and removes its data.
  virtual void Teardown() = 0;
  /// One closed-loop cycle of designer `d` (one DOP for most
  /// workloads).
  virtual void Cycle(Designer& d) = 0;
  virtual Counters Snapshot() = 0;
  /// Post-window correctness checks (read-back, durability, cache
  /// coherence, id namespaces).
  virtual void Verify(Checks& checks) = 0;
  /// Server RPC worker threads across all shards (0 when the plane has
  /// no socket servers), for the dispatch busy ratio.
  virtual size_t server_workers() const = 0;
  /// Directory a disk probe may write into.
  virtual std::string data_dir() const = 0;
};

/// Creates the named workload, or null for an unknown name. `sink`
/// (trace runs) receives the server handler spans.
std::unique_ptr<Workload> MakeWorkload(const Flags& flags,
                                       ServerSpanSink* sink);

}  // namespace concord::bench_e2e

#endif  // CONCORD_BENCH_E2E_HARNESS_H_
