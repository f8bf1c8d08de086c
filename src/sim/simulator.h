#ifndef CONCORD_SIM_SIMULATOR_H_
#define CONCORD_SIM_SIMULATOR_H_

#include <string>
#include <vector>

#include "core/concord_system.h"
#include "sim/metrics.h"

namespace concord::sim {

/// Configuration of a multi-designer simulation run.
struct SimulationOptions {
  /// Number of concurrent top-level designs (one designer/workstation
  /// each).
  int designs = 4;
  /// Behavioral complexity of each design (module count after
  /// synthesis).
  int complexity = 6;
  /// Probability that a given workstation crashes after any step of its
  /// design manager (crash + immediate recovery).
  double workstation_crash_probability = 0.0;
  /// Probability of a server crash between scheduler rounds.
  double server_crash_probability = 0.0;
  uint64_t seed = 42;
  /// Server-plane width (see SystemConfig::server_nodes): with N >= 2
  /// the CM shards the designs' DAs across N server nodes and the
  /// report carries per-node round-trip counts.
  int server_nodes = 1;
  /// Executor partitions per server node (see
  /// SystemConfig::partitions_per_node); with K >= 2 the report carries
  /// the coordinator's per-partition checkout split.
  int partitions_per_node = 1;
};

/// Outcome of a simulation run.
struct SimulationReport {
  int designs_completed = 0;
  int designs_failed = 0;
  int workstation_crashes = 0;
  int server_crashes = 0;
  uint64_t dops_committed = 0;
  uint64_t scheduler_steps = 0;
  /// Simulated wall time at the end of the run.
  SimTime sim_time = 0;
  /// TE-level work lost to crashes (units).
  uint64_t work_units_lost = 0;
  /// Checkouts served from the workstation DOV caches vs. forwarded to
  /// the server-TM, plus invalidation pushes delivered — the hot-read-
  /// path split the cache layer introduces.
  uint64_t checkouts_from_cache = 0;
  uint64_t checkouts_from_server = 0;
  uint64_t cache_invalidations_delivered = 0;
  /// ServerService envelopes shipped over the transactional RPC (one
  /// per critical client/server-TM interaction — batching collapses
  /// checkin+commit pairs into one), plus the transport's retry work.
  uint64_t rpc_calls = 0;
  uint64_t rpc_retries = 0;
  /// Checkin+commit pairs that rode a single batched envelope.
  uint64_t batched_checkin_commits = 0;
  /// Round trips (logical RPC calls) per server node, shard order —
  /// the plane's load split. One entry for the single-server system.
  std::vector<uint64_t> per_node_round_trips;
  /// Interactions that spanned shards (true multi-participant 2PC)
  /// and placement-cache refreshes after DA migrations.
  uint64_t cross_shard_interactions = 0;
  uint64_t placement_refreshes = 0;
  /// Server-side traffic totals, aggregated ON READ from the TMs'
  /// per-partition counter slices (the hot path only ever bumps its
  /// own partition's cache line).
  uint64_t server_checkouts = 0;
  uint64_t server_checkins = 0;
  /// Operations whose choreography spanned executor partitions.
  uint64_t cross_partition_ops = 0;
  /// Coordinator node's checkout count per executor partition
  /// (partition order; one entry for the single-executor system).
  std::vector<uint64_t> per_partition_checkouts;

  std::string ToString() const;
};

/// Drives several independent design activities "in parallel" (round-
/// robin over their design managers, one atomic step each) against one
/// shared server, optionally injecting workstation and server crashes.
/// This is the workstation/server workload of Sect. 5.1 at small scale;
/// the shared SimClock gives the team's concurrent-engineering
/// turnaround.
class MultiDesignerSimulation {
 public:
  explicit MultiDesignerSimulation(SimulationOptions options);

  /// Runs to completion (every design finished or failed). The system
  /// stays alive afterwards for inspection.
  Result<SimulationReport> Run();

  core::ConcordSystem& system() { return *system_; }
  const std::vector<DaId>& das() const { return das_; }

 private:
  SimulationOptions options_;
  std::unique_ptr<core::ConcordSystem> system_;
  Rng crash_rng_;
  std::vector<DaId> das_;
};

}  // namespace concord::sim

#endif  // CONCORD_SIM_SIMULATOR_H_
