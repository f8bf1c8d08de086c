#include "sim/simulator.h"

#include <sstream>

#include "common/logging.h"
#include "common/strings.h"
#include "sim/scenarios.h"

namespace concord::sim {

std::string SimulationReport::ToString() const {
  std::ostringstream os;
  os << designs_completed << " completed, " << designs_failed << " failed; "
     << workstation_crashes << " workstation + " << server_crashes
     << " server crashes; " << dops_committed << " DOPs committed; "
     << work_units_lost << " work units lost; design time "
     << FormatSimTime(sim_time) << "; checkouts " << checkouts_from_cache
     << " cached / " << checkouts_from_server << " server ("
     << cache_invalidations_delivered << " invalidations pushed); "
     << rpc_calls << " server round trips (" << rpc_retries << " retries, "
     << batched_checkin_commits << " batched checkin+commits)";
  if (per_node_round_trips.size() > 1) {
    os << "; per-node round trips [";
    for (size_t i = 0; i < per_node_round_trips.size(); ++i) {
      if (i > 0) os << ", ";
      os << "s" << i << ": " << per_node_round_trips[i];
    }
    os << "] (" << cross_shard_interactions << " cross-shard, "
       << placement_refreshes << " placement refreshes)";
  }
  if (per_partition_checkouts.size() > 1) {
    os << "; server " << server_checkouts << " checkouts / "
       << server_checkins << " checkins across "
       << per_partition_checkouts.size() << " partitions [";
    for (size_t p = 0; p < per_partition_checkouts.size(); ++p) {
      if (p > 0) os << ", ";
      os << "p" << p << ": " << per_partition_checkouts[p];
    }
    os << "] (" << cross_partition_ops << " cross-partition)";
  }
  return os.str();
}

MultiDesignerSimulation::MultiDesignerSimulation(SimulationOptions options)
    : options_(options), crash_rng_(options.seed ^ 0xC0FFEE) {
  core::SystemConfig config;
  config.seed = options_.seed;
  config.time_per_work_unit = kMillisecond;
  config.server_nodes = options_.server_nodes;
  config.partitions_per_node = options_.partitions_per_node;
  system_ = std::make_unique<core::ConcordSystem>(config);
}

Result<SimulationReport> MultiDesignerSimulation::Run() {
  SimulationReport report;

  for (int i = 0; i < options_.designs; ++i) {
    CONCORD_ASSIGN_OR_RETURN(
        DaId da, SetupTopLevelDa(system_.get(), IndexedName("d", i),
                                 options_.complexity, 1e9, 0));
    CONCORD_RETURN_NOT_OK(system_->StartDa(da));
    das_.push_back(da);
  }

  std::vector<bool> done(das_.size(), false);
  std::vector<bool> failed(das_.size(), false);
  size_t remaining = das_.size();
  // Bound the scheduler so tool aborts can't spin forever: each design
  // needs ~a dozen steps; give plenty of slack for crashes and retries.
  const uint64_t step_budget = 10000 * das_.size();

  while (remaining > 0 && report.scheduler_steps < step_budget) {
    for (size_t i = 0; i < das_.size(); ++i) {
      if (done[i]) continue;
      DaId da = das_[i];
      workflow::DesignManager& dm = system_->dm(da);
      ++report.scheduler_steps;

      auto more = dm.Step();
      if (!more.ok()) {
        if (more.status().IsAborted()) {
          // Tool failure: the designer retries (the DM left a retry
          // point). A few retries are normal; persistent failure marks
          // the design failed.
          if (report.scheduler_steps % 97 == 0) continue;
          continue;
        }
        failed[i] = true;
        done[i] = true;
        --remaining;
        ++report.designs_failed;
        continue;
      }
      if (!*more || dm.state() == workflow::DmState::kCompleted) {
        done[i] = true;
        --remaining;
        ++report.designs_completed;
        continue;
      }

      // Workstation crash injection (crash + recovery, the DA carries
      // on with forward recovery).
      if (options_.workstation_crash_probability > 0 &&
          crash_rng_.Chance(options_.workstation_crash_probability)) {
        NodeId ws = (*system_->cm().GetDa(da))->workstation;
        system_->CrashWorkstation(ws);
        CONCORD_RETURN_NOT_OK(system_->RecoverWorkstation(ws));
        ++report.workstation_crashes;
      }
    }
    // Server crash injection between rounds.
    if (options_.server_crash_probability > 0 &&
        crash_rng_.Chance(options_.server_crash_probability)) {
      system_->CrashServer();
      CONCORD_RETURN_NOT_OK(system_->RecoverServer());
      ++report.server_crashes;
    }
  }

  for (size_t shard = 0; shard < system_->server_node_count(); ++shard) {
    report.per_node_round_trips.push_back(
        system_->rpc().CallsTo(system_->server_node_at(shard)));
  }
  report.sim_time = system_->clock().Now();
  for (DaId da : das_) {
    NodeId ws = (*system_->cm().GetDa(da))->workstation;
    // Commit counting is client-side: exactly one per DOP, however
    // many server nodes a cross-shard End-of-DOP fanned out to (each
    // participant's ServerTm counter would count its own leg).
    report.dops_committed += system_->client_tm(ws).stats().dops_committed;
    report.work_units_lost +=
        system_->client_tm(ws).stats().work_units_lost;
    report.checkouts_from_cache +=
        system_->client_tm(ws).stats().checkouts_from_cache;
    report.checkouts_from_server +=
        system_->client_tm(ws).stats().checkouts_from_server;
    report.batched_checkin_commits +=
        system_->client_tm(ws).stats().batched_checkin_commits;
    report.cross_shard_interactions +=
        system_->client_tm(ws).stats().cross_shard_interactions;
    report.placement_refreshes +=
        system_->client_tm(ws).stats().placement_refreshes;
  }
  // Server-side totals aggregate on read: each addend is one
  // partition's private counter slice, summed here and only here.
  for (size_t shard = 0; shard < system_->server_node_count(); ++shard) {
    txn::ServerTmStats node = system_->server_tm_at(shard).stats();
    report.server_checkouts += node.checkouts;
    report.server_checkins += node.checkins;
    report.cross_partition_ops += node.cross_partition_ops;
  }
  txn::ServerTm& coordinator = system_->server_tm();
  for (size_t p = 0; p < coordinator.partition_count(); ++p) {
    report.per_partition_checkouts.push_back(
        coordinator.partition_stats(p).checkouts);
  }
  report.cache_invalidations_delivered =
      system_->invalidation_bus().stats().deliveries;
  report.rpc_calls = system_->rpc().stats().calls;
  report.rpc_retries = system_->rpc().stats().retries;
  if (remaining > 0) {
    return Status::Internal("simulation exceeded its step budget with " +
                            std::to_string(remaining) + " designs open");
  }
  return report;
}

}  // namespace concord::sim
