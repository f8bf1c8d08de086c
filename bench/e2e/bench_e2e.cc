// bench_e2e: wall-clock latency and throughput of a CONCORD designer's
// critical interactions (Begin-of-DOP, checkout, checkin + End-of-DOP
// under 2PC) and cooperation operations, end to end, on four
// workloads; with --trace, a per-layer breakdown measured from the
// bench's own seams (probes.h). See README.md.
//
// Usage:
//   bench_e2e --workload=NAME [--seed=N] [--seconds=S] [--trace[=0|1]]
//             [--out=DIR]
// (the "--flag value" form is accepted too). Prints every metric as
// "name value unit", then one JSON line {correct, attempted, failed,
// metrics}; writes the same run, with every extra timing field, to
// DIR/NAME-seedN-traceT.json, and with --trace a Chrome trace of the
// first 2,000 traced units to DIR/trace_NAME.json. Exit status 1 when
// any correctness check failed, 2 on bad usage.

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/e2e/e2e_stats.h"
#include "bench/e2e/e2e_trace.h"
#include "bench/e2e/harness.h"
#include "bench/e2e/probes.h"

namespace concord::bench_e2e {
namespace {

namespace fs = std::filesystem;

/// Traced units written to the Chrome trace file; designers use lanes
/// (trace-event tids) 0.., server handler threads kServerLaneBase...
constexpr size_t kChromeTraceUnits = 2000;
constexpr uint32_t kServerLaneBase = 100;
/// Stage self times of an op kind must sum to within this share of its
/// root spans.
constexpr double kSelfSumTolerance = 0.10;
constexpr int kFsyncProbeWrites = 200;

// --- Output -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Metrics of one run: `reported` go on the JSON result line (the
/// BENCHMARK.json set for this mode); `extra` only into the run file
/// and the printed lines.
struct Report {
  std::vector<Metric> reported;
  std::vector<Metric> extra;

  void Add(std::string name, double value, std::string unit) {
    reported.push_back({std::move(name), value, std::move(unit)});
  }
  void Extra(std::string name, double value, std::string unit) {
    extra.push_back({std::move(name), value, std::move(unit)});
  }
  /// A timing's p50 (reported or extra) plus its extras: p99, p99.9,
  /// sample count and highest supported percentile.
  void Timing(const std::string& name, std::vector<double>& samples_us,
              bool report_p50) {
    Summary s = Summarize(samples_us);
    (report_p50 ? reported : extra).push_back({name + "_p50_us", s.p50, "us"});
    Extra(name + "_p99_us", s.p99, "us");
    Extra(name + "_p999_us", s.p999, "us");
    Extra(name + "_samples", static_cast<double>(s.n), "count");
    Extra(name + "_supported_pct", s.supported, "pct");
  }
};

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.10g", value);
  return buffer;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string json = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            JsonNumber(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  return json + "}";
}

// --- Arguments --------------------------------------------------------------

bool ParseArgs(int argc, char** argv, Flags* flags) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string name = arg;
    std::string value;
    bool has_value = false;
    size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
      has_value = true;
    } else if (i + 1 < argc &&
               (arg != "--trace" || std::strcmp(argv[i + 1], "0") == 0 ||
                std::strcmp(argv[i + 1], "1") == 0)) {
      value = argv[++i];
      has_value = true;
    }
    if (name == "--workload" && has_value) {
      flags->workload = value;
    } else if (name == "--seed" && has_value) {
      flags->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (name == "--seconds" && has_value) {
      flags->seconds = std::atof(value.c_str());
    } else if (name == "--trace") {
      flags->trace = !has_value || value == "1";
    } else if (name == "--out" && has_value) {
      flags->out = value;
    } else {
      std::fprintf(stderr, "unknown or incomplete flag: %s\n", arg.c_str());
      return false;
    }
  }
  return !flags->workload.empty() && flags->seconds > 0;
}

// --- Probes -----------------------------------------------------------------

/// Peak resident set of this process image (VmHWM). Not getrusage's
/// ru_maxrss: Linux carries that across exec, so it would include the
/// launching process's own footprint.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

/// Median of kFsyncProbeWrites (4 KiB write + fsync) into `dir`: tells
/// a slower disk apart from a slower commit path.
double FsyncProbeUs(const std::string& dir) {
  std::error_code ignored;
  fs::create_directories(dir, ignored);
  std::string path = (fs::path(dir) / "fsync_probe").string();
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return 0.0;
  std::string block(4096, 'p');
  std::vector<double> samples;
  for (int i = 0; i < kFsyncProbeWrites; ++i) {
    int64_t start = NowNs();
    if (::write(fd, block.data(), block.size()) !=
            static_cast<ssize_t>(block.size()) ||
        ::fsync(fd) != 0) {
      break;
    }
    samples.push_back(static_cast<double>(NowNs() - start) / 1e3);
  }
  ::close(fd);
  ::unlink(path.c_str());
  return Summarize(samples).p50;
}

void SleepUntil(int64_t t_ns) {
  int64_t now = NowNs();
  if (t_ns > now) std::this_thread::sleep_for(std::chrono::nanoseconds(t_ns - now));
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values.empty() ? 0.0 : PercentileSorted(values, 50.0);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double Mean(const std::vector<double>& values) {
  double total = 0.0;
  for (double v : values) total += v;
  return Ratio(total, static_cast<double>(values.size()));
}

// --- Trace analysis ---------------------------------------------------------

/// Stages of the span tree. The root of a DOP operation is the
/// client-TM's own work; a cooperation op's root is the CM call.
enum Stage {
  kClientTm,
  kClientExecute,
  kClientEncode,
  kTransport,
  kClientDecode,
  kServerHandler,
  kServerDecode,
  kServerDispatch,
  kServerEncode,
  kSimCall,
  kCooperation,
  kStageCount,
};
constexpr const char* kStageNames[kStageCount] = {
    "client_tm",      "client_execute", "client_encode", "transport",
    "client_decode",  "server_handler", "server_decode", "server_dispatch",
    "server_encode",  "sim_call",       "cooperation"};

struct TraceAnalysis {
  double stage_self_ns[kStageCount] = {};
  double root_ns = 0.0;
  /// Worst |sum of self times - root| / root over the op kinds.
  double self_sum_error = 0.0;
  uint64_t spans = 0;
  uint64_t units_excluded = 0;
  uint64_t unmatched = 0;
  std::vector<double> client_self_us;  // per DOP operation
  std::vector<double> encode_us, decode_us, call_us, transport_us;
  std::vector<double> request_bytes, reply_bytes;
  std::vector<double> server_decode_us, server_encode_us;
  std::array<std::vector<double>, kEnvelopeKinds> dispatch_us;
  double dispatch_total_ns = 0.0;
};

struct ChromeEvent {
  std::string name;
  int64_t start = 0;
  int64_t end = 0;
  uint32_t tid = 0;
  uint64_t unit = 0;
};

/// Builds each included traced unit's span tree, attributes self time to
/// stages, and matches envelopes to server spans. `events` receives the
/// spans of the first kChromeTraceUnits units.
TraceAnalysis AnalyzeTrace(const std::vector<std::unique_ptr<Designer>>& designers,
                           const std::vector<ServerRecord>& server,
                           const TraceSchedule& schedule,
                           std::vector<ChromeEvent>* events) {
  TraceAnalysis out;
  std::vector<EnvelopeKey> server_keys;
  server_keys.reserve(server.size());
  for (const ServerRecord& record : server) {
    server_keys.push_back(record.key);
    out.server_decode_us.push_back(static_cast<double>(record.t1 - record.t0) / 1e3);
    out.server_encode_us.push_back(static_cast<double>(record.t3 - record.t2) / 1e3);
    out.dispatch_us[static_cast<size_t>(record.kind)].push_back(
        static_cast<double>(record.t2 - record.t1) / 1e3);
    out.dispatch_total_ns += static_cast<double>(record.t2 - record.t1);
  }

  // Included units: the traced DOPs/coop ops that ended before the
  // server stopped recording for their slice.
  struct Unit {
    size_t designer;
    size_t first_op;
    size_t op_count;
  };
  std::vector<Unit> units;
  std::vector<EnvelopeKey> client_keys;
  std::vector<std::pair<size_t, size_t>> client_refs;  // (designer, envelope)
  for (size_t d = 0; d < designers.size(); ++d) {
    const DesignerTrace& trace = designers[d]->trace();
    for (size_t i = 0; i < trace.ops.size();) {
      size_t j = i;
      int64_t end = 0;
      while (j < trace.ops.size() && trace.ops[j].unit_seq == trace.ops[i].unit_seq) {
        end = std::max(end, trace.ops[j].end);
        ++j;
      }
      if (end <= schedule.TracedDeadline(trace.ops[i].unit_start)) {
        units.push_back({d, i, j - i});
        for (size_t k = i; k < j; ++k) {
          const OpSpan& op = trace.ops[k];
          for (uint32_t e = 0; e < op.envelope_count; ++e) {
            size_t index = op.first_envelope + e;
            if (trace.envelopes[index].simulated) continue;
            client_keys.push_back(trace.envelopes[index].key);
            client_refs.emplace_back(d, index);
          }
        }
      } else {
        ++out.units_excluded;
      }
      i = j;
    }
  }
  std::vector<int> matched = MatchEnvelopes(client_keys, server_keys);
  // (designer, envelope) -> server record index.
  std::map<std::pair<size_t, size_t>, int> server_of;
  for (size_t i = 0; i < matched.size(); ++i) {
    if (matched[i] < 0) {
      ++out.unmatched;
    } else {
      server_of[client_refs[i]] = matched[i];
    }
  }

  std::sort(units.begin(), units.end(), [&](const Unit& a, const Unit& b) {
    return designers[a.designer]->trace().ops[a.first_op].unit_start <
           designers[b.designer]->trace().ops[b.first_op].unit_start;
  });

  double kind_root[kOpKinds] = {};
  double kind_self[kOpKinds] = {};
  std::vector<Span> spans;
  std::vector<uint32_t> lanes;  // Chrome trace thread of each span
  for (size_t u = 0; u < units.size(); ++u) {
    const Unit& unit = units[u];
    const DesignerTrace& trace = designers[unit.designer]->trace();
    for (size_t k = unit.first_op; k < unit.first_op + unit.op_count; ++k) {
      const OpSpan& op = trace.ops[k];
      spans.clear();
      lanes.clear();
      // Appends a span; returns its index.
      auto add = [&](int stage, int parent, int64_t start, int64_t end, uint32_t lane) {
        spans.push_back({stage, parent, start, end});
        lanes.push_back(lane);
        return static_cast<int>(spans.size()) - 1;
      };
      const uint32_t client_lane = static_cast<uint32_t>(unit.designer);
      add(IsCoopOp(op.kind) ? kCooperation : kClientTm, -1, op.start, op.end,
          client_lane);
      for (uint32_t e = 0; e < op.envelope_count; ++e) {
        size_t index = op.first_envelope + e;
        const ClientEnvelope& env = trace.envelopes[index];
        int exec = add(kClientExecute, 0, env.enter, env.exit, client_lane);
        if (env.simulated) {
          add(kSimCall, exec, env.enter, env.called, client_lane);
          continue;
        }
        add(kClientEncode, exec, env.enter, env.encoded, client_lane);
        int call = add(kTransport, exec, env.encoded, env.called, client_lane);
        add(kClientDecode, exec, env.called, env.decoded, client_lane);
        double call_us = static_cast<double>(env.called - env.encoded) / 1e3;
        out.encode_us.push_back(static_cast<double>(env.encoded - env.enter) / 1e3);
        out.decode_us.push_back(static_cast<double>(env.decoded - env.called) / 1e3);
        out.call_us.push_back(call_us);
        out.request_bytes.push_back(env.request_bytes);
        out.reply_bytes.push_back(env.reply_bytes);
        auto found = server_of.find({unit.designer, index});
        if (found == server_of.end()) continue;
        const ServerRecord& s = server[static_cast<size_t>(found->second)];
        const uint32_t server_lane = kServerLaneBase + s.thread;
        int handler = add(kServerHandler, call, s.t0, s.t3, server_lane);
        add(kServerDecode, handler, s.t0, s.t1, server_lane);
        add(kServerDispatch, handler, s.t1, s.t2, server_lane);
        add(kServerEncode, handler, s.t2, s.t3, server_lane);
        out.transport_us.push_back(call_us - static_cast<double>(s.t3 - s.t0) / 1e3);
      }
      std::vector<int64_t> self = SelfTimes(spans);
      double root = static_cast<double>(op.end - op.start);
      double self_sum = 0.0;
      for (size_t i = 0; i < spans.size(); ++i) {
        out.stage_self_ns[spans[i].stage] += static_cast<double>(self[i]);
        self_sum += static_cast<double>(self[i]);
      }
      if (!IsCoopOp(op.kind)) {
        out.client_self_us.push_back(static_cast<double>(self[0]) / 1e3);
      }
      kind_root[static_cast<size_t>(op.kind)] += root;
      kind_self[static_cast<size_t>(op.kind)] += self_sum;
      out.root_ns += root;
      out.spans += spans.size();
      if (u < kChromeTraceUnits) {
        for (size_t i = 0; i < spans.size(); ++i) {
          ChromeEvent event;
          event.name = spans[i].parent < 0 ? kOpKindNames[static_cast<size_t>(op.kind)]
                                           : kStageNames[spans[i].stage];
          event.start = spans[i].start_ns;
          event.end = spans[i].end_ns;
          event.tid = lanes[i];
          event.unit = op.unit_seq;
          events->push_back(event);
        }
      }
    }
  }
  for (size_t k = 0; k < kOpKinds; ++k) {
    if (kind_root[k] <= 0) continue;
    out.self_sum_error = std::max(out.self_sum_error,
                                  std::abs(kind_self[k] - kind_root[k]) / kind_root[k]);
  }
  return out;
}

void WriteChromeTrace(const std::string& path, const std::vector<ChromeEvent>& events,
                      int64_t origin_ns) {
  std::ofstream out(path);
  out << "{\"traceEvents\": [\n";
  for (size_t i = 0; i < events.size(); ++i) {
    const ChromeEvent& e = events[i];
    char line[256];
    std::snprintf(line, sizeof(line),
                  "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
                  "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"unit\": %llu}}%s\n",
                  e.name.c_str(), e.tid,
                  static_cast<double>(e.start - origin_ns) / 1e3,
                  static_cast<double>(e.end - e.start) / 1e3,
                  static_cast<unsigned long long>(e.unit),
                  i + 1 < events.size() ? "," : "");
    out << line;
  }
  out << "]}\n";
}

// --- Metrics ----------------------------------------------------------------

std::vector<double> Merged(const std::vector<std::unique_ptr<Designer>>& designers,
                           OpKind kind) {
  std::vector<double> all;
  for (const auto& d : designers) {
    all.insert(all.end(), d->op_us(kind).begin(), d->op_us(kind).end());
  }
  return all;
}

std::vector<double> MergedCoop(const std::vector<std::unique_ptr<Designer>>& designers) {
  std::vector<double> all;
  for (OpKind kind : {OpKind::kPropagate, OpKind::kWithdraw, OpKind::kInvalidateReplace}) {
    std::vector<double> part = Merged(designers, kind);
    all.insert(all.end(), part.begin(), part.end());
  }
  return all;
}

/// What a run measured besides the designers' own samples.
struct RunFacts {
  Window window;
  std::vector<double> setup_times;
  double setup_rss_mb = 0.0;
  double peak_rss_mb = 0.0;
  double steal_pct = 0.0;
  double failed_ratio = 0.0;
};

/// Length of each one-second slice of the window (the last may be
/// partial).
std::vector<double> SliceSeconds(const Window& window) {
  std::vector<double> seconds(window.slices(), 1.0);
  if (!seconds.empty()) {
    int64_t last_start =
        window.start_ns + static_cast<int64_t>(seconds.size() - 1) * kSliceNs;
    seconds.back() = static_cast<double>(window.end_ns - last_start) / 1e9;
  }
  return seconds;
}

/// Committed DOP latencies per slice, merged over the designers.
std::vector<std::vector<double>> SliceDopUs(
    const std::vector<std::unique_ptr<Designer>>& designers, const Window& window) {
  std::vector<std::vector<double>> slices(window.slices());
  for (const auto& d : designers) {
    for (size_t i = 0; i < slices.size(); ++i) {
      const std::vector<double>& part = d->dop_us_by_slice()[i];
      slices[i].insert(slices[i].end(), part.begin(), part.end());
    }
  }
  return slices;
}

/// Committed-DOP rate and DOP p99 of every `step`-th slice from the
/// first (step 2 in a traced run: its untraced slices). Sorts the
/// slices it visits. Both are reported as medians over the slices, so a
/// stall of a few seconds on a shared host does not move them.
void SliceRatesAndP99s(std::vector<std::vector<double>>& slice_dop_us,
                       const std::vector<double>& slice_seconds, size_t step,
                       std::vector<double>* rates, std::vector<double>* p99s) {
  for (size_t i = 0; i < slice_dop_us.size(); i += step) {
    std::vector<double>& slice = slice_dop_us[i];
    rates->push_back(static_cast<double>(slice.size()) / slice_seconds[i]);
    if (slice.empty()) continue;
    std::sort(slice.begin(), slice.end());
    p99s->push_back(PercentileSorted(slice, 99));
  }
}

/// Host CPU steal ticks and total ticks so far (/proc/stat), for the
/// steal share of the window: a diagnostic for runs slowed by other
/// tenants of the host.
std::pair<double, double> StealAndTotalTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double total = 0.0;
  double steal = 0.0;
  in >> cpu;
  for (int field = 0; field < 8 && in; ++field) {
    double ticks = 0.0;
    in >> ticks;
    total += ticks;
    if (field == 7) steal = ticks;
  }
  return {steal, total};
}

/// End-to-end metrics (untraced run).
void EndToEnd(const std::vector<std::unique_ptr<Designer>>& designers,
              const RunFacts& facts, Report* report) {
  report->Add("setup_s", Median(facts.setup_times), "s");
  report->Extra("setup_runs", static_cast<double>(facts.setup_times.size()), "count");
  std::vector<std::vector<double>> slice_dop_us = SliceDopUs(designers, facts.window);
  std::vector<double> rates;
  std::vector<double> slice_p99s;
  SliceRatesAndP99s(slice_dop_us, SliceSeconds(facts.window), 1, &rates, &slice_p99s);
  std::vector<double> dops;
  for (const std::vector<double>& slice : slice_dop_us) {
    dops.insert(dops.end(), slice.begin(), slice.end());
  }
  // Throughput and the DOP p99 are per-layer metrics (README, "End-to-end
  // metrics"); the untraced run prints them as extras.
  report->Extra("dops_per_s", Median(rates), "1/s");
  std::sort(rates.begin(), rates.end());
  report->Extra("dops_per_s_slice_q1", PercentileSorted(rates, 25), "1/s");
  report->Extra("dops_per_s_slice_q3", PercentileSorted(rates, 75), "1/s");
  report->Extra("dops_per_s_mean",
                static_cast<double>(dops.size()) /
                    (static_cast<double>(facts.window.end_ns - facts.window.start_ns) / 1e9),
                "1/s");
  Summary dop = Summarize(dops);
  report->Add("dop_p50_us", dop.p50, "us");
  report->Extra("dop_p99_us", Median(slice_p99s), "us");
  report->Extra("dop_p99_window_us", dop.p99, "us");
  report->Extra("dop_p999_us", dop.p999, "us");
  report->Extra("dop_samples", static_cast<double>(dop.n), "count");
  report->Extra("dop_supported_pct", dop.supported, "pct");
  std::vector<double> begin = Merged(designers, OpKind::kBegin);
  report->Timing("begin", begin, true);
  report->Add("setup_rss_mb", facts.setup_rss_mb, "MiB");
  // Demoted to per-layer metrics (README, "End-to-end metrics"); kept
  // here as extras.
  std::vector<double> checkin = Merged(designers, OpKind::kCheckinCommit);
  report->Timing("checkin_commit", checkin, false);
  std::vector<double> checkout = Merged(designers, OpKind::kCheckout);
  report->Timing("checkout", checkout, false);
  std::vector<double> commit = Merged(designers, OpKind::kCommitDop);
  report->Timing("commit_dop", commit, false);
  std::vector<double> coop = MergedCoop(designers);
  report->Timing("coop_op", coop, false);
  report->Extra("peak_rss_mb", facts.peak_rss_mb, "MiB");
  report->Extra("failed_ratio", facts.failed_ratio, "ratio");
  report->Extra("host_steal_pct", facts.steal_pct, "%");
}

/// Per-layer metrics (traced run). A metric with no samples on the
/// workload reads 0.
void PerLayer(const std::vector<std::unique_ptr<Designer>>& designers,
              const Counters& c, const TraceAnalysis& t, const RunFacts& facts,
              const TraceSchedule& schedule, size_t server_workers, double fsync_us,
              Report* report) {
  double dops = c.dops_committed;
  // Odd slices are the traced ones.
  std::vector<std::vector<double>> slice_dop_us = SliceDopUs(designers, facts.window);
  std::vector<double> slice_seconds = SliceSeconds(facts.window);
  double dops_by_parity[2] = {0, 0};
  double seconds_by_parity[2] = {0, 0};
  for (size_t i = 0; i < slice_dop_us.size(); ++i) {
    dops_by_parity[i % 2] += static_cast<double>(slice_dop_us[i].size());
    seconds_by_parity[i % 2] += slice_seconds[i];
  }
  double traced_slices = std::floor(static_cast<double>(slice_dop_us.size()) / 2);
  std::vector<double> coop = MergedCoop(designers);
  double coop_ops = static_cast<double>(coop.size());
  auto p = [](std::vector<double> v, double pct) {
    std::sort(v.begin(), v.end());
    return PercentileSorted(v, pct);
  };

  report->Add("txn.client.self_us_mean", Mean(t.client_self_us), "us");
  report->Add("txn.client.envelopes_per_dop", Ratio(c.envelopes, dops), "count");
  report->Add("txn.client.cross_shard_ratio", Ratio(c.cross_shard_interactions, dops),
              "ratio");

  report->Add("txn.cache.hit_ratio", Ratio(c.cache_hits, c.cache_hits + c.cache_misses),
              "ratio");
  report->Add("txn.cache.evictions_per_dop", Ratio(c.cache_evictions, dops), "count");
  report->Add("txn.cache.invalidations_per_coop_op",
              Ratio(c.cache_invalidations, coop_ops), "count");

  report->Add("txn.codec.client_encode_us_mean", Mean(t.encode_us), "us");
  report->Add("txn.codec.client_decode_us_mean", Mean(t.decode_us), "us");
  report->Add("txn.codec.server_decode_us_mean", Mean(t.server_decode_us), "us");
  report->Add("txn.codec.server_encode_us_mean", Mean(t.server_encode_us), "us");
  report->Add("txn.codec.request_bytes_mean", Mean(t.request_bytes), "bytes");
  report->Add("txn.codec.reply_bytes_mean", Mean(t.reply_bytes), "bytes");

  report->Add("net.call_us_p50", p(t.call_us, 50), "us");
  report->Add("net.call_us_p99", p(t.call_us, 99), "us");
  report->Add("net.transport_us_p50", p(t.transport_us, 50), "us");
  report->Add("net.transport_us_p99", p(t.transport_us, 99), "us");
  report->Add("net.retries", c.channel_retries, "count");
  report->Add("net.timeouts", c.channel_timeouts, "count");
  report->Add("net.dedup_hits", c.dedup_hits, "count");
  report->Add("net.unmatched_envelopes", static_cast<double>(t.unmatched), "count");

  for (EnvelopeKind kind : {EnvelopeKind::kBegin, EnvelopeKind::kCheckout,
                            EnvelopeKind::kCheckinCommit, EnvelopeKind::kCommitDop,
                            EnvelopeKind::kPhase1, EnvelopeKind::kDecide}) {
    const std::vector<double>& samples = t.dispatch_us[static_cast<size_t>(kind)];
    std::string name = std::string("txn.dispatch.") +
                       kEnvelopeKindNames[static_cast<size_t>(kind)] + "_us_";
    report->Add(name + "p50", p(samples, 50), "us");
    report->Add(name + "p99", p(samples, 99), "us");
  }
  // Server-side traced time: every traced slice plus its grace.
  double traced_server_ns =
      seconds_by_parity[1] * 1e9 + traced_slices * static_cast<double>(schedule.grace_ns);
  report->Add("txn.dispatch.busy_ratio",
              Ratio(t.dispatch_total_ns,
                    traced_server_ns * static_cast<double>(server_workers)),
              "ratio");

  double tasks = 0.0;
  double imbalance = 0.0;
  for (const std::vector<double>& shard : c.partition_tasks) {
    if (shard.empty()) continue;
    for (double v : shard) tasks += v;
    auto [lo, hi] = std::minmax_element(shard.begin(), shard.end());
    imbalance = std::max(imbalance, Ratio(*hi, *lo));
  }
  report->Add("txn.partition.queue_high_water", c.queue_high_water, "count");
  report->Add("txn.partition.tasks_per_dop", Ratio(tasks, dops), "count");
  report->Add("txn.partition.imbalance", imbalance, "ratio");
  report->Add("txn.partition.cross_partition_ops_per_dop",
              Ratio(c.cross_partition_ops, dops), "count");
  report->Add("txn.partition.pipelined_ops_per_dop", Ratio(c.pipelined_ops, dops),
              "count");

  report->Add("txn.locks.derivation_locks_per_dop", Ratio(c.derivation_locks, dops),
              "count");
  report->Add("txn.locks.derivation_conflicts", c.derivation_conflicts, "count");
  report->Add("txn.twopc.prepared_per_dop", Ratio(c.txns_prepared, dops), "count");
  report->Add("txn.twopc.decided_abort", c.txns_decided_abort, "count");

  report->Add("storage.wal.fsyncs_per_commit", Ratio(c.wal_flushes, c.repo_txns),
              "ratio");
  report->Add("storage.wal.records_per_dop", Ratio(c.wal_records, dops), "count");
  report->Add("storage.wal.bytes_per_dop", Ratio(c.wal_bytes, dops), "bytes");
  report->Add("storage.device.fsync_us_p50", fsync_us, "us");
  report->Add("storage.repository.txns_per_dop", Ratio(c.repo_txns, dops), "count");
  report->Add("storage.repository.dovs_written_per_dop", Ratio(c.dovs_written, dops),
              "count");

  for (auto [kind, name] : {std::pair{OpKind::kPropagate, "propagate"},
                            std::pair{OpKind::kWithdraw, "withdraw"},
                            std::pair{OpKind::kInvalidateReplace, "invalidate_replace"}}) {
    std::vector<double> samples = Merged(designers, kind);
    report->Add(std::string("cooperation.") + name + "_us_p50", p(samples, 50), "us");
    report->Add(std::string("cooperation.") + name + "_us_p99", p(samples, 99), "us");
  }
  report->Add("rpc.invalidation.deliveries_per_coop_op",
              Ratio(c.bus_deliveries, coop_ops), "count");
  report->Add("rpc.sim.messages_per_dop", Ratio(c.sim_messages, dops), "count");

  // Tracing overhead: committed DOPs per second in traced vs untraced
  // slices of the same window.
  report->Add("trace.overhead",
              1.0 - Ratio(Ratio(dops_by_parity[1], seconds_by_parity[1]),
                          Ratio(dops_by_parity[0], seconds_by_parity[0])),
              "ratio");
  report->Add("trace.spans", static_cast<double>(t.spans), "count");
  report->Add("trace.self_sum_error", t.self_sum_error, "ratio");
  report->Add("trace.units_excluded", static_cast<double>(t.units_excluded), "count");
  for (int s = 0; s < kStageCount; ++s) {
    report->Add(std::string("stage.") + kStageNames[s] + ".self_share",
                Ratio(t.stage_self_ns[s], t.root_ns), "ratio");
  }

  // Designer-visible metrics too noisy, zero or workload-specific for an
  // end-to-end bound (README, "End-to-end metrics"). Throughput and the
  // DOP p99 come from the untraced slices only.
  std::vector<double> untraced_rates;
  std::vector<double> untraced_p99s;
  SliceRatesAndP99s(slice_dop_us, slice_seconds, 2, &untraced_rates, &untraced_p99s);
  report->Add("dops_per_s", Median(untraced_rates), "1/s");
  report->Add("dop_p99_us", Median(untraced_p99s), "us");
  std::vector<double> checkout = Merged(designers, OpKind::kCheckout);
  report->Add("checkout_p50_us", p(checkout, 50), "us");
  report->Add("checkout_p99_us", p(checkout, 99), "us");
  std::vector<double> checkin = Merged(designers, OpKind::kCheckinCommit);
  report->Add("checkin_commit_p50_us", p(checkin, 50), "us");
  report->Add("checkin_commit_p99_us", p(checkin, 99), "us");
  report->Add("coop_op_p50_us", p(coop, 50), "us");
  report->Add("coop_op_p99_us", p(coop, 99), "us");
  report->Add("failed_ratio", facts.failed_ratio, "ratio");
  report->Add("peak_rss_mb", facts.peak_rss_mb, "MiB");
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload=commit_uds|read_uds|cross_uds|coop_sim "
               "[--seed=N] [--seconds=S] [--trace[=0|1]] [--out=DIR]\n",
               argv0);
  return 2;
}

int Run(const Flags& flags, const char* argv0) {
  std::unique_ptr<ServerSpanSink> sink;
  if (flags.trace) sink = std::make_unique<ServerSpanSink>();
  std::unique_ptr<Workload> workload = MakeWorkload(flags, sink.get());
  if (workload == nullptr) return Usage(argv0);
  std::error_code ignored;
  fs::create_directories(flags.out, ignored);

  // Set-up, repeated: setup_s is the median; the last plane is kept.
  RunFacts facts;
  double setup_total = 0.0;
  for (;;) {
    int64_t start = NowNs();
    Status status = workload->Setup();
    facts.setup_times.push_back(static_cast<double>(NowNs() - start) / 1e9);
    setup_total += facts.setup_times.back();
    if (!status.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", status.ToString().c_str());
      workload->Teardown();
      return 1;
    }
    int done = static_cast<int>(facts.setup_times.size());
    if (done >= kMaxSetups ||
        (done >= kMinSetups && setup_total >= kSetupBudgetSeconds)) {
      break;
    }
    workload->Teardown();
  }
  facts.setup_rss_mb = PeakRssMb();
  double fsync_us = flags.trace ? FsyncProbeUs(workload->data_dir()) : 0.0;

  Window& window = facts.window;
  window.start_ns = NowNs() + static_cast<int64_t>(kWarmupSeconds * 1e9);
  window.end_ns = window.start_ns + static_cast<int64_t>(flags.seconds * 1e9);
  TraceSchedule schedule;
  schedule.enabled = flags.trace;
  schedule.window_start_ns = window.start_ns;
  schedule.window_end_ns = window.end_ns;
  if (sink != nullptr) sink->Arm(schedule);

  std::vector<std::unique_ptr<Designer>> designers;
  for (size_t d = 0; d < kDesigners; ++d) {
    designers.push_back(std::make_unique<Designer>(
        d, flags.seed, window, flags.trace ? &schedule : nullptr));
  }
  std::vector<std::thread> threads;
  for (auto& designer : designers) {
    threads.emplace_back([&workload, &window, d = designer.get()] {
      t_designer_trace = &d->trace();
      while (NowNs() < window.end_ns) workload->Cycle(*d);
      t_designer_trace = nullptr;
    });
  }
  SleepUntil(window.start_ns);
  Counters before = workload->Snapshot();
  auto [steal_before, ticks_before] = StealAndTotalTicks();
  SleepUntil(window.end_ns);
  Counters after = workload->Snapshot();
  auto [steal_after, ticks_after] = StealAndTotalTicks();
  facts.steal_pct = 100.0 * Ratio(steal_after - steal_before, ticks_after - ticks_before);
  facts.peak_rss_mb = PeakRssMb();
  for (std::thread& thread : threads) thread.join();
  // Read-back traffic must not land in a server grace period.
  SleepUntil(window.end_ns + schedule.grace_ns);

  Checks checks;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  for (const auto& designer : designers) {
    checks.Merge(designer->checks());
    attempted += designer->attempted();
    failed += designer->failed();
  }
  int64_t verify_start = NowNs();
  workload->Verify(checks);
  std::fprintf(stderr, "set-up %.3f s over %zu set-ups; verification %.3f s, %llu checks\n",
               setup_total, facts.setup_times.size(),
               static_cast<double>(NowNs() - verify_start) / 1e9,
               static_cast<unsigned long long>(checks.performed()));
  attempted += checks.performed();
  failed += checks.failed();
  facts.failed_ratio = Ratio(static_cast<double>(failed), static_cast<double>(attempted));
  bool correct = failed == 0;

  Report report;
  if (flags.trace) {
    std::vector<ChromeEvent> events;
    TraceAnalysis analysis =
        AnalyzeTrace(designers, sink->Collect(), schedule, &events);
    PerLayer(designers, after.DeltaSince(before), analysis, facts, schedule,
             workload->server_workers(), fsync_us, &report);
    WriteChromeTrace((fs::path(flags.out) / ("trace_" + flags.workload + ".json")).string(),
                     events, window.start_ns);
    if (analysis.unmatched != 0) {
      checks.Log(std::to_string(analysis.unmatched) +
                 " traced envelopes have no matching server span");
      correct = false;
    }
    if (analysis.self_sum_error > kSelfSumTolerance) {
      checks.Log("stage self times do not sum to their root spans");
      correct = false;
    }
  } else {
    EndToEnd(designers, facts, &report);
  }
  workload->Teardown();

  for (const std::string& message : checks.log()) {
    std::fprintf(stderr, "check failed: %s\n", message.c_str());
  }
  for (const auto* group : {&report.reported, &report.extra}) {
    for (const Metric& m : *group) {
      std::printf("%s %s %s\n", m.name.c_str(), JsonNumber(m.value).c_str(),
                  m.unit.c_str());
    }
  }
  std::string head = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed);
  std::vector<Metric> all = report.reported;
  all.insert(all.end(), report.extra.begin(), report.extra.end());
  std::ofstream(fs::path(flags.out) /
                (flags.workload + "-seed" + std::to_string(flags.seed) + "-trace" +
                 (flags.trace ? "1" : "0") + ".json"))
      << head << ", \"workload\": \"" << flags.workload << "\", \"seed\": "
      << flags.seed << ", \"trace\": " << (flags.trace ? 1 : 0)
      << ", \"metrics\": " << MetricsJson(all) << "}\n";
  std::printf("%s, \"metrics\": %s}\n", head.c_str(), MetricsJson(report.reported).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace concord::bench_e2e

int main(int argc, char** argv) {
  concord::bench_e2e::Flags flags;
  if (!concord::bench_e2e::ParseArgs(argc, argv, &flags)) {
    return concord::bench_e2e::Usage(argv[0]);
  }
  return concord::bench_e2e::Run(flags, argv[0]);
}
