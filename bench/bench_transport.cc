// Transport round-trip microbenchmarks: what does the real socket
// transport cost per RPC, and how does it compare to the zero-copy
// simulated path the deterministic tests use?
//
// Four legs, same 64-byte echo handler:
//   BM_RttUnixSocket  net::RpcChannel -> net::RpcServer over a
//                     Unix-domain socket (the single-host deployment)
//   BM_RttUnixSocketConcurrent
//                     same, 4 threads sharing one channel: they take
//                     turns, so each call's time includes its wait
//                     behind the others
//   BM_RttTcpLoopback same over TCP 127.0.0.1 (the LAN deployment)
//   BM_RttSimulated   rpc::TransactionalRpc over the in-memory Network
//                     (no syscalls — the floor the socket legs chase)
//
// main() re-times the legs outside google-benchmark and writes
// BENCH_transport.json so CI can track median RTT per leg.
//
// It also times two threads each on its own channel into one
// server (unix_socket_2channels_rtt_us_p50): the bench/e2e shape, where
// every caller reads its own connection and the server-side wake-ups
// are the whole hand-off cost.

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/ids.h"
#include "net/address.h"
#include "net/rpc_client.h"
#include "net/rpc_server.h"
#include "rpc/network.h"
#include "rpc/transactional_rpc.h"

namespace concord {
namespace {

std::string BenchSocketPath(const char* tag) {
  return "/tmp/concord_bench_" + std::string(tag) + "_" +
         std::to_string(getpid()) + ".sock";
}

Result<std::string> EchoHandler(const std::string& request) {
  return request;
}

void EchoRoundtrip(net::RpcChannel& channel, const std::string& payload) {
  auto reply = channel.Call("bench/echo", payload);
  if (!reply.ok() || reply->size() != payload.size()) {
    std::fprintf(stderr, "bench echo failed\n");
    std::abort();
  }
}

/// One server + one channel, echoing `payload_bytes` request payloads.
struct SocketRig {
  std::unique_ptr<net::RpcServer> server;
  std::unique_ptr<net::RpcChannel> channel;
  std::string payload;

  SocketRig(net::Address listen, size_t payload_bytes)
      : payload(payload_bytes, 'x') {
    server = std::make_unique<net::RpcServer>(std::move(listen));
    server->RegisterMethod("bench/echo", EchoHandler);
    Status started = server->Start();
    if (!started.ok()) {
      std::fprintf(stderr, "bench server start failed: %s\n",
                   started.ToString().c_str());
      std::abort();
    }
    channel = std::make_unique<net::RpcChannel>(/*client_id=*/1,
                                                server->bound_address());
  }

  ~SocketRig() {
    channel->Shutdown();
    server->Shutdown();
  }

  void Roundtrip() { EchoRoundtrip(*channel, payload); }
};

void BM_RttUnixSocket(benchmark::State& state) {
  SocketRig rig(net::Address::Unix(BenchSocketPath("uds")),
                static_cast<size_t>(state.range(0)));
  for (auto _ : state) rig.Roundtrip();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RttUnixSocket)->Arg(64)->Arg(4096)->UseRealTime();

constexpr int kConcurrentCallers = 4;

void BM_RttUnixSocketConcurrent(benchmark::State& state) {
  static SocketRig* rig = nullptr;
  // Thread 0 builds the shared rig before the start barrier and tears
  // it down after the end barrier, when every thread is done calling.
  if (state.thread_index() == 0) {
    rig = new SocketRig(net::Address::Unix(BenchSocketPath("uds_conc")),
                        static_cast<size_t>(state.range(0)));
  }
  for (auto _ : state) rig->Roundtrip();
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    delete rig;
    rig = nullptr;
  }
}
BENCHMARK(BM_RttUnixSocketConcurrent)
    ->Arg(64)
    ->Threads(kConcurrentCallers)
    ->UseRealTime();

void BM_RttTcpLoopback(benchmark::State& state) {
  SocketRig rig(net::Address::Tcp("127.0.0.1", 0),
                static_cast<size_t>(state.range(0)));
  for (auto _ : state) rig.Roundtrip();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RttTcpLoopback)->Arg(64)->Arg(4096)->UseRealTime();

void BM_RttSimulated(benchmark::State& state) {
  SimClock clock;
  rpc::Network network(&clock, 42);
  rpc::TransactionalRpc rpc(&network);
  NodeId server = network.AddNode("server");
  NodeId client = network.AddNode("client");
  rpc.RegisterHandler(server, "bench/echo", EchoHandler);
  std::string payload(static_cast<size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    auto reply = rpc.Call(client, server, "bench/echo", payload);
    benchmark::DoNotOptimize(reply);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RttSimulated)->Arg(64)->Arg(4096)->UseRealTime();

// --- JSON gate emission ----------------------------------------------------

std::vector<double> TimeRoundtrips(const std::function<void()>& roundtrip,
                                   int iters) {
  std::vector<double> samples;
  samples.reserve(iters);
  for (int i = 0; i < iters; ++i) {
    auto start = std::chrono::steady_clock::now();
    roundtrip();
    auto end = std::chrono::steady_clock::now();
    samples.push_back(
        std::chrono::duration<double, std::micro>(end - start).count());
  }
  return samples;
}

double Median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

double MedianRttUs(const std::function<void()>& roundtrip, int iters) {
  return Median(TimeRoundtrips(roundtrip, iters));
}

/// Median per-call RTT with one thread per `roundtrips` entry, all
/// calling at once, `iters` calls each.
double ConcurrentMedianRttUs(
    const std::vector<std::function<void()>>& roundtrips, int iters) {
  std::vector<std::vector<double>> per_thread(roundtrips.size());
  std::vector<std::thread> threads;
  for (size_t t = 0; t < roundtrips.size(); ++t) {
    threads.emplace_back([&roundtrips, &per_thread, t, iters] {
      per_thread[t] = TimeRoundtrips(roundtrips[t], iters);
    });
  }
  for (auto& thread : threads) thread.join();
  std::vector<double> all;
  for (const auto& samples : per_thread) {
    all.insert(all.end(), samples.begin(), samples.end());
  }
  return Median(std::move(all));
}

int EmitGateJson(const char* path) {
  constexpr int kIters = 2000;
  constexpr size_t kPayload = 64;

  double uds_us;
  double uds_concurrent_us;
  double uds_two_channels_us;
  double tcp_us;
  {
    SocketRig rig(net::Address::Unix(BenchSocketPath("json_uds")), kPayload);
    for (int i = 0; i < 100; ++i) rig.Roundtrip();  // warm the connection
    uds_us = MedianRttUs([&] { rig.Roundtrip(); }, kIters);
    std::function<void()> roundtrip = [&rig] { rig.Roundtrip(); };
    uds_concurrent_us = ConcurrentMedianRttUs(
        std::vector<std::function<void()>>(kConcurrentCallers, roundtrip),
        kIters);
    // The bench/e2e shape: two callers, each on its own channel (and
    // so its own connection) into one server.
    net::RpcChannel second(/*client_id=*/2, rig.server->bound_address());
    std::function<void()> second_roundtrip = [&] {
      EchoRoundtrip(second, rig.payload);
    };
    for (int i = 0; i < 100; ++i) second_roundtrip();
    uds_two_channels_us =
        ConcurrentMedianRttUs({roundtrip, second_roundtrip}, kIters);
    second.Shutdown();
  }
  {
    SocketRig rig(net::Address::Tcp("127.0.0.1", 0), kPayload);
    for (int i = 0; i < 100; ++i) rig.Roundtrip();
    tcp_us = MedianRttUs([&] { rig.Roundtrip(); }, kIters);
  }

  SimClock clock;
  rpc::Network network(&clock, 42);
  rpc::TransactionalRpc rpc(&network);
  NodeId server = network.AddNode("server");
  NodeId client = network.AddNode("client");
  rpc.RegisterHandler(server, "bench/echo", EchoHandler);
  std::string payload(kPayload, 'x');
  double sim_us = MedianRttUs(
      [&] { rpc.Call(client, server, "bench/echo", payload).ok(); }, kIters);

  char buffer[64];
  std::string json = "{\n";
  json += "  \"payload_bytes\": " + std::to_string(kPayload) + ",\n";
  json += "  \"iters\": " + std::to_string(kIters) + ",\n";
  std::snprintf(buffer, sizeof(buffer), "%.2f", uds_us);
  json += "  \"unix_socket_rtt_us_p50\": " + std::string(buffer) + ",\n";
  std::snprintf(buffer, sizeof(buffer), "%.2f", uds_concurrent_us);
  json += "  \"unix_socket_4callers_rtt_us_p50\": " + std::string(buffer) +
          ",\n";
  std::snprintf(buffer, sizeof(buffer), "%.2f", uds_two_channels_us);
  json += "  \"unix_socket_2channels_rtt_us_p50\": " + std::string(buffer) +
          ",\n";
  std::snprintf(buffer, sizeof(buffer), "%.2f", tcp_us);
  json += "  \"tcp_loopback_rtt_us_p50\": " + std::string(buffer) + ",\n";
  std::snprintf(buffer, sizeof(buffer), "%.2f", sim_us);
  json += "  \"simulated_rtt_us_p50\": " + std::string(buffer) + "\n";
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
  return concord::EmitGateJson("BENCH_transport.json");
}
