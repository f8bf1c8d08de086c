// concord_client: a workstation process driving a real concordd plane
// over the socket transport. A full ClientTm (recovery points, DOV
// cache, batching, multi-participant 2PC) routes through one
// net::RpcChannel per server shard; the only difference from the
// simulated workstation is that envelopes cross real sockets to real
// processes the harness can kill -9.
//
// Modes (one line of machine-readable output per attempt, flushed, so
// the crash harness can kill servers mid-stream and still know exactly
// which commits were acknowledged):
//
//   --mode=churn      BeginDop + CheckinCommit loop on --da. Each
//                     attempt uses a fresh DOP so failures stay
//                     isolated. Emits:
//                       COMMITTED <dov> <value>   client-acked commit
//                       INDOUBT <value>           outcome unknown
//                       FAILED <value> <status>   typed failure
//
//   --mode=crossfire  Seeds --ops DOVs under --da (home --home), then
//                     for each seed runs a cross-shard interaction:
//                     BeginDop on --da2 (home --home2), Checkout of the
//                     seed with a derivation lock (participant on the
//                     seed's shard), CheckinCommit (participant on
//                     --home2) — true multi-participant 2PC on every
//                     attempt. Same output lines as churn.
//
//   --mode=abort      Like churn but every checkin carries a value
//                     above the schema bound, so the repository's
//                     integrity check votes no and the interaction
//                     aborts by type. Emits ABORTED <value> lines; the
//                     harness asserts those values are never visible.
//
//   --mode=verify     Reads "<dov> <value> <da>" lines from --expect
//                     and checks each out through the full stack,
//                     comparing content. Emits VERIFY OK|MISSING|
//                     MISMATCH lines and a VERIFIED <ok>/<total>
//                     summary; exit 1 on any mismatch.
//
//   --mode=dump       Prints shard --home's "admin/dump_da" view of
//                     --da: "<dov> <value>" lines straight from the
//                     server's repository.
//
// Usage:
//   concord_client --client-id=N --server=ADDR [--server=ADDR ...]
//                  --mode=M --da=N [--home=S] [--da2=N --home2=S]
//                  [--ops=K] [--value-base=V] [--expect=FILE]
//                  [--timeout-ms=T]
//
// --server flags are in shard order (shard 0 first) and must match the
// concordd processes' --shard numbering, since DOV ids route by the
// shard index baked into them.
//
// --client-id (1 to 2^32-1, default 1) is the workstation's NodeId and
// its RPC client id: clients sharing a concordd need distinct ids, or
// their DOP and 2PC transaction ids collide at the server.

#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/ids.h"
#include "common/result.h"
#include "common/status.h"
#include "net/address.h"
#include "net/rpc_client.h"
#include "rpc/network.h"
#include "storage/object.h"
#include "tools/plane_schema.h"
#include "txn/client_tm.h"
#include "txn/server_service.h"
#include "txn/shard_router.h"

namespace {

using namespace concord;

struct Flags {
  uint64_t client_id = 1;
  std::vector<std::string> servers;
  std::string mode;
  uint64_t da = 1;
  size_t home = 0;
  uint64_t da2 = 0;
  size_t home2 = 0;
  uint64_t ops = 8;
  int64_t value_base = 1000;
  std::string expect;
  int64_t timeout_ms = 10000;
  /// Pause between workload attempts — widens the window a crash
  /// harness has for killing a server mid-stream.
  int64_t sleep_ms = 0;
};

bool ParseFlag(const char* arg, const char* name, std::string* out) {
  size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *out = arg + len + 1;
  return true;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --client-id=N --server=ADDR [--server=ADDR ...] "
               "--mode=churn|crossfire|abort|verify|dump --da=N [--home=S] "
               "[--da2=N --home2=S] [--ops=K] [--value-base=V] "
               "[--expect=FILE] [--timeout-ms=T] [--sleep-ms=T]\n",
               argv0);
  return 2;
}

/// The workstation stack: one channel + ServerStub per shard, a
/// static-home router (no placement service in a concordd plane), and
/// the ClientTm on top. The workstation's NodeId is its --client-id,
/// the namespace of the ClientTm's DOP and 2PC TxnIds.
struct Workstation {
  SimClock clock;
  rpc::Network network;
  NodeId node;
  DotId dot;
  std::vector<std::shared_ptr<net::RpcChannel>> channels;
  std::vector<std::unique_ptr<txn::ServerStub>> services;
  std::unique_ptr<txn::ClientTm> tm;
  txn::ShardRouter router;

  Workstation(const Flags& flags, Status* status)
      : network(&clock, /*seed=*/7, NodeId(flags.client_id)) {
    node = network.AddNode("concord-client" + std::to_string(flags.client_id));
    storage::SchemaCatalog schema;
    dot = tools::DefinePlaneSchema(&schema);
    std::vector<std::pair<NodeId, txn::ServerService*>> routes;
    for (size_t s = 0; s < flags.servers.size(); ++s) {
      auto address = net::Address::Parse(flags.servers[s]);
      if (!address.ok()) {
        *status = address.status();
        return;
      }
      net::RpcChannel::Options options;
      options.call_timeout_ms = flags.timeout_ms;
      channels.push_back(std::make_shared<net::RpcChannel>(
          flags.client_id, *address, options));
      // Server NodeIds are client-local labels: the router only needs
      // them distinct, and shard s of a DOV id maps to routes[s].
      NodeId server_node(1000 + s);
      services.push_back(std::make_unique<txn::ServerStub>(
          server_node,
          [channel = channels.back()](const std::string& method,
                                      const std::string& request) {
            return channel->Call(method, request);
          }));
      routes.emplace_back(server_node, services.back().get());
    }
    router = txn::ShardRouter(std::move(routes), /*placement=*/nullptr);
    *status = Status::OK();
  }

  Status PinHome(uint64_t da, size_t shard) {
    Status pinned = router.SetStaticHome(DaId(da), shard);
    if (!pinned.ok()) return pinned;
    // The router is copied into the ClientTm, so pins must precede it.
    return Status::OK();
  }

  void StartTm() {
    tm = std::make_unique<txn::ClientTm>(router, &network, node, &clock);
  }

  storage::DesignObject MakeObject(int64_t value) const {
    storage::DesignObject object(dot);
    object.SetAttr("value", value);
    return object;
  }
};

void ReportAttempt(const Result<DovId>& checked_in, int64_t value) {
  if (checked_in.ok()) {
    std::printf("COMMITTED %llu %lld\n",
                (unsigned long long)checked_in->value(), (long long)value);
  } else if (checked_in.status().IsUnavailable()) {
    std::printf("INDOUBT %lld\n", (long long)value);
  } else {
    std::printf("FAILED %lld %s\n", (long long)value,
                checked_in.status().ToString().c_str());
  }
  std::fflush(stdout);
}

int RunChurn(Workstation& ws, const Flags& flags) {
  for (uint64_t i = 0; i < flags.ops; ++i) {
    if (flags.sleep_ms > 0) usleep(static_cast<useconds_t>(flags.sleep_ms) * 1000);
    int64_t value = flags.value_base + static_cast<int64_t>(i);
    auto dop = ws.tm->BeginDop(DaId(flags.da));
    if (!dop.ok()) {
      std::printf("FAILED %lld begin: %s\n", (long long)value,
                  dop.status().ToString().c_str());
      std::fflush(stdout);
      continue;
    }
    ReportAttempt(ws.tm->CheckinCommit(*dop, ws.MakeObject(value), {}), value);
  }
  return 0;
}

int RunAbort(Workstation& ws, const Flags& flags) {
  for (uint64_t i = 0; i < flags.ops; ++i) {
    if (flags.sleep_ms > 0) usleep(static_cast<useconds_t>(flags.sleep_ms) * 1000);
    // Above the schema bound: the checkin participant's integrity
    // check fails, the vote is no, the 2PC aborts — deterministically.
    int64_t value = static_cast<int64_t>(tools::kPlaneValueMax) + 1 +
                    flags.value_base + static_cast<int64_t>(i);
    auto dop = ws.tm->BeginDop(DaId(flags.da));
    if (!dop.ok()) {
      std::printf("FAILED %lld begin: %s\n", (long long)value,
                  dop.status().ToString().c_str());
      std::fflush(stdout);
      continue;
    }
    auto checked_in = ws.tm->CheckinCommit(*dop, ws.MakeObject(value), {});
    if (checked_in.ok()) {
      std::printf("FAILED %lld out-of-bounds checkin committed\n",
                  (long long)value);
    } else if (checked_in.status().IsUnavailable()) {
      std::printf("INDOUBT %lld\n", (long long)value);
    } else {
      std::printf("ABORTED %lld\n", (long long)value);
    }
    std::fflush(stdout);
    ws.tm->AbortDop(*dop).ok();  // release the DOP either way
  }
  return 0;
}

int RunCrossfire(Workstation& ws, const Flags& flags) {
  // Seed one source DOV per attempt on the first DA's shard. A fresh
  // source per attempt keeps attempts independent: a derivation lock
  // stranded by a killed server never blocks the next attempt.
  std::vector<std::pair<DovId, int64_t>> seeds;
  for (uint64_t i = 0; i < flags.ops; ++i) {
    int64_t value = flags.value_base + static_cast<int64_t>(i);
    auto dop = ws.tm->BeginDop(DaId(flags.da));
    if (!dop.ok()) {
      std::printf("FAILED %lld seed-begin: %s\n", (long long)value,
                  dop.status().ToString().c_str());
      std::fflush(stdout);
      continue;
    }
    auto seed = ws.tm->CheckinCommit(*dop, ws.MakeObject(value), {});
    ReportAttempt(seed, value);
    if (seed.ok()) seeds.emplace_back(*seed, value);
  }
  // Cross-shard attempts: checkout (participant: seed's shard, with a
  // derivation lock so commit must release it there) + checkin
  // (participant: --home2). Kill a server between phase 1 and the
  // decision and this is exactly the in-doubt window the durable 2PC
  // ledger exists for.
  for (auto [seed, seed_value] : seeds) {
    if (flags.sleep_ms > 0) usleep(static_cast<useconds_t>(flags.sleep_ms) * 1000);
    int64_t value = seed_value + 100000;
    auto dop = ws.tm->BeginDop(DaId(flags.da2));
    if (!dop.ok()) {
      std::printf("FAILED %lld begin: %s\n", (long long)value,
                  dop.status().ToString().c_str());
      std::fflush(stdout);
      continue;
    }
    Status checkout = ws.tm->Checkout(*dop, seed, /*take_derivation_lock=*/true);
    if (!checkout.ok()) {
      std::printf("%s %lld checkout: %s\n",
                  checkout.IsUnavailable() ? "INDOUBT" : "FAILED",
                  (long long)value, checkout.ToString().c_str());
      std::fflush(stdout);
      ws.tm->AbortDop(*dop).ok();
      continue;
    }
    ReportAttempt(ws.tm->CheckinCommit(*dop, ws.MakeObject(value), {seed}),
                  value);
  }
  return 0;
}

int RunVerify(Workstation& ws, const Flags& flags) {
  std::ifstream in(flags.expect);
  if (!in) {
    std::fprintf(stderr, "cannot open --expect file %s\n",
                 flags.expect.c_str());
    return 2;
  }
  size_t total = 0;
  size_t ok = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    uint64_t dov_raw = 0;
    int64_t value = 0;
    uint64_t da = 0;
    if (!(fields >> dov_raw >> value >> da)) {
      std::fprintf(stderr, "bad expect line: %s\n", line.c_str());
      return 2;
    }
    ++total;
    DovId dov(dov_raw);
    auto dop = ws.tm->BeginDop(DaId(da));
    if (!dop.ok()) {
      std::printf("VERIFY MISSING %llu begin: %s\n",
                  (unsigned long long)dov_raw,
                  dop.status().ToString().c_str());
      continue;
    }
    Status checkout = ws.tm->Checkout(*dop, dov);
    if (!checkout.ok()) {
      std::printf("VERIFY MISSING %llu %s\n", (unsigned long long)dov_raw,
                  checkout.ToString().c_str());
      ws.tm->AbortDop(*dop).ok();
      continue;
    }
    auto object = ws.tm->Input(*dop, dov);
    double read = object.ok() ? object->GetNumeric("value").value_or(-1) : -1;
    if (read == static_cast<double>(value)) {
      std::printf("VERIFY OK %llu %lld\n", (unsigned long long)dov_raw,
                  (long long)value);
      ++ok;
    } else {
      std::printf("VERIFY MISMATCH %llu want %lld got %lld\n",
                  (unsigned long long)dov_raw, (long long)value,
                  (long long)read);
    }
    ws.tm->CommitDop(*dop).ok();
  }
  std::printf("VERIFIED %zu/%zu\n", ok, total);
  std::fflush(stdout);
  return ok == total ? 0 : 1;
}

int RunDump(Workstation& ws, const Flags& flags) {
  if (flags.home >= ws.channels.size()) {
    std::fprintf(stderr, "--home out of range\n");
    return 2;
  }
  auto dump = ws.channels[flags.home]->Call("admin/dump_da",
                                            std::to_string(flags.da));
  if (!dump.ok()) {
    std::fprintf(stderr, "dump failed: %s\n", dump.status().ToString().c_str());
    return 1;
  }
  std::fputs(dump->c_str(), stdout);
  std::fflush(stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  std::string value;
  for (int i = 1; i < argc; ++i) {
    if (ParseFlag(argv[i], "--client-id", &value)) {
      // The id becomes the workstation NodeId, the top 32 bits of every
      // DOP and TxnId it mints; 0 is the invalid NodeId.
      char* end = nullptr;
      errno = 0;
      flags.client_id = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0' || errno != 0 ||
          flags.client_id == 0 || flags.client_id > UINT32_MAX) {
        std::fprintf(stderr, "--client-id must be in [1, %u]: %s\n",
                     UINT32_MAX, value.c_str());
        return Usage(argv[0]);
      }
    } else if (ParseFlag(argv[i], "--server", &value)) {
      flags.servers.push_back(value);
    } else if (ParseFlag(argv[i], "--mode", &value)) {
      flags.mode = value;
    } else if (ParseFlag(argv[i], "--da", &value)) {
      flags.da = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "--home", &value)) {
      flags.home = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "--da2", &value)) {
      flags.da2 = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "--home2", &value)) {
      flags.home2 = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "--ops", &value)) {
      flags.ops = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "--value-base", &value)) {
      flags.value_base = std::strtoll(value.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "--expect", &value)) {
      flags.expect = value;
    } else if (ParseFlag(argv[i], "--timeout-ms", &value)) {
      flags.timeout_ms = std::strtoll(value.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "--sleep-ms", &value)) {
      flags.sleep_ms = std::strtoll(value.c_str(), nullptr, 10);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return Usage(argv[0]);
    }
  }
  if (flags.servers.empty() || flags.mode.empty()) return Usage(argv[0]);

  Status status = Status::OK();
  Workstation ws(flags, &status);
  if (!status.ok()) {
    std::fprintf(stderr, "setup failed: %s\n", status.ToString().c_str());
    return 2;
  }
  Status pinned = ws.PinHome(flags.da, flags.home);
  if (pinned.ok() && flags.da2 != 0) {
    pinned = ws.PinHome(flags.da2, flags.home2);
  }
  if (!pinned.ok()) {
    std::fprintf(stderr, "bad home pin: %s\n", pinned.ToString().c_str());
    return 2;
  }
  ws.StartTm();

  int rc;
  if (flags.mode == "churn") {
    rc = RunChurn(ws, flags);
  } else if (flags.mode == "abort") {
    rc = RunAbort(ws, flags);
  } else if (flags.mode == "crossfire") {
    rc = RunCrossfire(ws, flags);
  } else if (flags.mode == "verify") {
    rc = RunVerify(ws, flags);
  } else if (flags.mode == "dump") {
    rc = RunDump(ws, flags);
  } else {
    return Usage(argv[0]);
  }
  for (auto& channel : ws.channels) channel->Shutdown();
  return rc;
}
