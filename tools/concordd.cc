// concordd: a standalone CONCORD server process. Hosts one ServerTm
// shard — repository, WAL directory, lock tables, 2PC ledger — behind
// the socket RPC transport (src/net/), so real workstation processes
// reach it over TCP or Unix-domain sockets instead of the simulated
// LAN. One concordd per shard; a plane is N concordd processes plus
// any number of concord_client workstations.
//
// Startup recovers everything durable before serving: the repository
// replays its WAL (reclaiming a LOCK file left by a kill -9'd
// predecessor), then the server-TM re-stages prepared-but-undecided
// 2PC participants from the stable ledger, so a coordinator's retried
// Decide lands on the same staged effects the pre-crash vote promised.
//
// stdout handshake (consumed by the process-crash harness):
//   LISTENING <addr>    socket bound; ephemeral TCP ports resolved
//   RESTAGED <n>        prepared 2PC participants recovered from stable
//   READY               serving traffic
//
// Usage:
//   concordd --listen=tcp:127.0.0.1:0 --data-dir=DIR --shard=N
//            [--partitions=N] [--workers=N]
//
// SIGTERM/SIGINT shut down gracefully (goodbye frames, drained
// workers). SIGKILL is the crash the WAL and the 2PC ledger exist for.

#include <signal.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/clock.h"
#include "common/ids.h"
#include "common/result.h"
#include "common/status.h"
#include "net/address.h"
#include "net/rpc_server.h"
#include "rpc/network.h"
#include "storage/repository.h"
#include "storage/wal.h"
#include "tools/plane_schema.h"
#include "txn/scope_authority.h"
#include "txn/server_service.h"
#include "txn/server_tm.h"

namespace {

// Self-pipe carrying shutdown signals to the main thread. Only the
// write end is touched from the handler (async-signal-safe).
int g_signal_pipe[2] = {-1, -1};

void OnShutdownSignal(int /*signo*/) {
  char byte = 1;
  ssize_t ignored = write(g_signal_pipe[1], &byte, 1);
  (void)ignored;
}

bool ParseFlag(const char* arg, const char* name, std::string* out) {
  size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *out = arg + len + 1;
  return true;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --listen=tcp:HOST:PORT|unix:/PATH --data-dir=DIR "
               "--shard=N [--partitions=N] [--workers=N]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace concord;

  std::string listen_spec;
  std::string data_dir;
  std::string flag;
  uint32_t shard = 0;
  int partitions = 1;
  int workers = 2;
  for (int i = 1; i < argc; ++i) {
    if (ParseFlag(argv[i], "--listen", &flag)) {
      listen_spec = flag;
    } else if (ParseFlag(argv[i], "--data-dir", &flag)) {
      data_dir = flag;
    } else if (ParseFlag(argv[i], "--shard", &flag)) {
      shard = static_cast<uint32_t>(std::strtoul(flag.c_str(), nullptr, 10));
    } else if (ParseFlag(argv[i], "--partitions", &flag)) {
      partitions = std::atoi(flag.c_str());
    } else if (ParseFlag(argv[i], "--workers", &flag)) {
      workers = std::atoi(flag.c_str());
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return Usage(argv[0]);
    }
  }
  if (listen_spec.empty()) return Usage(argv[0]);

  auto address = net::Address::Parse(listen_spec);
  if (!address.ok()) {
    std::fprintf(stderr, "bad --listen: %s\n",
                 address.status().ToString().c_str());
    return 2;
  }

  // The simulated clock and LAN exist only because ServerTm's
  // constructor wants them; no simulated traffic ever flows — every
  // request arrives through the socket transport below.
  SimClock clock;
  rpc::Network network(&clock, /*seed=*/1);
  NodeId node = network.AddNode("concordd-shard" + std::to_string(shard));

  storage::Repository repository(&clock);
  repository.set_dov_id_shard(shard);
  tools::DefinePlaneSchema(&repository.schema());
  if (!data_dir.empty()) {
    storage::WalOptions wal;
    wal.coalesce_fsyncs = true;
    Status opened = repository.Open(data_dir, wal);
    if (!opened.ok()) {
      std::fprintf(stderr, "repository open failed: %s\n",
                   opened.ToString().c_str());
      return 1;
    }
  }

  txn::PermissiveScopeAuthority scope;
  txn::ServerTm tm(&repository, &network, node, &scope,
                   /*invalidations=*/nullptr, partitions);
  // Repository replay restored committed state; this restores the
  // staged-but-undecided layer on top of it.
  size_t restaged = tm.RestagePreparedFromStable();

  net::RpcServer::Options options;
  options.worker_threads = workers;
  net::RpcServer server(*address, options);
  server.RegisterMethod(txn::kServerServiceMethod,
                        txn::ServerServiceHandler(&tm));
  // Harness introspection: every DOV of a DA with its "value" attribute,
  // one "<dov> <value>" line per record. This is how the crash tests
  // assert both presence (committed survivors) and absence (aborted
  // checkins) without knowing server-assigned ids up front.
  server.RegisterMethod(
      "admin/dump_da",
      [&repository](const std::string& payload) -> Result<std::string> {
        DaId da(std::strtoull(payload.c_str(), nullptr, 10));
        std::string out;
        for (DovId dov : repository.graph(da).TopologicalOrder()) {
          auto record = repository.Get(dov);
          if (!record.ok()) continue;
          double value = record->data.GetNumeric("value").value_or(-1);
          out += std::to_string(dov.value()) + " " +
                 std::to_string(static_cast<long long>(value)) + "\n";
        }
        return out;
      });

  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "listen failed: %s\n", started.ToString().c_str());
    return 1;
  }

  std::printf("LISTENING %s\n", server.bound_address().ToString().c_str());
  std::printf("RESTAGED %zu\n", restaged);
  std::printf("READY\n");
  std::fflush(stdout);

  if (pipe(g_signal_pipe) != 0) {
    std::fprintf(stderr, "pipe failed: %s\n", std::strerror(errno));
    return 1;
  }
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = OnShutdownSignal;
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);

  char byte;
  while (read(g_signal_pipe[0], &byte, 1) < 0 && errno == EINTR) {
  }
  std::printf("SHUTDOWN\n");
  std::fflush(stdout);
  server.Shutdown();
  return 0;
}
