// Real-process crash testing: concordd server processes and
// concord_client workstations over actual sockets, with SIGKILL —
// not simulated Crash() — as the failure. The invariants:
//
//   1. Durability: every commit the client was ACKED survives the
//      server's kill -9 + restart (WAL replay) and reads back with the
//      same content through the full stack.
//   2. Atomicity: a checkin whose 2PC aborted is never visible, before
//      or after a crash — including cross-shard interactions killed
//      between phase 1 and the decision (the durable 2PC ledger).
//   3. In-doubt honesty: an attempt whose outcome the client could not
//      learn (kUnavailable) may land either way, but everything the
//      server exposes must be explainable as some acked-or-in-doubt
//      attempt — no third source of state.
//
// The binaries are injected by CMake (CONCORDD_BINARY,
// CONCORD_CLIENT_BINARY target-file definitions).

#include <gtest/gtest.h>
#include <stdlib.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "tests/process_harness.h"

namespace concord {
namespace {

using testing::ChildProcess;
using testing::RunToCompletion;

/// A fresh /tmp/concord_crash_* directory for one plane's data dirs and
/// sockets. Removed when the test passed; kept for inspection, with its
/// path printed, when the test failed.
struct PlaneDirs {
  PlaneDirs() {
    char tmpl[] = "/tmp/concord_crash_XXXXXX";
    char* dir = mkdtemp(tmpl);
    EXPECT_NE(dir, nullptr);
    owned = dir != nullptr;
    root = owned ? dir : "/tmp";
  }
  ~PlaneDirs() {
    if (!owned) return;
    if (::testing::Test::HasFailure()) {
      std::fprintf(stderr, "keeping %s for inspection\n", root.c_str());
      return;
    }
    std::error_code ec;
    std::filesystem::remove_all(root, ec);
  }
  PlaneDirs(const PlaneDirs&) = delete;
  PlaneDirs& operator=(const PlaneDirs&) = delete;

  std::string DataDir(int shard) const {
    return root + "/shard" + std::to_string(shard);
  }
  std::string SocketPath(int shard) const {
    return root + "/s" + std::to_string(shard) + ".sock";
  }
  std::string Addr(int shard) const { return "unix:" + SocketPath(shard); }

  std::string root;
  bool owned = false;
};

ChildProcess StartServer(const PlaneDirs& dirs, int shard,
                         bool expect_ready = true) {
  ChildProcess server = ChildProcess::Spawn(
      CONCORDD_BINARY, {"--listen=" + dirs.Addr(shard),
                        "--data-dir=" + dirs.DataDir(shard),
                        "--shard=" + std::to_string(shard)});
  if (expect_ready) {
    EXPECT_TRUE(server.WaitForLine("READY", 15000))
        << "concordd shard " << shard << " never became ready";
  }
  return server;
}

/// "COMMITTED <dov> <value>" -> (dov, value) pairs.
std::vector<std::pair<uint64_t, int64_t>> ParseCommitted(
    const std::vector<std::string>& lines) {
  std::vector<std::pair<uint64_t, int64_t>> out;
  for (const std::string& line : lines) {
    if (line.rfind("COMMITTED ", 0) != 0) continue;
    std::istringstream fields(line.substr(10));
    uint64_t dov;
    int64_t value;
    if (fields >> dov >> value) out.emplace_back(dov, value);
  }
  return out;
}

std::set<int64_t> ParseValues(const std::vector<std::string>& lines,
                              const char* prefix) {
  std::set<int64_t> out;
  size_t len = std::strlen(prefix);
  for (const std::string& line : lines) {
    if (line.rfind(prefix, 0) != 0) continue;
    std::istringstream fields(line.substr(len));
    int64_t value;
    if (fields >> value) out.insert(value);
  }
  return out;
}

/// Values visible in shard `home`'s repository for `da`, via the
/// admin/dump_da endpoint ("<dov> <value>" lines).
std::set<int64_t> DumpValues(const std::vector<std::string>& servers,
                             uint64_t da, int home) {
  std::vector<std::string> args = {"--client-id=99", "--mode=dump",
                                   "--da=" + std::to_string(da),
                                   "--home=" + std::to_string(home)};
  for (const std::string& server : servers) args.push_back("--server=" + server);
  std::vector<std::string> lines;
  int rc = RunToCompletion(CONCORD_CLIENT_BINARY, args, 30000, &lines);
  EXPECT_EQ(rc, 0) << "dump failed";
  std::set<int64_t> out;
  for (const std::string& line : lines) {
    std::istringstream fields(line);
    uint64_t dov;
    int64_t value;
    if (fields >> dov >> value) out.insert(value);
  }
  return out;
}

/// Writes "<dov> <value> <da>" expect lines and runs --mode=verify.
void VerifyCommitted(
    const PlaneDirs& dirs, const std::vector<std::string>& servers,
    const std::vector<std::pair<uint64_t, int64_t>>& committed,
    const std::vector<uint64_t>& das) {
  std::string expect_path = dirs.root + "/expect.txt";
  std::ofstream expect(expect_path);
  ASSERT_TRUE(expect.is_open());
  for (size_t i = 0; i < committed.size(); ++i) {
    expect << committed[i].first << " " << committed[i].second << " "
           << das[i] << "\n";
  }
  expect.close();
  std::vector<std::string> args = {"--client-id=98", "--mode=verify",
                                   "--expect=" + expect_path};
  for (const std::string& server : servers) args.push_back("--server=" + server);
  std::vector<std::string> lines;
  int rc = RunToCompletion(CONCORD_CLIENT_BINARY, args, 60000, &lines);
  std::string transcript;
  for (const std::string& line : lines) transcript += line + "\n";
  EXPECT_EQ(rc, 0) << "verification failed:\n" << transcript;
}

TEST(ProcessCrash, SingleShardSurvivesKillNineMidCommitStream) {
  PlaneDirs dirs;
  ChildProcess server = StartServer(dirs, 0);

  ChildProcess client = ChildProcess::Spawn(
      CONCORD_CLIENT_BINARY,
      {"--client-id=1", "--server=" + dirs.Addr(0), "--mode=churn", "--da=1",
       "--home=0", "--ops=40", "--value-base=1000", "--timeout-ms=3000",
       "--sleep-ms=20"});

  // Let commits flow, then kill -9 the server mid-stream: some call is
  // overwhelmingly likely to be between WAL append and reply.
  ASSERT_TRUE(client.WaitForLineCount("COMMITTED", 5, 30000))
      << "no commit stream";
  server.KillNine();

  // Restart on the same data dir: the WAL LOCK left by the dead pid
  // must be reclaimed, not refused.
  server = StartServer(dirs, 0);

  // The client's channel reconnects and the stream continues to the end.
  ASSERT_EQ(client.WaitExit(120000), 0);
  auto committed = ParseCommitted(client.lines());
  EXPECT_GE(committed.size(), 5u);
  // Attempts in the kill window are allowed to be in doubt — but never
  // silently lost: every one of the 40 reported some outcome.
  size_t reported = client.LinesWithPrefix("COMMITTED").size() +
                    client.LinesWithPrefix("INDOUBT").size() +
                    client.LinesWithPrefix("FAILED").size();
  EXPECT_EQ(reported, 40u);

  // Invariant 1: every acked commit is durable with the right content.
  VerifyCommitted(dirs, {dirs.Addr(0)}, committed,
                  std::vector<uint64_t>(committed.size(), 1));

  // Invariant 3: everything visible is an acked or in-doubt attempt.
  std::set<int64_t> acked = ParseValues(client.lines(), "COMMITTED ");
  std::set<int64_t> visible_acked;  // strip the dov column
  for (auto [dov, value] : committed) visible_acked.insert(value);
  std::set<int64_t> in_doubt = ParseValues(client.lines(), "INDOUBT ");
  std::set<int64_t> visible = DumpValues({dirs.Addr(0)}, 1, 0);
  for (int64_t value : visible) {
    EXPECT_TRUE(visible_acked.count(value) > 0 || in_doubt.count(value) > 0)
        << "server exposes value " << value
        << " from neither an acked nor an in-doubt attempt";
  }
  for (int64_t value : visible_acked) {
    EXPECT_TRUE(visible.count(value) > 0)
        << "acked value " << value << " missing from the repository";
  }
  server.Terminate();
}

TEST(ProcessCrash, CrossShardTwoPhaseCommitSurvivesParticipantKill) {
  PlaneDirs dirs;
  ChildProcess shard0 = StartServer(dirs, 0);
  ChildProcess shard1 = StartServer(dirs, 1);
  std::vector<std::string> servers = {dirs.Addr(0), dirs.Addr(1)};

  // crossfire: seeds DA 1 on shard 0 (values 2000..2011), then runs a
  // cross-shard interaction per seed — checkout-with-derivation-lock on
  // shard 0 + checkin on shard 1 under one true multi-participant 2PC
  // (values 102000..102011).
  ChildProcess client = ChildProcess::Spawn(
      CONCORD_CLIENT_BINARY,
      {"--client-id=2", "--server=" + servers[0], "--server=" + servers[1],
       "--mode=crossfire", "--da=1", "--home=0", "--da2=2", "--home2=1",
       "--ops=12", "--value-base=2000", "--timeout-ms=3000", "--sleep-ms=30"});

  // 12 seed commits + at least 2 cross-shard commits, then kill the
  // checkin participant mid-protocol.
  ASSERT_TRUE(client.WaitForLineCount("COMMITTED", 14, 60000))
      << "cross-shard commit stream never started";
  shard1.KillNine();
  shard1 = StartServer(dirs, 1);
  std::string restaged;
  shard1.WaitForLine("RESTAGED", 5000, &restaged);

  ASSERT_EQ(client.WaitExit(180000), 0);
  auto committed = ParseCommitted(client.lines());
  ASSERT_GE(committed.size(), 14u);

  // Every acked commit — seeds on shard 0 AND cross-shard checkins on
  // shard 1 — must read back through the restarted plane.
  std::vector<uint64_t> das;
  for (auto [dov, value] : committed) {
    das.push_back(value >= 100000 ? 2u : 1u);
  }
  VerifyCommitted(dirs, servers, committed, das);

  // Atomicity on the killed participant: everything DA 2 exposes on
  // shard 1 must be an acked or in-doubt cross-shard attempt.
  std::set<int64_t> acked;
  for (auto [dov, value] : committed) {
    if (value >= 100000) acked.insert(value);
  }
  std::set<int64_t> in_doubt = ParseValues(client.lines(), "INDOUBT ");
  std::set<int64_t> visible = DumpValues(servers, 2, 1);
  for (int64_t value : visible) {
    EXPECT_TRUE(acked.count(value) > 0 || in_doubt.count(value) > 0)
        << "shard 1 exposes cross-shard value " << value
        << " from neither an acked nor an in-doubt attempt";
  }
  for (int64_t value : acked) {
    EXPECT_TRUE(visible.count(value) > 0)
        << "acked cross-shard value " << value << " lost by the kill";
  }
  shard0.Terminate();
  shard1.Terminate();
}

TEST(ProcessCrash, AbortedCheckinsStayInvisibleAcrossRestart) {
  PlaneDirs dirs;
  ChildProcess server = StartServer(dirs, 0);

  // Every checkin violates the schema bound: the participant votes no,
  // the 2PC aborts by type, and the client learns it.
  std::vector<std::string> lines;
  int rc = RunToCompletion(
      CONCORD_CLIENT_BINARY,
      {"--client-id=3", "--server=" + dirs.Addr(0), "--mode=abort", "--da=5",
       "--home=0", "--ops=6", "--value-base=0", "--timeout-ms=5000"},
      60000, &lines);
  ASSERT_EQ(rc, 0);
  std::set<int64_t> aborted = ParseValues(lines, "ABORTED ");
  ASSERT_EQ(aborted.size(), 6u) << "expected every attempt to abort by type";

  // Invariant 2, pre-crash: nothing visible under the DA.
  EXPECT_TRUE(DumpValues({dirs.Addr(0)}, 5, 0).empty());

  // And the crash must not resurrect them from any staged state.
  server.KillNine();
  server = StartServer(dirs, 0);
  EXPECT_TRUE(DumpValues({dirs.Addr(0)}, 5, 0).empty());
  server.Terminate();
}

TEST(ProcessCrash, ClientsWithDistinctIdsShareOneServer) {
  // --client-id is the workstation's NodeId, the namespace of its DOP
  // and 2PC transaction ids: two clients streaming commits into one
  // concordd must never collide on a server-side registration.
  constexpr uint64_t kOps = 200;
  PlaneDirs dirs;
  ChildProcess server = StartServer(dirs, 0);
  auto churn = [&](int id, int da, int value_base) {
    return ChildProcess::Spawn(
        CONCORD_CLIENT_BINARY,
        {"--client-id=" + std::to_string(id), "--server=" + dirs.Addr(0),
         "--mode=churn", "--da=" + std::to_string(da), "--home=0",
         "--ops=" + std::to_string(kOps),
         "--value-base=" + std::to_string(value_base)});
  };
  ChildProcess first = churn(1, 1, 1000);
  ChildProcess second = churn(2, 2, 5000);
  ASSERT_EQ(first.WaitExit(120000), 0);
  ASSERT_EQ(second.WaitExit(120000), 0);
  for (ChildProcess* client : {&first, &second}) {
    std::string failures;
    for (const std::string& line : client->LinesWithPrefix("FAILED")) {
      failures += line + "\n";
    }
    EXPECT_TRUE(failures.empty()) << failures;
    EXPECT_EQ(client->LinesWithPrefix("COMMITTED").size() +
                  client->LinesWithPrefix("INDOUBT").size(),
              kOps);
  }
  server.Terminate();
}

TEST(ProcessCrash, ClientIdOutsideNodeIdRangeIsRefused) {
  // 0 is the invalid NodeId, and a NodeId must fit the top 32 bits of
  // the DOP and TxnIds it namespaces. Refused before any connection.
  for (const char* id : {"0", "4294967296", "-1", "7x", ""}) {
    std::vector<std::string> lines;
    int rc = RunToCompletion(
        CONCORD_CLIENT_BINARY,
        {std::string("--client-id=") + id, "--server=unix:/nonexistent.sock",
         "--mode=churn", "--da=1", "--ops=1"},
        10000, &lines);
    EXPECT_EQ(rc, 2) << "--client-id=" << id << " was accepted";
  }
}

TEST(ProcessCrash, WalLockReclaimedFromDeadPidButRefusedWhileHeld) {
  PlaneDirs dirs;

  // kill -9 leaves the LOCK file (with the dead holder's pid) behind;
  // the next incarnation must reclaim it and serve.
  ChildProcess first = StartServer(dirs, 0);
  first.KillNine();
  ChildProcess second = StartServer(dirs, 0);

  // While an incarnation is alive, a second process on the same data
  // dir must be refused (flock held), naming the live holder.
  ChildProcess intruder = StartServer(dirs, 0, /*expect_ready=*/false);
  EXPECT_NE(intruder.WaitExit(15000), 0)
      << "two concordd processes accepted the same data dir";
  EXPECT_TRUE(second.running());

  // Graceful shutdown releases the lock for the next tenant.
  second.Terminate();
  ChildProcess third = StartServer(dirs, 0);
  EXPECT_TRUE(third.running());
  third.Terminate();
}

}  // namespace
}  // namespace concord
