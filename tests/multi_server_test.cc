// The sharded server plane: DOV-id shard routing, CM-driven placement
// with stale workstation caches (kWrongShard + refresh), true
// multi-participant 2PC for cross-shard checkin+commit — atomic under
// 30% message loss — and one-node crash independence (the surviving
// shard keeps serving; recovery re-derives the node's lock tables).

#include <gtest/gtest.h>
#include <stdlib.h>

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_tm_env.h"
#include "common/ids.h"
#include "common/serde.h"
#include "sim/simulator.h"
#include "storage/repository.h"
#include "storage/wal.h"
#include "txn/client_tm.h"
#include "txn/placement.h"
#include "txn/scope_authority.h"
#include "txn/server_service.h"
#include "txn/server_tm.h"

namespace concord::txn {
namespace {

/// The shared multi-node fixture is bench::TmEnv (one place to update
/// when the plane's wiring changes); this adapter only adds the
/// failure-injection and object helpers the tests need. Note TmEnv
/// pre-seeds one warm DOV per workstation, owned by DA(w+1) on
/// shard 0 — tests use DA ids >= 10 for their own activities.
struct Plane : bench::TmEnv {
  explicit Plane(int server_nodes, int workstations = 1, int partitions = 1)
      : bench::TmEnv(workstations, server_nodes, partitions) {}

  storage::DesignObject MakeObject(int64_t value) {
    storage::DesignObject object(dot);
    object.SetAttr("value", value);
    return object;
  }

  /// Seeds one committed DOV owned by `da` on `shard` (scope + data +
  /// placement).
  DovId Seed(size_t shard, DaId da, int64_t value) {
    return SeedOn(shard, da, value);
  }

  void CrashNode(size_t shard) {
    shards[shard].tm->Crash();
    rpc.ClearNodeState(shards[shard].node);
  }
};

/// One phase-1 data op as a direct staged executor call: it stages in
/// `txn`'s ledger entry but, unlike a phase-1 envelope through
/// DispatchBatch, persists nothing.
ServerReply Staged(ServerTm& tm, TxnId txn, ServerRequest op) {
  ServerReply reply;
  tm.Execute({&op, 1}, {&reply, 1}, txn);
  return reply;
}

/// The new DOV id a staged checkin answered with (invalid on failure).
DovId StagedDov(const ServerReply& reply) {
  const auto* checkin = std::get_if<CheckinReply>(&reply.body);
  return checkin == nullptr ? DovId() : checkin->dov;
}

TEST(MultiServerPlaneTest, DovIdsCarryTheirShard) {
  Plane plane(3);
  DovId s0 = plane.Seed(0, DaId(10), 1);
  DovId s1 = plane.Seed(1, DaId(11), 2);
  DovId s2 = plane.Seed(2, DaId(12), 3);
  EXPECT_EQ(DovShardOf(s0), 0u);
  EXPECT_EQ(DovShardOf(s1), 1u);
  EXPECT_EQ(DovShardOf(s2), 2u);
  // Per-shard local counters run independently (same first id on the
  // two untouched shards), so ids can never collide across shards.
  EXPECT_EQ(DovLocalOf(s1), DovLocalOf(s2));
  // Each shard's repository holds only its own ids.
  EXPECT_TRUE(plane.shards[1].repo->Contains(s1));
  EXPECT_FALSE(plane.shards[1].repo->Contains(s0));
}

TEST(MultiServerPlaneTest, PlacementLeastLoadedSpreadsDas) {
  Plane plane(2);
  NodeId first = plane.placement.AssignLeastLoaded(DaId(11));
  NodeId second = plane.placement.AssignLeastLoaded(DaId(12));
  EXPECT_NE(first, second);
  // Idempotent: a placed DA keeps its home.
  EXPECT_EQ(plane.placement.AssignLeastLoaded(DaId(11)), first);
  // Release frees the slot for the next assignment.
  plane.placement.Release(DaId(11));
  EXPECT_EQ(plane.placement.AssignLeastLoaded(DaId(13)), first);
}

TEST(MultiServerPlaneTest, PlacementSkipsDeadNodes) {
  Plane plane(2);
  plane.CrashNode(1);
  // Node 1's load counter is the lowest precisely because it is dead;
  // the liveness probe keeps fresh DAs off it.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(plane.placement.AssignLeastLoaded(DaId(20 + i)),
              plane.shards[0].node);
  }
  ASSERT_TRUE(plane.shards[1].tm->Recover().ok());
  EXPECT_EQ(plane.placement.AssignLeastLoaded(DaId(30)),
            plane.shards[1].node);
}

// --- PlacementClient -------------------------------------------------------

/// A placement authority stand-in: answers every lookup with `reply`
/// and counts the calls that reach it.
struct FakeAuthority {
  int calls = 0;
  std::string reply;

  rpc::CallFn Bind() {
    return [this](const std::string& method,
                  const std::string& /*request*/) -> Result<std::string> {
      EXPECT_EQ(method, kPlacementMethod);
      ++calls;
      return reply;
    };
  }
};

std::string HomeReply(NodeId home) {
  std::string reply;
  PutFixed64(&reply, home.value());
  return reply;
}

TEST(PlacementClientTest, SecondLookupIsServedFromTheCache) {
  FakeAuthority authority;
  authority.reply = HomeReply(NodeId(5));
  PlacementClient client(authority.Bind());
  for (int i = 0; i < 2; ++i) {
    auto home = client.HomeOf(DaId(10));
    ASSERT_TRUE(home.ok()) << home.status().ToString();
    EXPECT_EQ(*home, NodeId(5));
  }
  EXPECT_EQ(authority.calls, 1);
  PlacementClientStats stats = client.stats();
  EXPECT_EQ(stats.lookups, 2u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.fetches, 1u);
}

TEST(PlacementClientTest, ForgetForcesARefetch) {
  FakeAuthority authority;
  authority.reply = HomeReply(NodeId(5));
  PlacementClient client(authority.Bind());
  ASSERT_TRUE(client.HomeOf(DaId(10)).ok());
  client.Forget(DaId(10));
  authority.reply = HomeReply(NodeId(6));  // the DA migrated meanwhile
  auto home = client.HomeOf(DaId(10));
  ASSERT_TRUE(home.ok()) << home.status().ToString();
  EXPECT_EQ(*home, NodeId(6));
  EXPECT_EQ(authority.calls, 2);
  EXPECT_EQ(client.stats().invalidations, 1u);
  EXPECT_EQ(client.stats().fetches, 2u);
}

TEST(PlacementClientTest, UnknownDaIsNotFoundAndNotCached) {
  FakeAuthority authority;
  authority.reply = HomeReply(NodeId());
  PlacementClient client(authority.Bind());
  EXPECT_TRUE(client.HomeOf(DaId(10)).status().IsNotFound());
  EXPECT_TRUE(client.HomeOf(DaId(10)).status().IsNotFound());
  EXPECT_EQ(authority.calls, 2);
  EXPECT_EQ(client.stats().fetches, 0u);
  EXPECT_EQ(client.stats().cache_hits, 0u);
}

TEST(PlacementClientTest, ShortReplyIsInternal) {
  FakeAuthority authority;
  authority.reply = "abc";
  PlacementClient client(authority.Bind());
  EXPECT_EQ(client.HomeOf(DaId(10)).status().code(), StatusCode::kInternal);
  EXPECT_EQ(client.stats().fetches, 0u);
}

TEST(PlacementClientTest, RoundTripsThroughThePlacementHandler) {
  SimClock clock;
  rpc::Network network(&clock, 3);
  rpc::TransactionalRpc rpc(&network);
  NodeId authority = network.AddNode("server");
  NodeId ws = network.AddNode("ws");
  PlacementMap placement;
  placement.RegisterNode(authority);
  ASSERT_TRUE(placement.Assign(DaId(10), authority).ok());
  rpc.RegisterHandler(authority, kPlacementMethod,
                      PlacementHandler(&placement));
  PlacementClient client(rpc.Bind(ws, authority));
  auto home = client.HomeOf(DaId(10));
  ASSERT_TRUE(home.ok()) << home.status().ToString();
  EXPECT_EQ(*home, authority);
  EXPECT_TRUE(client.HomeOf(DaId(11)).status().IsNotFound());
  EXPECT_EQ(rpc.CallsTo(authority), 2u);
  // The handler rejects a lookup that is not one DA id.
  EXPECT_FALSE(rpc.Call(ws, authority, kPlacementMethod, "x").ok());
}

TEST(MultiServerPlaneTest, CrossShardCheckinCommitSpansBothShards) {
  Plane plane(2);
  DaId da(10);
  ASSERT_TRUE(plane.placement.Assign(da, plane.shards[1].node).ok());
  DovId input = plane.Seed(0, DaId(21), 5);

  ClientTm& tm = *plane.clients[0];
  auto dop = tm.BeginDop(da);
  ASSERT_TRUE(dop.ok()) << dop.status().ToString();
  // The input lives on shard 0: this checkout enlists the DOP there.
  ASSERT_TRUE(tm.Checkout(*dop, input).ok());
  uint64_t envelopes_before = tm.two_pc_stats().participant_envelopes;
  uint64_t calls_before[2] = {plane.rpc.CallsTo(plane.shards[0].node),
                              plane.rpc.CallsTo(plane.shards[1].node)};
  auto dov = tm.CheckinCommit(*dop, plane.MakeObject(6), {input});
  ASSERT_TRUE(dov.ok()) << dov.status().ToString();

  // Protocol shape: one phase-1 envelope and one Decide per
  // participant, each a single round trip to its shard.
  EXPECT_EQ(tm.two_pc_stats().participant_envelopes - envelopes_before, 4u);
  for (size_t shard = 0; shard < 2; ++shard) {
    EXPECT_EQ(plane.rpc.CallsTo(plane.shards[shard].node) -
                  calls_before[shard],
              2u)
        << "shard " << shard;
  }
  // The new DOV was created on the DA's home shard, and the End-of-DOP
  // resolved on every participant (true multi-participant 2PC).
  EXPECT_EQ(DovShardOf(*dov), 1u);
  EXPECT_TRUE(plane.shards[1].repo->Contains(*dov));
  EXPECT_EQ(plane.shards[0].tm->stats().txns_decided_commit, 1u);
  EXPECT_EQ(plane.shards[1].tm->stats().txns_decided_commit, 1u);
  EXPECT_EQ(tm.two_pc_stats().multi_node_protocols, 1u);
  // Both registrations are gone: a later request gets NotFound.
  EXPECT_TRUE(plane.shards[0].tm->DaOfDop(*dop).status().IsNotFound());
  EXPECT_TRUE(plane.shards[1].tm->DaOfDop(*dop).status().IsNotFound());
}

TEST(MultiServerPlaneTest, CrossShardCheckinFailureAbortsEverywhere) {
  Plane plane(2);
  DaId da(10);
  ASSERT_TRUE(plane.placement.Assign(da, plane.shards[1].node).ok());
  DovId input = plane.Seed(0, DaId(21), 5);

  ClientTm& tm = *plane.clients[0];
  auto dop = tm.BeginDop(da);
  ASSERT_TRUE(dop.ok());
  ASSERT_TRUE(tm.Checkout(*dop, input).ok());
  // Integrity failure: "value" is required. The home shard's vote is
  // honest (prepare runs the schema check), the decision is abort, and
  // the commit leg staged on shard 0 is discarded.
  storage::DesignObject bad(plane.dot);
  auto dov = tm.CheckinCommit(*dop, std::move(bad), {input});
  ASSERT_FALSE(dov.ok());
  EXPECT_TRUE(dov.status().IsConstraintViolation())
      << dov.status().ToString();

  // Nothing committed anywhere; the DOP is still live on both shards
  // and can finish normally afterwards.
  EXPECT_EQ(plane.shards[1].repo->DovsOf(da).size(), 0u);
  EXPECT_TRUE(plane.shards[0].tm->DaOfDop(*dop).ok());
  EXPECT_TRUE(plane.shards[1].tm->DaOfDop(*dop).ok());
  EXPECT_GE(plane.shards[0].tm->stats().txns_decided_abort, 1u);
  auto good = tm.CheckinCommit(*dop, plane.MakeObject(7), {input});
  EXPECT_TRUE(good.ok()) << good.status().ToString();
}

TEST(MultiServerPlaneTest,
     CrossShardCheckinCommitAbortsWhenAParticipantIsDown) {
  Plane plane(2);
  DaId da(10);
  ASSERT_TRUE(plane.placement.Assign(da, plane.shards[1].node).ok());
  DovId input = plane.Seed(0, DaId(21), 5);

  ClientTm& tm = *plane.clients[0];
  auto dop = tm.BeginDop(da);
  ASSERT_TRUE(dop.ok());
  ASSERT_TRUE(tm.Checkout(*dop, input).ok());  // enlists shard 0
  // Shard 0 dies between enlistment and the commit: its phase-1
  // envelope cannot be delivered, so the coordinator must abort.
  plane.CrashNode(0);
  auto dov = tm.CheckinCommit(*dop, plane.MakeObject(6), {input});
  EXPECT_FALSE(dov.ok());
  // The live participant applied nothing, and the abort decision
  // reached it: no stage is left waiting there.
  EXPECT_EQ(plane.shards[1].repo->DovsOf(da).size(), 0u);
  EXPECT_TRUE(plane.shards[1].tm->PreparedTxns().empty());
}

TEST(MultiServerPlaneTest, CrossShardAtomicityUnder30PercentLoss) {
  Plane plane(2);
  plane.network.set_loss_probability(0.30);
  DaId da(10);
  ASSERT_TRUE(plane.placement.Assign(da, plane.shards[1].node).ok());
  DovId input = plane.Seed(0, DaId(21), 5);

  ClientTm& tm = *plane.clients[0];
  int committed = 0, failed = 0;
  for (int i = 0; i < 60; ++i) {
    // Force a real cross-shard interaction every round: a cached
    // checkout would skip the shard-0 leg entirely.
    tm.cache().Invalidate(input);
    auto dop = tm.BeginDop(da);
    if (!dop.ok()) {
      ++failed;
      continue;
    }
    if (!tm.Checkout(*dop, input).ok()) {
      tm.AbortDop(*dop).ok();
      ++failed;
      continue;
    }
    auto dov = tm.CheckinCommit(*dop, plane.MakeObject(i), {input});
    if (dov.ok()) {
      // Committed on BOTH shards: the DOV exists on the home shard...
      EXPECT_TRUE(plane.shards[1].repo->Contains(*dov));
      // ...and no participant still holds the registration.
      EXPECT_TRUE(plane.shards[0].tm->DaOfDop(*dop).status().IsNotFound());
      EXPECT_TRUE(plane.shards[1].tm->DaOfDop(*dop).status().IsNotFound());
      ++committed;
    } else {
      tm.AbortDop(*dop).ok();
      ++failed;
    }
  }
  // Both shards or neither: every committed transaction left exactly
  // one DOV, every failed one left none.
  EXPECT_EQ(plane.shards[1].repo->DovsOf(da).size(),
            static_cast<size_t>(committed));
  EXPECT_EQ(plane.shards[0].repo->DovsOf(da).size(), 0u);
  EXPECT_GT(committed, 0);
  // The lossy link really was exercised.
  EXPECT_GT(plane.rpc.stats().retries, 0u);
}

TEST(MultiServerPlaneTest, OneNodeCrashLeavesOtherShardServing) {
  Plane plane(2);
  DaId da_alive(11);  // homed on shard 0
  DaId da_victim(12); // homed on shard 1
  ASSERT_TRUE(plane.placement.Assign(da_alive, plane.shards[0].node).ok());
  ASSERT_TRUE(plane.placement.Assign(da_victim, plane.shards[1].node).ok());
  DovId alive_input = plane.Seed(0, da_alive, 1);

  ClientTm& tm = *plane.clients[0];
  // Crash the non-coordinator node.
  plane.CrashNode(1);

  // The victim's shard is down: Begin-of-DOP cannot reach it.
  auto dead = tm.BeginDop(da_victim);
  EXPECT_FALSE(dead.ok());

  // The surviving shard serves its DA end to end, unaffected.
  auto dop = tm.BeginDop(da_alive);
  ASSERT_TRUE(dop.ok()) << dop.status().ToString();
  ASSERT_TRUE(tm.Checkout(*dop, alive_input).ok());
  auto dov = tm.CheckinCommit(*dop, plane.MakeObject(2), {alive_input});
  ASSERT_TRUE(dov.ok()) << dov.status().ToString();
  EXPECT_EQ(DovShardOf(*dov), 0u);

  // Recovery brings the crashed shard back into service.
  ASSERT_TRUE(plane.shards[1].tm->Recover().ok());
  auto revived = tm.BeginDop(da_victim);
  ASSERT_TRUE(revived.ok()) << revived.status().ToString();
  auto v = tm.CheckinCommit(*revived, plane.MakeObject(3), {});
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(DovShardOf(*v), 1u);
}

// Regression: a cross-shard CheckinCommit whose envelope BOTH enlists
// the new home and aborts (integrity failure) must leave the client's
// participant list and the server's registration table agreeing, so a
// retry with a valid object succeeds instead of wedging on kNotFound.
TEST(MultiServerPlaneTest, RetryAfterCrossShardAbortWithFreshEnlistment) {
  Plane plane(2);
  DaId da(10);
  ASSERT_TRUE(plane.placement.Assign(da, plane.shards[0].node).ok());
  ClientTm& tm = *plane.clients[0];
  auto dop = tm.BeginDop(da);  // enlists the old home (shard 0)
  ASSERT_TRUE(dop.ok());
  // Migrate under the client's cache; the next checkin must refresh
  // and enlist shard 1 inside the same (aborting) envelope.
  ASSERT_TRUE(plane.placement.Migrate(da, plane.shards[1].node).ok());
  storage::DesignObject bad(plane.dot);  // missing required "value"
  auto failed = tm.CheckinCommit(*dop, std::move(bad), {});
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(failed.status().IsConstraintViolation())
      << failed.status().ToString();
  // The DOP is registered at the new home despite the abort...
  EXPECT_TRUE(plane.shards[1].tm->DaOfDop(*dop).ok());
  // ...so the retry commits cleanly on it.
  auto dov = tm.CheckinCommit(*dop, plane.MakeObject(4), {});
  ASSERT_TRUE(dov.ok()) << dov.status().ToString();
  EXPECT_EQ(DovShardOf(*dov), 1u);
}

TEST(MultiServerPlaneTest, AbortDopToleratesDownParticipant) {
  Plane plane(2);
  DaId da(10);
  ASSERT_TRUE(plane.placement.Assign(da, plane.shards[1].node).ok());
  DovId input = plane.Seed(0, DaId(21), 5);
  ClientTm& tm = *plane.clients[0];
  auto dop = tm.BeginDop(da);
  ASSERT_TRUE(dop.ok());
  ASSERT_TRUE(tm.Checkout(*dop, input).ok());  // enlists shard 0 too
  // One participant crashes; the abort's independent fan-out must
  // still release the live shard and finish the DOP client-side (the
  // dead node's registration is volatile memory dying with it).
  plane.CrashNode(0);
  EXPECT_TRUE(tm.AbortDop(*dop).ok());
  EXPECT_TRUE(plane.shards[1].tm->DaOfDop(*dop).status().IsNotFound());
  auto state = tm.StateOf(*dop);
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(*state, DopState::kAborted);
}

TEST(MultiServerPlaneTest, StalePlacementCacheRefreshesOnWrongShard) {
  Plane plane(2);
  DaId da(10);
  ASSERT_TRUE(plane.placement.Assign(da, plane.shards[0].node).ok());

  ClientTm& tm = *plane.clients[0];
  auto dop1 = tm.BeginDop(da);
  ASSERT_TRUE(dop1.ok());
  auto first = tm.CheckinCommit(*dop1, plane.MakeObject(1), {});
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(DovShardOf(*first), 0u);

  // The CM migrates the DA; this workstation's cache still says
  // shard 0.
  ASSERT_TRUE(plane.placement.Migrate(da, plane.shards[1].node).ok());

  auto dop2 = tm.BeginDop(da);
  ASSERT_TRUE(dop2.ok());
  auto second = tm.CheckinCommit(*dop2, plane.MakeObject(2), {});
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  // The stale route was detected (kWrongShard), forgotten, re-fetched,
  // and the checkin landed on the new home.
  EXPECT_EQ(DovShardOf(*second), 1u);
  EXPECT_EQ(tm.stats().placement_refreshes, 1u);
  EXPECT_GE(plane.shards[0].tm->stats().wrong_shard_requests, 1u);
  // Old versions stay readable where they were created.
  tm.cache().Invalidate(*first);
  auto dop3 = tm.BeginDop(da);
  ASSERT_TRUE(dop3.ok());
  EXPECT_TRUE(tm.Checkout(*dop3, *first).ok());
}

TEST(MultiServerPlaneTest, DecideAbortUndoesPhaseOneSideEffects) {
  for (int partitions : {1, 4}) {
    SCOPED_TRACE("partitions=" + std::to_string(partitions));
    Plane plane(2, /*workstations=*/1, partitions);
    DaId da(10);
    ASSERT_TRUE(plane.placement.Assign(da, plane.shards[0].node).ok());
    DovId input = plane.Seed(0, da, 5);
    ServerTm& tm = *plane.shards[0].tm;

    TxnId txn(991);
    ASSERT_TRUE(tm.BeginDop(DopId(501), da).ok());
    ServerReply record = Staged(
        tm, txn, CheckoutRequest{DopId(501), input,
                                 /*take_derivation_lock=*/true});
    ASSERT_TRUE(record.status.ok()) << record.status.ToString();
    EXPECT_TRUE(std::holds_alternative<CheckoutReply>(record.body));
    EXPECT_EQ(tm.locks().DerivationHolder(input), da);
    ServerReply checkin = Staged(
        tm, txn, CheckinRequest{DopId(501), plane.MakeObject(6), {input}, 0});
    ASSERT_TRUE(checkin.status.ok()) << checkin.status.ToString();
    DovId staged = StagedDov(checkin);
    ASSERT_TRUE(staged.valid());
    EXPECT_TRUE(tm.HasPrepared(txn));
    EXPECT_FALSE(plane.shards[0].repo->Contains(staged));

    ASSERT_TRUE(tm.Decide(txn, /*commit=*/false).ok());
    EXPECT_FALSE(tm.HasPrepared(txn));
    // The staged checkin never reached the repository and the
    // derivation lock is free again; the registration SURVIVES the
    // abort (it is enlistment, not data — the client recorded this
    // node as a participant on the Begin reply, and both sides must
    // keep agreeing so a retried interaction can still run here).
    EXPECT_FALSE(plane.shards[0].repo->Contains(staged));
    EXPECT_TRUE(tm.DaOfDop(DopId(501)).ok());
    EXPECT_FALSE(tm.locks().DerivationHolder(input).valid());
    // A repeated decision is acknowledged idempotently.
    EXPECT_TRUE(tm.Decide(txn, false).ok());
  }
}

TEST(MultiServerPlaneTest, ServerCrashWipesPreparedLedger) {
  Plane plane(2);
  DaId da(10);
  ASSERT_TRUE(plane.placement.Assign(da, plane.shards[0].node).ok());
  ServerTm& tm = *plane.shards[0].tm;
  TxnId txn(992);
  ASSERT_TRUE(tm.BeginDop(DopId(502), da).ok());
  ServerReply checkin =
      Staged(tm, txn, CheckinRequest{DopId(502), plane.MakeObject(1), {}, 0});
  ASSERT_TRUE(checkin.status.ok()) << checkin.status.ToString();
  DovId staged = StagedDov(checkin);
  ASSERT_TRUE(staged.valid());
  EXPECT_TRUE(tm.HasPrepared(txn));
  plane.CrashNode(0);
  ASSERT_TRUE(tm.Recover().ok());
  // Presumed abort: the volatile ledger died with the node; the
  // decision is acknowledged but nothing applies.
  EXPECT_FALSE(tm.HasPrepared(txn));
  EXPECT_TRUE(tm.Decide(txn, true).ok());
  EXPECT_FALSE(plane.shards[0].repo->Contains(staged));
}

TEST(MultiServerPlaneTest, DecideDuringCrashWipeIsRefusedUntilRecovery) {
  // Regression for a fabricated commit ack the chaos harness found: a
  // Decide(commit) racing ServerTm::Crash could find the volatile
  // ledger already wiped and answer the idempotent "nothing staged"
  // OK — but the stage was PERSISTED, recovery re-stages it, and the
  // coordinator (holding the ack) never re-sends the decision, so the
  // staged checkin was lost forever. With a crash wipe pending, the
  // nothing-staged path must refuse instead.
  Plane plane(2);
  DaId da(10);
  ASSERT_TRUE(plane.placement.Assign(da, plane.shards[0].node).ok());
  ServerTm& tm = *plane.shards[0].tm;
  TxnId txn(993);
  ASSERT_TRUE(tm.BeginDop(DopId(503), da).ok());
  ServerReply checkin =
      Staged(tm, txn, CheckinRequest{DopId(503), plane.MakeObject(9), {}, 0});
  ASSERT_TRUE(checkin.status.ok()) << checkin.status.ToString();
  DovId staged = StagedDov(checkin);
  ASSERT_TRUE(staged.valid());
  ASSERT_TRUE(tm.PersistPrepared(txn).ok());
  plane.CrashNode(0);
  // The wipe beat this decision to the ledger: no ack, no effects.
  Status decide = tm.Decide(txn, /*commit=*/true);
  EXPECT_FALSE(decide.ok());
  EXPECT_FALSE(plane.shards[0].repo->Contains(staged));
  // Recovery re-stages the persisted entry; the retried decision
  // applies it, and one more retry is the ordinary duplicate ack.
  ASSERT_TRUE(tm.Recover().ok());
  EXPECT_TRUE(tm.HasPrepared(txn));
  EXPECT_TRUE(tm.Decide(txn, true).ok());
  EXPECT_TRUE(plane.shards[0].repo->Contains(staged));
  EXPECT_TRUE(tm.Decide(txn, true).ok());
}

/// One server-TM over a file-backed repository: WAL flushes are real
/// fsyncs, and Restart() closes the repository and re-opens it from its
/// directory, as a restarted concordd would.
class DurableServer {
 public:
  DurableServer() {
    char tmpl[] = "/tmp/concord_multi_server_XXXXXX";
    const char* dir = ::mkdtemp(tmpl);
    if (dir == nullptr) std::abort();
    dir_ = dir;
    Start();
  }
  ~DurableServer() {
    Stop();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  DurableServer(const DurableServer&) = delete;
  DurableServer& operator=(const DurableServer&) = delete;

  void Restart() {
    Stop();
    Start();
  }
  ServerTm& tm() { return *tm_; }
  storage::Repository& repo() { return *repo_; }

  storage::DesignObject MakeObject(int64_t value) const {
    storage::DesignObject object(dot_);
    object.SetAttr("value", value);
    return object;
  }

  /// Runs one envelope through the dispatch seam the transports use,
  /// which is where phase 1 persists its stage before the vote.
  BatchReply Dispatch(std::vector<ServerRequest> ops) {
    BatchRequest batch;
    batch.ops = std::move(ops);
    return DispatchBatch(*tm_, batch);
  }

 private:
  void Start() {
    repo_ = std::make_unique<storage::Repository>(&clock_);
    storage::DesignObjectType* type = repo_->schema().DefineType("cell");
    type->AddAttr({"value", storage::AttrType::kInt, true, 0.0, 1e9});
    dot_ = type->id();
    Status opened = repo_->Open(dir_);
    ASSERT_TRUE(opened.ok()) << opened.ToString();
    tm_ = std::make_unique<ServerTm>(repo_.get(), &network_, node_, &scope_);
  }
  void Stop() {
    tm_.reset();
    repo_.reset();  // closes the log
  }

  std::string dir_;
  SimClock clock_;
  rpc::Network network_{&clock_, 1};
  NodeId node_ = network_.AddNode("server");
  PermissiveScopeAuthority scope_;
  DotId dot_;
  std::unique_ptr<storage::Repository> repo_;
  std::unique_ptr<ServerTm> tm_;
};

/// Repository-transaction and WAL-flush counters, for deltas.
struct RepoCounts {
  uint64_t begun;
  uint64_t committed;
  size_t flushes;
  static RepoCounts Of(const storage::Repository& repo) {
    return {repo.stats().txns_begun.load(), repo.stats().txns_committed.load(),
            repo.wal().flushes()};
  }
};

/// The records of the last transaction committed to `repo`'s log, in
/// log order.
std::vector<storage::WalRecord> LastCommittedTxn(
    const storage::Repository& repo) {
  std::vector<storage::WalRecord> log = repo.wal().ReadAll();
  std::vector<storage::WalRecord> txn;
  for (auto it = log.rbegin(); it != log.rend(); ++it) {
    if (it->type != storage::WalRecord::Type::kCommit) continue;
    for (const storage::WalRecord& record : log) {
      if (record.txn == it->txn) txn.push_back(record);
    }
    break;
  }
  return txn;
}

std::string LedgerKey(TxnId txn) {
  return "2pc/" + std::to_string(txn.value());
}

bool VotedYes(const ServerReply& reply) {
  const auto* vote = std::get_if<PrepareReply>(&reply.body);
  return vote != nullptr && vote->vote;
}

/// Phase 1 of the checkin participant of a cross-shard CheckinCommit:
/// [Prepare, Checkin, CommitDop] for a DOP registered beforehand.
/// Returns the staged DOV id.
DovId PhaseOneCheckinStage(DurableServer& server, TxnId txn, DopId dop,
                           DaId da, int64_t value) {
  EXPECT_TRUE(server.tm().BeginDop(dop, da).ok());
  BatchReply reply = server.Dispatch(
      {PrepareRequest{txn},
       CheckinRequest{dop, server.MakeObject(value), {}, 0},
       CommitDopRequest{dop}});
  if (reply.ops.size() != 3) {
    ADD_FAILURE() << "phase 1 answered " << reply.ops.size() << " ops";
    return DovId();
  }
  for (const ServerReply& op : reply.ops) {
    EXPECT_TRUE(op.status.ok()) << op.status.ToString();
  }
  EXPECT_TRUE(VotedYes(reply.ops[0]));
  const auto* checkin = std::get_if<CheckinReply>(&reply.ops[1].body);
  return checkin == nullptr ? DovId() : checkin->dov;
}

TEST(MultiServerPlaneTest, FinishOnlyParticipantCommitsNoRepositoryTxn) {
  // The input-side participant of a cross-shard CheckinCommit stages
  // only its End-of-DOP. What that would release dies with the
  // process, so neither phase 1 nor the decision touches the log.
  DurableServer server;
  TxnId txn(0x100000001);
  DopId dop(0x100000007);
  ASSERT_TRUE(server.tm().BeginDop(dop, DaId(10)).ok());
  RepoCounts before = RepoCounts::Of(server.repo());

  BatchReply phase1 =
      server.Dispatch({PrepareRequest{txn}, CommitDopRequest{dop}});
  ASSERT_EQ(phase1.ops.size(), 2u);
  EXPECT_TRUE(VotedYes(phase1.ops[0]));
  EXPECT_TRUE(phase1.ops[1].status.ok()) << phase1.ops[1].status.ToString();
  EXPECT_TRUE(server.tm().HasPrepared(txn));
  EXPECT_TRUE(server.repo().MetaKeysWithPrefix("2pc/").empty());

  BatchReply decided = server.Dispatch({DecideRequest{txn, true}});
  ASSERT_EQ(decided.ops.size(), 1u);
  EXPECT_TRUE(decided.ops[0].status.ok()) << decided.ops[0].status.ToString();
  EXPECT_FALSE(server.tm().HasPrepared(txn));
  // The staged finish applied: the registration is released.
  EXPECT_TRUE(server.tm().DaOfDop(dop).status().IsNotFound());

  RepoCounts after = RepoCounts::Of(server.repo());
  EXPECT_EQ(after.begun - before.begun, 0u);
  EXPECT_EQ(after.committed - before.committed, 0u);
  EXPECT_EQ(after.flushes - before.flushes, 0u);
}

TEST(MultiServerPlaneTest, CheckinParticipantDecideIsOneRepositoryTxn) {
  DurableServer server;
  TxnId txn(0x200000001);
  DopId dop(0x200000003);
  DaId da(10);
  DovId dov = PhaseOneCheckinStage(server, txn, dop, da, 42);
  // Persist-before-vote: the stage is durable, nothing is applied.
  EXPECT_EQ(server.repo().MetaKeysWithPrefix("2pc/"),
            std::vector<std::string>{LedgerKey(txn)});
  EXPECT_FALSE(server.repo().Contains(dov));
  RepoCounts before = RepoCounts::Of(server.repo());

  BatchReply decided = server.Dispatch({DecideRequest{txn, true}});
  ASSERT_EQ(decided.ops.size(), 1u);
  EXPECT_TRUE(decided.ops[0].status.ok()) << decided.ops[0].status.ToString();

  // One repository transaction, one WAL flush...
  RepoCounts after = RepoCounts::Of(server.repo());
  EXPECT_EQ(after.begun - before.begun, 1u);
  EXPECT_EQ(after.committed - before.committed, 1u);
  EXPECT_EQ(after.flushes - before.flushes, 1u);
  // ...carrying both the DOV write and the ledger-key delete.
  std::vector<storage::WalRecord> last = LastCommittedTxn(server.repo());
  ASSERT_EQ(last.size(), 4u);
  EXPECT_EQ(last[0].type, storage::WalRecord::Type::kBegin);
  EXPECT_EQ(last[1].type, storage::WalRecord::Type::kWriteDov);
  ASSERT_TRUE(last[1].dov.has_value());
  EXPECT_EQ(last[1].dov->id, dov);
  EXPECT_EQ(last[2].type, storage::WalRecord::Type::kDeleteMeta);
  EXPECT_EQ(last[2].meta_key, LedgerKey(txn));
  EXPECT_EQ(last[3].type, storage::WalRecord::Type::kCommit);

  EXPECT_TRUE(server.repo().Contains(dov));
  EXPECT_TRUE(server.repo().MetaKeysWithPrefix("2pc/").empty());
  EXPECT_EQ(server.tm().locks().ScopeOwner(dov), da);
  EXPECT_TRUE(server.tm().DaOfDop(dop).status().IsNotFound());
  EXPECT_EQ(server.tm().stats().checkins, 1u);
}

TEST(MultiServerPlaneTest, DecidedCommitSurvivesRestartWithNoLedgerResidue) {
  DurableServer server;
  TxnId txn(0x300000001);
  DovId dov =
      PhaseOneCheckinStage(server, txn, DopId(0x300000005), DaId(10), 7);
  ASSERT_TRUE(server.tm().Decide(txn, /*commit=*/true).ok());

  server.Restart();
  auto record = server.repo().Get(dov);
  ASSERT_TRUE(record.ok()) << record.status().ToString();
  EXPECT_EQ(record->data.GetNumeric("value").value_or(-1), 7);
  EXPECT_TRUE(server.repo().MetaKeysWithPrefix("2pc/").empty());
  EXPECT_EQ(server.tm().RestagePreparedFromStable(), 0u);
  EXPECT_FALSE(server.tm().HasPrepared(txn));
}

TEST(MultiServerPlaneTest, MultiPartitionStageAppliesInOneRepositoryTxn) {
  Plane plane(1, /*workstations=*/1, /*partitions=*/2);
  ServerTm& tm = *plane.shards[0].tm;
  storage::Repository& repo = *plane.shards[0].repo;
  DaId da(10);
  DopId dop(0x400000002);
  TxnId txn(0x400000001);
  ASSERT_TRUE(tm.BeginDop(dop, da).ok());
  ServerReply first_reply =
      Staged(tm, txn, CheckinRequest{dop, plane.MakeObject(1), {}, 0});
  ServerReply second_reply =
      Staged(tm, txn, CheckinRequest{dop, plane.MakeObject(2), {}, 0});
  ASSERT_TRUE(first_reply.status.ok()) << first_reply.status.ToString();
  ASSERT_TRUE(second_reply.status.ok()) << second_reply.status.ToString();
  const DovId first = StagedDov(first_reply);
  const DovId second = StagedDov(second_reply);
  size_t p_first = DovPartitionOf(first, 2);
  size_t p_second = DovPartitionOf(second, 2);
  ASSERT_NE(p_first, p_second) << "consecutive ids share a partition";
  ASSERT_TRUE(tm.PersistPrepared(txn).ok());
  uint64_t checkins_first = tm.partition_stats(p_first).checkins;
  uint64_t checkins_second = tm.partition_stats(p_second).checkins;
  RepoCounts before = RepoCounts::Of(repo);

  ASSERT_TRUE(tm.Decide(txn, /*commit=*/true).ok());

  // Atomic: both records and the ledger delete in one transaction.
  RepoCounts after = RepoCounts::Of(repo);
  EXPECT_EQ(after.committed - before.committed, 1u);
  std::vector<storage::WalRecord> last = LastCommittedTxn(repo);
  ASSERT_EQ(last.size(), 5u);
  ASSERT_TRUE(last[1].dov.has_value() && last[2].dov.has_value());
  EXPECT_EQ(last[1].dov->id, first);
  EXPECT_EQ(last[2].dov->id, second);
  EXPECT_EQ(last[3].type, storage::WalRecord::Type::kDeleteMeta);
  EXPECT_TRUE(repo.Contains(first));
  EXPECT_TRUE(repo.Contains(second));
  // Each partition handed its new DOV to the DA's scope and counted it.
  EXPECT_EQ(tm.locks().ScopeOwner(first), da);
  EXPECT_EQ(tm.locks().ScopeOwner(second), da);
  EXPECT_EQ(tm.partition_stats(p_first).checkins, checkins_first + 1);
  EXPECT_EQ(tm.partition_stats(p_second).checkins, checkins_second + 1);
  EXPECT_FALSE(tm.HasPrepared(txn));
}

TEST(MultiServerPlaneTest, WrongShardCheckinIsTyped) {
  Plane plane(2, /*workstations=*/1);
  DaId da(10);
  ASSERT_TRUE(plane.placement.Assign(da, plane.shards[1].node).ok());
  // Direct single-op call against the wrong node's service.
  ServerStub stub(plane.shards[0].node,
                  plane.rpc.Bind(plane.clients[0]->node(),
                                 plane.shards[0].node));
  BatchRequest begin;
  begin.ops.emplace_back(BeginDopRequest{DopId(601), da});
  auto begun = stub.Execute(begin);
  ASSERT_TRUE(begun.ok() && begun->ops.front().status.ok());
  BatchRequest checkin;
  checkin.ops.emplace_back(
      CheckinRequest{DopId(601), plane.MakeObject(1), {}, 0});
  auto dov = stub.Execute(checkin);
  ASSERT_TRUE(dov.ok());
  const Status& status = dov->ops.front().status;
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(status.IsWrongShard()) << status.ToString();
}

/// Two designer threads, two shards, cross-shard commits racing — the
/// plane's tables (placement, ledger, per-node dedup) must be
/// TSAN-clean.
TEST(MultiServerPlaneTest, ConcurrentCrossShardCommits) {
  Plane plane(2, /*workstations=*/2);
  DovId input0 = plane.Seed(0, DaId(21), 1);
  DovId input1 = plane.Seed(1, DaId(22), 2);
  ASSERT_TRUE(plane.placement.Assign(DaId(11), plane.shards[0].node).ok());
  ASSERT_TRUE(plane.placement.Assign(DaId(12), plane.shards[1].node).ok());

  auto worker = [&](int w, DaId da, DovId cross_input) {
    ClientTm& tm = *plane.clients[w];
    for (int i = 0; i < 25; ++i) {
      tm.cache().Invalidate(cross_input);
      auto dop = tm.BeginDop(da);
      ASSERT_TRUE(dop.ok());
      ASSERT_TRUE(tm.Checkout(*dop, cross_input).ok());
      auto dov = tm.CheckinCommit(*dop, plane.MakeObject(i), {cross_input});
      ASSERT_TRUE(dov.ok()) << dov.status().ToString();
    }
  };
  // Each workstation's DA reads a seed on the OTHER shard: every
  // commit is multi-participant.
  std::thread t0(worker, 0, DaId(11), input1);
  std::thread t1(worker, 1, DaId(12), input0);
  t0.join();
  t1.join();
  EXPECT_EQ(plane.shards[0].repo->DovsOf(DaId(11)).size(), 25u);
  EXPECT_EQ(plane.shards[1].repo->DovsOf(DaId(12)).size(), 25u);
}

/// The partitioned plane under fire: every node runs 4 executor
/// partitions, every commit is multi-participant (the DA's home on one
/// shard, the checked-out inputs on the other), the inputs and the
/// created DOVs span all four partitions of each node, and the LAN
/// drops 30% of the messages — with four designer threads racing.
/// Atomicity must hold op by op (both shards or neither), and the
/// whole storm must be TSAN-clean.
TEST(MultiServerPlaneTest, PartitionedCrossShardAtomicityUnder30PercentLoss) {
  constexpr int kThreads = 4;
  constexpr int kRounds = 20;
  Plane plane(2, /*workstations=*/kThreads, /*partitions=*/4);
  ASSERT_EQ(plane.shards[0].tm->partition_count(), 4u);

  // Four sequential seeds per shard: DovPartitionOf round-robins them
  // over all four partitions, so a 4-input checkout fans across the
  // whole node.
  std::vector<DovId> inputs_on[2];
  for (int s = 0; s < 2; ++s) {
    for (int i = 0; i < 4; ++i) {
      inputs_on[s].push_back(
          plane.Seed(static_cast<size_t>(s), DaId(60 + s), i));
    }
  }
  // Thread t's DA is homed on shard t%2 and reads the OTHER shard's
  // seeds: every CheckinCommit is a two-participant 2PC.
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(plane.placement
                    .Assign(DaId(40 + t), plane.shards[t % 2].node)
                    .ok());
  }

  plane.network.set_loss_probability(0.30);
  int committed[kThreads] = {};
  auto designer = [&](int t) {
    ClientTm& tm = *plane.clients[t];
    DaId da(40 + t);
    const std::vector<DovId>& inputs = inputs_on[(t + 1) % 2];
    for (int round = 0; round < kRounds; ++round) {
      for (DovId input : inputs) tm.cache().Invalidate(input);
      auto dop = tm.BeginDop(da);
      if (!dop.ok()) continue;
      bool checked_out = true;
      std::vector<DovId> read;
      for (DovId input : inputs) {
        if (tm.Checkout(*dop, input).ok()) {
          read.push_back(input);
        } else {
          checked_out = false;
          break;
        }
      }
      if (!checked_out) {
        tm.AbortDop(*dop).ok();
        continue;
      }
      auto dov = tm.CheckinCommit(*dop, plane.MakeObject(round), read);
      if (dov.ok()) {
        // Committed on BOTH shards: the new DOV exists on the home
        // shard and no participant still holds the registration.
        EXPECT_TRUE(plane.shards[t % 2].repo->Contains(*dov));
        EXPECT_TRUE(
            plane.shards[0].tm->DaOfDop(*dop).status().IsNotFound());
        EXPECT_TRUE(
            plane.shards[1].tm->DaOfDop(*dop).status().IsNotFound());
        ++committed[t];
      } else {
        tm.AbortDop(*dop).ok();
      }
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(designer, t);
  for (auto& thread : threads) thread.join();
  plane.network.set_loss_probability(0.0);

  int total_committed = 0;
  for (int t = 0; t < kThreads; ++t) {
    total_committed += committed[t];
    // Both shards or neither, per DA: every committed round left
    // exactly one DOV on the home shard and none on the participant.
    EXPECT_EQ(plane.shards[t % 2].repo->DovsOf(DaId(40 + t)).size(),
              static_cast<size_t>(committed[t]));
    EXPECT_EQ(plane.shards[(t + 1) % 2].repo->DovsOf(DaId(40 + t)).size(),
              0u);
  }
  EXPECT_GT(total_committed, 0);
  // The storm really exercised what it claims: a lossy link (retries),
  // both 2PC ledgers, and choreographies spanning partitions.
  EXPECT_GT(plane.rpc.stats().retries, 0u);
  for (int s = 0; s < 2; ++s) {
    ServerTmStats stats = plane.shards[s].tm->stats();
    EXPECT_GT(stats.txns_decided_commit + stats.txns_decided_abort, 0u);
    EXPECT_GT(stats.cross_partition_ops, 0u);
  }
}

}  // namespace
}  // namespace concord::txn

namespace concord::sim {
namespace {

TEST(MultiServerSimulationTest, TwoNodePlaneCompletesAndReportsPerNode) {
  SimulationOptions options;
  options.designs = 4;
  options.complexity = 4;
  options.server_nodes = 2;
  MultiDesignerSimulation simulation(options);
  auto report = simulation.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->designs_completed, 4);
  ASSERT_EQ(report->per_node_round_trips.size(), 2u);
  // The CM's least-loaded placement spread the designs: both nodes
  // carried real traffic.
  EXPECT_GT(report->per_node_round_trips[0], 0u);
  EXPECT_GT(report->per_node_round_trips[1], 0u);
  // Accounting is consistent: the per-node split sums to the total.
  EXPECT_EQ(report->per_node_round_trips[0] + report->per_node_round_trips[1],
            report->rpc_calls);
}

TEST(MultiServerSimulationTest, SingleNodeReportUnchangedShape) {
  SimulationOptions options;
  options.designs = 2;
  options.complexity = 4;
  MultiDesignerSimulation simulation(options);
  auto report = simulation.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->designs_completed, 2);
  ASSERT_EQ(report->per_node_round_trips.size(), 1u);
  EXPECT_EQ(report->per_node_round_trips[0], report->rpc_calls);
  EXPECT_EQ(report->cross_shard_interactions, 0u);
}

}  // namespace
}  // namespace concord::sim
