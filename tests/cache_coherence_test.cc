// Coherence suite for the workstation-side DOV cache: warm checkouts
// must skip the server round-trip, but a withdrawn / invalidated /
// derivation-locked DOV must never be served locally, across crashes,
// recovery points and context handovers. The threaded cases run under
// the TSAN CI leg together with a concurrent multi-designer ServerTm
// test (the DOP tables used to be unsynchronized).

#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "cooperation/cooperation_manager.h"
#include "rpc/invalidation.h"
#include "rpc/network.h"
#include "rpc/transactional_rpc.h"
#include "storage/repository.h"
#include "txn/client_tm.h"
#include "txn/dov_cache.h"
#include "txn/server_service.h"
#include "txn/server_tm.h"

namespace concord::txn {
namespace {

using storage::DesignSpecification;
using storage::Feature;

// --- DovCache unit tests --------------------------------------------------

storage::DovRecord MakeRecord(DovId id, DaId owner) {
  storage::DovRecord record;
  record.id = id;
  record.owner_da = owner;
  return record;
}

TEST(DovCacheTest, HitRequiresValidationForTheAskingDa) {
  DovCache cache;
  cache.Insert(DovId(1), MakeRecord(DovId(1), DaId(1)), DaId(1));
  EXPECT_TRUE(cache.Lookup(DovId(1), DaId(1)).ok());
  // Same bytes, different DA: visibility unproven -> miss.
  EXPECT_TRUE(cache.Lookup(DovId(1), DaId(2)).status().IsNotFound());
  cache.Insert(DovId(1), MakeRecord(DovId(1), DaId(1)), DaId(2));
  EXPECT_TRUE(cache.Lookup(DovId(1), DaId(2)).ok());
  EXPECT_EQ(cache.stats().hits, 2u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(DovCacheTest, LruEvictionBoundsSize) {
  DovCache cache(/*capacity=*/2);
  cache.Insert(DovId(1), MakeRecord(DovId(1), DaId(1)), DaId(1));
  cache.Insert(DovId(2), MakeRecord(DovId(2), DaId(1)), DaId(1));
  EXPECT_TRUE(cache.Lookup(DovId(1), DaId(1)).ok());  // 1 most recent
  cache.Insert(DovId(3), MakeRecord(DovId(3), DaId(1)), DaId(1));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(cache.Contains(DovId(1)));
  EXPECT_FALSE(cache.Contains(DovId(2)));  // LRU victim
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(DovCacheTest, OnlyAuthoritativeInsertReArmsTombstonedEntry) {
  DovCache cache;
  cache.Insert(DovId(1), MakeRecord(DovId(1), DaId(1)), DaId(1));
  EXPECT_TRUE(cache.Invalidate(DovId(1)));
  EXPECT_FALSE(cache.Contains(DovId(1)));
  EXPECT_TRUE(cache.IsTombstoned(DovId(1)));
  EXPECT_TRUE(cache.Lookup(DovId(1), DaId(1)).status().IsNotFound());
  // An insert based on a pre-invalidation server reply is refused...
  uint64_t stale_seq = 0;  // sampled before the invalidation above
  EXPECT_FALSE(cache.InsertIfCurrent(DovId(1), MakeRecord(DovId(1), DaId(1)),
                                     DaId(1), stale_seq));
  EXPECT_EQ(cache.stats().stale_inserts_refused, 1u);
  // ...but a fresh authoritative checkout (current seq) re-arms it.
  EXPECT_TRUE(cache.InsertIfCurrent(DovId(1), MakeRecord(DovId(1), DaId(1)),
                                    DaId(1), cache.InvalidationSeq(DovId(1))));
  EXPECT_FALSE(cache.IsTombstoned(DovId(1)));
  EXPECT_TRUE(cache.Lookup(DovId(1), DaId(1)).ok());
}

TEST(DovCacheTest, ClearDropsEntriesAndTombstones) {
  DovCache cache;
  cache.Insert(DovId(1), MakeRecord(DovId(1), DaId(1)), DaId(1));
  cache.Invalidate(DovId(2));
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.IsTombstoned(DovId(2)));
}

// --- Full-stack fixture ---------------------------------------------------

/// Manual assembly of the server stack (repository + server-TM + CM +
/// invalidation bus + ServerService RPC endpoint) with two
/// workstations behind ServerStubs, mirroring ConcordSystem's
/// wiring but with direct access to every component.
class CacheCoherenceTest : public ::testing::Test {
 protected:
  struct ForwardingScope : ScopeAuthority {
    cooperation::CooperationManager* cm = nullptr;
    bool InScope(DaId da, DovId dov) override { return cm->InScope(da, dov); }
  };

  CacheCoherenceTest() : network_(&clock_, 7), repo_(&clock_) {
    server_node_ = network_.AddNode("server");
    ws1_ = network_.AddNode("ws1");
    ws2_ = network_.AddNode("ws2");
    bus_ = std::make_unique<rpc::InvalidationBus>(&network_, server_node_);

    auto* block = repo_.schema().DefineType("block");
    auto* module = repo_.schema().DefineType("module");
    auto* chip = repo_.schema().DefineType("chip");
    block->AddAttr({"area", storage::AttrType::kDouble, false, {}, {}});
    module->AddAttr({"area", storage::AttrType::kDouble, false, {}, {}});
    chip->AddAttr({"area", storage::AttrType::kDouble, false, {}, {}});
    module->AddPart({block->id(), 0, 100});
    chip->AddPart({module->id(), 0, 100});
    chip_ = chip->id();
    module_ = module->id();

    server_ = std::make_unique<ServerTm>(&repo_, &network_, server_node_,
                                         &scope_, bus_.get());
    cm_ = std::make_unique<cooperation::CooperationManager>(
        &repo_, &server_->locks(), &clock_);
    scope_.cm = cm_.get();
    cm_->SetWithdrawalSink(
        [this](DaId da, DovId dov, bool invalidated, DovId replacement) {
          rpc::InvalidationMessage message;
          message.kind = invalidated
                             ? rpc::InvalidationMessage::Kind::kInvalidated
                             : rpc::InvalidationMessage::Kind::kWithdrawn;
          message.dov = dov;
          message.origin_da = da;
          message.replacement = replacement;
          bus_->Publish(message);
        });
    rpc_.RegisterHandler(server_node_, kServerServiceMethod,
                         ServerServiceHandler(server_.get()));
    stub1_ = std::make_unique<ServerStub>(server_node_,
                                          rpc_.Bind(ws1_, server_node_));
    stub2_ = std::make_unique<ServerStub>(server_node_,
                                          rpc_.Bind(ws2_, server_node_));
    client1_ = std::make_unique<ClientTm>(stub1_.get(), &network_, ws1_,
                                          &clock_, bus_.get());
    client2_ = std::make_unique<ClientTm>(stub2_.get(), &network_, ws2_,
                                          &clock_, bus_.get());

    DesignSpecification supporter_spec;
    supporter_spec.Add(Feature::AtMost("area_limit", "area", 100));
    top_ = InitDa(chip_, ws1_);
    supporter_ = SubDa(top_, module_, ws1_, supporter_spec);
    requirer_ = SubDa(top_, module_, ws2_);
  }

  DaId InitDa(DotId dot, NodeId ws, DesignSpecification spec = {}) {
    cooperation::DaDescription d;
    d.dot = dot;
    d.spec = std::move(spec);
    d.designer = DesignerId(1);
    d.workstation = ws;
    DaId da = *cm_->InitDesign(std::move(d));
    cm_->Start(da).ok();
    return da;
  }

  DaId SubDa(DaId super, DotId dot, NodeId ws, DesignSpecification spec = {}) {
    cooperation::DaDescription d;
    d.dot = dot;
    d.spec = std::move(spec);
    d.designer = DesignerId(1);
    d.workstation = ws;
    DaId da = *cm_->CreateSubDa(super, std::move(d));
    cm_->Start(da).ok();
    return da;
  }

  /// Commits one DOV owned by `da` (as the server-TM's checkin would).
  DovId MintDov(DaId da, double area) {
    TxnId txn = repo_.Begin();
    storage::DovRecord record;
    record.id = repo_.NextDovId();
    record.owner_da = da;
    record.type = module_;
    record.data = storage::DesignObject(module_);
    record.data.SetAttr("area", area);
    repo_.Put(txn, record).ok();
    repo_.Commit(txn).ok();
    server_->locks().SetScopeOwner(record.id, da);
    cm_->NoteCheckin(da, record.id);
    return record.id;
  }

  /// Establishes the usage relationship and pre-releases `dov`.
  void PropagateToRequirer(DovId dov) {
    ASSERT_TRUE(cm_->Require(requirer_, supporter_, {"area_limit"}).ok());
    ASSERT_TRUE(cm_->Propagate(supporter_, dov).ok());
  }

  SimClock clock_;
  rpc::Network network_;
  rpc::TransactionalRpc rpc_{&network_};
  storage::Repository repo_;
  ForwardingScope scope_;
  NodeId server_node_, ws1_, ws2_;
  DotId chip_, module_;
  std::unique_ptr<rpc::InvalidationBus> bus_;
  std::unique_ptr<ServerTm> server_;
  std::unique_ptr<cooperation::CooperationManager> cm_;
  std::unique_ptr<ServerStub> stub1_;
  std::unique_ptr<ServerStub> stub2_;
  std::unique_ptr<ClientTm> client1_;
  std::unique_ptr<ClientTm> client2_;
  DaId top_, supporter_, requirer_;
};

TEST_F(CacheCoherenceTest, WarmCheckoutSkipsServerRoundTrip) {
  DovId dov = MintDov(supporter_, 50);
  auto dop1 = client1_->BeginDop(supporter_);
  ASSERT_TRUE(client1_->Checkout(*dop1, dov).ok());
  EXPECT_EQ(server_->stats().checkouts, 1u);
  ASSERT_TRUE(client1_->AbortDop(*dop1).ok());

  uint64_t messages_before = network_.stats().messages_sent;
  auto dop2 = client1_->BeginDop(supporter_);
  uint64_t messages_after_begin = network_.stats().messages_sent;
  ASSERT_TRUE(client1_->Checkout(*dop2, dov).ok());
  // Warm checkout: zero network messages, zero server checkouts.
  EXPECT_EQ(network_.stats().messages_sent, messages_after_begin);
  EXPECT_EQ(server_->stats().checkouts, 1u);
  EXPECT_EQ(client1_->stats().checkouts_from_cache, 1u);
  EXPECT_EQ(client1_->stats().checkouts_from_server, 1u);
  EXPECT_GT(messages_after_begin, messages_before);  // Begin-of-DOP did talk
  // The served bytes are the real ones.
  auto obj = client1_->Input(*dop2, dov);
  ASSERT_TRUE(obj.ok());
  EXPECT_EQ(obj->GetAttr("area")->as_double(), 50.0);
}

TEST_F(CacheCoherenceTest, CachedBytesDoNotLeakAcrossDas) {
  DovId dov = MintDov(supporter_, 50);
  auto dop1 = client1_->BeginDop(supporter_);
  ASSERT_TRUE(client1_->Checkout(*dop1, dov).ok());  // cached on ws1

  // top_ also runs on ws1 but has no visibility of the supporter's
  // preliminary version: the cache must not serve it.
  auto dop_top = client1_->BeginDop(top_);
  Status st = client1_->Checkout(*dop_top, dov);
  EXPECT_TRUE(st.IsPermissionDenied()) << st.ToString();
  EXPECT_EQ(client1_->stats().checkouts_from_cache, 0u);
}

TEST_F(CacheCoherenceTest, WithdrawnDovNeverServedFromCache) {
  DovId dov = MintDov(supporter_, 50);
  PropagateToRequirer(dov);

  auto dop1 = client2_->BeginDop(requirer_);
  ASSERT_TRUE(client2_->Checkout(*dop1, dov).ok());
  ASSERT_TRUE(client2_->cache().Contains(dov));
  ASSERT_TRUE(client2_->AbortDop(*dop1).ok());

  // Withdrawal pushes the invalidation to every workstation cache.
  ASSERT_TRUE(cm_->WithdrawPropagation(supporter_, dov).ok());
  EXPECT_FALSE(client2_->cache().Contains(dov));

  // The next checkout is forced to the server, which now denies it.
  auto dop2 = client2_->BeginDop(requirer_);
  Status st = client2_->Checkout(*dop2, dov);
  EXPECT_TRUE(st.IsPermissionDenied()) << st.ToString();
  EXPECT_EQ(client2_->stats().checkouts_from_cache, 0u);
}

TEST_F(CacheCoherenceTest, InvalidationDropsCacheAndServesReplacement) {
  DovId dov = MintDov(supporter_, 50);
  DovId replacement = MintDov(supporter_, 40);
  PropagateToRequirer(dov);

  auto dop1 = client2_->BeginDop(requirer_);
  ASSERT_TRUE(client2_->Checkout(*dop1, dov).ok());
  ASSERT_TRUE(client2_->AbortDop(*dop1).ok());

  ASSERT_TRUE(cm_->InvalidateAndReplace(supporter_, dov, replacement).ok());
  EXPECT_FALSE(client2_->cache().Contains(dov));

  auto dop2 = client2_->BeginDop(requirer_);
  EXPECT_TRUE(client2_->Checkout(*dop2, dov).IsPermissionDenied());
  // The replacement was propagated in its place and is readable.
  EXPECT_TRUE(client2_->Checkout(*dop2, replacement).ok());
}

TEST_F(CacheCoherenceTest, DerivationLockPushInvalidatesRemoteCaches) {
  DovId dov = MintDov(supporter_, 50);
  PropagateToRequirer(dov);

  // ws2 warms its cache.
  auto dop_r = client2_->BeginDop(requirer_);
  ASSERT_TRUE(client2_->Checkout(*dop_r, dov).ok());
  ASSERT_TRUE(client2_->AbortDop(*dop_r).ok());
  ASSERT_TRUE(client2_->cache().Contains(dov));

  // The supporter takes the derivation lock on ws1: ws2's cached copy
  // would dodge the compatibility test, so the push must drop it.
  auto dop_s = client1_->BeginDop(supporter_);
  ASSERT_TRUE(
      client1_->Checkout(*dop_s, dov, /*take_derivation_lock=*/true).ok());
  EXPECT_FALSE(client2_->cache().Contains(dov));

  auto dop_r2 = client2_->BeginDop(requirer_);
  Status st = client2_->Checkout(*dop_r2, dov);
  EXPECT_TRUE(st.IsLockConflict()) << st.ToString();
  EXPECT_EQ(client2_->stats().checkouts_from_cache, 0u);  // never warm-served

  // Lock released at End-of-DOP: the requirer can read again (via the
  // server, re-arming its cache).
  ASSERT_TRUE(client1_->CommitDop(*dop_s).ok());
  EXPECT_TRUE(client2_->Checkout(*dop_r2, dov).ok());
}

TEST_F(CacheCoherenceTest, CacheDroppedOnCrashAndRewarmedByRecoveryBatch) {
  DovId dov = MintDov(supporter_, 50);
  auto dop = client1_->BeginDop(supporter_);
  ASSERT_TRUE(client1_->Checkout(*dop, dov).ok());
  ASSERT_TRUE(client1_->cache().Contains(dov));

  client1_->Crash();
  // The cache is volatile workstation memory: the crash empties it.
  EXPECT_EQ(client1_->cache().size(), 0u);
  uint64_t server_checkouts = server_->stats().checkouts;
  uint64_t rpc_calls = rpc_.stats().calls;
  ASSERT_TRUE(client1_->Recover().ok());
  // Recovery revalidated the recovery point's input with one batched
  // round trip: one RPC envelope, one authoritative server checkout,
  // and the entry is warm again — the proof is the server's, not the
  // stale pre-crash one.
  EXPECT_TRUE(client1_->Input(*dop, dov).ok());
  EXPECT_TRUE(client1_->cache().Contains(dov));
  EXPECT_EQ(server_->stats().checkouts, server_checkouts + 1);
  EXPECT_EQ(rpc_.stats().calls, rpc_calls + 1);
  EXPECT_EQ(client1_->stats().recovery_warmup_checkouts, 1u);
  // A new DOP's re-read of the same input is now a pure cache hit.
  auto dop2 = client1_->BeginDop(supporter_);
  server_checkouts = server_->stats().checkouts;
  ASSERT_TRUE(client1_->Checkout(*dop2, dov).ok());
  EXPECT_EQ(server_->stats().checkouts, server_checkouts);
  EXPECT_GT(client1_->stats().checkouts_from_cache, 0u);
}

TEST_F(CacheCoherenceTest, RecoveryRestartsColdWithWarmupDisabled) {
  DovId dov = MintDov(supporter_, 50);
  client1_->set_warm_cache_on_recovery(false);
  auto dop = client1_->BeginDop(supporter_);
  ASSERT_TRUE(client1_->Checkout(*dop, dov).ok());

  client1_->Crash();
  ASSERT_TRUE(client1_->Recover().ok());
  // The recovered context still holds the input (recovery point), but
  // the cache restarts cold: a new DOP's checkout pays the server trip.
  EXPECT_TRUE(client1_->Input(*dop, dov).ok());
  EXPECT_EQ(client1_->cache().size(), 0u);
  auto dop2 = client1_->BeginDop(supporter_);
  uint64_t server_checkouts = server_->stats().checkouts;
  ASSERT_TRUE(client1_->Checkout(*dop2, dov).ok());
  EXPECT_EQ(server_->stats().checkouts, server_checkouts + 1);
}

TEST_F(CacheCoherenceTest, OutageInvalidationIsNotResurrected) {
  DovId dov = MintDov(supporter_, 50);
  PropagateToRequirer(dov);

  // ws2 checks out (recovery point taken) and the DOP commits, making
  // it a handover candidate.
  auto dop = client2_->BeginDop(requirer_);
  ASSERT_TRUE(client2_->Checkout(*dop, dov).ok());
  ASSERT_TRUE(client2_->CommitDop(*dop).ok());

  client2_->Crash();
  // Withdrawal while ws2 is down: the push cannot be delivered and must
  // be queued, not dropped.
  ASSERT_TRUE(cm_->WithdrawPropagation(supporter_, dov).ok());
  EXPECT_EQ(bus_->PendingFor(ws2_), 1u);

  ASSERT_TRUE(client2_->Recover().ok());
  EXPECT_EQ(bus_->PendingFor(ws2_), 0u);  // flushed before traffic
  EXPECT_FALSE(client2_->cache().Contains(dov));
  EXPECT_TRUE(client2_->cache().IsTombstoned(dov));

  // Neither a recovery point nor a handover may resurrect the entry.
  auto successor = client2_->BeginDop(requirer_);
  ASSERT_TRUE(client2_->HandOverContext(*dop, *successor).ok());
  EXPECT_FALSE(client2_->cache().Contains(dov));
  Status st = client2_->Checkout(*successor, dov);
  EXPECT_TRUE(st.IsPermissionDenied()) << st.ToString();
  EXPECT_EQ(client2_->stats().checkouts_from_cache, 0u);
}

TEST_F(CacheCoherenceTest, HandOverContextCarriesCachedInputs) {
  DovId dov = MintDov(supporter_, 50);
  DovId final_dov = MintDov(supporter_, 30);
  auto dop1 = client1_->BeginDop(supporter_);
  ASSERT_TRUE(client1_->Checkout(*dop1, dov).ok());
  ASSERT_TRUE(client1_->Checkout(*dop1, final_dov).ok());
  ASSERT_TRUE(client1_->CommitDop(*dop1).ok());

  auto dop2 = client1_->BeginDop(supporter_);
  ASSERT_TRUE(client1_->HandOverContext(*dop1, *dop2).ok());
  // The successor sees the inputs without any checkout...
  EXPECT_TRUE(client1_->Input(*dop2, dov).ok());
  EXPECT_TRUE(client1_->Input(*dop2, final_dov).ok());
  // ...and its re-checkouts hit the cache: the entries were validated
  // for this same DA at the predecessor's checkouts.
  uint64_t server_checkouts = server_->stats().checkouts;
  ASSERT_TRUE(client1_->Checkout(*dop2, dov).ok());
  EXPECT_EQ(server_->stats().checkouts, server_checkouts);
  EXPECT_EQ(client1_->stats().checkouts_from_cache, 1u);
}

TEST_F(CacheCoherenceTest, HandoverCannotRevalidateWithdrawnGrant) {
  DovId dov = MintDov(supporter_, 50);
  // A second requiring DA hosted on ws1, next to the owner.
  DaId requirer1 = SubDa(top_, module_, ws1_);
  ASSERT_TRUE(cm_->Require(requirer1, supporter_, {"area_limit"}).ok());
  ASSERT_TRUE(cm_->Propagate(supporter_, dov).ok());

  auto dop_r = client1_->BeginDop(requirer1);
  ASSERT_TRUE(client1_->Checkout(*dop_r, dov).ok());
  ASSERT_TRUE(client1_->CommitDop(*dop_r).ok());

  // Withdrawal drops the entry everywhere and revokes the grant; the
  // owner then legitimately re-reads its own version, re-arming the
  // ws1 entry — validated for the owner ONLY.
  ASSERT_TRUE(cm_->WithdrawPropagation(supporter_, dov).ok());
  auto dop_s = client1_->BeginDop(supporter_);
  ASSERT_TRUE(client1_->Checkout(*dop_s, dov).ok());
  ASSERT_TRUE(client1_->cache().Contains(dov));

  // A handover to the requirer's successor must not piggy-back on the
  // owner's re-armed entry: the requirer's grant is gone, so its
  // checkout goes to the server and is denied there.
  auto successor = client1_->BeginDop(requirer1);
  ASSERT_TRUE(client1_->HandOverContext(*dop_r, *successor).ok());
  uint64_t hits_before = client1_->stats().checkouts_from_cache;
  Status st = client1_->Checkout(*successor, dov);
  EXPECT_TRUE(st.IsPermissionDenied()) << st.ToString();
  EXPECT_EQ(client1_->stats().checkouts_from_cache, hits_before);
}

// --- Typed unknown-DOP status after a server crash ------------------------

TEST_F(CacheCoherenceTest, PreCrashDopGetsTypedUnknownDopStatus) {
  DovId dov = MintDov(supporter_, 50);
  auto dop = client1_->BeginDop(supporter_);
  ASSERT_TRUE(client1_->Checkout(*dop, dov).ok());

  server_->Crash();
  ASSERT_TRUE(server_->Recover().ok());
  ASSERT_TRUE(cm_->Recover().ok());  // rebuild scope locks from meta

  // The registration died with the server: requests naming the DOP get
  // the typed status, not a generic not-found.
  storage::DesignObject obj(module_);
  obj.SetAttr("area", 10.0);
  auto checkin = server_->Checkin(*dop, obj, {dov}, clock_.Now());
  EXPECT_TRUE(checkin.status().IsUnknownDop()) << checkin.status().ToString();
  auto checkout = server_->Checkout(*dop, dov, false);
  EXPECT_TRUE(checkout.status().IsUnknownDop());
  EXPECT_TRUE(server_->CommitDop(*dop).IsUnknownDop());
  EXPECT_TRUE(server_->AbortDop(*dop).IsUnknownDop());
  EXPECT_TRUE(server_->DaOfDop(*dop).status().IsUnknownDop());
  EXPECT_GE(server_->stats().unknown_dop_requests, 5u);

  // An id that never existed still reads as plain not-found.
  EXPECT_TRUE(server_->Checkout(DopId(424242), dov, false)
                  .status()
                  .IsNotFound());

  // A fresh Begin-of-DOP works and re-arms the workstation.
  auto fresh = client1_->BeginDop(supporter_);
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(client1_->Checkout(*fresh, dov).ok());
}

// --- Threaded coherence (TSAN) --------------------------------------------

TEST_F(CacheCoherenceTest, CheckoutRacingWithdrawalStaysCoherent) {
  DovId dov = MintDov(supporter_, 50);
  PropagateToRequirer(dov);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> served{0};
  std::thread designer([&] {
    // ws2's designer keeps running DOPs against the shared version
    // while the supporter flaps its propagation.
    while (!stop.load()) {
      auto dop = client2_->BeginDop(requirer_);
      if (!dop.ok()) continue;
      Status st = client2_->Checkout(*dop, dov);
      if (st.ok()) ++served;
      client2_->AbortDop(*dop).ok();
    }
  });

  for (int round = 0; round < 200; ++round) {
    ASSERT_TRUE(cm_->WithdrawPropagation(supporter_, dov).ok());
    ASSERT_TRUE(cm_->Propagate(supporter_, dov).ok());
  }
  stop.store(true);
  designer.join();

  // Final withdrawal: whatever interleaving happened above, the cache
  // must end dropped and the server must deny.
  ASSERT_TRUE(cm_->WithdrawPropagation(supporter_, dov).ok());
  EXPECT_FALSE(client2_->cache().Contains(dov));
  auto dop = client2_->BeginDop(requirer_);
  EXPECT_TRUE(client2_->Checkout(*dop, dov).IsPermissionDenied());
}

TEST_F(CacheCoherenceTest, ConcurrentCmMutationStaysCoherent) {
  // CM mutators used to be single-threaded-writer; the DA table is now
  // mutex-guarded, so cooperation ops may run from designer threads.
  // Several threads each build their own sub-DA world (hierarchy ops),
  // mint versions and flap propagation toward a shared requirer, while
  // a reader thread hammers the scope/introspection surface the
  // server-TM uses concurrently.
  constexpr int kMutators = 4;
  constexpr int kRounds = 40;
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};

  std::thread reader([&] {
    while (!stop.load()) {
      for (DaId da : cm_->AllDas()) {
        cm_->InScope(da, DovId(1));
        cm_->StateOf(da).ok();
        cm_->Children(da);
        cm_->Depth(da);
      }
    }
  });

  std::vector<std::thread> mutators;
  for (int i = 0; i < kMutators; ++i) {
    mutators.emplace_back([&, i] {
      NodeId ws = network_.AddNode("cm_ws" + std::to_string(i));
      DaId supporter = SubDa(top_, module_, ws);
      DaId requirer = SubDa(top_, module_, ws);
      if (!cm_->Require(requirer, supporter, {}).ok()) ++failures;
      for (int round = 0; round < kRounds; ++round) {
        DovId dov = MintDov(supporter, 10.0 + i);
        if (!cm_->Propagate(supporter, dov).ok()) ++failures;
        if (!cm_->WithdrawPropagation(supporter, dov).ok()) ++failures;
        if (!cm_->Evaluate(supporter, dov).ok()) ++failures;
      }
    });
  }
  for (auto& t : mutators) t.join();
  stop.store(true);
  reader.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(cm_->stats().propagations,
            static_cast<uint64_t>(kMutators * kRounds));
  EXPECT_EQ(cm_->stats().withdrawals,
            static_cast<uint64_t>(kMutators * kRounds));
  // 2 sub-DAs per mutator plus the fixture's three.
  EXPECT_EQ(cm_->AllDas().size(), static_cast<size_t>(2 * kMutators + 3));
}

TEST_F(CacheCoherenceTest, ConcurrentMultiDesignerServerTm) {
  // One DA + workstation + client-TM per designer thread, all hammering
  // the one server-TM: registration table, derivation-lock lists and
  // stats must hold up (they used to be unsynchronized).
  constexpr int kDesigners = 4;
  constexpr int kIterations = 50;
  std::vector<DaId> das;
  std::vector<DovId> dovs;
  std::vector<std::unique_ptr<ServerStub>> stubs;  // outlive clients
  std::vector<std::unique_ptr<ClientTm>> clients;
  for (int i = 0; i < kDesigners; ++i) {
    NodeId ws = network_.AddNode("ws_t" + std::to_string(i));
    DaId da = SubDa(top_, module_, ws);
    das.push_back(da);
    dovs.push_back(MintDov(da, 10.0 + i));
    stubs.push_back(std::make_unique<ServerStub>(
        server_node_, rpc_.Bind(ws, server_node_)));
    clients.push_back(std::make_unique<ClientTm>(stubs.back().get(),
                                                 &network_, ws, &clock_,
                                                 bus_.get()));
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kDesigners; ++i) {
    threads.emplace_back([&, i] {
      for (int it = 0; it < kIterations; ++it) {
        auto dop = clients[i]->BeginDop(das[i]);
        if (!dop.ok()) {
          ++failures;
          continue;
        }
        bool lock = (it % 3) == 0;
        if (!clients[i]->Checkout(*dop, dovs[i], lock).ok()) ++failures;
        storage::DesignObject obj(module_);
        obj.SetAttr("area", 5.0);
        auto out = clients[i]->Checkin(*dop, obj, {dovs[i]});
        if (!out.ok()) ++failures;
        if (!clients[i]->CommitDop(*dop).ok()) ++failures;
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(server_->stats().dops_begun,
            static_cast<uint64_t>(kDesigners * kIterations));
  EXPECT_EQ(server_->stats().dops_committed,
            static_cast<uint64_t>(kDesigners * kIterations));
  EXPECT_EQ(server_->stats().checkins,
            static_cast<uint64_t>(kDesigners * kIterations));
  // Each designer's first checkout (and every derivation-locked one)
  // hits the server; the rest are warm.
  uint64_t total_cache_hits = 0;
  for (auto& client : clients) {
    total_cache_hits += client->stats().checkouts_from_cache;
  }
  EXPECT_EQ(server_->stats().checkouts + total_cache_hits,
            static_cast<uint64_t>(kDesigners * kIterations));
  EXPECT_GT(total_cache_hits, 0u);
}

}  // namespace
}  // namespace concord::txn
