// The typed ServerService protocol: wire-codec round trips, batch
// envelope semantics, and — now that checkout/checkin/begin/commit/
// abort ride rpc::TransactionalRpc — message-loss regressions proving
// at-most-once server effects with correct retry accounting.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "rpc/network.h"
#include "rpc/transactional_rpc.h"
#include "storage/repository.h"
#include "storage/wal_codec.h"
#include "txn/client_tm.h"
#include "txn/server_service.h"
#include "txn/server_tm.h"

namespace concord::txn {
namespace {

// --- Wire codec -----------------------------------------------------------

TEST(ServerServiceCodecTest, BatchRequestRoundTrips) {
  storage::DesignObject object(DotId(7));
  object.SetAttr("value", static_cast<int64_t>(42));
  storage::DesignObject child(DotId(8));
  child.SetAttr("name", std::string("leaf"));
  object.AddChild(child);

  BatchRequest batch;
  batch.ops.emplace_back(PrepareRequest{TxnId(9)});
  batch.ops.emplace_back(BeginDopRequest{DopId(1), DaId(2)});
  batch.ops.emplace_back(CheckoutRequest{DopId(1), DovId(3), true});
  batch.ops.emplace_back(
      CheckinRequest{DopId(1), object, {DovId(3), DovId(4)}, 77});
  batch.ops.emplace_back(CommitDopRequest{DopId(1)});
  batch.ops.emplace_back(AbortDopRequest{DopId(5)});
  batch.ops.emplace_back(DaOfDopRequest{DopId(6)});
  batch.ops.emplace_back(DecideRequest{TxnId(9), false});

  auto decoded = DecodeBatchRequest(EncodeBatchRequest(batch));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->ops.size(), batch.ops.size());
  EXPECT_EQ(std::get<PrepareRequest>(decoded->ops[0]).txn, TxnId(9));
  EXPECT_EQ(std::get<BeginDopRequest>(decoded->ops[1]).da, DaId(2));
  const auto& checkout = std::get<CheckoutRequest>(decoded->ops[2]);
  EXPECT_EQ(checkout.dov, DovId(3));
  EXPECT_TRUE(checkout.take_derivation_lock);
  const auto& checkin = std::get<CheckinRequest>(decoded->ops[3]);
  EXPECT_EQ(checkin.predecessors.size(), 2u);
  EXPECT_EQ(checkin.created_at, 77);
  EXPECT_EQ(checkin.object.GetAttr("value")->as_int(), 42);
  ASSERT_EQ(checkin.object.children().size(), 1u);
  EXPECT_EQ(checkin.object.children()[0].GetAttr("name")->as_string(), "leaf");
  EXPECT_EQ(std::get<DaOfDopRequest>(decoded->ops[6]).dop, DopId(6));
  EXPECT_FALSE(std::get<DecideRequest>(decoded->ops[7]).commit);
}

TEST(ServerServiceCodecTest, BatchReplyRoundTripsTypedStatuses) {
  storage::DovRecord record;
  record.id = DovId(11);
  record.owner_da = DaId(3);
  record.data = storage::DesignObject(DotId(7));

  BatchReply reply;
  reply.ops.push_back({Status::OK(), PrepareReply{true}});
  reply.ops.push_back({Status::OK(), CheckoutReply{record}});
  reply.ops.push_back({Status::LockConflict("derivation-locked"), AckReply{}});
  reply.ops.push_back({Status::UnknownDop("wiped by crash"), AckReply{}});
  reply.ops.push_back({Status::OK(), CheckinReply{DovId(12)}});
  reply.ops.push_back({Status::OK(), DaOfDopReply{DaId(4)}});

  auto decoded = DecodeBatchReply(EncodeBatchReply(reply));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->ops.size(), 6u);
  EXPECT_TRUE(std::get<PrepareReply>(decoded->ops[0].body).vote);
  EXPECT_EQ(std::get<CheckoutReply>(decoded->ops[1].body).record.id,
            DovId(11));
  // The typed failure categories survive the wire — a lock conflict or
  // a crash-wiped registration stays distinguishable on the far side.
  EXPECT_TRUE(decoded->ops[2].status.IsLockConflict());
  EXPECT_EQ(decoded->ops[2].status.message(), "derivation-locked");
  EXPECT_TRUE(decoded->ops[3].status.IsUnknownDop());
  EXPECT_EQ(std::get<CheckinReply>(decoded->ops[4].body).dov, DovId(12));
  EXPECT_EQ(std::get<DaOfDopReply>(decoded->ops[5].body).da, DaId(4));
}

TEST(ServerServiceCodecTest, MalformedPayloadsRejected) {
  EXPECT_FALSE(DecodeBatchRequest("xy").ok());           // short header
  EXPECT_FALSE(DecodeBatchReply("\xff\xff\xff\xff").ok());  // absurd count
  std::string valid = EncodeBatchRequest(
      BatchRequest{{ServerRequest{CommitDopRequest{DopId(1)}}}});
  EXPECT_TRUE(DecodeBatchRequest(valid).ok());
  EXPECT_FALSE(DecodeBatchRequest(valid + "trailing").ok());
  valid.back() = '\x09';  // unknown request tag
  EXPECT_FALSE(DecodeBatchRequest(std::string_view(valid).substr(0, 4)).ok());
}

TEST(ServerServiceCodecTest, DesignObjectPayloadRoundTrips) {
  storage::DesignObject object(DotId(3));
  object.SetAttr("d", 2.5);
  object.SetAttr("flag", true);
  auto decoded = storage::DecodeDesignObject(storage::EncodeDesignObject(object));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->GetAttr("d")->as_double(), 2.5);
  EXPECT_TRUE(decoded->GetAttr("flag")->as_bool());
  EXPECT_FALSE(storage::DecodeDesignObject("bogus").ok());
}

// --- ServerStub contract (fake transport) ---------------------------------

/// A transport stand-in: records what the stub sends and answers with
/// `reply`.
struct FakeTransport {
  std::string method;
  std::string request;
  Result<std::string> reply = std::string();

  rpc::CallFn Bind() {
    return [this](const std::string& m,
                  const std::string& r) -> Result<std::string> {
      method = m;
      request = r;
      return reply;
    };
  }
};

BatchRequest TwoOpBatch() {
  BatchRequest batch;
  batch.ops.emplace_back(BeginDopRequest{DopId(1), DaId(2)});
  batch.ops.emplace_back(CommitDopRequest{DopId(1)});
  return batch;
}

TEST(ServerStubTest, CallsTheServiceMethodWithTheEncodedBatch) {
  FakeTransport transport;
  BatchReply two;
  two.ops.resize(2);
  transport.reply = EncodeBatchReply(two);
  ServerStub stub(NodeId(7), transport.Bind());
  EXPECT_EQ(stub.server_node(), NodeId(7));
  auto reply = stub.Execute(TwoOpBatch());
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->ops.size(), 2u);
  EXPECT_EQ(transport.method, kServerServiceMethod);
  EXPECT_EQ(transport.request, EncodeBatchRequest(TwoOpBatch()));
}

TEST(ServerStubTest, TransportErrorComesBackUnchanged) {
  FakeTransport transport;
  transport.reply = Status::Unavailable("link down");
  ServerStub stub(NodeId(7), transport.Bind());
  auto reply = stub.Execute(TwoOpBatch());
  ASSERT_FALSE(reply.ok());
  EXPECT_TRUE(reply.status().IsUnavailable());
  EXPECT_EQ(reply.status().message(), "link down");
}

TEST(ServerStubTest, UndecodableReplyIsAnError) {
  FakeTransport transport;
  transport.reply = std::string("not a batch reply");
  ServerStub stub(NodeId(7), transport.Bind());
  EXPECT_FALSE(stub.Execute(TwoOpBatch()).ok());
}

TEST(ServerStubTest, ReplyOfTheWrongArityIsInternal) {
  FakeTransport transport;
  BatchReply one;
  one.ops.resize(1);
  transport.reply = EncodeBatchReply(one);
  ServerStub stub(NodeId(7), transport.Bind());
  auto reply = stub.Execute(TwoOpBatch());
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kInternal);
}

// --- Full-stack fixture ---------------------------------------------------

class ServerServiceTest : public ::testing::Test {
 protected:
  explicit ServerServiceTest(int partitions = 1)
      : network_(&clock_, 11), rpc_(&network_), repo_(&clock_) {
    server_node_ = network_.AddNode("server");
    ws_ = network_.AddNode("ws1");
    auto* type = repo_.schema().DefineType("thing");
    type->AddAttr({"value", storage::AttrType::kInt, true, 0.0, 1000.0});
    dot_ = type->id();
    server_ = std::make_unique<ServerTm>(&repo_, &network_, server_node_,
                                         &scope_, nullptr, partitions);
    rpc_.RegisterHandler(server_node_, kServerServiceMethod,
                         ServerServiceHandler(server_.get()));
    stub_ = std::make_unique<ServerStub>(server_node_,
                                         rpc_.Bind(ws_, server_node_));
    client_ = std::make_unique<ClientTm>(stub_.get(), &network_, ws_, &clock_);
  }

  storage::DesignObject MakeObj(int64_t value) {
    storage::DesignObject obj(dot_);
    obj.SetAttr("value", value);
    return obj;
  }

  /// Ships `op` as a one-request envelope and returns its reply.
  ServerReply SendOne(ServerRequest op) {
    BatchRequest batch;
    batch.ops.push_back(std::move(op));
    auto reply = stub_->Execute(batch);
    if (!reply.ok()) return ServerReply{reply.status(), AckReply{}};
    EXPECT_EQ(reply->ops.size(), 1u);
    return std::move(reply->ops.front());
  }

  DovId Seed(DaId da, int64_t value) {
    TxnId txn = repo_.Begin();
    storage::DovRecord record;
    record.id = repo_.NextDovId();
    record.owner_da = da;
    record.type = dot_;
    record.data = MakeObj(value);
    repo_.Put(txn, record).ok();
    repo_.Commit(txn).ok();
    server_->locks().SetScopeOwner(record.id, da);
    return record.id;
  }

  SimClock clock_;
  rpc::Network network_;
  rpc::TransactionalRpc rpc_;
  storage::Repository repo_;
  PermissiveScopeAuthority scope_;
  NodeId server_node_;
  NodeId ws_;
  DotId dot_;
  std::unique_ptr<ServerTm> server_;
  std::unique_ptr<ServerStub> stub_;
  std::unique_ptr<ClientTm> client_;
};

// --- Envelope semantics ---------------------------------------------------

TEST_F(ServerServiceTest, OneOpEnvelopesHitTheServerTm) {
  DovId input = Seed(DaId(1), 5);
  ASSERT_TRUE(SendOne(BeginDopRequest{DopId(100), DaId(1)}).status.ok());
  ServerReply record = SendOne(CheckoutRequest{DopId(100), input});
  ASSERT_TRUE(record.status.ok());
  EXPECT_EQ(std::get<CheckoutReply>(record.body)
                .record.data.GetAttr("value")
                ->as_int(),
            5);
  ServerReply dov =
      SendOne(CheckinRequest{DopId(100), MakeObj(6), {input}, clock_.Now()});
  ASSERT_TRUE(dov.status.ok());
  EXPECT_EQ(std::get<DaOfDopReply>(SendOne(DaOfDopRequest{DopId(100)}).body).da,
            DaId(1));
  ServerReply vote = SendOne(PrepareRequest{TxnId(1)});
  ASSERT_TRUE(vote.status.ok());
  EXPECT_TRUE(std::get<PrepareReply>(vote.body).vote);
  EXPECT_TRUE(SendOne(CommitDopRequest{DopId(100)}).status.ok());
  EXPECT_EQ(server_->stats().checkins, 1u);
  // Every one-op envelope was one countable RPC envelope.
  EXPECT_EQ(rpc_.stats().calls, 6u);
}

TEST_F(ServerServiceTest, BatchSkipsDataOpsAfterFailure) {
  ASSERT_TRUE(SendOne(BeginDopRequest{DopId(100), DaId(1)}).status.ok());
  BatchRequest batch;
  batch.ops.emplace_back(PrepareRequest{TxnId(1)});
  // Violates the attribute bound -> checkin failure.
  batch.ops.emplace_back(CheckinRequest{DopId(100), MakeObj(5000), {}, 0});
  batch.ops.emplace_back(CommitDopRequest{DopId(100)});
  batch.ops.emplace_back(DecideRequest{TxnId(1), true});
  auto reply = stub_->Execute(batch);
  ASSERT_TRUE(reply.ok());
  EXPECT_TRUE(std::get<PrepareReply>(reply->ops[0].body).vote);
  EXPECT_TRUE(reply->ops[1].status.IsConstraintViolation());
  // The commit was skipped, not executed: the DOP is still registered.
  EXPECT_TRUE(reply->ops[2].status.IsAborted());
  EXPECT_TRUE(reply->ops[3].status.ok());  // control leg always answers
  EXPECT_EQ(server_->stats().dops_committed, 0u);
  EXPECT_TRUE(SendOne(DaOfDopRequest{DopId(100)}).status.ok());
}

TEST_F(ServerServiceTest, ClientTmTrafficIsVisibleInRpcStats) {
  DovId input = Seed(DaId(1), 5);
  auto dop = client_->BeginDop(DaId(1));
  ASSERT_TRUE(dop.ok());
  ASSERT_TRUE(client_->Checkout(*dop, input).ok());
  auto out = client_->Checkin(*dop, MakeObj(6), {input});
  ASSERT_TRUE(out.ok());
  ASSERT_TRUE(client_->CommitDop(*dop).ok());
  // begin + checkout + checkin + commit = 4 envelopes, zero raw 2PC
  // side-channels: the protocol legs rode inside the envelopes.
  EXPECT_EQ(rpc_.stats().calls, 4u);
  EXPECT_EQ(client_->two_pc_stats().protocols_run, 4u);
  EXPECT_EQ(client_->two_pc_stats().committed, 4u);
}

TEST_F(ServerServiceTest, BatchedCheckinCommitSavesARoundTrip) {
  DovId input = Seed(DaId(1), 5);

  auto dop = client_->BeginDop(DaId(1));
  ASSERT_TRUE(client_->Checkout(*dop, input).ok());
  uint64_t calls_before = rpc_.stats().calls;
  auto out = client_->CheckinCommit(*dop, MakeObj(6), {input});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(rpc_.stats().calls, calls_before + 1);  // ONE envelope
  EXPECT_EQ(*client_->StateOf(*dop), DopState::kCommitted);
  EXPECT_EQ(client_->stats().batched_checkin_commits, 1u);

  client_->set_batching(false);
  auto dop2 = client_->BeginDop(DaId(1));
  calls_before = rpc_.stats().calls;
  auto out2 = client_->CheckinCommit(*dop2, MakeObj(7), {});
  ASSERT_TRUE(out2.ok());
  EXPECT_EQ(rpc_.stats().calls, calls_before + 2);  // checkin, then commit
  EXPECT_EQ(server_->stats().dops_committed, 2u);
}

TEST_F(ServerServiceTest, BatchedCheckinFailureLeavesDopActive) {
  auto dop = client_->BeginDop(DaId(1));
  auto out = client_->CheckinCommit(*dop, MakeObj(5000), {});  // bound violated
  EXPECT_TRUE(out.status().IsConstraintViolation());
  EXPECT_EQ(*client_->StateOf(*dop), DopState::kActive);
  EXPECT_EQ(server_->stats().dops_committed, 0u);
  // Fixed object commits fine afterwards.
  EXPECT_TRUE(client_->CheckinCommit(*dop, MakeObj(10), {}).ok());
  EXPECT_EQ(*client_->StateOf(*dop), DopState::kCommitted);
}

TEST_F(ServerServiceTest, OwnCheckinIsServedFromCache) {
  auto dop = client_->BeginDop(DaId(1));
  auto out = client_->CheckinCommit(*dop, MakeObj(6), {});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(client_->stats().checkin_cache_inserts, 1u);
  // Re-reading one's own checkin from a successor DOP is a cache hit:
  // no server checkout, no RPC.
  auto dop2 = client_->BeginDop(DaId(1));
  uint64_t calls_before = rpc_.stats().calls;
  ASSERT_TRUE(client_->Checkout(*dop2, *out).ok());
  EXPECT_EQ(rpc_.stats().calls, calls_before);
  EXPECT_EQ(server_->stats().checkouts, 0u);
  EXPECT_EQ(client_->stats().checkouts_from_cache, 1u);
  auto obj = client_->Input(*dop2, *out);
  ASSERT_TRUE(obj.ok());
  EXPECT_EQ(obj->GetAttr("value")->as_int(), 6);
}

// --- Message loss ---------------------------------------------------------

TEST_F(ServerServiceTest, LossyLanMasksLossWithAtMostOnceEffects) {
  DovId input = Seed(DaId(1), 5);
  network_.set_loss_probability(0.3);

  constexpr int kCycles = 40;
  int completed = 0;
  for (int i = 0; i < kCycles; ++i) {
    auto dop = client_->BeginDop(DaId(1));
    if (!dop.ok()) continue;  // retries exhausted: rare but legal
    if (!client_->Checkout(*dop, input, /*take_derivation_lock=*/true).ok()) {
      client_->AbortDop(*dop).ok();
      continue;
    }
    auto out = client_->CheckinCommit(*dop, MakeObj(i % 100), {input});
    if (out.ok()) ++completed;
  }
  // The reliable channel must mask 30% loss almost always (5 retries
  // per envelope); a handful of exhausted-retry failures is tolerated.
  EXPECT_GE(completed, kCycles * 4 / 5);

  // At-most-once server effects: every completed cycle executed its
  // checkin and commit EXACTLY once — duplicates were suppressed by
  // the dedup table, not replayed into the repository.
  EXPECT_EQ(server_->stats().checkins,
            static_cast<uint64_t>(completed) +
                server_->stats().checkin_failures);
  EXPECT_EQ(server_->stats().dops_committed,
            static_cast<uint64_t>(completed));
  EXPECT_EQ(repo_.stats().dovs_written,
            static_cast<uint64_t>(completed) + 1);  // +1 for the seed

  // Retry accounting: loss showed up as retries and (for lost replies)
  // suppressed duplicate executions, all visible in RpcStats.
  EXPECT_GT(rpc_.stats().retries, 0u);
  EXPECT_GT(rpc_.stats().duplicate_suppressed, 0u);
  EXPECT_GT(network_.stats().messages_lost, 0u);
}

TEST_F(ServerServiceTest, LossNeverDuplicatesDerivationLockState) {
  DovId input = Seed(DaId(1), 5);
  network_.set_loss_probability(0.35);
  for (int i = 0; i < 30; ++i) {
    auto dop = client_->BeginDop(DaId(1));
    if (!dop.ok()) continue;
    bool locked =
        client_->Checkout(*dop, input, /*take_derivation_lock=*/true).ok();
    if (locked) {
      // The lock was granted exactly once; End-of-DOP must free it even
      // when the envelope needed retries.
      EXPECT_EQ(server_->locks().DerivationHolder(input), DaId(1));
    }
    client_->AbortDop(*dop).ok();
  }
  network_.set_loss_probability(0.0);
  // After the last End-of-DOP the lock table must be clean — a retried
  // checkout that executed twice would have leaked a second acquisition.
  auto dop = client_->BeginDop(DaId(2));
  ASSERT_TRUE(dop.ok());
  EXPECT_TRUE(client_->Checkout(*dop, input).ok());
}

TEST_F(ServerServiceTest, ServerCrashFailsFastAndTypedStatusAfterRecovery) {
  DovId input = Seed(DaId(1), 5);
  auto dop = client_->BeginDop(DaId(1));
  ASSERT_TRUE(client_->Checkout(*dop, input).ok());

  network_.SetNodeUp(server_node_, false);
  uint64_t retries_before = rpc_.stats().retries;
  auto out = client_->Checkin(*dop, MakeObj(6), {input});
  EXPECT_TRUE(out.status().IsUnavailable()) << out.status().ToString();
  // Crash, not loss: fail fast without burning the retry budget.
  EXPECT_EQ(rpc_.stats().retries, retries_before);

  // Simulated server restart: volatile DOP registrations and the RPC
  // dedup table die; the repository recovers from its WAL.
  server_->Crash();
  rpc_.ClearNodeState(server_node_);
  ASSERT_TRUE(server_->Recover().ok());

  // The typed unknown-DOP status crosses the wire intact.
  auto after = client_->Checkin(*dop, MakeObj(6), {input});
  EXPECT_TRUE(after.status().IsUnknownDop()) << after.status().ToString();
  EXPECT_TRUE(client_->CommitDop(*dop).IsUnknownDop());

  // A fresh Begin-of-DOP re-registers and completes the work.
  auto fresh = client_->BeginDop(DaId(1));
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(client_->Checkout(*fresh, input).ok());
  EXPECT_TRUE(client_->CheckinCommit(*fresh, MakeObj(6), {input}).ok());
}

// The workstation-recovery warm-up is the one multi-op independent
// envelope production sends; it runs at K = 1 and K = 4 partitions.
class ServerServiceWarmupTest : public ServerServiceTest,
                                public ::testing::WithParamInterface<int> {
 protected:
  ServerServiceWarmupTest() : ServerServiceTest(GetParam()) {}
};

INSTANTIATE_TEST_SUITE_P(Partitions, ServerServiceWarmupTest,
                         ::testing::Values(1, 4));

TEST_P(ServerServiceWarmupTest, RecoveryWarmupRevalidatesInOneRoundTrip) {
  DovId a = Seed(DaId(1), 1);
  DovId b = Seed(DaId(1), 2);
  auto dop = client_->BeginDop(DaId(1));
  ASSERT_TRUE(client_->Checkout(*dop, a).ok());
  ASSERT_TRUE(client_->Checkout(*dop, b).ok());

  client_->Crash();
  uint64_t calls_before = rpc_.stats().calls;
  ASSERT_TRUE(client_->Recover().ok());
  // Both inputs revalidated with ONE BatchRequest envelope.
  EXPECT_EQ(rpc_.stats().calls, calls_before + 1);
  // ... and that envelope ran as one executor call.
  EXPECT_EQ(server_->stats().pipelined_batches, 1u);
  EXPECT_EQ(client_->stats().recovery_warmup_checkouts, 2u);
  EXPECT_TRUE(client_->cache().Contains(a));
  EXPECT_TRUE(client_->cache().Contains(b));
}

TEST_P(ServerServiceWarmupTest, WarmupIsIndependentAcrossInputs) {
  // The warm-up batch runs its checkouts independently: one input that
  // became invisible during the outage must not keep the rest cold
  // (the dependent-chain skip rule is for checkin+commit, not here).
  DovId blocked = Seed(DaId(1), 1);
  DovId visible = Seed(DaId(1), 2);
  auto dop = client_->BeginDop(DaId(1));
  ASSERT_TRUE(client_->Checkout(*dop, blocked).ok());
  ASSERT_TRUE(client_->Checkout(*dop, visible).ok());

  client_->Crash();
  // While the workstation is down, another DA derivation-locks
  // `blocked`: its warm-up checkout will now fail the compatibility
  // test. (Map iteration is id-ordered, so `blocked` — the smaller id —
  // is revalidated first and would poison a dependent chain.)
  ASSERT_LT(blocked.value(), visible.value());
  ASSERT_TRUE(server_->BeginDop(DopId(900), DaId(2)).ok());
  ASSERT_TRUE(server_->Checkout(DopId(900), blocked, true).ok());

  ASSERT_TRUE(client_->Recover().ok());
  EXPECT_FALSE(client_->cache().Contains(blocked));
  EXPECT_TRUE(client_->cache().Contains(visible));
  EXPECT_EQ(client_->stats().recovery_warmup_checkouts, 1u);
}

}  // namespace
}  // namespace concord::txn
