#include <gtest/gtest.h>

#include "rpc/network.h"
#include "rpc/transactional_rpc.h"
#include "storage/repository.h"
#include "txn/client_tm.h"
#include "txn/lock_manager.h"
#include "txn/server_service.h"
#include "txn/server_tm.h"

namespace concord::txn {
namespace {

// --- LockManager ---------------------------------------------------------

TEST(LockManagerTest, DerivationLockExclusivePerDa) {
  LockManager locks;
  EXPECT_TRUE(locks.AcquireDerivation(DovId(1), DaId(1)).ok());
  EXPECT_TRUE(locks.AcquireDerivation(DovId(1), DaId(1)).ok());  // reentrant
  EXPECT_TRUE(locks.AcquireDerivation(DovId(1), DaId(2)).IsLockConflict());
  EXPECT_EQ(locks.DerivationHolder(DovId(1)), DaId(1));
  EXPECT_EQ(locks.stats().derivation_conflicts, 1u);
}

TEST(LockManagerTest, ReleaseDerivationChecksHolder) {
  LockManager locks;
  locks.AcquireDerivation(DovId(1), DaId(1)).ok();
  EXPECT_TRUE(locks.ReleaseDerivation(DovId(1), DaId(2)).IsFailedPrecondition());
  EXPECT_TRUE(locks.ReleaseDerivation(DovId(1), DaId(1)).ok());
  EXPECT_FALSE(locks.DerivationHolder(DovId(1)).valid());
  EXPECT_TRUE(locks.ReleaseDerivation(DovId(1), DaId(1)).IsFailedPrecondition());
}

TEST(LockManagerTest, ReleaseAllDerivationForDa) {
  LockManager locks;
  locks.AcquireDerivation(DovId(1), DaId(1)).ok();
  locks.AcquireDerivation(DovId(2), DaId(1)).ok();
  locks.AcquireDerivation(DovId(3), DaId(2)).ok();
  EXPECT_EQ(locks.ReleaseAllDerivation(DaId(1)), 2);
  EXPECT_EQ(locks.DerivationHolder(DovId(3)), DaId(2));
}

TEST(LockManagerTest, ScopeOwnershipAndUsageGrants) {
  LockManager locks;
  locks.SetScopeOwner(DovId(1), DaId(1));
  EXPECT_TRUE(locks.CanRead(DaId(1), DovId(1)));
  EXPECT_FALSE(locks.CanRead(DaId(2), DovId(1)));
  locks.GrantUsageRead(DovId(1), DaId(2));
  EXPECT_TRUE(locks.CanRead(DaId(2), DovId(1)));
  locks.RevokeUsageRead(DovId(1), DaId(2));
  EXPECT_FALSE(locks.CanRead(DaId(2), DovId(1)));
  EXPECT_GT(locks.stats().scope_denials, 0u);
}

TEST(LockManagerTest, InheritanceMovesOnlyListedFinals) {
  LockManager locks;
  locks.SetScopeOwner(DovId(1), DaId(2));  // final
  locks.SetScopeOwner(DovId(2), DaId(2));  // preliminary: stays with sub
  locks.InheritScopeLocks(DaId(1), DaId(2), {DovId(1)});
  EXPECT_EQ(locks.ScopeOwner(DovId(1)), DaId(1));
  EXPECT_EQ(locks.ScopeOwner(DovId(2)), DaId(2));
  EXPECT_EQ(locks.stats().inheritances, 1u);
}

TEST(LockManagerTest, InheritanceIgnoresForeignDovs) {
  LockManager locks;
  locks.SetScopeOwner(DovId(1), DaId(3));  // owned by someone else
  locks.InheritScopeLocks(DaId(1), DaId(2), {DovId(1)});
  EXPECT_EQ(locks.ScopeOwner(DovId(1)), DaId(3));
}

TEST(LockManagerTest, ReleaseAllClearsEverything) {
  LockManager locks;
  locks.SetScopeOwner(DovId(1), DaId(1));
  locks.AcquireDerivation(DovId(1), DaId(1)).ok();
  locks.GrantUsageRead(DovId(1), DaId(2));
  locks.ReleaseAll();
  EXPECT_FALSE(locks.DerivationHolder(DovId(1)).valid());
  EXPECT_FALSE(locks.ScopeOwner(DovId(1)).valid());
  EXPECT_FALSE(locks.CanRead(DaId(2), DovId(1)));
}

TEST(LockManagerTest, OwnedByLists) {
  LockManager locks;
  locks.SetScopeOwner(DovId(1), DaId(1));
  locks.SetScopeOwner(DovId(2), DaId(1));
  locks.SetScopeOwner(DovId(3), DaId(2));
  EXPECT_EQ(locks.OwnedBy(DaId(1)).size(), 2u);
  EXPECT_EQ(locks.OwnedBy(DaId(9)).size(), 0u);
}

// --- ServerTm / ClientTm fixture ------------------------------------------

class TmTest : public ::testing::Test {
 protected:
  TmTest()
      : network_(&clock_, 1),
        rpc_(&network_),
        repo_(&clock_) {
    server_node_ = network_.AddNode("server");
    ws_ = network_.AddNode("ws1");
    DesignObjectTypeSetup();
    server_ = std::make_unique<ServerTm>(&repo_, &network_, server_node_,
                                         &scope_);
    rpc_.RegisterHandler(server_node_, kServerServiceMethod,
                         ServerServiceHandler(server_.get()));
    service_ = std::make_unique<ServerStub>(server_node_,
                                            rpc_.Bind(ws_, server_node_));
    client_ = std::make_unique<ClientTm>(service_.get(), &network_, ws_,
                                         &clock_);
  }

  void DesignObjectTypeSetup() {
    auto* type = repo_.schema().DefineType("thing");
    type->AddAttr({"value", storage::AttrType::kInt, true, 0.0, 1000.0});
    dot_ = type->id();
  }

  storage::DesignObject MakeObj(int64_t value) {
    storage::DesignObject obj(dot_);
    obj.SetAttr("value", value);
    return obj;
  }

  /// Seeds one committed DOV owned by `da`.
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
  std::unique_ptr<ServerStub> service_;
  std::unique_ptr<ClientTm> client_;
};

TEST_F(TmTest, FullDopCycle) {
  DovId input = Seed(DaId(1), 5);
  auto dop = client_->BeginDop(DaId(1));
  ASSERT_TRUE(dop.ok());
  ASSERT_TRUE(client_->Checkout(*dop, input).ok());
  auto obj = client_->Input(*dop, input);
  ASSERT_TRUE(obj.ok());
  EXPECT_EQ(obj->GetAttr("value")->as_int(), 5);

  client_->DoWork(*dop, 50).ok();
  auto out = client_->Checkin(*dop, MakeObj(6), {input});
  ASSERT_TRUE(out.ok());
  ASSERT_TRUE(client_->CommitDop(*dop).ok());
  EXPECT_EQ(*client_->StateOf(*dop), DopState::kCommitted);
  EXPECT_TRUE(repo_.graph(DaId(1)).IsAncestor(input, *out));
  EXPECT_EQ(server_->locks().ScopeOwner(*out), DaId(1));
}

TEST_F(TmTest, CheckinFailureLeavesDopActive) {
  auto dop = client_->BeginDop(DaId(1));
  auto out = client_->Checkin(*dop, MakeObj(5000), {});  // violates bound
  EXPECT_TRUE(out.status().IsConstraintViolation());
  EXPECT_EQ(*client_->StateOf(*dop), DopState::kActive);
  EXPECT_EQ(server_->stats().checkin_failures, 1u);
  // DOP can still finish by aborting or with a fixed object.
  auto fixed = client_->Checkin(*dop, MakeObj(10), {});
  EXPECT_TRUE(fixed.ok());
  EXPECT_TRUE(client_->CommitDop(*dop).ok());
}

TEST_F(TmTest, DerivationLockBlocksOtherDasCheckout) {
  DovId shared = Seed(DaId(1), 5);
  auto dop1 = client_->BeginDop(DaId(1));
  ASSERT_TRUE(client_->Checkout(*dop1, shared, true).ok());

  auto dop2 = client_->BeginDop(DaId(2));
  Status st = client_->Checkout(*dop2, shared, false);
  EXPECT_TRUE(st.IsLockConflict());
  EXPECT_EQ(server_->stats().checkouts_denied_lock, 1u);

  // Lock released at End-of-DOP; then DA2 may read.
  ASSERT_TRUE(client_->AbortDop(*dop1).ok());
  EXPECT_TRUE(client_->Checkout(*dop2, shared, false).ok());
}

TEST_F(TmTest, ConcurrentCheckoutWithoutDerivationLockAllowed) {
  DovId shared = Seed(DaId(1), 5);
  auto dop1 = client_->BeginDop(DaId(1));
  auto dop2 = client_->BeginDop(DaId(2));
  EXPECT_TRUE(client_->Checkout(*dop1, shared).ok());
  EXPECT_TRUE(client_->Checkout(*dop2, shared).ok());
}

TEST_F(TmTest, SavepointRestoreRoundtrip) {
  auto dop = client_->BeginDop(DaId(1));
  client_->PutWorkspace(*dop, "w", MakeObj(1)).ok();
  ASSERT_TRUE(client_->Save(*dop, "before_change").ok());
  client_->PutWorkspace(*dop, "w", MakeObj(99)).ok();
  client_->DoWork(*dop, 10).ok();
  ASSERT_TRUE(client_->Restore(*dop, "before_change").ok());
  EXPECT_EQ(client_->GetWorkspace(*dop, "w")->GetAttr("value")->as_int(), 1);
  EXPECT_EQ(*client_->WorkDone(*dop), 0u);  // work counter restored too
}

TEST_F(TmTest, DuplicateSavepointNameRejected) {
  auto dop = client_->BeginDop(DaId(1));
  client_->Save(*dop, "sp").ok();
  EXPECT_EQ(client_->Save(*dop, "sp").code(), StatusCode::kAlreadyExists);
  EXPECT_TRUE(client_->Restore(*dop, "missing").IsNotFound());
}

TEST_F(TmTest, SuspendResumePreservesContext) {
  auto dop = client_->BeginDop(DaId(1));
  client_->PutWorkspace(*dop, "w", MakeObj(7)).ok();
  ASSERT_TRUE(client_->Suspend(*dop).ok());
  EXPECT_EQ(*client_->StateOf(*dop), DopState::kSuspended);
  // Operations on a suspended DOP fail.
  EXPECT_TRUE(client_->DoWork(*dop, 1).IsFailedPrecondition());
  ASSERT_TRUE(client_->Resume(*dop).ok());
  EXPECT_EQ(client_->GetWorkspace(*dop, "w")->GetAttr("value")->as_int(), 7);
  EXPECT_TRUE(client_->Resume(*dop).IsFailedPrecondition());  // not suspended
}

TEST_F(TmTest, CrashRecoveryRestoresLatestRecoveryPoint) {
  DovId input = Seed(DaId(1), 5);
  auto dop = client_->BeginDop(DaId(1));
  client_->Checkout(*dop, input).ok();  // recovery point here
  client_->DoWork(*dop, 30).ok();
  client_->TakeRecoveryPoint(*dop).ok();
  client_->DoWork(*dop, 17).ok();  // will be lost

  client_->Crash();
  EXPECT_EQ(*client_->StateOf(*dop), DopState::kCrashed);
  auto lost = client_->Recover();
  ASSERT_TRUE(lost.ok());
  EXPECT_EQ(*lost, 17u);
  EXPECT_EQ(*client_->StateOf(*dop), DopState::kActive);
  EXPECT_EQ(*client_->WorkDone(*dop), 30u);
  // Checked-out input is part of the recovered context: no re-checkout.
  EXPECT_TRUE(client_->Input(*dop, input).ok());
}

TEST_F(TmTest, CrashWipesSavepointsButKeepsRecoveryPoints) {
  auto dop = client_->BeginDop(DaId(1));
  client_->DoWork(*dop, 5).ok();
  client_->Save(*dop, "sp").ok();
  client_->TakeRecoveryPoint(*dop).ok();
  client_->Crash();
  client_->Recover().ok();
  EXPECT_EQ(*client_->WorkDone(*dop), 5u);
  EXPECT_TRUE(client_->Restore(*dop, "sp").IsNotFound());  // volatile
}

TEST_F(TmTest, AutomaticRecoveryPointsLimitLoss) {
  client_->set_auto_recovery_interval(10);
  auto dop = client_->BeginDop(DaId(1));
  for (int i = 0; i < 9; ++i) client_->DoWork(*dop, 5).ok();  // 45 units
  client_->Crash();
  auto lost = client_->Recover();
  // Last automatic point at >= 40 units; at most one interval lost.
  EXPECT_LE(*lost, 10u);
  EXPECT_GE(*client_->WorkDone(*dop), 35u);
}

TEST_F(TmTest, CommitRemovesRecoveryPointState) {
  auto dop = client_->BeginDop(DaId(1));
  client_->DoWork(*dop, 10).ok();
  auto out = client_->Checkin(*dop, MakeObj(1), {});
  ASSERT_TRUE(out.ok());
  ASSERT_TRUE(client_->CommitDop(*dop).ok());
  client_->Crash();
  auto lost = client_->Recover();
  EXPECT_EQ(*lost, 0u);  // committed DOP lost nothing
  EXPECT_EQ(*client_->StateOf(*dop), DopState::kCommitted);
}

TEST_F(TmTest, ServerCrashYieldsTypedUnknownDopStatus) {
  DovId input = Seed(DaId(1), 5);
  DovId other = Seed(DaId(1), 7);
  auto dop = client_->BeginDop(DaId(1));
  ASSERT_TRUE(client_->Checkout(*dop, input).ok());

  // The crash wipes the server's registration table; the workstation
  // does not notice and keeps using its pre-crash DOP id. Every server
  // interaction must now answer with the *typed* unknown-DOP status so
  // the client can distinguish "server forgot me in a crash" (recover
  // by Begin-of-DOP) from a plain bad id.
  server_->Crash();
  ASSERT_TRUE(server_->Recover().ok());

  auto out = client_->Checkin(*dop, MakeObj(6), {input});
  EXPECT_TRUE(out.status().IsUnknownDop()) << out.status().ToString();
  EXPECT_TRUE(client_->Checkout(*dop, other).IsUnknownDop());
  EXPECT_TRUE(client_->CommitDop(*dop).IsUnknownDop());
  EXPECT_GE(server_->stats().unknown_dop_requests, 3u);

  // A never-registered id still reads as plain not-found.
  EXPECT_TRUE(server_->DaOfDop(DopId(987654)).status().IsNotFound());

  // Begin-of-DOP re-registers and the designer can finish the work.
  auto fresh = client_->BeginDop(DaId(1));
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(client_->Checkout(*fresh, input).ok());
  EXPECT_TRUE(client_->Checkin(*fresh, MakeObj(6), {input}).ok());
  EXPECT_TRUE(client_->CommitDop(*fresh).ok());
}

TEST_F(TmTest, BeginDopFailsWhenWorkstationDown) {
  network_.SetNodeUp(ws_, false);
  EXPECT_FALSE(client_->BeginDop(DaId(1)).ok());
}

TEST_F(TmTest, CommitProtocolFailsWhenServerDown) {
  auto dop = client_->BeginDop(DaId(1));
  network_.SetNodeUp(server_node_, false);
  auto out = client_->Checkin(*dop, MakeObj(1), {});
  EXPECT_FALSE(out.ok());
}

TEST_F(TmTest, TwoPcRunsPerCriticalInteraction) {
  auto dop = client_->BeginDop(DaId(1));
  uint64_t after_begin = client_->two_pc_stats().protocols_run;
  EXPECT_GE(after_begin, 1u);
  client_->Checkin(*dop, MakeObj(1), {}).ok();
  client_->CommitDop(*dop).ok();
  EXPECT_GE(client_->two_pc_stats().protocols_run, after_begin + 2);
}

TEST_F(TmTest, ScopeAuthorityDenialBlocksCheckout) {
  class DenyAll : public ScopeAuthority {
   public:
    bool InScope(DaId, DovId) override { return false; }
  };
  DenyAll deny;
  ServerTm strict(&repo_, &network_, server_node_, &deny);
  rpc::TransactionalRpc strict_rpc(&network_);
  strict_rpc.RegisterHandler(server_node_, kServerServiceMethod,
                             ServerServiceHandler(&strict));
  ServerStub strict_service(server_node_, strict_rpc.Bind(ws_, server_node_));
  ClientTm client(&strict_service, &network_, ws_, &clock_);
  DovId dov = Seed(DaId(1), 5);
  auto dop = client.BeginDop(DaId(1));
  EXPECT_TRUE(client.Checkout(*dop, dov).IsPermissionDenied());
  EXPECT_EQ(strict.stats().checkouts_denied_scope, 1u);
}

}  // namespace
}  // namespace concord::txn
