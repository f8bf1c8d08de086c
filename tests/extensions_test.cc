// Tests for the paper's "detail" mechanisms beyond the core protocol:
// DOP-to-DOP context handover (Sect. 5, fn. 1) and the invalidation
// condition over the derivation graph (Sect. 5.4).

#include <gtest/gtest.h>

#include "cooperation/cooperation_manager.h"
#include "rpc/network.h"
#include "rpc/transactional_rpc.h"
#include "storage/repository.h"
#include "txn/client_tm.h"
#include "txn/lock_manager.h"
#include "txn/server_service.h"
#include "txn/server_tm.h"

namespace concord {
namespace {

// --- Context handover ---------------------------------------------------

class HandoverTest : public ::testing::Test {
 protected:
  HandoverTest() : network_(&clock_, 1), rpc_(&network_), repo_(&clock_) {
    server_node_ = network_.AddNode("server");
    ws_ = network_.AddNode("ws1");
    auto* type = repo_.schema().DefineType("thing");
    type->AddAttr({"v", storage::AttrType::kInt, true, {}, {}});
    dot_ = type->id();
    server_ = std::make_unique<txn::ServerTm>(&repo_, &network_,
                                              server_node_, &scope_);
    rpc_.RegisterHandler(server_node_, txn::kServerServiceMethod,
                         txn::ServerServiceHandler(server_.get()));
    service_ = std::make_unique<txn::ServerStub>(
        server_node_, rpc_.Bind(ws_, server_node_));
    client_ = std::make_unique<txn::ClientTm>(service_.get(), &network_, ws_,
                                              &clock_);
  }

  storage::DesignObject MakeObj(int64_t v) {
    storage::DesignObject obj(dot_);
    obj.SetAttr("v", v);
    return obj;
  }

  SimClock clock_;
  rpc::Network network_;
  rpc::TransactionalRpc rpc_;
  storage::Repository repo_;
  txn::PermissiveScopeAuthority scope_;
  NodeId server_node_;
  NodeId ws_;
  DotId dot_;
  std::unique_ptr<txn::ServerTm> server_;
  std::unique_ptr<txn::ServerStub> service_;
  std::unique_ptr<txn::ClientTm> client_;
};

TEST_F(HandoverTest, SuccessorInheritsInputsAndWorkspace) {
  // Predecessor DOP: checks out a version, builds workspace state.
  auto pred = client_->BeginDop(DaId(1));
  auto out = client_->Checkin(*pred, MakeObj(1), {});
  ASSERT_TRUE(out.ok());
  // (simulate a loaded context: checkout own result + workspace)
  ASSERT_TRUE(client_->Checkout(*pred, *out).ok());
  client_->PutWorkspace(*pred, "scratch", MakeObj(7)).ok();
  ASSERT_TRUE(client_->CommitDop(*pred).ok());

  auto succ = client_->BeginDop(DaId(1));
  ASSERT_TRUE(client_->HandOverContext(*pred, *succ).ok());
  // Successor sees the predecessor's loaded input WITHOUT a checkout.
  uint64_t checkouts_before = server_->stats().checkouts;
  EXPECT_TRUE(client_->Input(*succ, *out).ok());
  EXPECT_EQ(server_->stats().checkouts, checkouts_before);
  EXPECT_EQ(client_->GetWorkspace(*succ, "scratch")->GetAttr("v")->as_int(),
            7);
  EXPECT_EQ(client_->stats().context_handovers, 1u);
}

TEST_F(HandoverTest, HandoverRequiresCommittedPredecessor) {
  auto pred = client_->BeginDop(DaId(1));
  auto succ = client_->BeginDop(DaId(1));
  EXPECT_TRUE(
      client_->HandOverContext(*pred, *succ).IsFailedPrecondition());
  client_->AbortDop(*pred).ok();
  EXPECT_TRUE(
      client_->HandOverContext(*pred, *succ).IsFailedPrecondition());
}

TEST_F(HandoverTest, HandoverRequiresActiveSuccessor) {
  auto pred = client_->BeginDop(DaId(1));
  client_->Checkin(*pred, MakeObj(1), {}).ok();
  client_->CommitDop(*pred).ok();
  auto succ = client_->BeginDop(DaId(1));
  client_->AbortDop(*succ).ok();
  EXPECT_FALSE(client_->HandOverContext(*pred, *succ).ok());
}

TEST_F(HandoverTest, HandedOverContextSurvivesCrash) {
  auto pred = client_->BeginDop(DaId(1));
  auto out = client_->Checkin(*pred, MakeObj(3), {});
  ASSERT_TRUE(client_->Checkout(*pred, *out).ok());
  client_->PutWorkspace(*pred, "w", MakeObj(9)).ok();
  ASSERT_TRUE(client_->CommitDop(*pred).ok());

  auto succ = client_->BeginDop(DaId(1));
  ASSERT_TRUE(client_->HandOverContext(*pred, *succ).ok());
  client_->Crash();
  ASSERT_TRUE(client_->Recover().ok());
  // Handover took a recovery point: the inherited context survived.
  EXPECT_EQ(client_->GetWorkspace(*succ, "w")->GetAttr("v")->as_int(), 9);
  EXPECT_TRUE(client_->Input(*succ, *out).ok());
}

TEST_F(HandoverTest, SuccessorWorkCounterIndependent) {
  auto pred = client_->BeginDop(DaId(1));
  client_->DoWork(*pred, 50).ok();
  client_->Checkin(*pred, MakeObj(1), {}).ok();
  client_->CommitDop(*pred).ok();

  auto succ = client_->BeginDop(DaId(1));
  client_->DoWork(*succ, 5).ok();
  ASSERT_TRUE(client_->HandOverContext(*pred, *succ).ok());
  // The successor's own work, not the predecessor's, is counted.
  EXPECT_EQ(*client_->WorkDone(*succ), 5u);
}

// --- Invalidation candidates -------------------------------------------

class InvalidationTest : public ::testing::Test {
 protected:
  InvalidationTest() : repo_(&clock_), cm_(&repo_, &locks_, &clock_) {
    auto* module = repo_.schema().DefineType("module");
    module->AddAttr({"area", storage::AttrType::kDouble, false, {}, {}});
    auto* chip = repo_.schema().DefineType("chip");
    chip->AddAttr({"area", storage::AttrType::kDouble, false, {}, {}});
    chip->AddPart({module->id(), 0, 100});
    chip_ = chip->id();
    module_ = module->id();
  }

  DaId MakeActiveDa(storage::DesignSpecification spec) {
    cooperation::DaDescription desc;
    desc.dot = chip_;
    desc.spec = std::move(spec);
    desc.designer = DesignerId(1);
    desc.workstation = NodeId(1);
    DaId da = *cm_.InitDesign(std::move(desc));
    cm_.Start(da).ok();
    return da;
  }

  DovId Mint(DaId da, double area, std::vector<DovId> preds = {}) {
    TxnId txn = repo_.Begin();
    storage::DovRecord record;
    record.id = repo_.NextDovId();
    record.owner_da = da;
    record.type = module_;
    record.data = storage::DesignObject(module_);
    record.data.SetAttr("area", area);
    record.predecessors = std::move(preds);
    repo_.Put(txn, record).ok();
    repo_.Commit(txn).ok();
    locks_.SetScopeOwner(record.id, da);
    cm_.NoteCheckin(da, record.id);
    return record.id;
  }

  SimClock clock_;
  storage::Repository repo_;
  txn::LockManager locks_;
  cooperation::CooperationManager cm_;
  DotId chip_;
  DotId module_;
};

TEST_F(InvalidationTest, NoCandidatesWithoutFinalDov) {
  storage::DesignSpecification spec;
  spec.Add(storage::Feature::AtMost("area_limit", "area", 100));
  DaId da = MakeActiveDa(spec);
  DovId dov = Mint(da, 500);  // preliminary
  cm_.Propagate(da, dov).ok();
  EXPECT_TRUE(cm_.InvalidationCandidates(da).empty());
}

TEST_F(InvalidationTest, DeadBranchBecomesCandidateOnceFinalExists) {
  storage::DesignSpecification spec;
  spec.Add(storage::Feature::AtMost("area_limit", "area", 100));
  DaId da = MakeActiveDa(spec);

  // Two branches from a common root; the dead one was pre-released.
  DovId root = Mint(da, 500);
  DovId dead = Mint(da, 400, {root});
  DovId alive = Mint(da, 200, {root});
  DovId final_dov = Mint(da, 50, {alive});
  ASSERT_TRUE(cm_.Propagate(da, dead).ok());
  ASSERT_TRUE(cm_.Propagate(da, alive).ok());

  EXPECT_TRUE(cm_.InvalidationCandidates(da).empty());  // no final yet
  ASSERT_TRUE(cm_.Evaluate(da, final_dov)->is_final());
  // `dead` does not feed the final; `alive` does; `root` does.
  EXPECT_EQ(cm_.InvalidationCandidates(da), std::vector<DovId>{dead});
}

TEST_F(InvalidationTest, CandidateClearedByInvalidateAndReplace) {
  storage::DesignSpecification spec;
  spec.Add(storage::Feature::AtMost("area_limit", "area", 100));
  DaId da = MakeActiveDa(spec);
  DaId requirer = MakeActiveDa({});
  // A usage relationship so invalidation has someone to notify.
  ASSERT_TRUE(cm_.Require(requirer, da, {"area_limit"}).ok());

  DovId root = Mint(da, 90);
  DovId dead = Mint(da, 80, {root});
  DovId alive = Mint(da, 60, {root});
  DovId final_dov = Mint(da, 50, {alive});
  cm_.Propagate(da, dead).ok();
  cm_.Evaluate(da, final_dov).ok();
  ASSERT_EQ(cm_.InvalidationCandidates(da), std::vector<DovId>{dead});

  // Replace the dead branch with the final version itself.
  ASSERT_TRUE(cm_.InvalidateAndReplace(da, dead, final_dov).ok());
  EXPECT_TRUE(cm_.InvalidationCandidates(da).empty());
  EXPECT_TRUE((*repo_.Get(dead)).invalidated);
  EXPECT_TRUE(cm_.InScope(requirer, final_dov));
}

TEST_F(InvalidationTest, PropagatedAncestorOfFinalIsNotACandidate) {
  DaId da = MakeActiveDa({});  // empty spec: everything is final
  DovId root = Mint(da, 10);
  DovId final_dov = Mint(da, 5, {root});
  cm_.Propagate(da, root).ok();
  cm_.Evaluate(da, final_dov).ok();
  EXPECT_TRUE(cm_.InvalidationCandidates(da).empty());
}

}  // namespace
}  // namespace concord
