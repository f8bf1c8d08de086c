#include <gtest/gtest.h>

#include "common/strings.h"
#include "core/concord_system.h"
#include "sim/designer.h"
#include "sim/scenarios.h"
#include "vlsi/schema.h"
#include "vlsi/tools.h"

namespace concord::core {
namespace {

// --- End-to-end single-designer flow -------------------------------------

TEST(SystemTest, FullDesignPlaneTraversalReachesFinalDov) {
  ConcordSystem system;
  auto da = sim::SetupTopLevelDa(&system, "chip", 6, 1e9, 0);
  ASSERT_TRUE(da.ok());
  ASSERT_TRUE(system.StartDa(*da).ok());
  ASSERT_TRUE(system.RunDa(*da).ok());
  EXPECT_EQ(system.dm(*da).state(), workflow::DmState::kCompleted);

  // One DOV per tool, linearly derived.
  EXPECT_EQ(system.repository().graph(*da).size(), 5u);
  auto current = system.CurrentVersion(*da);
  ASSERT_TRUE(current.ok());
  auto quality = system.cm().Evaluate(*da, *current);
  ASSERT_TRUE(quality.ok());
  EXPECT_TRUE(quality->is_final());
  // TE-level accounting: 5 committed DOPs.
  EXPECT_EQ(system.server_tm().stats().dops_committed, 5u);
  EXPECT_EQ(system.server_tm().stats().checkins, 5u);
  // Each DOP after the first checked out its predecessor — and every
  // one of those reads its own workstation's previous checkin, which
  // cache-aware checkin made a local hit: zero server checkouts.
  EXPECT_EQ(system.server_tm().stats().checkouts, 0u);
  NodeId ws = (*system.cm().GetDa(*da))->workstation;
  EXPECT_EQ(system.client_tm(ws).stats().checkouts_from_cache, 4u);
  EXPECT_EQ(system.client_tm(ws).stats().checkin_cache_inserts, 5u);
  // All TM traffic rode the RPC envelope: 5 DOPs x (begin +
  // batched checkin/commit) = 10 server round trips.
  EXPECT_EQ(system.rpc().stats().calls, 10u);
  EXPECT_EQ(system.client_tm(ws).stats().batched_checkin_commits, 5u);
  // Simulated time advanced (tools cost work).
  EXPECT_GT(system.clock().Now(), 0);
}

TEST(SystemTest, DomainConstraintBlocksPrematureAssembly) {
  ConcordSystem system;
  NodeId ws = system.AddWorkstation("ws");
  cooperation::DaDescription desc;
  desc.dot = system.dots().chip;
  desc.designer = DesignerId(1);
  // Script violating "structure synthesis precedes chip assembly".
  std::vector<std::unique_ptr<workflow::ScriptNode>> steps;
  steps.push_back(workflow::ScriptNode::Dop(vlsi::kToolChipAssembly));
  desc.dc = workflow::Script("bad",
                             workflow::ScriptNode::Sequence(std::move(steps)));
  desc.workstation = ws;
  auto da = system.InitDesign(std::move(desc));
  ASSERT_TRUE(da.ok());
  ASSERT_TRUE(system.cm().Start(*da).ok());
  // DM start performs static validation against the domain constraints.
  EXPECT_TRUE(system.dm(*da).Start().IsConstraintViolation());
}

TEST(SystemTest, SeedlessDaCannotRunTools) {
  ConcordSystem system;
  NodeId ws = system.AddWorkstation("ws");
  cooperation::DaDescription desc;
  desc.dot = system.dots().chip;
  desc.designer = DesignerId(1);
  desc.dc = sim::MakeFullDesignScript();
  desc.workstation = ws;
  auto da = system.InitDesign(std::move(desc));
  ASSERT_TRUE(system.StartDa(*da).ok());
  EXPECT_FALSE(system.RunDa(*da).ok());
}

// --- Fig. 5 delegation scenario -------------------------------------------

TEST(SystemTest, DelegationScenarioWithoutSqueeze) {
  ConcordSystem system;
  sim::MetricsCollector metrics;
  auto result = sim::RunDelegationScenario(&system, 8, /*squeeze=*/false,
                                           &metrics);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GE(result->subs.size(), 2u);
  EXPECT_FALSE(result->impossible_sub.valid());
  EXPECT_EQ(result->replans, 0);
  EXPECT_GT(result->final_area, 0);
  // Everything terminated.
  for (DaId sub : result->subs) {
    EXPECT_EQ(*system.cm().StateOf(sub), cooperation::DaState::kTerminated);
  }
  EXPECT_EQ(*system.cm().StateOf(result->top),
            cooperation::DaState::kTerminated);
}

TEST(SystemTest, DelegationScenarioResolvesImpossibleSpec) {
  ConcordSystem system;
  sim::MetricsCollector metrics;
  auto result = sim::RunDelegationScenario(&system, 8, /*squeeze=*/true,
                                           &metrics);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->impossible_sub.valid());
  EXPECT_GE(result->replans, 1);
  // The CM logged the impossible-spec protocol.
  EXPECT_GE(system.cm().stats().das_created, 3u);
  EXPECT_EQ(system.cm().stats().das_terminated,
            result->subs.size() + 1);  // + top
}

// --- Workstation crash / recovery -----------------------------------------

TEST(SystemTest, WorkstationCrashMidWorkflowRecoversForward) {
  ConcordSystem system;
  auto da = sim::SetupTopLevelDa(&system, "chip", 6, 1e9, 0);
  ASSERT_TRUE(system.StartDa(*da).ok());
  // Run the first two DOPs only.
  auto& dm = system.dm(*da);
  while (dm.CompletedDops().size() < 2) {
    ASSERT_TRUE(dm.Step().ok());
  }
  uint64_t dops_before = system.server_tm().stats().dops_committed;

  NodeId ws = (*system.cm().GetDa(*da))->workstation;
  system.CrashWorkstation(ws);
  EXPECT_EQ(dm.state(), workflow::DmState::kCrashed);
  ASSERT_TRUE(system.RecoverWorkstation(ws).ok());
  EXPECT_EQ(dm.state(), workflow::DmState::kActive);
  // Forward recovery: the two completed DOPs were not re-executed.
  EXPECT_EQ(dm.CompletedDops().size(), 2u);
  EXPECT_EQ(system.server_tm().stats().dops_committed, dops_before);

  // Finish the remaining work.
  ASSERT_TRUE(system.RunDa(*da).ok());
  auto quality = system.cm().Evaluate(*da, *system.CurrentVersion(*da));
  EXPECT_TRUE(quality->is_final());
  // Exactly 5 DOPs total despite the crash: no duplicated work.
  EXPECT_EQ(system.server_tm().stats().dops_committed, 5u);
}

TEST(SystemTest, EventsQueuedWhileWorkstationDownArriveOnRecovery) {
  ConcordSystem system;
  sim::MetricsCollector metrics;
  // Set up supporter/requirer pair manually.
  auto top = sim::SetupTopLevelDa(&system, "top", 4, 1e9, 0);
  ASSERT_TRUE(system.StartDa(*top).ok());
  ASSERT_TRUE(system.RunDa(*top).ok());

  NodeId sub_ws = system.AddWorkstation("sub_ws");
  cooperation::DaDescription desc;
  desc.dot = system.dots().module;
  desc.designer = DesignerId(2);
  desc.dc = sim::MakeChipPlanningScript(1);
  desc.workstation = sub_ws;
  auto sub = system.CreateSubDa(*top, desc);
  ASSERT_TRUE(sub.ok());
  ASSERT_TRUE(system.StartDa(*sub).ok());

  // Crash the sub's workstation, then send it an event via the CM.
  system.CrashWorkstation(sub_ws);
  ASSERT_TRUE(
      system.cm().ModifySubDaSpecification(*top, *sub, {}).ok());
  EXPECT_EQ(system.dm(*sub).stats().events_handled, 0u);  // queued
  ASSERT_TRUE(system.RecoverWorkstation(sub_ws).ok());
  EXPECT_EQ(system.dm(*sub).stats().events_handled, 1u);  // delivered
}

// --- Server crash / recovery ------------------------------------------------

TEST(SystemTest, ServerCrashRecoveryPreservesDesignState) {
  ConcordSystem system;
  auto da = sim::SetupTopLevelDa(&system, "chip", 5, 1e9, 0);
  ASSERT_TRUE(system.StartDa(*da).ok());
  ASSERT_TRUE(system.RunDa(*da).ok());
  DovId current = *system.CurrentVersion(*da);
  uint64_t hash_before =
      (*system.repository().Get(current)).data.ContentHash();
  size_t dovs_before = system.repository().DovsOf(*da).size();

  system.CrashServer();
  ASSERT_TRUE(system.RecoverServer().ok());

  EXPECT_EQ(system.repository().DovsOf(*da).size(), dovs_before);
  EXPECT_EQ((*system.repository().Get(current)).data.ContentHash(),
            hash_before);
  // CM state restored: DA exists, scope restored, evaluation works.
  EXPECT_EQ(*system.cm().StateOf(*da), cooperation::DaState::kActive);
  EXPECT_TRUE(system.cm().InScope(*da, current));
  auto quality = system.cm().Evaluate(*da, current);
  ASSERT_TRUE(quality.ok());
  EXPECT_TRUE(quality->is_final());
}

TEST(SystemTest, DopsFailWhileServerDownAndResumeAfterRecovery) {
  ConcordSystem system;
  auto da = sim::SetupTopLevelDa(&system, "chip", 5, 1e9, 0);
  ASSERT_TRUE(system.StartDa(*da).ok());
  system.CrashServer();
  EXPECT_FALSE(system.RunDa(*da).ok());  // Begin-of-DOP 2PC fails
  ASSERT_TRUE(system.RecoverServer().ok());
  ASSERT_TRUE(system.RunDa(*da).ok());
  EXPECT_TRUE(
      system.cm().Evaluate(*da, *system.CurrentVersion(*da))->is_final());
}

// --- Two-node server plane ------------------------------------------------

/// Creates and starts a module sub-DA of `top` on its own workstation.
DaId StartModuleSubDa(ConcordSystem* system, DaId top, int i) {
  cooperation::DaDescription desc;
  desc.dot = system->dots().module;
  desc.spec = sim::MakeSpec(1e9, 0, vlsi::kDomainFloorplan);
  desc.designer = DesignerId(2 + i);
  desc.dc = sim::MakeChipPlanningScript(1);
  desc.workstation = system->AddWorkstation(IndexedName("sub", i));
  auto sub = system->CreateSubDa(top, desc);
  EXPECT_TRUE(sub.ok());
  storage::DesignObject seed(system->dots().module);
  seed.SetAttr(vlsi::kAttrName, IndexedName("m", i));
  seed.SetAttr(vlsi::kAttrDomain, vlsi::kDomainBehavior);
  seed.SetAttr(vlsi::kAttrBehavior, "MODULE m COMPLEXITY 3");
  seed.SetAttr(vlsi::kAttrPinCount, int64_t{4});
  EXPECT_TRUE(system->SetSeedObject(*sub, seed).ok());
  EXPECT_TRUE(system->StartDa(*sub).ok());
  return *sub;
}

/// Checks `dov` out for `da` from the server (the workstation cache is
/// cleared first, so the scope test really runs on the owning node).
Status CheckoutFromServer(ConcordSystem* system, DaId da, DovId dov) {
  txn::ClientTm& tm = system->client_tm((*system->cm().GetDa(da))->workstation);
  tm.cache().Clear();
  CONCORD_ASSIGN_OR_RETURN(DopId dop, tm.BeginDop(da));
  Status status = tm.Checkout(dop, dov);
  tm.AbortDop(dop).ok();
  return status;
}

TEST(SystemTest, ServerPlaneNodeCrashAndRecovery) {
  SystemConfig config;
  config.server_nodes = 2;
  ConcordSystem system(config);
  ServerPlane& plane = system.plane();
  auto top = sim::SetupTopLevelDa(&system, "chip", 4, 1e9, 0);
  ASSERT_TRUE(top.ok());
  ASSERT_TRUE(system.StartDa(*top).ok());
  DaId sub = StartModuleSubDa(&system, *top, 0);
  // Least-loaded placement spreads the two DAs over the two nodes.
  ASSERT_EQ(system.placement().HomeOf(*top), plane.shard(0).node);
  ASSERT_EQ(system.placement().HomeOf(sub), plane.shard(1).node);
  ASSERT_TRUE(system.RunDa(*top).ok());
  ASSERT_TRUE(system.RunDa(sub).ok());
  DovId top_dov = *system.CurrentVersion(*top);
  DovId sub_dov = *system.CurrentVersion(sub);
  ASSERT_EQ(DovShardOf(top_dov), 0u);
  ASSERT_EQ(DovShardOf(sub_dov), 1u);

  // Node 1 down: the CM (on node 0) and node 0's DAs keep serving.
  plane.CrashNode(1);
  EXPECT_FALSE(plane.shard(1).up.load());
  EXPECT_FALSE(system.cm().InScope(sub, sub_dov));  // its lock table is gone
  EXPECT_EQ(*system.cm().StateOf(sub), cooperation::DaState::kActive);
  EXPECT_TRUE(system.cm().Evaluate(*top, top_dov).ok());
  EXPECT_TRUE(CheckoutFromServer(&system, *top, top_dov).ok());

  // Recovery re-derives node 1's scope locks from the CM's persisted
  // state: the DA homed there checks its own DOV out again.
  ASSERT_TRUE(plane.RecoverNode(1).ok());
  EXPECT_TRUE(plane.shard(1).up.load());
  EXPECT_TRUE(system.cm().InScope(sub, sub_dov));
  uint64_t checkouts = system.server_tm_at(1).stats().checkouts;
  EXPECT_TRUE(CheckoutFromServer(&system, sub, sub_dov).ok());
  EXPECT_EQ(system.server_tm_at(1).stats().checkouts, checkouts + 1);

  // The coordinator's crash takes the CM down; its recovery rebuilds
  // the CM from the meta store, and every DA is found again.
  plane.CrashNode(0);
  EXPECT_FALSE(system.cm().GetDa(*top).ok());
  ASSERT_TRUE(plane.RecoverNode(0).ok());
  EXPECT_EQ(*system.cm().StateOf(*top), cooperation::DaState::kActive);
  EXPECT_EQ(*system.cm().StateOf(sub), cooperation::DaState::kActive);
  EXPECT_TRUE(CheckoutFromServer(&system, *top, top_dov).ok());
  EXPECT_TRUE(CheckoutFromServer(&system, sub, sub_dov).ok());
}

TEST(SystemTest, WithdrawalOfShardOneDovEvictsEveryWorkstationCache) {
  SystemConfig config;
  config.server_nodes = 2;
  ConcordSystem system(config);
  ServerPlane& plane = system.plane();
  auto top = sim::SetupTopLevelDa(&system, "top", 4, 1e9, 0);
  ASSERT_TRUE(top.ok());
  ASSERT_TRUE(system.StartDa(*top).ok());
  DaId supporter = StartModuleSubDa(&system, *top, 0);
  DaId requirer = StartModuleSubDa(&system, *top, 1);
  ASSERT_EQ(system.placement().HomeOf(supporter), plane.shard(1).node);
  ASSERT_TRUE(system.RunDa(supporter).ok());
  DovId produced = *system.CurrentVersion(supporter);
  ASSERT_EQ(DovShardOf(produced), 1u);
  system.cm().Evaluate(supporter, produced).ok();
  ASSERT_TRUE(system.cm().Require(requirer, supporter, {"goal_domain"}).ok());
  ASSERT_TRUE(system.cm().Propagate(supporter, produced).ok());

  // The supporter's workstation caches the DOV from its own checkin,
  // the requirer's from a checkout.
  txn::ClientTm& requirer_tm =
      system.client_tm((*system.cm().GetDa(requirer))->workstation);
  auto dop = requirer_tm.BeginDop(requirer);
  ASSERT_TRUE(dop.ok());
  ASSERT_TRUE(requirer_tm.Checkout(*dop, produced).ok());
  requirer_tm.AbortDop(*dop).ok();
  for (DaId da : {supporter, requirer}) {
    NodeId ws = (*system.cm().GetDa(da))->workstation;
    EXPECT_TRUE(system.client_tm(ws).cache().Contains(produced));
  }

  // The withdrawal is pushed from node 1 (the DOV's owner) to every
  // subscribed workstation, and each one evicts it.
  uint64_t deliveries = plane.bus().stats().deliveries;
  ASSERT_TRUE(system.cm().WithdrawPropagation(supporter, produced).ok());
  EXPECT_EQ(plane.bus().stats().deliveries,
            deliveries + plane.workstation_count());
  for (size_t w = 0; w < plane.workstation_count(); ++w) {
    EXPECT_FALSE(plane.workstation(w).client->cache().Contains(produced))
        << w;
  }
}

// --- Cooperation through the full stack ---------------------------------------

TEST(SystemTest, UsageRelationshipDeliversPreliminaryResultAcrossDas) {
  ConcordSystem system;
  auto top = sim::SetupTopLevelDa(&system, "top", 4, 1e9, 0);
  ASSERT_TRUE(system.StartDa(*top).ok());

  // Two sibling sub-DAs.
  storage::DesignSpecification spec =
      sim::MakeSpec(1e9, 0, vlsi::kDomainFloorplan);
  std::vector<DaId> subs;
  for (int i = 0; i < 2; ++i) {
    NodeId ws = system.AddWorkstation("sub" + std::to_string(i));
    cooperation::DaDescription desc;
    desc.dot = system.dots().module;
    desc.spec = spec;
    desc.designer = DesignerId(2 + i);
    desc.dc = sim::MakeChipPlanningScript(1);
    desc.workstation = ws;
    auto sub = system.CreateSubDa(*top, desc);
    ASSERT_TRUE(sub.ok());
    storage::DesignObject seed(system.dots().module);
    seed.SetAttr(vlsi::kAttrName, IndexedName("m", i));
    seed.SetAttr(vlsi::kAttrDomain, vlsi::kDomainBehavior);
    seed.SetAttr(vlsi::kAttrBehavior, "MODULE m COMPLEXITY 3");
    seed.SetAttr(vlsi::kAttrPinCount, int64_t{4});
    system.SetSeedObject(*sub, seed).ok();
    ASSERT_TRUE(system.StartDa(*sub).ok());
    subs.push_back(*sub);
  }

  // Supporter (subs[0]) produces a floorplan-quality DOV.
  ASSERT_TRUE(system.RunDa(subs[0]).ok());
  DovId produced = *system.CurrentVersion(subs[0]);
  system.cm().Evaluate(subs[0], produced).ok();

  // Requirer (subs[1]) asks for it; supporter propagates.
  ASSERT_TRUE(
      system.cm().Require(subs[1], subs[0], {"goal_domain"}).ok());
  ASSERT_TRUE(system.cm().Propagate(subs[0], produced).ok());
  EXPECT_TRUE(system.cm().InScope(subs[1], produced));

  // The requirer's client-TM may now check it out.
  txn::ClientTm& tm =
      system.client_tm((*system.cm().GetDa(subs[1]))->workstation);
  auto dop = tm.BeginDop(subs[1]);
  ASSERT_TRUE(dop.ok());
  EXPECT_TRUE(tm.Checkout(*dop, produced).ok());
  tm.AbortDop(*dop).ok();

  // Withdrawal revokes access and pauses the user if it consumed it.
  ASSERT_TRUE(system.cm().WithdrawPropagation(subs[0], produced).ok());
  EXPECT_FALSE(system.cm().InScope(subs[1], produced));
}

TEST(SystemTest, EcaRuleAutoPropagatesOnRequire) {
  ConcordSystem system;
  auto top = sim::SetupTopLevelDa(&system, "top", 4, 1e9, 0);
  ASSERT_TRUE(system.StartDa(*top).ok());

  storage::DesignSpecification spec =
      sim::MakeSpec(1e9, 0, vlsi::kDomainFloorplan);
  NodeId ws1 = system.AddWorkstation("sup");
  cooperation::DaDescription desc;
  desc.dot = system.dots().module;
  desc.spec = spec;
  desc.designer = DesignerId(2);
  desc.dc = sim::MakeChipPlanningScript(1);
  desc.workstation = ws1;
  auto supporter = system.CreateSubDa(*top, desc);
  storage::DesignObject seed(system.dots().module);
  seed.SetAttr(vlsi::kAttrName, "m");
  seed.SetAttr(vlsi::kAttrDomain, vlsi::kDomainBehavior);
  seed.SetAttr(vlsi::kAttrBehavior, "MODULE m COMPLEXITY 3");
  seed.SetAttr(vlsi::kAttrPinCount, int64_t{4});
  system.SetSeedObject(*supporter, seed).ok();
  ASSERT_TRUE(system.StartDa(*supporter).ok());
  ASSERT_TRUE(system.RunDa(*supporter).ok());
  DovId produced = *system.CurrentVersion(*supporter);
  system.cm().Evaluate(*supporter, produced).ok();

  // "WHEN Require IF (required DOV available) THEN Propagate".
  DaId supporter_id = *supporter;
  ConcordSystem* sys = &system;
  system.dm(supporter_id)
      .rules()
      .AddRule(
          "Require", "auto-propagate qualifying DOV",
          [](const workflow::Event&) { return true; },
          [sys, supporter_id, produced](const workflow::Event&) {
            return sys->cm().Propagate(supporter_id, produced);
          });

  desc.workstation = system.AddWorkstation("req");
  desc.designer = DesignerId(3);
  auto requirer = system.CreateSubDa(*top, desc);
  ASSERT_TRUE(system.StartDa(*requirer).ok());
  ASSERT_TRUE(
      system.cm().Require(*requirer, *supporter, {"goal_domain"}).ok());
  // The rule fired and the DOV is now visible to the requirer.
  EXPECT_TRUE(system.cm().InScope(*requirer, produced));
  EXPECT_GE(system.dm(supporter_id).stats().rules_fired, 1u);
}

// --- Designer agents --------------------------------------------------------

TEST(SystemTest, ScriptedDesignerDrivesAlternativesAndIterations) {
  ConcordSystem system;
  NodeId ws = system.AddWorkstation("ws");
  cooperation::DaDescription desc;
  desc.dot = system.dots().chip;
  desc.spec = sim::MakeSpec(1e9, 0, vlsi::kDomainFloorplan);
  desc.designer = DesignerId(1);
  desc.dc = sim::MakeAlternativesScript();
  desc.workstation = ws;
  auto da = system.InitDesign(std::move(desc));
  ASSERT_TRUE(da.ok());
  system.SetSeedObject(
      *da, vlsi::MakeBehavioralChip(system.dots(), "chip", 6)).ok();
  Rng rng(3);
  sim::ScriptedDesigner designer(&rng, 0.5);
  system.SetDecisionMaker(*da, &designer).ok();
  ASSERT_TRUE(system.StartDa(*da).ok());
  ASSERT_TRUE(system.RunDa(*da).ok());
  EXPECT_EQ(system.dm(*da).state(), workflow::DmState::kCompleted);
  auto quality = system.cm().Evaluate(*da, *system.CurrentVersion(*da));
  EXPECT_TRUE(quality->is_final());
}

TEST(SystemTest, DaOpScriptNodesDriveCooperationOperations) {
  // A sub-DA whose script performs the whole lifecycle itself: tools,
  // then Evaluate + Sub_DA_Ready_To_Commit as kDaOp nodes (Sect. 4.2:
  // scripts contain "specific DA operations, such as the evaluation
  // (Evaluate) of the quality state").
  ConcordSystem system;
  auto top = sim::SetupTopLevelDa(&system, "top", 4, 1e9, 0);
  ASSERT_TRUE(system.StartDa(*top).ok());

  std::vector<std::unique_ptr<workflow::ScriptNode>> steps;
  steps.push_back(workflow::ScriptNode::Dop(vlsi::kToolStructureSynthesis));
  steps.push_back(workflow::ScriptNode::Dop(vlsi::kToolShapeFunctionGen));
  steps.push_back(workflow::ScriptNode::Dop(vlsi::kToolChipPlanning));
  steps.push_back(workflow::ScriptNode::DaOp("Evaluate"));
  steps.push_back(workflow::ScriptNode::DaOp("Sub_DA_Ready_To_Commit"));

  cooperation::DaDescription desc;
  desc.dot = system.dots().module;
  desc.spec = sim::MakeSpec(1e9, 0, vlsi::kDomainFloorplan);
  desc.designer = DesignerId(2);
  desc.dc = workflow::Script(
      "autonomous", workflow::ScriptNode::Sequence(std::move(steps)));
  desc.workstation = system.AddWorkstation("sub");
  auto sub = system.CreateSubDa(*top, desc);
  ASSERT_TRUE(sub.ok());
  storage::DesignObject seed(system.dots().module);
  seed.SetAttr(vlsi::kAttrName, "m");
  seed.SetAttr(vlsi::kAttrDomain, vlsi::kDomainBehavior);
  seed.SetAttr(vlsi::kAttrBehavior, "MODULE m COMPLEXITY 3");
  seed.SetAttr(vlsi::kAttrPinCount, int64_t{4});
  system.SetSeedObject(*sub, seed).ok();
  ASSERT_TRUE(system.StartDa(*sub).ok());
  ASSERT_TRUE(system.RunDa(*sub).ok());

  // The script's DA operations did the cooperation work: the sub-DA is
  // ready for termination with a final DOV, no designer call needed.
  EXPECT_EQ(*system.cm().StateOf(*sub),
            cooperation::DaState::kReadyForTermination);
  EXPECT_FALSE((*system.cm().GetDa(*sub))->final_dovs.empty());
  ASSERT_TRUE(system.cm().TerminateSubDa(*top, *sub).ok());
}

TEST(SystemTest, UnknownDaOpInScriptFails) {
  ConcordSystem system;
  NodeId ws = system.AddWorkstation("ws");
  cooperation::DaDescription desc;
  desc.dot = system.dots().chip;
  desc.designer = DesignerId(1);
  std::vector<std::unique_ptr<workflow::ScriptNode>> steps;
  steps.push_back(workflow::ScriptNode::DaOp("No_Such_Operation"));
  desc.dc = workflow::Script(
      "bad", workflow::ScriptNode::Sequence(std::move(steps)));
  desc.workstation = ws;
  auto da = system.InitDesign(std::move(desc));
  ASSERT_TRUE(system.StartDa(*da).ok());
  EXPECT_TRUE(system.RunDa(*da).IsNotFound());
}

TEST(SystemTest, OpenScriptWithDesignerPlan) {
  ConcordSystem system;
  NodeId ws = system.AddWorkstation("ws");
  cooperation::DaDescription desc;
  desc.dot = system.dots().chip;
  desc.designer = DesignerId(1);
  desc.dc = sim::MakeOpenScript();
  desc.workstation = ws;
  auto da = system.InitDesign(std::move(desc));
  ASSERT_TRUE(da.ok());
  system.SetSeedObject(
      *da, vlsi::MakeBehavioralChip(system.dots(), "chip", 5)).ok();
  Rng rng(3);
  // The designer fills the open segment so assembly's precondition
  // (floorplan domain) holds.
  sim::ScriptedDesigner designer(
      &rng, 0.0,
      {vlsi::kToolShapeFunctionGen, vlsi::kToolPadFrameEdit,
       vlsi::kToolChipPlanning});
  system.SetDecisionMaker(*da, &designer).ok();
  ASSERT_TRUE(system.StartDa(*da).ok());
  ASSERT_TRUE(system.RunDa(*da).ok());
  EXPECT_EQ(system.dm(*da).CompletedDops().size(), 5u);
}

}  // namespace
}  // namespace concord::core
