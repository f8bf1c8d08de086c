#include "core/concord_system.h"

#include <algorithm>

#include "common/logging.h"
#include "common/strings.h"

namespace concord::core {

void RegisterVlsiDomainConstraints(workflow::ConstraintSet* constraints) {
  // "one may require that a DOP of a certain type (e.g., chip assembly)
  // must not be applied before a DOP of another type has successfully
  // completed (e.g., structure synthesis)".
  constraints->Precedes(vlsi::kToolStructureSynthesis,
                        vlsi::kToolChipAssembly);
  // Planning needs shape functions.
  constraints->Precedes(vlsi::kToolShapeFunctionGen, vlsi::kToolChipPlanning);
  // "a certain DOP must always be followed by another DOP of a specific
  // type (e.g. pad frame editor followed by chip planner)".
  constraints->ImmediatelyFollowedBy(vlsi::kToolPadFrameEdit,
                                     vlsi::kToolChipPlanning);
}

ConcordSystem::ConcordSystem(SystemConfig config)
    : config_(config),
      rng_(config.seed),
      // Every shard registers the identical VLSI schema (same call
      // order, same DOT ids), so checkin validation agrees plane-wide.
      plane_(config.seed ^ 0x9e37,
             static_cast<size_t>(std::max(1, config.server_nodes)),
             std::max(1, config.partitions_per_node),
             [this](storage::SchemaCatalog* schema) {
               dots_ = vlsi::RegisterVlsiSchema(schema);
             }) {
  rpc::Network& network = plane_.network();
  network.set_lan_latency(config.lan_latency);
  network.set_local_latency(config.local_latency);
  network.set_loss_probability(config.message_loss_probability);
  toolbox_ = std::make_unique<vlsi::ToolBox>(dots_);
  RegisterVlsiDomainConstraints(&constraints_);
  plane_.cm().SetEventSink([this](DaId da, const workflow::Event& event) {
    DeliverEvent(da, event);
  });
}

ConcordSystem::~ConcordSystem() = default;

NodeId ConcordSystem::AddWorkstation(const std::string& name) {
  ServerPlane::Workstation& ws = plane_.AddWorkstation(name);
  ws.client->set_auto_recovery_interval(config_.recovery_point_interval);
  return ws.node;
}

txn::ClientTm& ConcordSystem::client_tm(NodeId workstation) {
  return *plane_.FindWorkstation(workstation)->client;
}

workflow::DesignManager& ConcordSystem::dm(DaId da) {
  return *das_.at(da.value()).dm;
}

Result<ConcordSystem::DaRuntime*> ConcordSystem::RuntimeOf(DaId da) {
  auto it = das_.find(da.value());
  if (it == das_.end()) {
    return Status::NotFound("no runtime for " + da.ToString());
  }
  return &it->second;
}

void ConcordSystem::BindDm(DaId da, DaRuntime* runtime) {
  runtime->dm->SetToolRunner([this, da](const std::string& dop_type) {
    return RunTool(da, dop_type);
  });
  runtime->dm->SetDaOpRunner(
      [this, da](const std::string& op_name) { return RunDaOp(da, op_name); });
  // Per-node script progress feeds the CM, so supervising DAs (and the
  // sim's metrics) can watch a sub-DA's script advance.
  runtime->dm->SetProgressSink([this, da](const workflow::TaskNode& node,
                                          bool started, bool failed) {
    cm().NoteScriptProgress(da, node.name,
                            workflow::TaskRankToString(node.rank), started,
                            failed);
  });
  if (executor_pool_ != nullptr) runtime->dm->SetExecutorPool(executor_pool_);
}

void ConcordSystem::SetExecutorPool(workflow::ExecutorPool* pool) {
  executor_pool_ = pool;
  for (auto& [da_value, runtime] : das_) {
    runtime.dm->SetExecutorPool(pool);
  }
}

Result<DaId> ConcordSystem::InitDesign(cooperation::DaDescription description) {
  if (plane_.FindWorkstation(description.workstation) == nullptr) {
    return Status::InvalidArgument("unknown workstation " +
                                   description.workstation.ToString());
  }
  workflow::Script script = description.dc;
  NodeId workstation = description.workstation;
  CONCORD_ASSIGN_OR_RETURN(DaId da, cm().InitDesign(std::move(description)));

  DaRuntime runtime;
  runtime.workstation = workstation;
  runtime.dm = std::make_unique<workflow::DesignManager>(
      da, std::move(script), &constraints_, &clock());
  auto [it, inserted] = das_.emplace(da.value(), std::move(runtime));
  BindDm(da, &it->second);
  return da;
}

Result<DaId> ConcordSystem::CreateSubDa(DaId super,
                                        cooperation::DaDescription description) {
  if (plane_.FindWorkstation(description.workstation) == nullptr) {
    return Status::InvalidArgument("unknown workstation " +
                                   description.workstation.ToString());
  }
  workflow::Script script = description.dc;
  NodeId workstation = description.workstation;
  CONCORD_ASSIGN_OR_RETURN(DaId da,
                           cm().CreateSubDa(super, std::move(description)));

  DaRuntime runtime;
  runtime.workstation = workstation;
  runtime.dm = std::make_unique<workflow::DesignManager>(
      da, std::move(script), &constraints_, &clock());
  auto [it, inserted] = das_.emplace(da.value(), std::move(runtime));
  BindDm(da, &it->second);
  return da;
}

Status ConcordSystem::RunDaOp(DaId da, const std::string& op_name) {
  if (op_name == "Evaluate") {
    CONCORD_ASSIGN_OR_RETURN(DovId current, CurrentVersion(da));
    return cm().Evaluate(da, current).status();
  }
  if (op_name == "Propagate") {
    CONCORD_ASSIGN_OR_RETURN(DovId current, CurrentVersion(da));
    // Propagation presumes an evaluated quality state (Sect. 4.1).
    CONCORD_RETURN_NOT_OK(cm().Evaluate(da, current).status());
    return cm().Propagate(da, current);
  }
  if (op_name == "Sub_DA_Ready_To_Commit") {
    // Evaluate first so a qualifying current version is marked final.
    auto current = CurrentVersion(da);
    if (current.ok()) cm().Evaluate(da, *current).status().ok();
    return cm().SubDaReadyToCommit(da);
  }
  if (op_name == "Sub_DA_Impossible_Specification") {
    return cm().SubDaImpossibleSpecification(da, "reported by script");
  }
  return Status::NotFound("unknown DA operation '" + op_name +
                          "' in script of " + da.ToString());
}

Status ConcordSystem::StartDa(DaId da) {
  CONCORD_ASSIGN_OR_RETURN(DaRuntime * runtime, RuntimeOf(da));
  CONCORD_RETURN_NOT_OK(cm().Start(da));
  return runtime->dm->Start();
}

Status ConcordSystem::RunDa(DaId da) {
  CONCORD_ASSIGN_OR_RETURN(DaRuntime * runtime, RuntimeOf(da));
  return runtime->dm->RunToCompletion();
}

Status ConcordSystem::SetSeedObject(DaId da, storage::DesignObject object) {
  CONCORD_ASSIGN_OR_RETURN(DaRuntime * runtime, RuntimeOf(da));
  runtime->seed = std::move(object);
  return Status::OK();
}

Result<DovId> ConcordSystem::CurrentVersion(DaId da) const {
  auto it = das_.find(da.value());
  if (it == das_.end()) {
    return Status::NotFound("no runtime for " + da.ToString());
  }
  if (!it->second.current.valid()) {
    return Status::NotFound(da.ToString() + " has not checked in any DOV yet");
  }
  return it->second.current;
}

Status ConcordSystem::SetDecisionMaker(DaId da,
                                       workflow::DecisionMaker* maker) {
  CONCORD_ASSIGN_OR_RETURN(DaRuntime * runtime, RuntimeOf(da));
  runtime->dm->SetDecisionMaker(maker);
  return Status::OK();
}

Result<workflow::DopOutcome> ConcordSystem::RunTool(
    DaId da, const std::string& dop_type) {
  CONCORD_ASSIGN_OR_RETURN(ToolRun run, BeginToolRun(da, dop_type));
  return FinishToolRun(std::move(run));
}

Result<ConcordSystem::ToolRun> ConcordSystem::BeginToolRun(
    DaId da, const std::string& dop_type) {
  MutexLock lock(&tool_mu_);
  CONCORD_ASSIGN_OR_RETURN(DaRuntime * runtime, RuntimeOf(da));
  txn::ClientTm& tm = client_tm(runtime->workstation);

  // Begin-of-DOP.
  CONCORD_ASSIGN_OR_RETURN(DopId dop, tm.BeginDop(da));
  ToolRun run;
  run.da = da;
  run.dop_type = dop_type;
  run.dop = dop;

  // Input selection: the DA's current version, its initial DOV, or the
  // seed object for a from-scratch DA.
  DovId input_dov;
  if (runtime->current.valid()) {
    input_dov = runtime->current;
  } else {
    auto activity = cm().GetDa(da);
    if (activity.ok() && (*activity)->initial_dov) {
      input_dov = *(*activity)->initial_dov;
    }
  }
  if (input_dov.valid()) {
    Status st = tm.Checkout(dop, input_dov);
    if (!st.ok()) {
      tm.AbortDop(dop).ok();
      return st;
    }
    CONCORD_ASSIGN_OR_RETURN(run.input, tm.Input(dop, input_dov));
    run.inputs.push_back(input_dov);
  } else if (runtime->seed.has_value()) {
    run.input = *runtime->seed;
  } else {
    tm.AbortDop(dop).ok();
    return Status::FailedPrecondition(
        da.ToString() + " has no current version, initial DOV or seed object");
  }
  return run;
}

Result<workflow::DopOutcome> ConcordSystem::FinishToolRun(ToolRun run) {
  MutexLock lock(&tool_mu_);
  CONCORD_ASSIGN_OR_RETURN(DaRuntime * runtime, RuntimeOf(run.da));
  txn::ClientTm& tm = client_tm(runtime->workstation);
  const DopId dop = run.dop;
  const std::vector<DovId>& inputs = run.inputs;

  // Tool processing. The shared RNG keeps the single-threaded draw
  // order bit-identical to the pre-async engine; concurrent callers
  // serialize here at DOP granularity (the sim clock is what the
  // makespan experiments measure, and it is advanced atomically).
  auto tool_result = toolbox_->Run(run.dop_type, run.input, &rng_);
  if (!tool_result.ok()) {
    tm.AbortDop(dop).ok();
    workflow::DopOutcome outcome;
    outcome.committed = false;
    outcome.inputs = inputs;
    CONCORD_INFO("core", run.dop_type << " in " << run.da.ToString()
                                      << " aborted: "
                                      << tool_result.status().ToString());
    return outcome;
  }
  tm.DoWork(dop, tool_result->work_units).ok();
  clock().Advance(static_cast<SimTime>(tool_result->work_units) *
                 config_.time_per_work_unit);

  // Checkin + End-of-DOP, batched into one server round trip (the
  // server skips the commit when the checkin fails, so the sequential
  // semantics are preserved).
  auto checked_in = tm.CheckinCommit(dop, tool_result->object, inputs);
  if (!checked_in.ok()) {
    // "checkin failure": report to the DM as an aborted DOP.
    tm.AbortDop(dop).ok();
    workflow::DopOutcome outcome;
    outcome.committed = false;
    outcome.inputs = inputs;
    return outcome;
  }
  cm().NoteCheckin(run.da, *checked_in);
  runtime->current = *checked_in;

  workflow::DopOutcome outcome;
  outcome.committed = true;
  outcome.output = *checked_in;
  outcome.inputs = inputs;
  return outcome;
}

void ConcordSystem::DeliverEvent(DaId da, const workflow::Event& event) {
  auto it = das_.find(da.value());
  if (it == das_.end()) return;  // DA without a local runtime (tests)
  DaRuntime& runtime = it->second;
  // One hop server -> workstation; if the workstation is down, queue
  // (reliable delivery, Sect. 5.4).
  if (!network().IsUp(runtime.workstation)) {
    runtime.pending_events.push_back(event);
    return;
  }
  network().Send(server_node(), runtime.workstation).ok();
  if (event.type == "Modify_Sub_DA_Specification" || event.type == "Restart") {
    // The DA restarts from the beginning; the default designer policy
    // starts over from the seed/initial DOV rather than the last
    // derived state (previous DOVs stay available in the graph).
    runtime.current = DovId();
  }
  runtime.dm->HandleEvent(event).ok();
}

void ConcordSystem::CrashWorkstation(NodeId workstation) {
  ServerPlane::Workstation* ws = plane_.FindWorkstation(workstation);
  if (ws == nullptr) return;
  ws->client->Crash();
  for (auto& [da_value, runtime] : das_) {
    if (runtime.workstation == workstation &&
        runtime.dm->state() != workflow::DmState::kCompleted) {
      runtime.dm->Crash();
    }
  }
}

Status ConcordSystem::RecoverWorkstation(NodeId workstation) {
  ServerPlane::Workstation* ws = plane_.FindWorkstation(workstation);
  if (ws == nullptr) {
    return Status::NotFound("unknown workstation " + workstation.ToString());
  }
  CONCORD_RETURN_NOT_OK(ws->client->Recover().status());
  for (auto& [da_value, runtime] : das_) {
    if (runtime.workstation != workstation) continue;
    if (runtime.dm->state() == workflow::DmState::kCrashed) {
      CONCORD_RETURN_NOT_OK(runtime.dm->Recover());
      // Restore the DA's current-version pointer from the replayed log.
      if (!runtime.dm->ProducedDovs().empty()) {
        runtime.current = runtime.dm->ProducedDovs().back();
      }
    }
    // Deliver events queued while the workstation was down.
    while (!runtime.pending_events.empty()) {
      workflow::Event event = runtime.pending_events.front();
      runtime.pending_events.pop_front();
      network().Send(server_node(), workstation).ok();
      runtime.dm->HandleEvent(event).ok();
    }
  }
  return Status::OK();
}

void ConcordSystem::CrashServer() {
  for (size_t shard = 0; shard < plane_.node_count(); ++shard) {
    plane_.CrashNode(shard);
  }
}

Status ConcordSystem::RecoverServer() { return plane_.RecoverAll(); }

}  // namespace concord::core
