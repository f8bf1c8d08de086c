#include "txn/client_tm.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace concord::txn {

ClientTm::ClientTm(ServerService* service, rpc::Network* network,
                   NodeId workstation, SimClock* clock,
                   rpc::InvalidationBus* invalidations)
    : ClientTm(ShardRouter(service), network, workstation, clock,
               invalidations) {}

ClientTm::ClientTm(ShardRouter router, rpc::Network* network,
                   NodeId workstation, SimClock* clock,
                   rpc::InvalidationBus* invalidations)
    : router_(std::move(router)),
      network_(network),
      node_(workstation),
      clock_(clock),
      invalidations_(invalidations) {
  if (invalidations_ != nullptr) {
    // The handler runs on the publishing (server) thread and touches
    // only the self-synchronizing cache — never the DOP tables.
    invalidations_->Subscribe(
        node_, [this](const rpc::InvalidationMessage& message) {
          cache_.Invalidate(message.dov);
        });
  }
}

TxnId ClientTm::NextTxnId() {
  // Namespaced like DOP ids: the server-side 2PC ledger keys on the
  // transaction id, so ids must be unique per interaction AND across
  // workstations.
  return TxnId((node_.value() << 32) | txn_gen_.Next().value());
}

bool ClientTm::Enlisted(const DopRuntime& runtime, NodeId node) const {
  return std::find(runtime.participants.begin(), runtime.participants.end(),
                   node) != runtime.participants.end();
}

ClientTm::~ClientTm() {
  if (invalidations_ != nullptr) invalidations_->Unsubscribe(node_);
}

Result<ClientTm::DopRuntime*> ClientTm::ActiveDop(DopId dop) {
  auto it = dops_.find(dop);
  if (it == dops_.end()) {
    return Status::NotFound(dop.ToString() + " not known at this client-TM");
  }
  if (it->second.state != DopState::kActive) {
    return Status::FailedPrecondition(
        dop.ToString() + " is " + DopStateToString(it->second.state) +
        ", not active");
  }
  return &it->second;
}

Result<BatchReply> ClientTm::RunCriticalInteraction(TxnId txn,
                                                    std::vector<RoutedOp> ops,
                                                    bool independent) {
  if (!network_->IsUp(node_)) {
    return Status::Crashed("workstation is down");
  }
  if (ops.empty()) return BatchReply{};
  ++two_pc_stats_.protocols_run;
  // Client-side participant leg: co-located with the coordinator, so
  // it takes the main-memory fast path of Sect. 6 — two local hops,
  // no LAN messages.
  ++two_pc_stats_.local_fast_paths;
  if (!network_->Send(node_, node_).ok() || !network_->Send(node_, node_).ok()) {
    ++two_pc_stats_.aborted;
    return Status::Crashed("workstation is down");
  }

  // Group the ops by destination node, preserving first-appearance
  // order (the coordinator-side view of the participant list).
  std::vector<NodeId> participants;
  std::vector<std::vector<size_t>> op_indices;
  for (size_t i = 0; i < ops.size(); ++i) {
    size_t p = 0;
    while (p < participants.size() && participants[p] != ops[i].node) ++p;
    if (p == participants.size()) {
      participants.push_back(ops[i].node);
      op_indices.emplace_back();
    }
    op_indices[p].push_back(i);
  }

  if (participants.size() > 1) {
    return RunMultiNodeInteraction(txn, participants, op_indices, ops,
                                   independent);
  }

  // Single-participant degenerate case: both 2PC legs ride one
  // envelope — phase-1 vote first, the operations, then the phase-2
  // decision — one round trip for all three where a separate phase 1
  // and phase 2 would pay two.
  BatchRequest batch = ParticipantEnvelope(txn, ops, op_indices.front(),
                                           independent, /*with_decide=*/true);

  auto reply = router_.service(participants.front())->Execute(batch);
  if (!reply.ok()) {
    // Server unreachable (or retries exhausted): presumed abort.
    ++two_pc_stats_.aborted;
    return Status::Unavailable("client/server TM commit protocol failed: " +
                               reply.status().message());
  }
  if (reply->ops.size() != batch.ops.size()) {
    ++two_pc_stats_.aborted;
    return Status::Internal("server-service reply arity mismatch");
  }
  const auto* vote = std::get_if<PrepareReply>(&reply->ops.front().body);
  if (vote == nullptr || !vote->vote) {
    ++two_pc_stats_.aborted;
    return Status::Aborted("server-TM voted NO in the commit protocol");
  }
  ++two_pc_stats_.committed;
  two_pc_stats_.messages += 2;  // the envelope's request + reply LAN hops
  BatchReply out;
  out.ops.assign(std::make_move_iterator(reply->ops.begin() + 1),
                 std::make_move_iterator(reply->ops.end() - 1));
  return out;
}

BatchRequest ClientTm::ParticipantEnvelope(TxnId txn,
                                           std::vector<RoutedOp>& ops,
                                           const std::vector<size_t>& indices,
                                           bool independent, bool with_decide) {
  BatchRequest batch;
  batch.independent = independent;
  batch.ops.reserve(indices.size() + 2);
  batch.ops.emplace_back(PrepareRequest{txn});
  for (size_t index : indices) batch.ops.push_back(std::move(ops[index].op));
  if (with_decide) batch.ops.emplace_back(DecideRequest{txn, /*commit=*/true});
  return batch;
}

Result<BatchReply> ClientTm::RunMultiNodeInteraction(
    TxnId txn, const std::vector<NodeId>& participants,
    const std::vector<std::vector<size_t>>& op_indices,
    std::vector<RoutedOp>& ops, bool independent) {
  BatchReply merged;
  merged.ops.resize(ops.size());
  for (ServerReply& reply : merged.ops) {
    reply.status = Status::Unavailable("participant unreachable");
  }

  if (independent) {
    // No cross-node atomicity required: each participant gets its own
    // degenerate [Prepare, ops, Decide] envelope; an unreachable node
    // only costs its own ops (they stay kUnavailable in the merge).
    bool any_reached = false;
    for (size_t p = 0; p < participants.size(); ++p) {
      BatchRequest batch = ParticipantEnvelope(
          txn, ops, op_indices[p], /*independent=*/true, /*with_decide=*/true);
      auto reply = router_.service(participants[p])->Execute(batch);
      two_pc_stats_.messages += 2;
      if (!reply.ok() || reply->ops.size() != batch.ops.size()) continue;
      any_reached = true;
      for (size_t i = 0; i < op_indices[p].size(); ++i) {
        merged.ops[op_indices[p][i]] = std::move(reply->ops[i + 1]);
      }
    }
    if (any_reached) {
      ++two_pc_stats_.committed;
    } else {
      ++two_pc_stats_.aborted;
      return Status::Unavailable("no server node reachable");
    }
    return merged;
  }

  // True multi-participant 2PC. Phase 1: one [Prepare, ops...]
  // envelope per participant; state-changing operations are staged in
  // the participant's ledger and applied only by the decision.
  ++two_pc_stats_.multi_node_protocols;
  std::vector<bool> acked(participants.size(), false);
  bool all_acked = true;
  for (size_t p = 0; p < participants.size(); ++p) {
    BatchRequest batch =
        ParticipantEnvelope(txn, ops, op_indices[p], /*independent=*/false,
                            /*with_decide=*/false);
    auto reply = router_.service(participants[p])->Execute(batch);
    ++two_pc_stats_.participant_envelopes;
    two_pc_stats_.messages += 2;
    if (!reply.ok() || reply->ops.size() != batch.ops.size()) {
      all_acked = false;
      continue;
    }
    const auto* vote = std::get_if<PrepareReply>(&reply->ops.front().body);
    if (vote == nullptr || !vote->vote) {
      all_acked = false;
      continue;
    }
    acked[p] = true;
    for (size_t i = 0; i < op_indices[p].size(); ++i) {
      merged.ops[op_indices[p][i]] = std::move(reply->ops[i + 1]);
    }
  }

  // Decision: commit only when every participant is prepared and — the
  // ops form one dependent chain — every operation succeeded. (An
  // application-level failure on node A must discard what node B
  // staged: that is exactly the cross-shard skip-after-failure rule.)
  bool data_ok = true;
  for (const ServerReply& reply : merged.ops) {
    if (!reply.status.ok()) data_ok = false;
  }
  bool commit = all_acked && data_ok;

  // Phase 2: fan the decision out to every participant that acked
  // phase 1 (presumed abort covers the rest). A commit decision is
  // retried a few times per node — the transport already retries each
  // attempt — because a participant that misses it would strand its
  // staged effects; an abort decision is best-effort by design.
  Status decide_failure = Status::OK();
  for (size_t p = 0; p < participants.size(); ++p) {
    if (!acked[p]) continue;
    BatchRequest decide;
    decide.ops.emplace_back(DecideRequest{txn, commit});
    const int attempts = commit ? 3 : 1;
    Status last = Status::OK();
    for (int attempt = 0; attempt < attempts; ++attempt) {
      auto reply = router_.service(participants[p])->Execute(decide);
      ++two_pc_stats_.participant_envelopes;
      two_pc_stats_.messages += 2;
      if (reply.ok()) {
        last = reply->ops.empty() ? Status::OK() : reply->ops.front().status;
        break;
      }
      last = reply.status();
    }
    if (commit && !last.ok() && decide_failure.ok()) decide_failure = last;
  }

  if (!all_acked) {
    ++two_pc_stats_.aborted;
    return Status::Unavailable(
        "cross-shard commit protocol aborted: participant unreachable in "
        "phase 1");
  }
  if (commit && !decide_failure.ok()) {
    // In-doubt window: some participant staged but never learned the
    // commit (it is down — its volatile ledger dies with it). Surface
    // the failure; the caller treats the interaction as failed.
    ++two_pc_stats_.aborted;
    return Status::Unavailable("cross-shard commit decision undeliverable: " +
                               decide_failure.message());
  }
  if (commit) {
    ++two_pc_stats_.committed;
  } else {
    ++two_pc_stats_.aborted;
  }
  // Data-failure aborts still return the merged replies: the callers
  // surface the first failed operation's typed status, exactly like
  // the single-node skip-after-failure path.
  return merged;
}

Result<DopId> ClientTm::BeginDop(DaId da) {
  RecursiveMutexLock lock(&mu_);
  if (!network_->IsUp(node_)) {
    return Status::Crashed("workstation is down");
  }
  // DOP ids are namespaced by workstation: every client-TM draws from
  // its own counter, and two workstations with concurrently live DOPs
  // must not collide at the server's registration table.
  DopId dop = DopId((node_.value() << 32) | dop_gen_.Next().value());
  // Registration goes to the DA's home node: that is where the DOP's
  // checkins will land, and the shard a stale placement would
  // otherwise misroute them to detects it there.
  CONCORD_ASSIGN_OR_RETURN(NodeId home, router_.HomeOf(da));
  std::vector<RoutedOp> ops;
  ops.push_back({home, BeginDopRequest{dop, da}});
  CONCORD_ASSIGN_OR_RETURN(
      BatchReply reply, RunCriticalInteraction(NextTxnId(), std::move(ops)));
  CONCORD_RETURN_NOT_OK(reply.ops.front().status);
  DopRuntime runtime;
  runtime.da = da;
  runtime.participants.push_back(home);
  dops_.emplace(dop, std::move(runtime));
  ++stats_.dops_in_flight;
  if (stats_.dops_in_flight > stats_.peak_dops_in_flight) {
    stats_.peak_dops_in_flight = stats_.dops_in_flight;
  }
  // Initial recovery point: an empty context, so a crash right after
  // Begin-of-DOP recovers to the beginning.
  PersistRecoveryPoint(dop, dops_.at(dop));
  return dop;
}

Status ClientTm::Checkout(DopId dop, DovId dov, bool take_derivation_lock) {
  RecursiveMutexLock lock(&mu_);
  CONCORD_ASSIGN_OR_RETURN(DopRuntime * runtime, ActiveDop(dop));
  // Cache fast path: a DOV this workstation already fetched under the
  // same DA's visibility is served locally — no envelope, no server hop
  // (IsUp is a lock-free atomic read, so warm checkouts never touch
  // the LAN mutex). Derivation-lock requests always go to the server
  // (the lock table lives there), and a down workstation serves
  // nothing.
  if (!take_derivation_lock && network_->IsUp(node_)) {
    auto cached = cache_.Lookup(dov, runtime->da);
    if (cached.ok()) {
      ++stats_.checkouts_from_cache;
      runtime->context.inputs[dov] = std::move(cached->data);
      // "After each checkout operation a recovery point is set"
      // (Sect. 5.2) — cached checkouts included: a crash right after
      // must not re-request the DOV from the server.
      PersistRecoveryPoint(dop, *runtime);
      return Status::OK();
    }
  }
  // Sample the invalidation counter BEFORE the round-trip: if a
  // withdrawal races the checkout, the stale reply must not be cached
  // (InsertIfCurrent refuses it).
  uint64_t inv_seq = cache_.InvalidationSeq(dov);
  // Route to the node owning the DOV (the id is the address). A first
  // touch of that node enlists the DOP there — the Begin-of-DOP
  // piggybacks on the same envelope, so enlistment costs no extra
  // round trip.
  NodeId target = router_.NodeOfDov(dov);
  bool enlist = !Enlisted(*runtime, target);
  std::vector<RoutedOp> ops;
  if (enlist) ops.push_back({target, BeginDopRequest{dop, runtime->da}});
  ops.push_back({target, CheckoutRequest{dop, dov, take_derivation_lock}});
  CONCORD_ASSIGN_OR_RETURN(
      BatchReply reply, RunCriticalInteraction(NextTxnId(), std::move(ops)));
  size_t checkout_index = enlist ? 1 : 0;
  if (enlist && reply.ops.front().status.ok()) {
    // The registration exists server-side from here on, whatever the
    // checkout itself says — End-of-DOP must release it there.
    runtime->participants.push_back(target);
  }
  CONCORD_RETURN_NOT_OK(reply.ops[checkout_index].status);
  auto* body = std::get_if<CheckoutReply>(&reply.ops[checkout_index].body);
  if (body == nullptr) {
    return Status::Internal("checkout reply carries no DOV record");
  }
  storage::DovRecord record = std::move(body->record);
  ++stats_.checkouts_from_server;
  runtime->context.inputs[dov] = record.data;
  // The server just ran the visibility tests for this DA: the answer is
  // authoritative and (re-)arms the cache — unless an invalidation
  // push overtook it.
  cache_.InsertIfCurrent(dov, std::move(record), runtime->da, inv_seq);
  // "After each checkout operation a recovery point is set" (Sect 5.2).
  PersistRecoveryPoint(dop, *runtime);
  return Status::OK();
}

Result<storage::DesignObject> ClientTm::Input(DopId dop, DovId dov) const {
  RecursiveMutexLock lock(&mu_);
  auto it = dops_.find(dop);
  if (it == dops_.end()) {
    return Status::NotFound(dop.ToString() + " not known at this client-TM");
  }
  auto input_it = it->second.context.inputs.find(dov);
  if (input_it == it->second.context.inputs.end()) {
    return Status::NotFound(dov.ToString() + " not checked out by " +
                            dop.ToString());
  }
  return input_it->second;
}

std::vector<DovId> ClientTm::CheckedOut(DopId dop) const {
  RecursiveMutexLock lock(&mu_);
  std::vector<DovId> out;
  auto it = dops_.find(dop);
  if (it == dops_.end()) return out;
  for (const auto& [dov, obj] : it->second.context.inputs) out.push_back(dov);
  return out;
}

Status ClientTm::PutWorkspace(DopId dop, const std::string& key,
                              storage::DesignObject object) {
  RecursiveMutexLock lock(&mu_);
  CONCORD_ASSIGN_OR_RETURN(DopRuntime * runtime, ActiveDop(dop));
  runtime->context.workspace[key] = std::move(object);
  return Status::OK();
}

Result<storage::DesignObject> ClientTm::GetWorkspace(
    DopId dop, const std::string& key) const {
  RecursiveMutexLock lock(&mu_);
  auto it = dops_.find(dop);
  if (it == dops_.end()) {
    return Status::NotFound(dop.ToString() + " not known at this client-TM");
  }
  auto ws_it = it->second.context.workspace.find(key);
  if (ws_it == it->second.context.workspace.end()) {
    return Status::NotFound("no workspace object '" + key + "' in " +
                            dop.ToString());
  }
  return ws_it->second;
}

Status ClientTm::DoWork(DopId dop, uint64_t units) {
  RecursiveMutexLock lock(&mu_);
  CONCORD_ASSIGN_OR_RETURN(DopRuntime * runtime, ActiveDop(dop));
  runtime->context.work_done += units;
  stats_.work_units_done += units;
  if (auto_rp_units_ > 0 &&
      runtime->context.work_done - runtime->work_at_last_rp >= auto_rp_units_) {
    PersistRecoveryPoint(dop, *runtime);
  }
  return Status::OK();
}

Status ClientTm::Save(DopId dop, const std::string& savepoint_name) {
  RecursiveMutexLock lock(&mu_);
  CONCORD_ASSIGN_OR_RETURN(DopRuntime * runtime, ActiveDop(dop));
  for (const Savepoint& sp : runtime->savepoints) {
    if (sp.name == savepoint_name) {
      return Status::AlreadyExists("savepoint '" + savepoint_name +
                                   "' already set in " + dop.ToString());
    }
  }
  runtime->savepoints.push_back(
      Savepoint{savepoint_name, clock_->Now(), runtime->context});
  ++stats_.savepoints_taken;
  return Status::OK();
}

Status ClientTm::Restore(DopId dop, const std::string& savepoint_name) {
  RecursiveMutexLock lock(&mu_);
  CONCORD_ASSIGN_OR_RETURN(DopRuntime * runtime, ActiveDop(dop));
  for (const Savepoint& sp : runtime->savepoints) {
    if (sp.name == savepoint_name) {
      runtime->context = sp.context;
      ++stats_.restores;
      return Status::OK();
    }
  }
  return Status::NotFound("no savepoint '" + savepoint_name + "' in " +
                          dop.ToString());
}

Status ClientTm::Suspend(DopId dop) {
  RecursiveMutexLock lock(&mu_);
  CONCORD_ASSIGN_OR_RETURN(DopRuntime * runtime, ActiveDop(dop));
  // Suspension must survive long absences (and crashes in between):
  // persist the context as a recovery point.
  PersistRecoveryPoint(dop, *runtime);
  runtime->state = DopState::kSuspended;
  ++stats_.suspends;
  return Status::OK();
}

Status ClientTm::Resume(DopId dop) {
  RecursiveMutexLock lock(&mu_);
  auto it = dops_.find(dop);
  if (it == dops_.end()) {
    return Status::NotFound(dop.ToString() + " not known at this client-TM");
  }
  if (it->second.state != DopState::kSuspended) {
    return Status::FailedPrecondition(dop.ToString() + " is not suspended");
  }
  // "The state seen by the designer after a Resume operation must be
  // equal to that seen when issuing the Suspend command" — the context
  // is exactly as persisted.
  it->second.state = DopState::kActive;
  ++stats_.resumes;
  return Status::OK();
}

Status ClientTm::TakeRecoveryPoint(DopId dop) {
  RecursiveMutexLock lock(&mu_);
  CONCORD_ASSIGN_OR_RETURN(DopRuntime * runtime, ActiveDop(dop));
  PersistRecoveryPoint(dop, *runtime);
  return Status::OK();
}

void ClientTm::PersistRecoveryPoint(DopId dop, const DopRuntime& runtime) {
  RecoveryPoint rp;
  rp.taken_at = clock_->Now();
  rp.sequence = ++rp_sequence_;
  rp.context = runtime.context;
  stable_rp_[dop.value()] = {runtime.da, std::move(rp)};
  auto it = dops_.find(dop);
  if (it != dops_.end()) {
    it->second.work_at_last_rp = runtime.context.work_done;
  }
  ++stats_.recovery_points_taken;
}

Status ClientTm::HandOverContext(DopId from, DopId to) {
  RecursiveMutexLock lock(&mu_);
  auto from_it = dops_.find(from);
  if (from_it == dops_.end()) {
    return Status::NotFound(from.ToString() + " not known at this client-TM");
  }
  if (from_it->second.state != DopState::kCommitted) {
    return Status::FailedPrecondition(
        "context handover requires a committed predecessor, " +
        from.ToString() + " is " +
        std::string(DopStateToString(from_it->second.state)));
  }
  CONCORD_ASSIGN_OR_RETURN(DopRuntime * to_runtime, ActiveDop(to));
  // The successor inherits the predecessor's loaded inputs and
  // workspace; its own work counter continues from zero.
  uint64_t own_work = to_runtime->context.work_done;
  to_runtime->context = from_it->second.context;
  to_runtime->context.work_done = own_work;
  // The handed-over inputs are the paper's one-shot in-memory shortcut;
  // the DOV cache is deliberately NOT touched here. A same-DA successor
  // needs no help — every live handed-over entry was inserted under
  // that DA at the predecessor's checkout, so its re-checkouts already
  // hit. Widening validation beyond what a server checkout proved
  // would let a handover re-validate a DOV whose grant was withdrawn
  // and re-armed by a different DA in between.
  PersistRecoveryPoint(to, *to_runtime);
  ++stats_.context_handovers;
  return Status::OK();
}

void ClientTm::CacheOwnCheckin(const DopRuntime& runtime, DopId dop, DovId dov,
                               storage::DesignObject object,
                               const std::vector<DovId>& predecessors,
                               SimTime created_at) {
  // The workstation knows every field of the record it just created —
  // rebuilding it locally matches the server's image byte for byte
  // (the server stores exactly the shipped object under the creating
  // DOP/DA), so re-reading one's own checkin needs no payload refetch.
  storage::DovRecord record;
  record.id = dov;
  record.owner_da = runtime.da;
  record.created_by = dop;
  record.type = object.type();
  record.data = std::move(object);
  record.predecessors = predecessors;
  record.created_at = created_at;
  if (cache_.InsertIfNeverInvalidated(dov, std::move(record), runtime.da)) {
    ++stats_.checkin_cache_inserts;
  }
}

Result<DovId> ClientTm::RoutedCheckin(DopId dop, DopRuntime* runtime,
                                      storage::DesignObject object,
                                      const std::vector<DovId>& predecessors,
                                      bool with_commit) {
  SimTime created_at = clock_->Now();
  // Two routing attempts: the home node answers kWrongShard when the
  // DA migrated under this workstation's placement cache; the retry
  // re-fetches the placement and lands on the new home.
  for (int attempt = 0; attempt < 2; ++attempt) {
    CONCORD_ASSIGN_OR_RETURN(NodeId home, router_.HomeOf(runtime->da));
    bool enlist = !Enlisted(*runtime, home);
    std::vector<RoutedOp> ops;
    if (enlist) ops.push_back({home, BeginDopRequest{dop, runtime->da}});
    ops.push_back({home, CheckinRequest{dop, object, predecessors,
                                        created_at}});
    if (with_commit) {
      // End-of-DOP releases the DOP's locks and registration at EVERY
      // participant: the home node first — on the same node the batch
      // chain makes a failed checkin skip the commit — then the other
      // enlisted nodes. When the set has more than one node this runs
      // as true multi-participant 2PC: each node stages its leg, and
      // the decision commits the checkin and all releases together or
      // none.
      ops.push_back({home, CommitDopRequest{dop}});
      for (NodeId p : runtime->participants) {
        if (p != home) ops.push_back({p, CommitDopRequest{dop}});
      }
    }
    size_t checkin_index = enlist ? 1 : 0;
    bool multi_node = false;
    for (const RoutedOp& op : ops) {
      if (op.node != home) multi_node = true;
    }
    CONCORD_ASSIGN_OR_RETURN(
        BatchReply reply, RunCriticalInteraction(NextTxnId(), std::move(ops)));
    if (enlist && reply.ops.front().status.ok()) {
      // The registration exists server-side from here on, whatever the
      // interaction's outcome (enlistment survives an abort decision).
      runtime->participants.push_back(home);
    }
    const Status& checkin_status = reply.ops[checkin_index].status;
    if (checkin_status.IsWrongShard() && attempt == 0) {
      // The DA migrated under this workstation's cache: refresh and
      // reroute. Nothing committed — the home's chain skipped its own
      // commit, and a cross-shard decision was abort. The misrouted
      // attempt deliberately counts toward NO logical-interaction
      // stats (the retry is the same checkin+commit, not a second
      // one).
      router_.ForgetPlacement(runtime->da);
      ++stats_.placement_refreshes;
      continue;
    }
    // Logical-interaction accounting, once per checkin+commit however
    // many routing attempts it took (protocol-level attempt counters
    // live in two_pc_stats_ instead).
    if (with_commit) ++stats_.batched_checkin_commits;
    if (multi_node) ++stats_.cross_shard_interactions;
    // Checkin failure: any commit legs were skipped (same node) or
    // abort-discarded (other nodes), so the DOP stays active and the
    // caller sees the typed "checkin failure".
    CONCORD_RETURN_NOT_OK(checkin_status);
    auto* body = std::get_if<CheckinReply>(&reply.ops[checkin_index].body);
    if (body == nullptr) {
      return Status::Internal("checkin reply carries no DOV id");
    }
    // Every commit leg must have succeeded; on a cross-shard abort the
    // staged checkin was discarded with them, so the first failure is
    // the interaction's outcome.
    for (size_t i = checkin_index + 1; i < reply.ops.size(); ++i) {
      CONCORD_RETURN_NOT_OK(reply.ops[i].status);
    }
    if (with_commit) FinishCommitted(dop, runtime);
    CacheOwnCheckin(*runtime, dop, body->dov, std::move(object), predecessors,
                    created_at);
    return body->dov;
  }
  return Status::Internal("checkin routing did not converge");
}

Result<DovId> ClientTm::Checkin(DopId dop, storage::DesignObject object,
                                const std::vector<DovId>& predecessors) {
  RecursiveMutexLock lock(&mu_);
  CONCORD_ASSIGN_OR_RETURN(DopRuntime * runtime, ActiveDop(dop));
  return RoutedCheckin(dop, runtime, std::move(object), predecessors,
                       /*with_commit=*/false);
}

void ClientTm::FinishCommitted(DopId dop, DopRuntime* runtime) {
  // Sect. 5.2 ordering: the server released derivation locks first,
  // then the client removes savepoints and recovery points.
  runtime->savepoints.clear();
  stable_rp_.erase(dop.value());
  runtime->state = DopState::kCommitted;
  ++stats_.dops_committed;
  --stats_.dops_in_flight;
}

Result<DovId> ClientTm::CheckinCommit(DopId dop, storage::DesignObject object,
                                      const std::vector<DovId>& predecessors) {
  RecursiveMutexLock lock(&mu_);
  if (!batching_) {
    CONCORD_ASSIGN_OR_RETURN(DovId dov,
                             Checkin(dop, std::move(object), predecessors));
    CONCORD_RETURN_NOT_OK(CommitDop(dop));
    return dov;
  }
  CONCORD_ASSIGN_OR_RETURN(DopRuntime * runtime, ActiveDop(dop));
  return RoutedCheckin(dop, runtime, std::move(object), predecessors,
                       /*with_commit=*/true);
}

Status ClientTm::CommitDop(DopId dop) {
  RecursiveMutexLock lock(&mu_);
  CONCORD_ASSIGN_OR_RETURN(DopRuntime * runtime, ActiveDop(dop));
  // Release at every enlisted node; across shards this is the
  // multi-participant protocol (all nodes release or none).
  std::vector<RoutedOp> ops;
  for (NodeId p : runtime->participants) {
    ops.push_back({p, CommitDopRequest{dop}});
  }
  if (ops.size() > 1) ++stats_.cross_shard_interactions;
  CONCORD_ASSIGN_OR_RETURN(
      BatchReply reply, RunCriticalInteraction(NextTxnId(), std::move(ops)));
  for (const ServerReply& op : reply.ops) {
    CONCORD_RETURN_NOT_OK(op.status);
  }
  FinishCommitted(dop, runtime);
  return Status::OK();
}

Status ClientTm::AbortDop(DopId dop) {
  RecursiveMutexLock lock(&mu_);
  auto it = dops_.find(dop);
  if (it == dops_.end()) {
    return Status::NotFound(dop.ToString() + " not known at this client-TM");
  }
  if (it->second.state == DopState::kCommitted ||
      it->second.state == DopState::kAborted) {
    return Status::FailedPrecondition(dop.ToString() + " already finished");
  }
  // Aborts need no cross-node atomicity — each node dropping its locks
  // is independently correct and strictly better than keeping them —
  // so the fan-out is independent: one node being down (its volatile
  // registration dies with it anyway) must not stop the others from
  // releasing.
  std::vector<RoutedOp> ops;
  for (NodeId p : it->second.participants) {
    ops.push_back({p, AbortDopRequest{dop}});
  }
  CONCORD_ASSIGN_OR_RETURN(
      BatchReply reply, RunCriticalInteraction(NextTxnId(), std::move(ops),
                                               /*independent=*/true));
  Status first_error = Status::OK();
  for (size_t i = 0; i < reply.ops.size(); ++i) {
    const Status& st = reply.ops[i].status;
    if (st.ok()) continue;
    // A participant that already dropped the registration (its crash
    // wiped it, or an earlier partial abort reached it) has nothing
    // left to release — that is success for an abort. The same goes
    // for a participant that is DOWN right now (kUnavailable): its
    // registration and locks are volatile memory dying with it, which
    // is exactly what its recovered self would answer kUnknownDop
    // about — a down node must not strand the DOP active. Single-node
    // planes keep the strict answer (one participant, its status is
    // the outcome).
    if (reply.ops.size() > 1 &&
        (st.IsNotFound() || st.IsUnknownDop() || st.IsUnavailable())) {
      continue;
    }
    if (first_error.ok()) first_error = st;
  }
  CONCORD_RETURN_NOT_OK(first_error);
  it->second.savepoints.clear();
  stable_rp_.erase(dop.value());
  it->second.state = DopState::kAborted;
  --stats_.dops_in_flight;
  return Status::OK();
}

Result<DopState> ClientTm::StateOf(DopId dop) const {
  RecursiveMutexLock lock(&mu_);
  auto it = dops_.find(dop);
  if (it == dops_.end()) {
    return Status::NotFound(dop.ToString() + " not known at this client-TM");
  }
  return it->second.state;
}

Result<uint64_t> ClientTm::WorkDone(DopId dop) const {
  RecursiveMutexLock lock(&mu_);
  auto it = dops_.find(dop);
  if (it == dops_.end()) {
    return Status::NotFound(dop.ToString() + " not known at this client-TM");
  }
  return it->second.context.work_done;
}

void ClientTm::Crash() {
  RecursiveMutexLock lock(&mu_);
  network_->SetNodeUp(node_, false);
  // The DOV cache is volatile workstation memory: gone, tombstones
  // included (outage-time invalidations are redelivered at recovery).
  cache_.Clear();
  ++stats_.crashes;
  for (auto& [dop, runtime] : dops_) {
    if (runtime.state == DopState::kActive ||
        runtime.state == DopState::kSuspended) {
      // Volatile context and savepoints are lost.
      auto rp_it = stable_rp_.find(dop.value());
      uint64_t preserved =
          rp_it == stable_rp_.end() ? 0
                                    : rp_it->second.second.context.work_done;
      stats_.work_units_lost += runtime.context.work_done - preserved;
      runtime.context = DopContext{};
      runtime.savepoints.clear();
      runtime.state = DopState::kCrashed;
    }
  }
  CONCORD_INFO("client-tm", "workstation " << node_.ToString() << " crashed");
}

// GCC 12's -Wmaybe-uninitialized misreads the ServerRequest variant
// move inside vector reallocation as a read of uninitialized std::map
// internals (the CheckinRequest alternative's DesignObject holds one);
// the variant never holds that alternative here. Confirmed false
// positive — clang and GCC 13+ are clean.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
void ClientTm::WarmCacheFromRecoveredContexts(
    const std::vector<DopId>& recovered) {
  // The cache restarted cold and every pre-crash validation proof is
  // void (the workstation could not observe outage-time revocations).
  // Instead of paying one lazy server trip per re-read, revalidate all
  // recovered inputs with ONE BatchRequest: each entry is a real
  // server-side checkout (scope + derivation-lock tests for the DOP's
  // DA), so only still-visible versions re-arm the cache. Runs after
  // FlushPending, so outage-time tombstones are already planted and
  // InsertIfCurrent's seq test stays sound.
  struct Expected {
    DovId dov;  // invalid for piggybacked enlistment ops
    DaId da;
    uint64_t seq;
    DopId dop;      // set for enlistment ops
    NodeId enlist;  // node the enlistment targets
  };
  std::vector<RoutedOp> ops;
  std::vector<Expected> expected;
  // Bound the vectors up front (each input costs at most a checkout
  // plus one enlistment op) so growth never moves the envelope ops —
  // GCC 12's -Wmaybe-uninitialized misreads the variant move inside
  // vector reallocation as a use of uninitialized map internals.
  size_t max_ops = 0;
  for (DopId dop : recovered) {
    max_ops += 2 * dops_.at(dop).context.inputs.size();
  }
  ops.reserve(max_ops);
  expected.reserve(max_ops);
  for (DopId dop : recovered) {
    DopRuntime& runtime = dops_.at(dop);
    for (const auto& [dov, object] : runtime.context.inputs) {
      // Route each revalidation to the node owning the DOV; inputs the
      // DOP never fetched itself (handed-over contexts) may hit a node
      // it is not enlisted at — piggyback the registration like a
      // normal cross-shard checkout would.
      NodeId target = router_.NodeOfDov(dov);
      if (!Enlisted(runtime, target)) {
        bool already_queued = false;
        for (const Expected& e : expected) {
          if (e.dop == dop && e.enlist == target) already_queued = true;
        }
        if (!already_queued) {
          ops.push_back({target, BeginDopRequest{dop, runtime.da}});
          expected.push_back({DovId(), runtime.da, 0, dop, target});
        }
      }
      ops.push_back({target, CheckoutRequest{dop, dov, false}});
      expected.push_back(
          {dov, runtime.da, cache_.InvalidationSeq(dov), dop, NodeId()});
    }
  }
  if (ops.empty()) return;
  // Independent ops: one withdrawn/locked input (or one down shard)
  // must not keep the still-visible ones cold.
  auto reply = RunCriticalInteraction(NextTxnId(), std::move(ops),
                                      /*independent=*/true);
  if (!reply.ok()) return;  // server unreachable: restart cold (just slower)
  for (size_t i = 0; i < reply->ops.size(); ++i) {
    if (!reply->ops[i].status.ok()) continue;  // e.g. withdrawn during outage
    if (expected[i].enlist.valid()) {
      dops_.at(expected[i].dop).participants.push_back(expected[i].enlist);
      continue;
    }
    auto* body = std::get_if<CheckoutReply>(&reply->ops[i].body);
    if (body == nullptr) continue;
    if (cache_.InsertIfCurrent(expected[i].dov, std::move(body->record),
                               expected[i].da, expected[i].seq)) {
      ++stats_.recovery_warmup_checkouts;
    }
  }
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

Result<uint64_t> ClientTm::Recover() {
  RecursiveMutexLock lock(&mu_);
  network_->SetNodeUp(node_, true);
  // Drain invalidations the server queued while this workstation was
  // down, BEFORE any DOP resumes: the cache restarts cold, and the
  // redelivered messages plant tombstones so a recovered context's
  // handover cannot re-validate a version withdrawn during the outage.
  // A recovery point itself never re-warms the cache — its inputs were
  // validated at checkout time, and that proof does not survive an
  // outage the workstation could not observe.
  if (invalidations_ != nullptr) invalidations_->FlushPending(node_);
  uint64_t lost_total = 0;
  std::vector<DopId> recovered;
  for (auto& [dop, runtime] : dops_) {
    if (runtime.state != DopState::kCrashed) continue;
    auto rp_it = stable_rp_.find(dop.value());
    if (rp_it != stable_rp_.end()) {
      runtime.context = rp_it->second.second.context;
      runtime.work_at_last_rp = runtime.context.work_done;
    } else {
      runtime.context = DopContext{};
    }
    runtime.state = DopState::kActive;
    recovered.push_back(dop);
    ++stats_.dops_recovered;
  }
  if (warm_cache_on_recovery_ && !recovered.empty()) {
    WarmCacheFromRecoveredContexts(recovered);
  }
  lost_total = stats_.work_units_lost;
  return lost_total;
}

}  // namespace concord::txn
