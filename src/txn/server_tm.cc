#include "txn/server_tm.h"

#include <cstdlib>
#include <cstring>
#include <utility>
#include <variant>

#include "common/logging.h"
#include "common/serde.h"
#include "storage/wal_codec.h"
#include "txn/dop_context.h"

namespace concord::txn {

namespace {

/// Meta-table key prefix of the durable 2PC ledger.
constexpr const char* kPreparedMetaPrefix = "2pc/";

std::string PreparedLedgerKey(TxnId txn) {
  return kPreparedMetaPrefix + std::to_string(txn.value());
}

/// The DOP a data op names (every data request carries one).
DopId DopOf(const ServerRequest& op) {
  return std::visit(
      [](const auto& request) {
        if constexpr (requires { request.dop; }) {
          return request.dop;
        } else {
          return DopId();
        }
      },
      op);
}

}  // namespace

const char* DopStateToString(DopState state) {
  switch (state) {
    case DopState::kActive:
      return "active";
    case DopState::kSuspended:
      return "suspended";
    case DopState::kCommitted:
      return "committed";
    case DopState::kAborted:
      return "aborted";
    case DopState::kCrashed:
      return "crashed";
  }
  return "?";
}

ServerTm::ServerTm(storage::Repository* repository, rpc::Network* network,
                   NodeId server_node, ScopeAuthority* scope_authority,
                   rpc::InvalidationBus* invalidations, int partitions)
    : repository_(repository),
      network_(network),
      node_(server_node),
      scope_authority_(scope_authority),
      invalidations_(invalidations),
      engine_(partitions < 1 ? 1 : static_cast<size_t>(partitions)),
      locks_(engine_.count()) {
  parts_.reserve(engine_.count());
  for (size_t p = 0; p < engine_.count(); ++p) {
    parts_.push_back(std::make_unique<Partition>());
  }
  // Line the repository's sub-shards up with the executor partitions so
  // every partition's DOV traffic stays on buckets it exclusively owns.
  // A repository that already carries traffic keeps its sharding (the
  // gate still stripes correctly — ownership is just coarser).
  Status st = repository_->SetExecutionPartitions(engine_.count());
  if (!st.ok()) {
    CONCORD_INFO("server-tm",
                 "repository keeps its sharding: " << st.ToString());
  }
}

ServerTm::~ServerTm() {
  // Join the executors FIRST: after Stop() no task can race the
  // destruction of parts_ and locks_ below.
  engine_.Stop();
}

Result<DaId> ServerTm::LookupDopIn(const Partition& part, DopId dop) const {
  MutexLock lock(&part.mu);
  auto it = part.dop_da.find(dop);
  if (it != part.dop_da.end()) return it->second;
  if (part.lost_dops.count(dop)) {
    ++part.counters.unknown_dop_requests;
    return Status::UnknownDop(dop.ToString() +
                              " was registered before a server crash; "
                              "begin a new DOP");
  }
  return Status::NotFound(dop.ToString() + " not registered at server-TM");
}

Status ServerTm::CheckOwnsDa(const Partition& part, DaId da) const {
  if (placement_ == nullptr) return Status::OK();
  NodeId home = placement_->HomeOf(da);
  if (!home.valid() || home == node_) return Status::OK();
  ++part.counters.wrong_shard_requests;
  return Status::WrongShard(da.ToString() + " is homed on " + home.ToString() +
                            ", not on " + node_.ToString() +
                            " (stale placement cache?)");
}

Status ServerTm::BeginDopIn(Partition& part, DopId dop, DaId da) {
  MutexLock lock(&part.mu);
  auto it = part.dop_da.find(dop);
  if (it != part.dop_da.end()) {
    // Idempotent re-registration: participant enlistment may repeat a
    // Begin-of-DOP whose first reply was lost after the server
    // executed it — same (DOP, DA) pair must not wedge the retry.
    if (it->second == da) return Status::OK();
    return Status::AlreadyExists(dop.ToString() +
                                 " already registered for " +
                                 it->second.ToString());
  }
  part.dop_da.emplace(dop, da);
  // A fresh registration supersedes a pre-crash incarnation of the id.
  part.lost_dops.erase(dop);
  ++part.counters.dops_begun;
  return Status::OK();
}

bool ServerTm::CheckoutStepIn(size_t pv, const CheckoutRequest& checkout,
                              DaId da, ServerReply* reply) {
  // Executor-resident: the lock-table slice and repository sub-shard
  // below belong to partition pv.
  CONCORD_ASSERT_ON_PARTITION(pv);
  DovId dov = checkout.dov;
  LockManager& slice = locks_.Slice(pv);
  Partition& part = *parts_[pv];
  // Test 2 (test 1, the scope check, ran on the dispatcher): no
  // incompatible derivation lock.
  DaId holder = slice.DerivationHolder(dov);
  if (holder.valid() && holder != da) {
    slice.ReleaseShort(dov);
    ++part.counters.checkouts_denied_lock;
    reply->status = Status::LockConflict(dov.ToString() +
                                         " derivation-locked by " +
                                         holder.ToString());
    return false;
  }
  if (checkout.take_derivation_lock) {
    Status st = slice.AcquireDerivation(dov, da);
    if (!st.ok()) {
      slice.ReleaseShort(dov);
      ++part.counters.checkouts_denied_lock;
      reply->status = std::move(st);
      return false;
    }
  }
  auto record = repository_->Get(dov);
  slice.ReleaseShort(dov);
  if (!record.ok()) {
    reply->status = record.status();
  } else {
    reply->body = CheckoutReply{std::move(*record)};
    ++part.counters.checkouts;
  }
  return checkout.take_derivation_lock;
}

void ServerTm::RecordHeldLockIn(Partition& part, DopId dop, DovId dov) {
  MutexLock lock(&part.mu);
  part.dop_derivation_locks[dop].push_back(dov);
}

ServerReply ServerTm::Execute(const ServerRequest& op, TxnId stage) {
  // Choreography: runs partition tasks and waits on them — doing that
  // from an executor would deadlock the mailbox.
  CONCORD_ASSERT_OFF_EXECUTOR();
  ServerReply reply;
  // Control legs (Prepare, Decide) are answered by DispatchBatch.
  if (std::holds_alternative<PrepareRequest>(op) ||
      std::holds_alternative<DecideRequest>(op)) {
    return reply;
  }
  const DopId dop = DopOf(op);
  const size_t pd = DopPart(dop);
  Partition& dpart = *parts_[pd];
  const bool finish = std::holds_alternative<CommitDopRequest>(op) ||
                      std::holds_alternative<AbortDopRequest>(op);
  const bool commit_outcome = std::holds_alternative<CommitDopRequest>(op);

  if (const auto* begin = std::get_if<BeginDopRequest>(&op)) {
    reply.status =
        engine_.Run(pd, [&] { return BeginDopIn(dpart, dop, begin->da); });
    return reply;
  }

  // End-of-DOP, either outcome: deregister and release the DOP's
  // derivation locks ("the server-TM is firstly asked to release the
  // derivation locks held", Sect. 5.2). The extraction runs on the
  // DOP's partition; the releases then fan out per DOV partition.
  if (finish && !stage.valid()) {
    DaId da;
    std::vector<DovId> held;
    reply.status = engine_.Run(
        pd, [&] { return FinishExtractIn(dpart, dop, &da, &held); });
    if (!reply.status.ok()) return reply;
    std::vector<std::pair<DovId, DaId>> releases;
    for (DovId dov : held) releases.emplace_back(dov, da);
    ReleaseDerivationLocks(releases);
    if (commit_outcome) {
      ++dpart.counters.dops_committed;
    } else {
      ++dpart.counters.dops_aborted;
    }
    return reply;
  }

  // The registration lookup. A staged End-of-DOP is validated here, so
  // its reply carries the typed failure (kUnknownDop after a crash,
  // kNotFound for a stranger).
  auto da = engine_.Run(pd, [&] { return LookupDopIn(dpart, dop); });
  if (!da.ok()) {
    reply.status = da.status();
    return reply;
  }
  // Adds this op's phase-1 piece to `stage`'s ledger entry: one task
  // on the txn's partition.
  auto add_to_stage = [&](auto add) {
    size_t pt = TxnPart(stage);
    Partition& tpart = *parts_[pt];
    engine_.Run(pt, [&] {
      MutexLock lock(&tpart.mu);
      add(tpart.prepared[stage]);
    });
  };

  if (std::holds_alternative<DaOfDopRequest>(op)) {
    reply.body = DaOfDopReply{*da};
  } else if (finish) {
    // A staged End-of-DOP only records its outcome for Decide(commit).
    add_to_stage([&](PreparedTxn& entry) {
      entry.staged_finishes.push_back({dop, commit_outcome});
    });
  } else if (const auto* checkout = std::get_if<CheckoutRequest>(&op)) {
    // Short lock and scope test on the dispatcher. The scope authority
    // may re-enter the cooperation manager's recursive mutex, which
    // THIS thread may already hold (event delivery running a tool), so
    // an executor-side callout would deadlock against it. The short
    // lock is accounting (a depth counter), so taking it off the owning
    // executor is safe.
    DovId dov = checkout->dov;
    size_t pv = DovPart(dov);
    locks_.Slice(pv).AcquireShort(dov);
    // Test 1: the DOV must belong to the scope of the DOP's DA.
    if (!scope_authority_->InScope(*da, dov)) {
      locks_.Slice(pv).ReleaseShort(dov);
      ++parts_[pv]->counters.checkouts_denied_scope;
      reply.status = Status::PermissionDenied(
          dov.ToString() + " is not in the scope of " + da->ToString());
      return reply;
    }
    if (pd != pv) ++parts_[pv]->counters.cross_partition_ops;
    // Lock test and read on the DOV's partition; an acquired lock is
    // then recorded on the DOP's partition (End-of-DOP releases it) and
    // pushed to the workstation caches.
    bool locked = engine_.Run(
        pv, [&] { return CheckoutStepIn(pv, *checkout, *da, &reply); });
    if (!locked) return reply;
    engine_.Run(pd, [&] { RecordHeldLockIn(dpart, dop, dov); });
    PublishDerivationLock(dov, *da);
    // Decide(abort) releases a phase-1 checkout's lock again.
    if (stage.valid() && reply.status.ok()) {
      add_to_stage([&](PreparedTxn& entry) {
        entry.acquired_locks.emplace_back(dov, *da);
      });
    }
  } else {
    const auto& checkin = std::get<CheckinRequest>(op);
    // In a sharded plane the new DOV must be created on (and id-stamped
    // by) the DA's home node; a checkin routed here via a stale
    // workstation placement cache is rejected with the typed status the
    // client-TM refreshes on.
    reply.status = CheckOwnsDa(dpart, *da);
    if (!reply.status.ok()) return reply;
    // A staged checkin runs the integrity test now — the vote must be
    // honest — but publishes nothing: the record reaches the repository
    // only at Decide(commit). The check is deterministic (the schema is
    // fixed at design start), so a staged checkin cannot fail integrity
    // at apply time.
    if (stage.valid()) {
      Status integrity = repository_->schema().Validate(checkin.object);
      if (!integrity.ok()) {
        ++dpart.counters.checkin_failures;
        CONCORD_INFO("server-tm", "staged checkin integrity failure for "
                                      << dop.ToString() << ": "
                                      << integrity.ToString());
        reply.status = std::move(integrity);
        return reply;
      }
    }
    storage::DovRecord record = NewRecord(*da, dop, checkin.object,
                                          checkin.predecessors,
                                          checkin.created_at);
    DovId new_id = record.id;
    if (stage.valid()) {
      add_to_stage([&](PreparedTxn& entry) {
        entry.staged_checkins.push_back(std::move(record));
      });
    } else {
      if (pd != DovPart(new_id)) {
        ++parts_[DovPart(new_id)]->counters.cross_partition_ops;
      }
      // Its own repository transaction on the new DOV's partition.
      reply.status = ApplyCheckin(std::move(record));
    }
    if (reply.status.ok()) reply.body = CheckinReply{new_id};
  }
  return reply;
}

Status ServerTm::BeginDop(DopId dop, DaId da) {
  return Execute(BeginDopRequest{dop, da}).status;
}

Result<storage::DovRecord> ServerTm::Checkout(DopId dop, DovId dov,
                                              bool take_derivation_lock) {
  ServerReply reply = Execute(CheckoutRequest{dop, dov, take_derivation_lock});
  CONCORD_RETURN_NOT_OK(reply.status);
  return std::move(std::get<CheckoutReply>(reply.body).record);
}

Result<DovId> ServerTm::Checkin(DopId dop, storage::DesignObject object,
                                const std::vector<DovId>& predecessors,
                                SimTime created_at) {
  ServerReply reply = Execute(
      CheckinRequest{dop, std::move(object), predecessors, created_at});
  CONCORD_RETURN_NOT_OK(reply.status);
  return std::get<CheckinReply>(reply.body).dov;
}

Status ServerTm::CommitDop(DopId dop) {
  return Execute(CommitDopRequest{dop}).status;
}

Status ServerTm::AbortDop(DopId dop) {
  return Execute(AbortDopRequest{dop}).status;
}

Result<DaId> ServerTm::DaOfDop(DopId dop) {
  ServerReply reply = Execute(DaOfDopRequest{dop});
  CONCORD_RETURN_NOT_OK(reply.status);
  return std::get<DaOfDopReply>(reply.body).da;
}

void ServerTm::PublishDerivationLock(DovId dov, DaId da) {
  // Dispatcher thread only — the bus fans out over the network and may
  // re-enter workstation-side locks (see the rationale below).
  CONCORD_ASSERT_OFF_EXECUTOR();
  if (invalidations_ == nullptr) return;
  // Any workstation may hold this DOV in its cache from before the
  // lock existed; a local hit there would dodge the compatibility
  // test that just started failing. Push the lock as an invalidation
  // so the next checkout anywhere is forced to the server. Published
  // after the short lock is dropped (the fan-out is one LAN hop per
  // workstation — far too slow to hold a lock across) but before
  // this checkout returns, so by the time the holder can act on the
  // reply no cache serves the version. The push reaches the holder's
  // own workstation too and bumps its invalidation seq, so this
  // checkout's own reply is refused by InsertIfCurrent —
  // deliberately conservative: the holder's next plain re-read pays
  // one server trip and re-arms the cache then. (Excluding the
  // holder's node would be unsound: another DA on the same
  // workstation could keep hitting its cached copy.) The publish runs
  // on the dispatcher, never an executor: the bus fans out over the
  // network and may re-enter workstation-side locks.
  rpc::InvalidationMessage message;
  message.kind = rpc::InvalidationMessage::Kind::kDerivationLocked;
  message.dov = dov;
  message.origin_da = da;
  // This node owns the DOV and the lock: it pays the fan-out hops.
  message.origin_node = node_;
  invalidations_->Publish(message);
}

storage::DovRecord ServerTm::NewRecord(DaId da, DopId dop,
                                       storage::DesignObject object,
                                       const std::vector<DovId>& predecessors,
                                       SimTime created_at) {
  storage::DovRecord record;
  record.id = repository_->NextDovId();
  record.owner_da = da;
  record.created_by = dop;
  record.type = object.type();
  record.data = std::move(object);
  record.predecessors = predecessors;
  record.created_at = created_at;
  return record;
}

Status ServerTm::ApplyCheckin(storage::DovRecord record) {
  DovId new_id = record.id;
  DaId da = record.owner_da;
  DopId dop = record.created_by;
  size_t pv = DovPart(new_id);
  Partition& part = *parts_[pv];
  return engine_.Run(pv, [&]() -> Status {
    LockManager& slice = locks_.Slice(pv);
    slice.AcquireShort(new_id);
    // Single-record repository transaction on the partition's own
    // sub-shard: begin/write/commit in one WAL batch.
    Status st = repository_->CommitDov(std::move(record));
    if (!st.ok()) {
      slice.ReleaseShort(new_id);
      ++part.counters.checkin_failures;
      CONCORD_INFO("server-tm", "checkin failure for "
                                    << dop.ToString() << ": "
                                    << st.ToString());
      return st;
    }
    // The new DOV now belongs to the scope of the DOP's DA.
    slice.SetScopeOwner(new_id, da);
    slice.ReleaseShort(new_id);
    ++part.counters.checkins;
    return Status::OK();
  });
}

Status ServerTm::FinishExtractIn(Partition& part, DopId dop, DaId* da,
                                 std::vector<DovId>* held) {
  MutexLock lock(&part.mu);
  auto it = part.dop_da.find(dop);
  if (it == part.dop_da.end()) {
    if (part.lost_dops.count(dop)) {
      ++part.counters.unknown_dop_requests;
      return Status::UnknownDop(dop.ToString() +
                                " was registered before a server crash");
    }
    return Status::NotFound(dop.ToString() + " not registered at server-TM");
  }
  *da = it->second;
  auto locks_it = part.dop_derivation_locks.find(dop);
  if (locks_it != part.dop_derivation_locks.end()) {
    *held = std::move(locks_it->second);
    part.dop_derivation_locks.erase(locks_it);
  }
  part.dop_da.erase(it);
  return Status::OK();
}

void ServerTm::ReleaseDerivationLocks(
    const std::vector<std::pair<DovId, DaId>>& locks) {
  CONCORD_ASSERT_OFF_EXECUTOR();
  if (locks.empty()) return;
  std::vector<std::vector<std::pair<DovId, DaId>>> by_part(engine_.count());
  std::vector<size_t> touched;
  for (const auto& pair : locks) {
    size_t p = DovPart(pair.first);
    if (by_part[p].empty()) touched.push_back(p);
    by_part[p].push_back(pair);
  }
  engine_.RunEach(touched, [&](size_t p) {
    for (const auto& [dov, da] : by_part[p]) {
      locks_.Slice(p).ReleaseDerivation(dov, da).ok();
    }
  });
}

// --- Cross-shard 2PC ledger ------------------------------------------------

Status ServerTm::Decide(TxnId txn, bool commit) {
  size_t pt = TxnPart(txn);
  Partition& tpart = *parts_[pt];
  PreparedTxn staged;
  bool found = engine_.Run(pt, [&]() -> bool {
    MutexLock lock(&tpart.mu);
    auto it = tpart.prepared.find(txn);
    if (it == tpart.prepared.end()) return false;
    staged = std::move(it->second);
    tpart.prepared.erase(it);
    ++tpart.counters.txns_prepared;
    return true;
  });
  if (!found) {
    if (crash_wipe_pending_.load(std::memory_order_acquire)) {
      // A crash wipe raced this decision: the lookup may have run after
      // the wipe task cleared a stage that PersistPrepared made durable.
      // Recovery will re-stage it, still waiting for this decision — but
      // a coordinator never re-sends an acknowledged decision, so an OK
      // here would acknowledge a commit whose effects never apply.
      return Status::Unavailable(
          "server crashed while the decision was in flight; retry after "
          "recovery");
    }
    // Nothing staged: either this node's phase 1 held only immediate
    // operations, the decision already arrived, or a crash wiped the
    // ledger (presumed abort — the crash also wiped everything a
    // commit would have touched). All are safe to acknowledge.
    return Status::OK();
  }
  if (!commit) {
    // Presumed-abort cleanup: drop the staged effects and release the
    // derivation locks phase-1 checkouts acquired. Registrations
    // created by the transaction's Begin-of-DOP stay (see
    // DispatchBatch), so the client's participant list and this
    // node's table keep agreeing after an abort.
    ReleaseDerivationLocks(staged.acquired_locks);
    if (staged.persisted) ErasePersistedPrepared(txn);
    ++tpart.counters.txns_decided_abort;
    return Status::OK();
  }
  // The apply choreography runs here on the dispatcher. The checkins
  // and the ledger erase commit as one repository transaction, so a
  // kill either leaves the entry staged with nothing applied or leaves
  // neither; the finishes then route to their owning partitions.
  Status first_error = ApplyStagedCheckins(
      txn, std::move(staged.staged_checkins), staged.persisted);
  for (const PreparedTxn::StagedFinish& finish : staged.staged_finishes) {
    Status st = finish.commit_outcome ? CommitDop(finish.dop)
                                      : AbortDop(finish.dop);
    if (!st.ok() && first_error.ok()) first_error = st;
  }
  ++tpart.counters.txns_decided_commit;
  return first_error;
}

Status ServerTm::ApplyStagedCheckins(TxnId txn,
                                     std::vector<storage::DovRecord> records,
                                     bool erase_ledger) {
  CONCORD_ASSERT_OFF_EXECUTOR();
  if (records.empty() && !erase_ledger) return Status::OK();
  // The scope hand-over needs each record's id and DA after the
  // records have moved into the repository transaction.
  std::vector<std::pair<DovId, DaId>> owners;
  owners.reserve(records.size());
  std::vector<std::vector<size_t>> by_part(engine_.count());
  std::vector<size_t> touched;
  for (size_t i = 0; i < records.size(); ++i) {
    owners.emplace_back(records[i].id, records[i].owner_da);
    size_t p = DovPart(records[i].id);
    if (by_part[p].empty()) touched.push_back(p);
    by_part[p].push_back(i);
  }
  auto take_short_locks = [&](size_t p) {
    for (size_t i : by_part[p]) {
      locks_.Slice(p).AcquireShort(owners[i].first);
    }
  };
  auto commit = [&]() -> Status {
    TxnId repo_txn = repository_->Begin();
    Status st = Status::OK();
    for (storage::DovRecord& record : records) {
      st = repository_->Put(repo_txn, std::move(record));
      if (!st.ok()) break;
    }
    if (st.ok() && erase_ledger) {
      st = repository_->DeleteMeta(repo_txn, PreparedLedgerKey(txn));
    }
    if (st.ok()) st = repository_->Commit(repo_txn);
    if (!st.ok()) repository_->Abort(repo_txn).ok();
    return st;
  };
  // Partition-resident tail: the new DOVs join their DA's scope.
  auto hand_over = [&](size_t p, const Status& committed) {
    LockManager& slice = locks_.Slice(p);
    for (size_t i : by_part[p]) {
      if (committed.ok()) {
        slice.SetScopeOwner(owners[i].first, owners[i].second);
      }
      slice.ReleaseShort(owners[i].first);
    }
    if (committed.ok()) {
      parts_[p]->counters.checkins += by_part[p].size();
    } else {
      parts_[p]->counters.checkin_failures += by_part[p].size();
    }
  };

  Status st = Status::OK();
  if (touched.size() == 1) {
    size_t p = touched.front();
    st = engine_.Run(p, [&]() -> Status {
      take_short_locks(p);
      Status committed = commit();
      hand_over(p, committed);
      return committed;
    });
  } else {
    // Records spanning partitions (or none: an erase-only entry
    // re-staged from an older log) commit here. Short locks are depth
    // counters, safe to take off the owner (see Checkout); only the
    // scope hand-over fans out.
    for (size_t p : touched) take_short_locks(p);
    st = commit();
    engine_.RunEach(touched, [&](size_t p) { hand_over(p, st); });
  }
  if (!st.ok()) {
    // Validated at prepare time, so this is a storage fault. Resolve
    // the entry anyway, as a failed apply always has: a ledger key left
    // behind would re-stage a decided transaction at the next restart.
    CONCORD_INFO("server-tm", "staged checkin apply failed for txn "
                                  << txn.value() << ": " << st.ToString());
    if (erase_ledger) ErasePersistedPrepared(txn);
  }
  return st;
}

bool ServerTm::HasPrepared(TxnId txn) const {
  // Control-plane introspection: cross-thread but slice-mutex safe.
  const Partition& tpart = *parts_[TxnPart(txn)];
  MutexLock lock(&tpart.mu);
  return tpart.prepared.count(txn) > 0;
}

std::vector<TxnId> ServerTm::PreparedTxns() const {
  std::vector<TxnId> staged;
  for (const auto& part : parts_) {
    MutexLock lock(&part->mu);
    for (const auto& [txn, entry] : part->prepared) {
      staged.push_back(txn);
    }
  }
  return staged;
}

std::string ServerTm::EncodePreparedStage(const PreparedTxn& entry) {
  std::string out;
  PutFixed32(&out, static_cast<uint32_t>(entry.staged_checkins.size()));
  for (const storage::DovRecord& record : entry.staged_checkins) {
    PutLengthPrefixed(&out, storage::EncodeDovRecord(record));
  }
  PutFixed32(&out, static_cast<uint32_t>(entry.staged_finishes.size()));
  for (const PreparedTxn::StagedFinish& finish : entry.staged_finishes) {
    PutFixed64(&out, finish.dop.value());
    PutByte(&out, finish.commit_outcome ? 1 : 0);
  }
  return out;
}

Result<ServerTm::PreparedTxn> ServerTm::DecodePreparedStage(
    std::string_view payload) {
  ByteReader reader(payload);
  PreparedTxn entry;
  uint32_t n_checkins = 0;
  if (!reader.ReadFixed32(&n_checkins)) {
    return Status::Internal("truncated 2PC ledger entry (checkin count)");
  }
  entry.staged_checkins.reserve(n_checkins);
  for (uint32_t i = 0; i < n_checkins; ++i) {
    std::string_view encoded;
    if (!reader.ReadLengthPrefixed(&encoded)) {
      return Status::Internal("truncated 2PC ledger entry (checkin)");
    }
    CONCORD_ASSIGN_OR_RETURN(storage::DovRecord record,
                             storage::DecodeDovRecord(encoded));
    entry.staged_checkins.push_back(std::move(record));
  }
  uint32_t n_finishes = 0;
  if (!reader.ReadFixed32(&n_finishes)) {
    return Status::Internal("truncated 2PC ledger entry (finish count)");
  }
  entry.staged_finishes.reserve(n_finishes);
  for (uint32_t i = 0; i < n_finishes; ++i) {
    uint64_t dop = 0;
    uint8_t outcome = 0;
    if (!reader.ReadFixed64(&dop) || !reader.ReadByte(&outcome)) {
      return Status::Internal("truncated 2PC ledger entry (finish)");
    }
    entry.staged_finishes.push_back({DopId(dop), outcome != 0});
  }
  if (reader.remaining() != 0) {
    return Status::Internal("trailing bytes in 2PC ledger entry");
  }
  return entry;
}

Status ServerTm::PersistPrepared(TxnId txn) {
  size_t pt = TxnPart(txn);
  Partition& tpart = *parts_[pt];
  std::string encoded;
  bool durable = engine_.Run(pt, [&]() -> bool {
    MutexLock lock(&tpart.mu);
    auto it = tpart.prepared.find(txn);
    if (it == tpart.prepared.end()) return false;
    if (it->second.staged_checkins.empty()) {
      // Finish- or lock-only stage: what it would release dies with
      // the process, so there is nothing a crash could lose.
      return false;
    }
    encoded = EncodePreparedStage(it->second);
    it->second.persisted = true;
    return true;
  });
  if (!durable) return Status::OK();
  TxnId meta_txn = repository_->Begin();
  Status st = repository_->PutMeta(meta_txn, PreparedLedgerKey(txn), encoded);
  if (st.ok()) {
    st = repository_->Commit(meta_txn);
  } else {
    repository_->Abort(meta_txn);
  }
  if (!st.ok()) {
    // The vote flips to no on this path; the coordinator will abort
    // and Decide(abort)'s erase of a never-written key is harmless.
    CONCORD_WARN("server-tm", "cannot persist 2PC stage for txn "
                                  << txn.value() << ": " << st.ToString());
  }
  return st;
}

void ServerTm::ErasePersistedPrepared(TxnId txn) {
  TxnId meta_txn = repository_->Begin();
  Status st = repository_->DeleteMeta(meta_txn, PreparedLedgerKey(txn));
  if (st.ok()) {
    st = repository_->Commit(meta_txn);
  } else {
    repository_->Abort(meta_txn);
  }
  if (!st.ok()) {
    // Worst case the entry is re-staged at the next restart and waits
    // there for a repeated decision.
    CONCORD_WARN("server-tm", "cannot erase 2PC stage for txn "
                                  << txn.value() << ": " << st.ToString());
  }
}

size_t ServerTm::RestagePreparedFromStable() {
  size_t restaged = 0;
  for (const std::string& key :
       repository_->MetaKeysWithPrefix(kPreparedMetaPrefix)) {
    auto encoded = repository_->GetMeta(key);
    if (!encoded.ok()) continue;
    uint64_t txn_value =
        std::strtoull(key.c_str() + std::strlen(kPreparedMetaPrefix),
                      nullptr, 10);
    if (txn_value == 0) continue;
    auto decoded = DecodePreparedStage(*encoded);
    if (!decoded.ok()) {
      CONCORD_WARN("server-tm", "undecodable 2PC ledger entry " << key << ": "
                                    << decoded.status().ToString());
      continue;
    }
    TxnId txn(txn_value);
    PreparedTxn entry;
    entry.persisted = true;
    for (storage::DovRecord& record : decoded->staged_checkins) {
      // Reserve the id whether or not the record still needs to apply:
      // the generator must never re-issue it.
      repository_->ReserveDovIdsThrough(record.id);
      if (!repository_->Contains(record.id)) {
        entry.staged_checkins.push_back(std::move(record));
      }
    }
    // decoded->staged_finishes are dropped: see the header contract.
    size_t pt = TxnPart(txn);
    Partition& tpart = *parts_[pt];
    engine_.Run(pt, [&] {
      MutexLock lock(&tpart.mu);
      tpart.prepared[txn] = std::move(entry);
    });
    ++restaged;
    CONCORD_INFO("server-tm", "re-staged prepared txn " << txn.value()
                                  << " from stable storage");
  }
  return restaged;
}

void ServerTm::Crash() {
  CONCORD_ASSERT_OFF_EXECUTOR();
  // Raised before the wipe tasks are posted, so any decision whose
  // ledger lookup lands behind a wipe in some mailbox observes it (see
  // Decide). Cleared only after Recover() has re-staged the ledger.
  crash_wipe_pending_.store(true, std::memory_order_release);
  // One wipe task per partition, all awaited. Tasks on a partition run
  // in submission order, so each wipe follows every task submitted
  // before the crash — when RunEach returns, no executor (or borrowing
  // caller) is touching pre-crash registrations, lock lists, or ledger
  // entries, and the repository/lock teardown below cannot race an
  // in-flight step.
  std::vector<size_t> all(parts_.size());
  for (size_t p = 0; p < all.size(); ++p) all[p] = p;
  engine_.RunEach(all, [this](size_t p) {
    Partition& part = *parts_[p];
    MutexLock lock(&part.mu);
    for (const auto& entry : part.dop_da) {
      part.lost_dops.insert(entry.first);
    }
    part.dop_da.clear();
    part.dop_derivation_locks.clear();
    // The 2PC ledger is volatile: staged transactions die undecided,
    // which is exactly the presumed-abort outcome.
    part.prepared.clear();
  });
  locks_.ReleaseAll();
  repository_->Crash();
  network_->SetNodeUp(node_, false);
}

Status ServerTm::Recover() {
  // Rebuild the repository before advertising the node as up: with
  // real on-disk stable storage, replay can fail (corrupt snapshot,
  // unreadable segment), and a node whose committed state is missing
  // must not accept traffic.
  CONCORD_RETURN_NOT_OK(repository_->Recover());
  // Persisted phase-1 stages survive the crash; volatile-only stages
  // (direct staged Execute callers) stay presumed-abort.
  RestagePreparedFromStable();
  crash_wipe_pending_.store(false, std::memory_order_release);
  network_->SetNodeUp(node_, true);
  return Status::OK();
}

ServerTmStats ServerTm::partition_stats(size_t p) const {
  ServerTmStats s;
  if (p >= parts_.size()) return s;
  const PartitionCounters& c = parts_[p]->counters;
  s.checkouts = c.checkouts.load(std::memory_order_relaxed);
  s.checkouts_denied_scope =
      c.checkouts_denied_scope.load(std::memory_order_relaxed);
  s.checkouts_denied_lock =
      c.checkouts_denied_lock.load(std::memory_order_relaxed);
  s.checkins = c.checkins.load(std::memory_order_relaxed);
  s.checkin_failures = c.checkin_failures.load(std::memory_order_relaxed);
  s.dops_begun = c.dops_begun.load(std::memory_order_relaxed);
  s.dops_committed = c.dops_committed.load(std::memory_order_relaxed);
  s.dops_aborted = c.dops_aborted.load(std::memory_order_relaxed);
  s.unknown_dop_requests =
      c.unknown_dop_requests.load(std::memory_order_relaxed);
  s.wrong_shard_requests =
      c.wrong_shard_requests.load(std::memory_order_relaxed);
  s.txns_prepared = c.txns_prepared.load(std::memory_order_relaxed);
  s.txns_decided_commit =
      c.txns_decided_commit.load(std::memory_order_relaxed);
  s.txns_decided_abort = c.txns_decided_abort.load(std::memory_order_relaxed);
  s.cross_partition_ops =
      c.cross_partition_ops.load(std::memory_order_relaxed);
  return s;
}

ServerTmStats ServerTm::stats() const {
  ServerTmStats total;
  for (size_t p = 0; p < parts_.size(); ++p) {
    ServerTmStats s = partition_stats(p);
    total.checkouts += s.checkouts;
    total.checkouts_denied_scope += s.checkouts_denied_scope;
    total.checkouts_denied_lock += s.checkouts_denied_lock;
    total.checkins += s.checkins;
    total.checkin_failures += s.checkin_failures;
    total.dops_begun += s.dops_begun;
    total.dops_committed += s.dops_committed;
    total.dops_aborted += s.dops_aborted;
    total.unknown_dop_requests += s.unknown_dop_requests;
    total.wrong_shard_requests += s.wrong_shard_requests;
    total.txns_prepared += s.txns_prepared;
    total.txns_decided_commit += s.txns_decided_commit;
    total.txns_decided_abort += s.txns_decided_abort;
    total.cross_partition_ops += s.cross_partition_ops;
  }
  return total;
}

}  // namespace concord::txn
