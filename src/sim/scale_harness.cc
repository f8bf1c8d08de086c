// Million-DOV chaos harness (ROADMAP direction 5): generate a large
// design plane, drive sustained mixed traffic from many designer
// threads, and run a seeded chaos schedule — message loss, rolling
// server-node crash/recover, workstation crashes, MigrateDa churn —
// while the InvariantChecker cross-examines every client-acked effect
// against authoritative server state. See docs/SCALE.md.

#include "sim/scale_harness.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "common/logging.h"
#include "common/strings.h"
#include "storage/object.h"
#include "storage/schema.h"
#include "storage/version.h"

namespace concord::sim {

namespace {

/// Aborts the process with a message: the generator must succeed for
/// the harness to gate anything, so a setup failure is fatal rather
/// than a silently empty plane.
void GenerateCheck(bool ok, const char* what) {
  if (ok) return;
  std::fprintf(stderr, "scale_harness: plane generation failed: %s\n", what);
  std::abort();
}

constexpr size_t kViolationDetailCap = 200;
constexpr size_t kCheckpointAtomicitySample = 4096;
constexpr size_t kGeneratorTxnBatch = 256;
constexpr size_t kMaxOpenChains = 64;

}  // namespace

const char* ViolationClassName(ViolationClass c) {
  switch (c) {
    case ViolationClass::kLostCommit:
      return "lost_commit";
    case ViolationClass::kResurrectedVersion:
      return "resurrected_version";
    case ViolationClass::kAtomicityViolation:
      return "atomicity_violation";
    case ViolationClass::kCacheCoherence:
      return "cache_coherence";
    case ViolationClass::kDuplicateId:
      return "duplicate_id";
    case ViolationClass::kWalUnbounded:
      return "wal_unbounded";
  }
  return "unknown";
}

// --- InvariantChecker --------------------------------------------------------

void InvariantChecker::AddViolation(ViolationClass c, std::string detail) {
  ++counts_[static_cast<size_t>(c)];
  if (violations_.size() < kViolationDetailCap) {
    violations_.push_back({c, std::move(detail)});
  }
}

bool InvariantChecker::AddViolationOnce(ViolationClass c, uint64_t key,
                                        std::string detail) {
  // VerifyAgainst rescans every record each time it runs (checkpoints
  // and end-of-run); one broken id must count as one violation, not
  // once per scan.
  if (!reported_.insert({static_cast<size_t>(c), key}).second) return false;
  AddViolation(c, std::move(detail));
  return true;
}

void InvariantChecker::RecordAckedCommit(AckedCommit acked) {
  MutexLock lock(&mu_);
  if (!acked_ids_.insert(acked.dov.value()).second) {
    AddViolation(ViolationClass::kDuplicateId,
                 "DOV id " + std::to_string(acked.dov.value()) +
                     " acked twice (id reissued across a recovery?)");
  }
  acked_.push_back(std::move(acked));
  seq_.fetch_add(1, std::memory_order_acq_rel);
}

void InvariantChecker::RecordRetired(DovId dov, bool invalidated, bool armed) {
  MutexLock lock(&mu_);
  Retired entry;
  entry.invalidated = invalidated;
  entry.armed = armed;
  entry.seq = seq_.fetch_add(1, std::memory_order_acq_rel);
  auto [it, inserted] = retired_.emplace(dov.value(), entry);
  if (!inserted) {
    // A withdrawn version later invalidated keeps the stronger flag.
    it->second.invalidated = it->second.invalidated || invalidated;
    it->second.armed = it->second.armed && armed;
  } else {
    retired_order_.push_back(dov.value());
  }
}

void InvariantChecker::NoteCheckoutObservation(size_t ws, DovId dov,
                                               bool from_cache,
                                               uint64_t seq_at_op_start) {
  MutexLock lock(&mu_);
  if (!from_cache) {
    // A server round trip is an authoritative scope decision for this
    // workstation: it re-arms the cache, and later hits inherit its
    // legitimacy (e.g. the owning DA re-reading its own withdrawn
    // version — withdrawal only revokes the requiring DA's view).
    server_validated_[{ws, dov.value()}] =
        seq_.fetch_add(1, std::memory_order_acq_rel);
    return;
  }
  auto it = retired_.find(dov.value());
  if (it == retired_.end() || !it->second.armed) return;
  // The retirement must strictly precede the op (in-flight checkouts
  // racing the withdrawal are legal), ...
  if (it->second.seq >= seq_at_op_start) return;
  // ... the workstation's cache memory must be intact since then, ...
  auto crash = ws_crash_seq_.find(ws);
  if (crash != ws_crash_seq_.end() && crash->second > it->second.seq) return;
  // ... and no post-retirement server checkout may have re-validated
  // the DOV for this workstation (single driving thread per
  // workstation: the re-validation is recorded before any hit it
  // enables can be observed).
  auto valid = server_validated_.find({ws, dov.value()});
  if (valid != server_validated_.end() && valid->second > it->second.seq) {
    return;
  }
  AddViolation(ViolationClass::kCacheCoherence,
               "ws " + std::to_string(ws) + " served retired DOV " +
                   std::to_string(dov.value()) +
                   " from its cache after the invalidation push");
}

void InvariantChecker::NoteWorkstationCrash(size_t ws) {
  MutexLock lock(&mu_);
  ws_crash_seq_[ws] = seq_.fetch_add(1, std::memory_order_acq_rel);
}

void InvariantChecker::NoteWalSize(size_t shard,
                                   size_t records_after_checkpoint,
                                   size_t bound) {
  MutexLock lock(&mu_);
  if (records_after_checkpoint <= bound) return;
  AddViolation(ViolationClass::kWalUnbounded,
               "shard " + std::to_string(shard) + " kept " +
                   std::to_string(records_after_checkpoint) +
                   " WAL records after a checkpoint (bound " +
                   std::to_string(bound) + ")");
}

DovId InvariantChecker::SampleRetired(uint64_t entropy) const {
  MutexLock lock(&mu_);
  if (retired_order_.empty()) return DovId();
  return DovId(retired_order_[entropy % retired_order_.size()]);
}

void InvariantChecker::VerifyAgainst(ScalePlane* plane, bool only_up_nodes) {
  MutexLock lock(&mu_);
  const size_t nodes = plane->node_count();

  // I1: no acked committed DOV lost or corrupted.
  for (const AckedCommit& acked : acked_) {
    size_t home = DovShardClamped(acked.dov, nodes);
    ScalePlane::Shard& shard = plane->shard(home);
    if (only_up_nodes && !shard.up.load(std::memory_order_acquire)) continue;
    auto record = shard.repo->Get(acked.dov);
    if (!record.ok()) {
      std::string parts;
      for (size_t p : acked.participants) {
        if (!parts.empty()) parts += ',';
        parts += std::to_string(p);
      }
      AddViolationOnce(ViolationClass::kLostCommit, acked.dov.value(),
                       "acked DOV " + std::to_string(acked.dov.value()) +
                           " missing from shard " + std::to_string(home) +
                           " (ws " + std::to_string(acked.ws) + ", da " +
                           std::to_string(acked.da.value()) + ", dop " +
                           std::to_string(acked.dop.value()) +
                           ", participants [" + parts + "]): " +
                           record.status().ToString());
      continue;
    }
    auto value = record->data.GetAttr("value");
    if (!value.ok() || !value->is_int() || value->as_int() != acked.value) {
      AddViolationOnce(ViolationClass::kLostCommit, acked.dov.value(),
                       "acked DOV " + std::to_string(acked.dov.value()) +
                           " payload mismatch (expected value " +
                           std::to_string(acked.value) + ")");
    }
  }

  // I2: no withdrawn/invalidated version resurrected.
  for (const auto& [dov_value, retired] : retired_) {
    DovId dov(dov_value);
    size_t home = DovShardClamped(dov, nodes);
    ScalePlane::Shard& shard = plane->shard(home);
    if (only_up_nodes && !shard.up.load(std::memory_order_acquire)) continue;
    auto record = shard.repo->Get(dov);
    if (!record.ok()) continue;  // absence is covered by I1 when acked
    if (retired.invalidated && !record->invalidated) {
      AddViolationOnce(ViolationClass::kResurrectedVersion, dov_value,
                       "invalidated DOV " + std::to_string(dov_value) +
                           " lost its invalidated flag");
    }
    if (!retired.invalidated && record->propagated) {
      AddViolationOnce(ViolationClass::kResurrectedVersion, dov_value,
                       "withdrawn DOV " + std::to_string(dov_value) +
                           " is propagated again");
    }
  }

  // I3: acked End-of-DOP commits fully applied on every participant
  // (a still-registered DOP on one shard is a half-applied decision).
  // Checkpoint scans sample the most recent window — DaOfDop is a
  // partition-executor round trip, so a full scan mid-traffic would
  // stall the checker; the end-of-run scan covers everything.
  size_t first = 0;
  if (only_up_nodes && acked_.size() > kCheckpointAtomicitySample) {
    first = acked_.size() - kCheckpointAtomicitySample;
  }
  for (size_t i = first; i < acked_.size(); ++i) {
    const AckedCommit& acked = acked_[i];
    for (size_t participant : acked.participants) {
      if (participant >= nodes) continue;
      ScalePlane::Shard& shard = plane->shard(participant);
      if (only_up_nodes && !shard.up.load(std::memory_order_acquire)) {
        continue;
      }
      auto da = shard.tm->DaOfDop(acked.dop);
      if (da.ok()) {
        AddViolationOnce(ViolationClass::kAtomicityViolation,
                         acked.dop.value(),
                         "acked DOP " + std::to_string(acked.dop.value()) +
                             " still registered on participant shard " +
                             std::to_string(participant));
      }
    }
  }
}

std::vector<Violation> InvariantChecker::violations() const {
  MutexLock lock(&mu_);
  return violations_;
}

size_t InvariantChecker::violation_count() const {
  MutexLock lock(&mu_);
  size_t total = 0;
  for (size_t count : counts_) total += count;
  return total;
}

size_t InvariantChecker::violation_count(ViolationClass c) const {
  MutexLock lock(&mu_);
  return counts_[static_cast<size_t>(c)];
}

size_t InvariantChecker::acked_commits() const {
  MutexLock lock(&mu_);
  return acked_.size();
}

// --- ScalePlane --------------------------------------------------------------

namespace {

// "cell" versions carry the payload; the root DA is typed "chip",
// which cells are parts of (Create_Sub_DA's part-of check).
void DefineCellChipSchema(storage::SchemaCatalog* schema) {
  auto* cell = schema->DefineType("cell");
  cell->AddAttr({"value", storage::AttrType::kInt, true, 0.0, 1e9});
  auto* chip = schema->DefineType("chip");
  chip->AddAttr({"value", storage::AttrType::kInt, true, 0.0, 1e9});
  chip->AddPart({cell->id(), 0, 1 << 20});
}

}  // namespace

ScalePlane::ScalePlane(const ScaleConfig& config)
    : ServerPlane(config.seed ^ 0x9e3779b9,
                  std::max<size_t>(2, config.server_nodes), config.partitions,
                  DefineCellChipSchema) {
  const storage::SchemaCatalog& schema = shard(0).repo->schema();
  cell_dot_ = (*schema.GetTypeByName("cell"))->id();
  root_dot_ = (*schema.GetTypeByName("chip"))->id();
  for (size_t w = 0; w < config.workstations; ++w) {
    AddWorkstation(IndexedName("ws", static_cast<long long>(w)));
  }
}

// --- ScaleHarness ------------------------------------------------------------

/// Shared traffic registry for one design activity. Traffic threads
/// lock `mu` only around pool picks/updates (never across a server
/// round trip); `shard` tracks the placement home and is updated by
/// the chaos thread on MigrateDa.
struct ScaleHarness::DaState {
  DaId id;
  std::atomic<size_t> shard{0};
  size_t partner = 0;  ///< index of the paired DA (mutual Require)
  Mutex mu;
  std::vector<DovId> pool GUARDED_BY(mu);        ///< own usable versions
  std::vector<DovId> propagated GUARDED_BY(mu);  ///< currently propagated
};

ScaleHarness::ScaleHarness(const ScaleConfig& config)
    : config_(config), plane_(config) {
  if (config_.das < 2) config_.das = 2;
  if (config_.workstations < 1) config_.workstations = 1;
  zipf_cdf_.resize(config_.das);
  double total = 0.0;
  for (size_t i = 0; i < config_.das; ++i) {
    total += std::pow(static_cast<double>(i + 1), -config_.zipf_s);
    zipf_cdf_[i] = total;
  }
  for (double& entry : zipf_cdf_) entry /= total;
}

ScaleHarness::~ScaleHarness() = default;

size_t ScaleHarness::ZipfPick(Rng* rng) const {
  double draw = rng->NextDouble();
  auto it = std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), draw);
  if (it == zipf_cdf_.end()) return zipf_cdf_.size() - 1;
  return static_cast<size_t>(it - zipf_cdf_.begin());
}

void ScaleHarness::Generate() {
  if (generated_) return;
  generated_ = true;
  auto& cm = plane_.cm();
  const size_t nodes = plane_.node_count();

  // DA hierarchy through the CM (persisted to the coordinator's meta
  // store, so coordinator crash/recover rebuilds it).
  cooperation::DaDescription root_desc;
  root_desc.dot = plane_.root_dot();
  root_desc.designer = DesignerId(1);
  root_desc.workstation = plane_.workstation(0).node;
  auto root = cm.InitDesign(root_desc);
  GenerateCheck(root.ok(), "InitDesign");
  GenerateCheck(cm.Start(*root).ok(), "Start(root)");
  for (size_t i = 0; i < config_.das; ++i) {
    cooperation::DaDescription desc;
    desc.dot = plane_.cell_dot();
    desc.designer = DesignerId(2 + i);
    desc.workstation = plane_.workstation(i % config_.workstations).node;
    auto sub = cm.CreateSubDa(*root, desc);
    GenerateCheck(sub.ok(), "CreateSubDa");
    GenerateCheck(cm.Start(*sub).ok(), "Start(sub)");
    const size_t home = i % nodes;
    GenerateCheck(
        plane_.placement().Assign(*sub, plane_.shard(home).node).ok(),
        "placement.Assign");
    auto state = std::make_unique<DaState>();
    state->id = *sub;
    state->shard.store(home, std::memory_order_release);
    state->partner = (i ^ 1) < config_.das ? (i ^ 1) : i;
    da_states_.push_back(std::move(state));
  }

  // Bulk-load the derivation chains: one generator thread per shard,
  // writing straight into that shard's repository (batched txns, no
  // server round trips) and claiming scope ownership on its node's
  // lock table — exactly the state a long history of checkins leaves.
  std::atomic<size_t> generated_total{0};
  std::vector<std::thread> generators;
  for (size_t s = 0; s < nodes; ++s) {
    generators.emplace_back([this, s, nodes, &generated_total] {
      Rng rng(config_.seed ^ (0x5eed0000 + s * 77));
      storage::Repository& repo = *plane_.shard(s).repo;
      txn::ServerLockTable& locks = plane_.shard(s).tm->locks();
      const size_t per_da = std::max<size_t>(1, config_.dovs / config_.das);
      for (size_t i = s; i < da_states_.size(); i += nodes) {
        DaState& state = *da_states_[i];
        std::vector<std::pair<DovId, size_t>> tails;  // chain tip, depth
        TxnId txn = repo.Begin();
        size_t in_batch = 0;
        MutexLock lock(&state.mu);  // pre-traffic; uncontended
        for (size_t k = 0; k < per_da; ++k) {
          storage::DovRecord record;
          record.id = repo.NextDovId();
          record.owner_da = state.id;
          record.created_by = DopId();
          record.type = plane_.cell_dot();
          record.data = storage::DesignObject(plane_.cell_dot());
          record.data.SetAttr("value", static_cast<int64_t>(k));
          if (!tails.empty() && !rng.Chance(0.05)) {
            size_t t = rng.Index(tails.size());
            record.predecessors = {tails[t].first};
            size_t depth = tails[t].second + 1;
            if (rng.Chance(config_.branch_probability) &&
                tails.size() < kMaxOpenChains) {
              tails.push_back({record.id, depth});
            } else if (depth < config_.chain_depth) {
              tails[t] = {record.id, depth};
            } else {
              tails.erase(tails.begin() + t);
            }
          } else {
            tails.push_back({record.id, 0});
          }
          DovId id = record.id;
          GenerateCheck(repo.Put(txn, std::move(record)).ok(), "Put");
          locks.SetScopeOwner(id, state.id);
          state.pool.push_back(id);
          if (++in_batch == kGeneratorTxnBatch) {
            GenerateCheck(repo.Commit(txn).ok(), "Commit");
            txn = repo.Begin();
            in_batch = 0;
          }
        }
        GenerateCheck(repo.Commit(txn).ok(), "Commit(final)");
        generated_total.fetch_add(per_da, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& generator : generators) generator.join();
  dovs_generated_ = generated_total.load();

  // Cooperation relationships (each DA pair requires each other's
  // results) and initial propagations, so cross-DA — and therefore
  // cross-shard — checkouts have material from the first op on.
  for (auto& state : da_states_) {
    if (da_states_[state->partner]->id == state->id) continue;
    GenerateCheck(
        cm.Require(da_states_[state->partner]->id, state->id, {}).ok(),
        "Require");
  }
  for (auto& state : da_states_) {
    MutexLock lock(&state->mu);
    size_t count = std::min(config_.propagated_per_da, state->pool.size());
    for (size_t k = 0; k < count; ++k) {
      DovId dov = state->pool[k * state->pool.size() / std::max<size_t>(
                                                           count, 1)];
      if (cm.Propagate(state->id, dov).ok()) {
        state->propagated.push_back(dov);
      }
    }
  }
  CONCORD_INFO("scale", "generated " << dovs_generated_ << " DOVs across "
                                     << config_.das << " DAs on " << nodes
                                     << " nodes");
}

void ScaleHarness::RunDopOnce(size_t ws, Rng* rng,
                              std::vector<double>* latencies) {
  ScalePlane::Workstation& workstation = plane_.workstation(ws);
  txn::ClientTm& client = *workstation.client;
  DaState& state = *da_states_[ZipfPick(rng)];
  const size_t home = state.shard.load(std::memory_order_acquire);

  // Pick inputs: 1-2 own versions, sometimes one the partner DA
  // propagated (usually cross-shard — that commit runs the true
  // multi-participant 2PC).
  std::vector<DovId> own_inputs;
  {
    MutexLock lock(&state.mu);
    if (state.pool.empty()) return;
    size_t want = static_cast<size_t>(rng->Uniform(1, 2));
    for (size_t i = 0; i < want; ++i) {
      DovId pick = rng->Pick(state.pool);
      if (std::find(own_inputs.begin(), own_inputs.end(), pick) ==
          own_inputs.end()) {
        own_inputs.push_back(pick);
      }
    }
  }
  DovId partner_input;
  if (rng->Chance(config_.cross_da_checkout_probability)) {
    DaState& partner = *da_states_[state.partner];
    MutexLock lock(&partner.mu);
    if (!partner.propagated.empty()) {
      partner_input = rng->Pick(partner.propagated);
    }
  }

  auto dop = client.BeginDop(state.id);
  if (!dop.ok()) {
    op_errors_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  std::vector<size_t> participants{home};
  std::vector<DovId> checked_out;
  auto checkout = [&](DovId dov, bool take_derivation_lock) {
    uint64_t seq_before = checker_.CurrentSeq();
    uint64_t cache_hits_before = client.stats().checkouts_from_cache;
    Status status = client.Checkout(*dop, dov, take_derivation_lock);
    if (!status.ok()) {
      op_errors_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    bool from_cache = client.stats().checkouts_from_cache > cache_hits_before;
    checker_.NoteCheckoutObservation(ws, dov, from_cache, seq_before);
    checked_out.push_back(dov);
    size_t shard = DovShardClamped(dov, plane_.node_count());
    if (std::find(participants.begin(), participants.end(), shard) ==
        participants.end()) {
      participants.push_back(shard);
    }
  };
  for (DovId input : own_inputs) {
    checkout(input, rng->Chance(config_.derivation_lock_probability));
  }
  if (partner_input.valid()) checkout(partner_input, false);

  if (checked_out.empty() || rng->Chance(config_.abort_probability)) {
    if (client.AbortDop(*dop).ok()) {
      aborts_.fetch_add(1, std::memory_order_relaxed);
    }
    return;
  }

  storage::DesignObject object(plane_.cell_dot());
  int64_t value = rng->Uniform(0, 999999999);
  object.SetAttr("value", value);
  auto started = std::chrono::steady_clock::now();
  auto dov = client.CheckinCommit(*dop, std::move(object), checked_out);
  auto elapsed = std::chrono::duration<double, std::micro>(
                     std::chrono::steady_clock::now() - started)
                     .count();
  if (!dov.ok()) {
    op_errors_.fetch_add(1, std::memory_order_relaxed);
    client.AbortDop(*dop).ok();  // best effort: free server-side locks
    return;
  }
  latencies->push_back(elapsed);
  InvariantChecker::AckedCommit acked;
  acked.ws = ws;
  acked.dop = *dop;
  acked.dov = *dov;
  acked.value = value;
  acked.da = state.id;
  acked.participants = std::move(participants);
  checker_.RecordAckedCommit(std::move(acked));
  MutexLock lock(&state.mu);
  state.pool.push_back(*dov);
}

void ScaleHarness::RunCmOpOnce(size_t ws, Rng* rng) {
  (void)ws;
  cm_ops_.fetch_add(1, std::memory_order_relaxed);
  auto& cm = plane_.cm();
  DaState& state = *da_states_[ZipfPick(rng)];
  int64_t action = rng->Uniform(0, 2);

  if (action == 0) {  // propagate a fresh version
    DovId dov;
    {
      MutexLock lock(&state.mu);
      if (state.pool.empty()) return;
      DovId pick = rng->Pick(state.pool);
      if (std::find(state.propagated.begin(), state.propagated.end(), pick) ==
          state.propagated.end()) {
        dov = pick;
      }
    }
    if (!dov.valid()) return;
    if (cm.Propagate(state.id, dov).ok()) {
      MutexLock lock(&state.mu);
      state.propagated.push_back(dov);
    } else {
      op_errors_.fetch_add(1, std::memory_order_relaxed);
    }
    return;
  }

  // Withdraw or invalidate-and-replace: retire the version from the
  // traffic pools FIRST (so no thread legitimately re-uses it), then
  // run the CM op, then record the retirement for the checker. The
  // retirement is "armed" for the coherence check only when the
  // invalidation push provably reached every workstation (publisher
  // node up; caches verified clean).
  DovId dov;
  DovId replacement;
  {
    MutexLock lock(&state.mu);
    if (state.propagated.empty()) return;
    size_t index = rng->Index(state.propagated.size());
    dov = state.propagated[index];
    if (action == 2) {  // invalidate needs an own replacement version
      for (int attempt = 0; attempt < 4; ++attempt) {
        DovId candidate = rng->Pick(state.pool);
        if (candidate != dov) {
          replacement = candidate;
          break;
        }
      }
      if (!replacement.valid()) return;
    }
    state.propagated.erase(state.propagated.begin() + index);
    state.pool.erase(std::remove(state.pool.begin(), state.pool.end(), dov),
                     state.pool.end());
  }
  Status status = action == 1
                      ? cm.WithdrawPropagation(state.id, dov)
                      : cm.InvalidateAndReplace(state.id, dov, replacement);
  if (!status.ok()) {
    // Conservative: the DOV stays retired from the pools (never
    // re-used) but is not recorded — no invariant rides on it.
    op_errors_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  bool armed =
      plane_.shard(DovShardClamped(dov, plane_.node_count()))
          .up.load(std::memory_order_acquire);
  for (size_t w = 0; armed && w < plane_.workstation_count(); ++w) {
    if (plane_.workstation(w).client->cache().Contains(dov)) armed = false;
  }
  checker_.RecordRetired(dov, action == 2, armed);
  if (action == 2) {
    MutexLock lock(&state.mu);
    if (std::find(state.propagated.begin(), state.propagated.end(),
                  replacement) == state.propagated.end()) {
      state.propagated.push_back(replacement);  // IAR propagates it
    }
  }
}

void ScaleHarness::RunProbeOnce(size_t ws, Rng* rng) {
  // Deliberately ask for a retired version: the server will mostly
  // deny it (scope revoked), and the workstation cache must NEVER
  // serve it — the live edge of the coherence invariant.
  DovId dov = checker_.SampleRetired(
      static_cast<uint64_t>(rng->Uniform(0, 1 << 30)));
  if (!dov.valid()) return;
  probes_.fetch_add(1, std::memory_order_relaxed);
  ScalePlane::Workstation& workstation = plane_.workstation(ws);
  txn::ClientTm& client = *workstation.client;
  DaState& state = *da_states_[ZipfPick(rng)];
  auto dop = client.BeginDop(state.id);
  if (!dop.ok()) return;
  uint64_t seq_before = checker_.CurrentSeq();
  uint64_t cache_hits_before = client.stats().checkouts_from_cache;
  Status status = client.Checkout(*dop, dov, false);
  if (status.ok()) {
    bool from_cache = client.stats().checkouts_from_cache > cache_hits_before;
    checker_.NoteCheckoutObservation(ws, dov, from_cache, seq_before);
  }
  client.AbortDop(*dop).ok();
}

void ScaleHarness::TrafficThread(size_t ws,
                                 std::vector<double>* checkin_latencies_us) {
  Rng rng(config_.seed * 0x9e3779b97f4a7c15ULL ^ (ws + 1));
  for (size_t op = 0; op < config_.ops_per_workstation; ++op) {
    if (stop_traffic_.load(std::memory_order_acquire)) break;
    ops_attempted_.fetch_add(1, std::memory_order_relaxed);
    double draw = rng.NextDouble();
    if (draw < config_.cm_op_probability) {
      RunCmOpOnce(ws, &rng);
    } else if (draw < config_.cm_op_probability + config_.probe_probability) {
      RunProbeOnce(ws, &rng);
    } else {
      RunDopOnce(ws, &rng, checkin_latencies_us);
    }
  }
  traffic_done_.fetch_add(1, std::memory_order_acq_rel);
}

void ScaleHarness::CheckpointSweep() {
  size_t max_after = 0;
  for (size_t s = 0; s < plane_.node_count(); ++s) {
    ScalePlane::Shard& shard = plane_.shard(s);
    // Never checkpoint a crashed node: its volatile image is empty, and
    // snapshotting that emptiness while truncating the log would be the
    // one sequence that destroys committed state (docs/SCALE.md).
    if (!shard.up.load(std::memory_order_acquire)) continue;
    shard.repo->Checkpoint();
    size_t after = shard.repo->wal().size();
    checker_.NoteWalSize(s, after, config_.wal_bound);
    max_after = std::max(max_after, after);
  }
  last_checkpoint_wal_records_ = max_after;
  ++checkpoints_done_;
}

void ScaleHarness::ChaosThread() {
  enum EventType {
    kNodeCrash,
    kNodeRecover,
    kWorkstationCrash,
    kMigrate,
    kCheckpoint,
    kLossChange,
  };
  struct Event {
    double pos;
    EventType type;
    size_t arg;
  };
  Rng rng(config_.seed ^ 0xc4a05c4a05ULL);
  std::vector<Event> events;

  const size_t nodes = plane_.node_count();
  const size_t cycles = config_.crash_cycles;
  for (size_t i = 0; i < cycles; ++i) {
    // Rolling victims starting at shard 1 (the coordinator joins the
    // rotation once every other node has had a turn).
    size_t victim = (i + 1) % nodes;
    double base = 0.08 + 0.74 * (static_cast<double>(i) / std::max<size_t>(
                                                              cycles, 1));
    double jitter = rng.NextDouble() * 0.02;
    events.push_back({base + jitter, kNodeCrash, victim});
    events.push_back(
        {base + jitter + 0.30 / std::max<size_t>(cycles, 1), kNodeRecover,
         victim});
  }
  for (size_t i = 0; i < config_.workstation_crashes; ++i) {
    double pos = 0.15 + 0.7 * (i + 0.5) / std::max<size_t>(
                                              config_.workstation_crashes, 1);
    events.push_back({pos, kWorkstationCrash,
                      rng.Index(plane_.workstation_count())});
  }
  for (size_t i = 0; i < config_.migrations; ++i) {
    double pos =
        0.3 + 0.4 * (i + 0.5) / std::max<size_t>(config_.migrations, 1);
    events.push_back({pos, kMigrate, i});
  }
  for (size_t i = 0; i < config_.checkpoints; ++i) {
    double pos = (i + 1.0) / (config_.checkpoints + 1.0);
    events.push_back({pos, kCheckpoint, i});
  }
  // Continuous loss with churn: the probability steps around its
  // configured level instead of staying flat.
  events.push_back({0.25, kLossChange, 0});
  events.push_back({0.55, kLossChange, 1});
  events.push_back({0.8, kLossChange, 2});
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& a, const Event& b) { return a.pos < b.pos; });

  const size_t total_ops =
      config_.workstations * std::max<size_t>(config_.ops_per_workstation, 1);
  size_t next = 0;
  while (next < events.size()) {
    bool traffic_finished =
        traffic_done_.load(std::memory_order_acquire) == config_.workstations;
    double progress =
        traffic_finished
            ? 2.0
            : static_cast<double>(ops_attempted_.load(
                  std::memory_order_relaxed)) /
                  static_cast<double>(total_ops);
    while (next < events.size() && events[next].pos <= progress) {
      const Event& event = events[next++];
      switch (event.type) {
        case kNodeCrash:
          if (plane_.shard(event.arg).up.load(std::memory_order_acquire)) {
            plane_.CrashNode(event.arg);
            ++crash_cycles_done_;
          }
          break;
        case kNodeRecover:
          if (!plane_.shard(event.arg).up.load(std::memory_order_acquire)) {
            Status status = plane_.RecoverNode(event.arg);
            if (!status.ok()) {
              CONCORD_ERROR("scale", "node " << event.arg
                                             << " recovery failed: "
                                             << status.ToString());
            }
          }
          break;
        case kWorkstationCrash: {
          auto& workstation = plane_.workstation(event.arg);
          workstation.client->Crash();
          checker_.NoteWorkstationCrash(event.arg);
          workstation.client->Recover().ok();
          ++workstation_crashes_done_;
          break;
        }
        case kMigrate: {
          // Migrate a hot DA to a different up node, mid-traffic.
          for (int attempt = 0; attempt < 4 && nodes > 1; ++attempt) {
            DaState& state = *da_states_[rng.Index(
                std::min<size_t>(da_states_.size(), 8))];
            size_t current = state.shard.load(std::memory_order_acquire);
            size_t target = (current + 1 + rng.Index(nodes - 1)) % nodes;
            if (target == current ||
                !plane_.shard(target).up.load(std::memory_order_acquire)) {
              continue;
            }
            if (plane_.cm()
                    .MigrateDa(state.id, plane_.shard(target).node)
                    .ok()) {
              state.shard.store(target, std::memory_order_release);
              ++migrations_done_;
              break;
            }
          }
          break;
        }
        case kCheckpoint:
          CheckpointSweep();
          checker_.VerifyAgainst(&plane_, /*only_up_nodes=*/true);
          break;
        case kLossChange: {
          double factors[] = {1.6, 0.4, 1.0};
          plane_.network().set_loss_probability(config_.loss_probability *
                                                factors[event.arg % 3]);
          break;
        }
      }
    }
    if (next >= events.size()) break;
    if (!traffic_finished) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
}

void ScaleHarness::FinalVerify() {
  // Quiesce: stop losing messages, bring every node back, re-derive
  // cooperation locks, then run the full cross-examination.
  plane_.network().set_loss_probability(0.0);
  for (size_t s = 0; s < plane_.node_count(); ++s) {
    if (!plane_.shard(s).up.load(std::memory_order_acquire)) {
      Status status = plane_.RecoverNode(s);
      if (!status.ok()) {
        CONCORD_ERROR("scale", "final recovery of node "
                                   << s << " failed: " << status.ToString());
      }
    }
  }
  CheckpointSweep();
  checker_.VerifyAgainst(&plane_, /*only_up_nodes=*/false);
}

ScaleResult ScaleHarness::Run() {
  Generate();
  plane_.network().set_loss_probability(config_.loss_probability);
  auto started = std::chrono::steady_clock::now();

  std::vector<std::vector<double>> latencies(config_.workstations);
  std::thread chaos(&ScaleHarness::ChaosThread, this);
  std::vector<std::thread> traffic;
  for (size_t w = 0; w < config_.workstations; ++w) {
    traffic.emplace_back(&ScaleHarness::TrafficThread, this, w,
                         &latencies[w]);
  }
  for (std::thread& thread : traffic) thread.join();
  chaos.join();
  double wall = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                              started)
                    .count();

  FinalVerify();

  ScaleResult result;
  result.seed = config_.seed;
  result.dovs_generated = dovs_generated_;
  result.das = config_.das;
  result.ops_attempted = ops_attempted_.load();
  result.acked_commits = checker_.acked_commits();
  result.aborts = aborts_.load();
  result.op_errors = op_errors_.load();
  result.cm_ops = cm_ops_.load();
  result.probe_checkouts = probes_.load();
  result.crash_cycles_done = crash_cycles_done_;
  result.workstation_crashes_done = workstation_crashes_done_;
  result.migrations_done = migrations_done_;
  result.checkpoints_done = checkpoints_done_;
  result.wal_records_after_last_checkpoint = last_checkpoint_wal_records_;
  for (size_t s = 0; s < plane_.node_count(); ++s) {
    result.prepared_residue += plane_.shard(s).tm->PreparedTxns().size();
  }
  result.wall_seconds = wall;
  result.throughput_ops_per_sec =
      wall > 0 ? static_cast<double>(result.ops_attempted) / wall : 0.0;

  std::vector<double> merged;
  for (auto& slice : latencies) {
    merged.insert(merged.end(), slice.begin(), slice.end());
  }
  std::sort(merged.begin(), merged.end());
  auto percentile = [&merged](double p) {
    if (merged.empty()) return 0.0;
    size_t index = static_cast<size_t>(p * (merged.size() - 1));
    return merged[index];
  };
  result.checkin_p50_us = percentile(0.50);
  result.checkin_p95_us = percentile(0.95);
  result.checkin_p99_us = percentile(0.99);

  result.violations = checker_.violations();
  for (size_t c = 0; c < 6; ++c) {
    result.violations_by_class[c] =
        checker_.violation_count(static_cast<ViolationClass>(c));
    result.violations_total += result.violations_by_class[c];
  }
  return result;
}

std::string ScaleResultJson(const ScaleResult& result) {
  char buffer[256];
  std::string json = "{\n";
  auto add_u = [&](const char* key, uint64_t value, bool comma = true) {
    std::snprintf(buffer, sizeof(buffer), "  \"%s\": %llu%s\n", key,
                  static_cast<unsigned long long>(value), comma ? "," : "");
    json += buffer;
  };
  auto add_d = [&](const char* key, double value) {
    std::snprintf(buffer, sizeof(buffer), "  \"%s\": %.2f,\n", key, value);
    json += buffer;
  };
  add_u("seed", result.seed);
  add_u("dovs_generated", result.dovs_generated);
  add_u("das", result.das);
  add_u("ops_attempted", result.ops_attempted);
  add_u("acked_commits", result.acked_commits);
  add_u("aborts", result.aborts);
  add_u("op_errors", result.op_errors);
  add_u("cm_ops", result.cm_ops);
  add_u("probe_checkouts", result.probe_checkouts);
  add_u("crash_cycles_done", result.crash_cycles_done);
  add_u("workstation_crashes_done", result.workstation_crashes_done);
  add_u("migrations_done", result.migrations_done);
  add_u("checkpoints_done", result.checkpoints_done);
  add_u("wal_records_after_last_checkpoint",
        result.wal_records_after_last_checkpoint);
  add_u("prepared_residue", result.prepared_residue);
  add_d("wall_seconds", result.wall_seconds);
  add_d("throughput_ops_per_sec", result.throughput_ops_per_sec);
  add_d("checkin_p50_us", result.checkin_p50_us);
  add_d("checkin_p95_us", result.checkin_p95_us);
  add_d("checkin_p99_us", result.checkin_p99_us);
  for (size_t c = 0; c < 6; ++c) {
    add_u(ViolationClassName(static_cast<ViolationClass>(c)),
          result.violations_by_class[c]);
  }
  add_u("violations_total", result.violations_total, /*comma=*/false);
  json += "}\n";
  return json;
}

}  // namespace concord::sim
