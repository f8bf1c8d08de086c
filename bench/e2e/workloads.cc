// The four bench_e2e workloads. The three socket workloads host their
// server shards in this process, wired exactly as tools/concordd.cc
// wires a concordd, and drive them through one ClientTm workstation per
// designer over Unix-domain sockets; coop_sim drives the public
// sim::ScalePlane over the simulated LAN. README.md gives the reason
// for each workload.

#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/e2e/harness.h"
#include "net/address.h"
#include "net/rpc_client.h"
#include "net/rpc_server.h"
#include "rpc/network.h"
#include "sim/scale_harness.h"
#include "storage/repository.h"
#include "storage/schema.h"
#include "storage/wal.h"
#include "tools/plane_schema.h"
#include "txn/client_tm.h"
#include "txn/scope_authority.h"
#include "txn/server_service.h"
#include "txn/server_tm.h"
#include "txn/shard_router.h"

namespace concord::bench_e2e {

Counters Counters::DeltaSince(const Counters& b) const {
  Counters d = *this;
  d.envelopes -= b.envelopes;
  d.dops_committed -= b.dops_committed;
  d.cross_shard_interactions -= b.cross_shard_interactions;
  d.cache_hits -= b.cache_hits;
  d.cache_misses -= b.cache_misses;
  d.cache_evictions -= b.cache_evictions;
  d.cache_invalidations -= b.cache_invalidations;
  d.channel_retries -= b.channel_retries;
  d.channel_timeouts -= b.channel_timeouts;
  d.dedup_hits -= b.dedup_hits;
  d.txns_prepared -= b.txns_prepared;
  d.txns_decided_abort -= b.txns_decided_abort;
  d.cross_partition_ops -= b.cross_partition_ops;
  d.pipelined_ops -= b.pipelined_ops;
  d.derivation_locks -= b.derivation_locks;
  d.derivation_conflicts -= b.derivation_conflicts;
  d.wal_flushes -= b.wal_flushes;
  d.wal_records -= b.wal_records;
  d.wal_bytes -= b.wal_bytes;
  d.repo_txns -= b.repo_txns;
  d.dovs_written -= b.dovs_written;
  d.bus_deliveries -= b.bus_deliveries;
  d.sim_messages -= b.sim_messages;
  for (size_t s = 0; s < d.partition_tasks.size() && s < b.partition_tasks.size();
       ++s) {
    for (size_t p = 0; p < d.partition_tasks[s].size() &&
                       p < b.partition_tasks[s].size();
         ++p) {
      d.partition_tasks[s][p] -= b.partition_tasks[s][p];
    }
  }
  return d;
}

namespace {

namespace fs = std::filesystem;

/// tools/concordd.cc defaults as the bench runs them: K = 2 executor
/// partitions per ServerTm, 2 RPC worker threads per server.
constexpr int kServerPartitions = 2;
constexpr int kServerWorkers = 2;
/// Read-back: fresh verifier workstations (one thread each), and acked
/// versions read per verification DOP.
constexpr size_t kVerifiers = 2;
constexpr size_t kReadbackPerDop = 16;
constexpr int64_t kMaxValue = 999'999'999;

/// read_uds library: far larger than the 256-entry workstation cache.
constexpr size_t kLibrarySize = 100'000;
constexpr size_t kLibraryTxnBatch = 256;
constexpr double kZipfTheta = 0.99;
constexpr size_t kReadsPerDop = 8;
constexpr uint64_t kWriteEvery = 16;

/// coop_sim: propagated versions kept live per producer before one is
/// retired each cycle.
constexpr size_t kLivePropagations = 8;

DaId DesignerDa(size_t d) { return DaId(1 + d); }
DaId SeedDa(size_t d) { return DaId(101 + d); }
constexpr DaId kLibraryDa(1000);

/// Folds one repository's counters into `c`.
void AddRepository(const storage::Repository& repo, Counters* c) {
  c->wal_flushes += static_cast<double>(repo.wal().flushes());
  c->wal_records += static_cast<double>(repo.wal().total_appended());
  for (const std::string& path : repo.wal().SegmentPaths()) {
    struct stat st;
    if (::stat(path.c_str(), &st) == 0) c->wal_bytes += static_cast<double>(st.st_size);
  }
  c->repo_txns += static_cast<double>(repo.stats().txns_committed.load());
  c->dovs_written += static_cast<double>(repo.stats().dovs_written.load());
}

/// Folds one server-TM's counters into `c`.
void AddServerTm(txn::ServerTm& tm, Counters* c) {
  txn::ServerTmStats stats = tm.stats();
  c->txns_prepared += static_cast<double>(stats.txns_prepared);
  c->txns_decided_abort += static_cast<double>(stats.txns_decided_abort);
  c->cross_partition_ops += static_cast<double>(stats.cross_partition_ops);
  c->pipelined_ops += static_cast<double>(stats.pipelined_ops);
  txn::LockStats locks = tm.locks().stats();
  c->derivation_locks += static_cast<double>(locks.derivation_locks_taken);
  c->derivation_conflicts += static_cast<double>(locks.derivation_conflicts);
  c->partition_tasks.emplace_back();
  for (size_t p = 0; p < tm.partition_count(); ++p) {
    txn::PartitionQueueSnapshot queue = tm.partition_queue_stats(p);
    c->partition_tasks.back().push_back(static_cast<double>(queue.tasks));
    c->queue_high_water =
        std::max(c->queue_high_water, static_cast<double>(queue.queue_high_water));
  }
  AddRepository(tm.repository(), c);
}

/// Folds one workstation's counters into `c`.
void AddClientTm(const txn::ClientTm& tm, Counters* c) {
  txn::ClientTmStats stats = tm.stats();
  c->dops_committed += static_cast<double>(stats.dops_committed);
  c->cross_shard_interactions += static_cast<double>(stats.cross_shard_interactions);
  const txn::DovCacheStats& cache = tm.cache().stats();
  c->cache_hits += static_cast<double>(cache.hits.load());
  c->cache_misses += static_cast<double>(cache.misses.load());
  c->cache_evictions += static_cast<double>(cache.evictions.load());
  c->cache_invalidations += static_cast<double>(cache.invalidations.load());
}

/// Checks a checked-out input against the value it was seeded or acked
/// with.
void ExpectInput(Checks& checks, const txn::ClientTm& tm, DopId dop, DovId dov,
                 int64_t want) {
  auto object = tm.Input(dop, dov);
  checks.Expect(object.ok() && ValueOf(*object) == want,
                "checkout returned a wrong value for DOV", dov.value());
}

/// An acknowledged commit, to be read back after the window.
struct Acked {
  DovId dov;
  int64_t value = 0;
  DaId da;
};

/// Reads one DA's acked versions back through `tm`, kReadbackPerDop
/// versions per DOP.
void ReadBackDa(txn::ClientTm& tm, DaId da, const std::vector<const Acked*>& versions,
                Checks& checks) {
  for (size_t first = 0; first < versions.size(); first += kReadbackPerDop) {
    auto dop = tm.BeginDop(da);
    checks.Expect(dop.ok(), "read-back BeginDop failed for DA", da.value());
    if (!dop.ok()) continue;
    size_t last = std::min(versions.size(), first + kReadbackPerDop);
    for (size_t i = first; i < last; ++i) {
      const Acked& a = *versions[i];
      Status out = tm.Checkout(*dop, a.dov);
      auto object =
          out.ok() ? tm.Input(*dop, a.dov) : Result<storage::DesignObject>(out);
      checks.Expect(object.ok() && ValueOf(*object) == a.value,
                    "acked version not read back intact: DOV", a.dov.value());
    }
    checks.Expect(tm.CommitDop(*dop).ok(), "read-back CommitDop failed for DA",
                  da.value());
  }
}

/// Reads every acked version back through `verifiers` — workstations
/// that never wrote or cached them — one thread per verifier, DAs dealt
/// out round-robin.
void ReadBack(const std::vector<txn::ClientTm*>& verifiers,
              const std::vector<Acked>& acked, Checks& checks) {
  std::map<uint64_t, std::vector<const Acked*>> by_da;
  for (const Acked& a : acked) by_da[a.da.value()].push_back(&a);
  std::vector<std::pair<DaId, const std::vector<const Acked*>*>> groups;
  for (const auto& [da, versions] : by_da) groups.emplace_back(DaId(da), &versions);
  std::vector<Checks> results(verifiers.size());
  std::vector<std::thread> threads;
  for (size_t v = 0; v < verifiers.size(); ++v) {
    threads.emplace_back([&, v] {
      for (size_t g = v; g < groups.size(); g += verifiers.size()) {
        ReadBackDa(*verifiers[v], groups[g].first, *groups[g].second, results[v]);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const Checks& result : results) checks.Merge(result);
}

storage::DesignObject PlaneObject(DotId dot, int64_t value) {
  storage::DesignObject object(dot);
  object.SetAttr("value", value);
  return object;
}

DotId PlaneDot() {
  storage::SchemaCatalog schema;
  return tools::DefinePlaneSchema(&schema);
}

// --- Socket plane -------------------------------------------------------------

/// One server shard hosted in this process, wired as tools/concordd.cc
/// wires a concordd: file-backed repository with coalesced fsyncs, a
/// ServerTm with K = 2 partitions behind a permissive scope authority,
/// and an RpcServer with 2 workers on a Unix socket whose handler is
/// decode -> DispatchBatch -> encode.
class SocketShard {
 public:
  SocketShard(uint32_t shard, std::string dir, std::string socket)
      : shard_(shard), dir_(std::move(dir)), socket_(std::move(socket)) {
    node_ = network_.AddNode("concordd-shard" + std::to_string(shard));
  }
  ~SocketShard() { Stop(); }
  SocketShard(const SocketShard&) = delete;
  SocketShard& operator=(const SocketShard&) = delete;

  Status Start(ServerSpanSink* sink) {
    repo_ = std::make_unique<storage::Repository>(&clock_);
    repo_->set_dov_id_shard(shard_);
    tools::DefinePlaneSchema(&repo_->schema());
    storage::WalOptions wal;
    wal.coalesce_fsyncs = true;
    CONCORD_RETURN_NOT_OK(repo_->Open(dir_, wal));
    tm_ = std::make_unique<txn::ServerTm>(repo_.get(), &network_, node_, &scope_,
                                          /*invalidations=*/nullptr,
                                          kServerPartitions);
    tm_->RestagePreparedFromStable();
    net::RpcServer::Options options;
    options.worker_threads = kServerWorkers;
    server_ = std::make_unique<net::RpcServer>(net::Address::Unix(socket_),
                                               options);
    server_->RegisterMethod(txn::kServerServiceMethod,
                            MakeServerHandler(tm_.get(), shard_, sink));
    return server_->Start();
  }

  /// Graceful stop: drains the RPC workers, joins the partitions, and
  /// closes (flushes) the WAL.
  void Stop() {
    if (server_ != nullptr) server_->Shutdown();
    server_.reset();
    tm_.reset();
    if (repo_ != nullptr) repo_->Close();
    repo_.reset();
  }

  uint32_t shard() const { return shard_; }
  const std::string& dir() const { return dir_; }
  const std::string& socket() const { return socket_; }
  storage::Repository& repo() { return *repo_; }
  txn::ServerTm& tm() { return *tm_; }
  net::RpcServer& server() { return *server_; }

 private:
  const uint32_t shard_;
  const std::string dir_;
  const std::string socket_;
  /// Only ServerTm's constructor wants these (as in concordd): every
  /// request arrives through the socket.
  SimClock clock_;
  rpc::Network network_{&clock_, /*seed=*/1};
  NodeId node_;
  txn::PermissiveScopeAuthority scope_;
  std::unique_ptr<storage::Repository> repo_;
  std::unique_ptr<txn::ServerTm> tm_;
  std::unique_ptr<net::RpcServer> server_;
};

/// One workstation: a ClientTm over one SocketService (and RpcChannel)
/// per shard, DA homes pinned statically as concord_client pins them.
/// Its NodeId comes from the bench LAN shared by all workstations of a
/// plane, so every workstation has its own DOP/Txn id namespace.
class SocketStation {
 public:
  SocketStation(rpc::Network* lan, const std::vector<std::string>& sockets,
                const std::vector<std::pair<DaId, size_t>>& homes,
                NamespaceCheck* namespaces, Status* status) {
    node_ = lan->AddNode("workstation");
    std::vector<std::pair<NodeId, txn::ServerService*>> routes;
    for (size_t s = 0; s < sockets.size(); ++s) {
      // Server NodeIds are workstation-local labels (as in
      // concord_client): shard s of a DOV id routes to routes[s].
      NodeId server_node(1000 + s);
      services_.push_back(std::make_unique<SocketService>(
          server_node, static_cast<uint32_t>(s), node_,
          std::make_unique<net::RpcChannel>(node_.value(),
                                            net::Address::Unix(sockets[s])),
          namespaces));
      routes.emplace_back(server_node, services_.back().get());
    }
    txn::ShardRouter router(std::move(routes), /*placement=*/nullptr);
    *status = Status::OK();
    for (const auto& [da, shard] : homes) {
      Status pinned = router.SetStaticHome(da, shard);
      if (!pinned.ok()) *status = pinned;
    }
    tm_ = std::make_unique<txn::ClientTm>(router, lan, node_, &clock_);
  }

  NodeId node() const { return node_; }
  txn::ClientTm& tm() { return *tm_; }

  void AddCounters(Counters* c) const {
    AddClientTm(*tm_, c);
    for (const auto& service : services_) {
      net::RpcChannelStats stats = service->channel().stats();
      c->channel_retries += static_cast<double>(stats.retries);
      c->channel_timeouts += static_cast<double>(stats.timeouts);
    }
  }

 private:
  SimClock clock_;
  NodeId node_;
  std::vector<std::unique_ptr<SocketService>> services_;
  /// Declared last: destroyed before the services it routes through.
  std::unique_ptr<txn::ClientTm> tm_;
};

/// Shared body of the three socket workloads: N in-process shards, one
/// workstation per designer, the acked-commit log, and the read-back,
/// WAL-reopen and namespace checks.
class SocketWorkload : public Workload {
 public:
  SocketWorkload(const Flags& flags, ServerSpanSink* sink, const char* name,
                 size_t shards)
      : flags_(flags),
        sink_(sink),
        name_(name),
        shard_count_(shards),
        dot_(PlaneDot()),
        seed_rng_(flags.seed ^ 0x5eedULL) {}

  Status Setup() override {
    plane_ = std::make_unique<Plane>();
    ++attempt_;
    fs::path base = fs::path(data_dir()) / ("setup" + std::to_string(attempt_));
    std::error_code ignored;
    fs::remove_all(base, ignored);
    fs::create_directories(base);
    std::vector<std::string> sockets;
    for (size_t s = 0; s < shard_count_; ++s) {
      std::string dir = (base / ("shard" + std::to_string(s))).string();
      plane_->shards.push_back(
          std::make_unique<SocketShard>(static_cast<uint32_t>(s), dir, dir + ".sock"));
      CONCORD_RETURN_NOT_OK(plane_->shards.back()->Start(sink_));
      sockets.push_back(plane_->shards.back()->socket());
    }
    CONCORD_RETURN_NOT_OK(Populate(*plane_->shards.front()));
    acked_.assign(kDesigners, {});
    for (size_t d = 0; d < kDesigners; ++d) {
      Status status;
      plane_->stations.push_back(std::make_unique<SocketStation>(
          &plane_->lan, sockets, Homes(d), &namespaces_, &status));
      CONCORD_RETURN_NOT_OK(status);
    }
    for (size_t d = 0; d < kDesigners; ++d) {
      CONCORD_RETURN_NOT_OK(Seed(d));
    }
    return Status::OK();
  }

  void Teardown() override {
    plane_.reset();
    std::error_code ignored;
    fs::remove_all(data_dir(), ignored);
  }

  Counters Snapshot() override {
    Counters c;
    c.envelopes = static_cast<double>(namespaces_.envelopes.load());
    for (const auto& station : plane_->stations) station->AddCounters(&c);
    for (const auto& shard : plane_->shards) {
      c.dedup_hits += static_cast<double>(shard->server().stats().dedup_hits);
      AddServerTm(shard->tm(), &c);
    }
    return c;
  }

  void Verify(Checks& checks) override {
    std::vector<Acked> all;
    for (const auto& log : acked_) all.insert(all.end(), log.begin(), log.end());

    // Id namespaces: distinct workstation NodeIds, and every envelope's
    // TxnId carries its sender's NodeId (the per-DOP id check runs in
    // BeginTimed).
    for (size_t a = 0; a < plane_->stations.size(); ++a) {
      for (size_t b = a + 1; b < plane_->stations.size(); ++b) {
        checks.Expect(plane_->stations[a]->node() != plane_->stations[b]->node(),
                      "two workstations share NodeId",
                      plane_->stations[a]->node().value());
      }
    }
    checks.Expect(namespaces_.foreign_txn_ids.load() == 0,
                  "envelopes whose TxnId is outside the sender's namespace:",
                  namespaces_.foreign_txn_ids.load());

    // Read-back by fresh workstations that never cached these versions
    // (the designers' workstations close first, so the verifiers stay
    // within the run's connection budget).
    plane_->stations.clear();
    {
      std::vector<std::pair<DaId, size_t>> homes;
      for (size_t d = 0; d < kDesigners; ++d) {
        for (const auto& home : Homes(d)) homes.push_back(home);
      }
      std::vector<std::string> sockets;
      for (const auto& shard : plane_->shards) sockets.push_back(shard->socket());
      std::vector<std::unique_ptr<SocketStation>> verifiers;
      std::vector<txn::ClientTm*> tms;
      for (size_t v = 0; v < kVerifiers; ++v) {
        Status status;
        verifiers.push_back(std::make_unique<SocketStation>(
            &plane_->lan, sockets, homes, &namespaces_, &status));
        checks.Expect(status.ok(), "verifier workstation could not pin DA homes");
        tms.push_back(&verifiers.back()->tm());
      }
      ReadBack(tms, all, checks);
    }

    // Durability: stop every shard (the WAL closes), reopen each data
    // directory into a fresh repository, and find every acked version
    // in the image replayed from the segment files.
    for (const auto& shard : plane_->shards) shard->Stop();
    for (const auto& shard : plane_->shards) {
      SimClock clock;
      storage::Repository reopened(&clock);
      reopened.set_dov_id_shard(shard->shard());
      tools::DefinePlaneSchema(&reopened.schema());
      storage::WalOptions wal;
      wal.coalesce_fsyncs = true;
      Status opened = reopened.Open(shard->dir(), wal);
      checks.Expect(opened.ok(), "WAL reopen failed");
      if (!opened.ok()) {
        checks.Log("reopen of shard " + std::to_string(shard->shard()) + ": " +
                   opened.ToString());
        continue;
      }
      for (const Acked& a : all) {
        if (DovShardOf(a.dov) != shard->shard()) continue;
        auto record = reopened.Get(a.dov);
        checks.Expect(record.ok() && ValueOf(record->data) == a.value,
                      "acked version missing after WAL reopen: DOV", a.dov.value());
      }
    }
  }

  size_t server_workers() const override {
    return shard_count_ * static_cast<size_t>(kServerWorkers);
  }
  std::string data_dir() const override {
    return (fs::path(flags_.out) / "data" / name_).string();
  }

 protected:
  /// DA -> home shard pins of designer `d`'s workstation.
  virtual std::vector<std::pair<DaId, size_t>> Homes(size_t d) const = 0;
  /// Bulk-loads shard 0 before any workstation exists.
  virtual Status Populate(SocketShard& /*shard0*/) { return Status::OK(); }
  /// Designer `d`'s first commits (through its own workstation, which
  /// also opens its connections).
  virtual Status Seed(size_t d) = 0;

  txn::ClientTm& tm(size_t d) { return plane_->stations[d]->tm(); }
  NodeId node(size_t d) const { return plane_->stations[d]->node(); }
  DotId dot() const { return dot_; }
  Rng& seed_rng() { return seed_rng_; }

  void Ack(size_t d, DovId dov, int64_t value, DaId da) {
    acked_[d].push_back({dov, value, da});
  }

  /// One DOP commit through designer `d`'s workstation, outside the
  /// designer loop (seeding).
  Result<DovId> CommitOnce(size_t d, DaId da, int64_t value,
                           const std::vector<DovId>& predecessors) {
    CONCORD_ASSIGN_OR_RETURN(DopId dop, tm(d).BeginDop(da));
    for (DovId input : predecessors) {
      CONCORD_RETURN_NOT_OK(tm(d).Checkout(dop, input));
    }
    CONCORD_ASSIGN_OR_RETURN(
        DovId dov, tm(d).CheckinCommit(dop, PlaneObject(dot_, value), predecessors));
    Ack(d, dov, value, da);
    return dov;
  }

  /// Begin-of-DOP as a timed designer op, with the namespace check on
  /// the new DOP id.
  Result<DopId> BeginTimed(Designer& d, DaId da) {
    txn::ClientTm& client = tm(d.index());
    auto dop = d.Op(OpKind::kBegin, [&] { return client.BeginDop(da); });
    if (dop.ok()) {
      d.checks().Expect((dop->value() >> 32) == node(d.index()).value(),
                        "DOP id outside its workstation's namespace:",
                        dop->value());
    }
    return dop;
  }

  /// Ends a DOP whose operation failed: releases it server-side.
  void Abandon(Designer& d, DopId dop) {
    tm(d.index()).AbortDop(dop).ok();
    d.EndDop(false);
  }

 private:
  struct Plane {
    SimClock clock;
    rpc::Network lan{&clock, /*seed=*/7};
    std::vector<std::unique_ptr<SocketShard>> shards;
    /// Declared after the shards: workstations go first.
    std::vector<std::unique_ptr<SocketStation>> stations;
  };

  const Flags flags_;
  ServerSpanSink* sink_;
  const std::string name_;
  const size_t shard_count_;
  const DotId dot_;
  Rng seed_rng_;
  int attempt_ = 0;
  NamespaceCheck namespaces_;
  std::unique_ptr<Plane> plane_;
  std::vector<std::vector<Acked>> acked_;
};

// --- commit_uds ---------------------------------------------------------------

/// Durable derivation chains: each designer extends its own DA's chain
/// by one version per DOP (checkout of its own latest is a cache hit).
class CommitUds : public SocketWorkload {
 public:
  CommitUds(const Flags& flags, ServerSpanSink* sink)
      : SocketWorkload(flags, sink, "commit_uds", 1) {}

  void Cycle(Designer& d) override {
    txn::ClientTm& client = tm(d.index());
    Latest& latest = latest_[d.index()];
    d.StartDop();
    auto dop = BeginTimed(d, DesignerDa(d.index()));
    if (!dop.ok()) return d.EndDop(false);
    Status out = d.Op(OpKind::kCheckout, [&] { return client.Checkout(*dop, latest.dov); });
    if (!out.ok()) return Abandon(d, *dop);
    ExpectInput(d.checks(), client, *dop, latest.dov, latest.value);
    int64_t value = d.rng().Uniform(0, kMaxValue);
    auto dov = d.Op(OpKind::kCheckinCommit, [&] {
      return client.CheckinCommit(*dop, PlaneObject(dot(), value), {latest.dov});
    });
    if (!dov.ok()) return Abandon(d, *dop);
    d.EndDop(true);
    latest = {*dov, value};
    Ack(d.index(), *dov, value, DesignerDa(d.index()));
  }

 protected:
  std::vector<std::pair<DaId, size_t>> Homes(size_t d) const override {
    return {{DesignerDa(d), 0}};
  }
  Status Seed(size_t d) override {
    int64_t value = seed_rng().Uniform(0, kMaxValue);
    CONCORD_ASSIGN_OR_RETURN(DovId dov, CommitOnce(d, DesignerDa(d), value, {}));
    latest_[d] = {dov, value};
    return Status::OK();
  }

 private:
  struct Latest {
    DovId dov;
    int64_t value = 0;
  };
  Latest latest_[kDesigners];
};

// --- read_uds -----------------------------------------------------------------

/// Read-mostly browsing of a bulk-loaded library far larger than the
/// workstation cache: eight Zipf-drawn checkouts per DOP, one derived
/// checkin every kWriteEvery DOPs.
class ReadUds : public SocketWorkload {
 public:
  ReadUds(const Flags& flags, ServerSpanSink* sink)
      : SocketWorkload(flags, sink, "read_uds", 1) {
    // Inputs depend only on the seed: library values, and which library
    // slot each Zipf rank maps to (so the hot set is not the oldest ids).
    Rng rng(flags.seed ^ 0x11b7a7eULL);
    values_.resize(kLibrarySize);
    for (int64_t& value : values_) value = rng.Uniform(0, kMaxValue);
    rank_to_slot_.resize(kLibrarySize);
    for (size_t i = 0; i < kLibrarySize; ++i) rank_to_slot_[i] = i;
    std::shuffle(rank_to_slot_.begin(), rank_to_slot_.end(), rng.engine());
    zipf_cdf_.resize(kLibrarySize);
    double total = 0.0;
    for (size_t k = 0; k < kLibrarySize; ++k) {
      total += std::pow(static_cast<double>(k + 1), -kZipfTheta);
      zipf_cdf_[k] = total;
    }
    for (double& entry : zipf_cdf_) entry /= total;
  }

  void Cycle(Designer& d) override {
    txn::ClientTm& client = tm(d.index());
    d.StartDop();
    auto dop = BeginTimed(d, DesignerDa(d.index()));
    if (!dop.ok()) return d.EndDop(false);
    std::vector<DovId> inputs;
    for (size_t i = 0; i < kReadsPerDop; ++i) {
      size_t slot = rank_to_slot_[ZipfRank(d.rng())];
      DovId dov = library_[slot];
      Status out = d.Op(OpKind::kCheckout, [&] { return client.Checkout(*dop, dov); });
      if (!out.ok()) return Abandon(d, *dop);
      ExpectInput(d.checks(), client, *dop, dov, values_[slot]);
      if (std::find(inputs.begin(), inputs.end(), dov) == inputs.end()) {
        inputs.push_back(dov);
      }
    }
    if (++dops_[d.index()] % kWriteEvery != 0) {
      Status out = d.Op(OpKind::kCommitDop, [&] { return client.CommitDop(*dop); });
      if (!out.ok()) return Abandon(d, *dop);
      return d.EndDop(true);
    }
    int64_t value = d.rng().Uniform(0, kMaxValue);
    auto dov = d.Op(OpKind::kCheckinCommit, [&] {
      return client.CheckinCommit(*dop, PlaneObject(dot(), value), inputs);
    });
    if (!dov.ok()) return Abandon(d, *dop);
    d.EndDop(true);
    Ack(d.index(), *dov, value, DesignerDa(d.index()));
  }

 protected:
  std::vector<std::pair<DaId, size_t>> Homes(size_t d) const override {
    return {{DesignerDa(d), 0}};
  }

  /// The library, loaded straight into the repository in 256-record
  /// repository transactions (as sim::ScaleHarness::Generate loads a
  /// plane), owned by one library DA.
  Status Populate(SocketShard& shard0) override {
    storage::Repository& repo = shard0.repo();
    library_.assign(kLibrarySize, DovId());
    TxnId txn = repo.Begin();
    for (size_t i = 0; i < kLibrarySize; ++i) {
      storage::DovRecord record;
      record.id = repo.NextDovId();
      record.owner_da = kLibraryDa;
      record.type = dot();
      record.data = PlaneObject(dot(), values_[i]);
      library_[i] = record.id;
      CONCORD_RETURN_NOT_OK(repo.Put(txn, std::move(record)));
      shard0.tm().locks().SetScopeOwner(library_[i], kLibraryDa);
      if ((i + 1) % kLibraryTxnBatch == 0) {
        CONCORD_RETURN_NOT_OK(repo.Commit(txn));
        txn = repo.Begin();
      }
    }
    return repo.Commit(txn);
  }

  Status Seed(size_t d) override {
    // One read-only DOP opens the workstation's connection.
    CONCORD_ASSIGN_OR_RETURN(DopId dop, tm(d).BeginDop(DesignerDa(d)));
    return tm(d).CommitDop(dop);
  }

 private:
  size_t ZipfRank(Rng& rng) const {
    auto it = std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), rng.NextDouble());
    return it == zipf_cdf_.end() ? kLibrarySize - 1
                                 : static_cast<size_t>(it - zipf_cdf_.begin());
  }

  std::vector<int64_t> values_;
  std::vector<size_t> rank_to_slot_;
  std::vector<double> zipf_cdf_;
  std::vector<DovId> library_;
  uint64_t dops_[kDesigners] = {0, 0};
};

// --- cross_uds ----------------------------------------------------------------

/// Cross-shard 2PC on every DOP: a DA homed on shard 1 derives from a
/// source version on shard 0 under a derivation lock.
class CrossUds : public SocketWorkload {
 public:
  CrossUds(const Flags& flags, ServerSpanSink* sink)
      : SocketWorkload(flags, sink, "cross_uds", 2) {}

  void Cycle(Designer& d) override {
    txn::ClientTm& client = tm(d.index());
    const Source& source = sources_[d.index()];
    d.StartDop();
    auto dop = BeginTimed(d, DesignerDa(d.index()));
    if (!dop.ok()) return d.EndDop(false);
    Status out = d.Op(OpKind::kCheckout, [&] {
      return client.Checkout(*dop, source.dov, /*take_derivation_lock=*/true);
    });
    if (!out.ok()) return Abandon(d, *dop);
    ExpectInput(d.checks(), client, *dop, source.dov, source.value);
    int64_t value = d.rng().Uniform(0, kMaxValue);
    auto dov = d.Op(OpKind::kCheckinCommit, [&] {
      return client.CheckinCommit(*dop, PlaneObject(dot(), value), {source.dov});
    });
    if (!dov.ok()) return Abandon(d, *dop);
    d.EndDop(true);
    Ack(d.index(), *dov, value, DesignerDa(d.index()));
  }

 protected:
  std::vector<std::pair<DaId, size_t>> Homes(size_t d) const override {
    return {{SeedDa(d), 0}, {DesignerDa(d), 1}};
  }
  Status Seed(size_t d) override {
    int64_t value = seed_rng().Uniform(0, kMaxValue);
    CONCORD_ASSIGN_OR_RETURN(DovId dov, CommitOnce(d, SeedDa(d), value, {}));
    sources_[d] = {dov, value};
    return Status::OK();
  }

 private:
  struct Source {
    DovId dov;
    int64_t value = 0;
  };
  Source sources_[kDesigners];
};

// --- coop_sim -----------------------------------------------------------------

/// AC-level cooperation on the simulated plane: per designer a producer
/// DA (shard 0) whose new versions are propagated to a consumer DA
/// (shard 1) that requires them; old propagations are withdrawn or
/// invalidated-and-replaced.
class CoopSim : public Workload {
 public:
  CoopSim(const Flags& flags, ServerSpanSink* /*sink: no socket servers*/)
      : flags_(flags) {}

  Status Setup() override {
    sim::ScaleConfig config;
    config.seed = flags_.seed;
    config.server_nodes = 2;
    config.partitions = kServerPartitions;
    // One workstation per designer plus fresh ones for read-back.
    config.workstations = kDesigners + kVerifiers;
    config.loss_probability = 0.0;
    plane_ = std::make_unique<sim::ScalePlane>(config);
    auto& cm = plane_->cm();

    for (size_t d = 0; d < kDesigners; ++d) {
      // The bench's own ClientTm on the plane's workstation node, so
      // its envelopes pass the bench's timed seam. It takes over the
      // node's invalidation-bus subscription.
      sim::ScalePlane::Workstation& ws = plane_->workstation(d);
      auto station = std::make_unique<Station>();
      std::vector<std::pair<NodeId, txn::ServerService*>> routes;
      for (size_t s = 0; s < ws.stubs.size(); ++s) {
        station->services.push_back(std::make_unique<SimService>(
            ws.stubs[s].get(), static_cast<uint32_t>(s), ws.node, &namespaces_));
        routes.emplace_back(ws.stubs[s]->server_node(),
                            station->services.back().get());
      }
      station->node = ws.node;
      station->tm = std::make_unique<txn::ClientTm>(
          txn::ShardRouter(std::move(routes), ws.placement_client.get()),
          &plane_->network(), ws.node, &station->clock, &plane_->bus());
      stations_.push_back(std::move(station));
    }

    cooperation::DaDescription root_desc;
    root_desc.dot = plane_->root_dot();
    root_desc.designer = DesignerId(1);
    root_desc.workstation = plane_->workstation(0).node;
    CONCORD_ASSIGN_OR_RETURN(DaId root, cm.InitDesign(root_desc));
    CONCORD_RETURN_NOT_OK(cm.Start(root));
    pairs_.assign(kDesigners, Pair());
    Rng rng(flags_.seed ^ 0xc0000ULL);
    for (size_t d = 0; d < kDesigners; ++d) {
      Pair& pair = pairs_[d];
      for (int role = 0; role < 2; ++role) {
        cooperation::DaDescription desc;
        desc.dot = plane_->cell_dot();
        desc.designer = DesignerId(2 + 2 * d + role);
        desc.workstation = stations_[d]->node;
        CONCORD_ASSIGN_OR_RETURN(DaId da, cm.CreateSubDa(root, desc));
        CONCORD_RETURN_NOT_OK(cm.Start(da));
        CONCORD_RETURN_NOT_OK(
            plane_->placement().Assign(da, plane_->shard(role).node));
        (role == 0 ? pair.producer : pair.consumer) = da;
      }
      CONCORD_RETURN_NOT_OK(cm.Require(pair.consumer, pair.producer, {}));
      // Two propagated versions, so the first consumer DOP has its two
      // inputs.
      for (int k = 0; k < 2; ++k) {
        txn::ClientTm& client = *stations_[d]->tm;
        CONCORD_ASSIGN_OR_RETURN(DopId dop, client.BeginDop(pair.producer));
        std::vector<DovId> preds;
        if (pair.latest.valid()) {
          CONCORD_RETURN_NOT_OK(client.Checkout(dop, pair.latest));
          preds.push_back(pair.latest);
        }
        int64_t value = rng.Uniform(0, kMaxValue);
        CONCORD_ASSIGN_OR_RETURN(
            DovId dov, client.CheckinCommit(dop, PlaneObject(plane_->cell_dot(), value),
                                            preds));
        CONCORD_RETURN_NOT_OK(cm.Propagate(pair.producer, dov));
        pair.latest = dov;
        pair.values[dov.value()] = value;
        pair.acked.push_back({dov, value, pair.producer});
        pair.propagated.push_back(dov);
      }
    }
    return Status::OK();
  }

  void Teardown() override {
    stations_.clear();
    plane_.reset();
  }

  void Cycle(Designer& d) override {
    txn::ClientTm& client = *stations_[d.index()]->tm;
    Pair& pair = pairs_[d.index()];
    auto& cm = plane_->cm();

    // Producer DOP: derive the next version from the latest, propagate.
    d.StartDop();
    auto dop = d.Op(OpKind::kBegin, [&] { return client.BeginDop(pair.producer); });
    if (!dop.ok()) return d.EndDop(false);
    Status out = d.Op(OpKind::kCheckout, [&] { return client.Checkout(*dop, pair.latest); });
    if (!out.ok()) return Abandon(d, client, *dop);
    ExpectInput(d.checks(), client, *dop, pair.latest, pair.values[pair.latest.value()]);
    int64_t value = d.rng().Uniform(0, kMaxValue);
    auto dov = d.Op(OpKind::kCheckinCommit, [&] {
      return client.CheckinCommit(*dop, PlaneObject(plane_->cell_dot(), value),
                                  {pair.latest});
    });
    if (!dov.ok()) return Abandon(d, client, *dop);
    d.EndDop(true);
    pair.latest = *dov;
    pair.values[dov->value()] = value;
    pair.acked.push_back({*dov, value, pair.producer});
    if (!d.Op(OpKind::kPropagate, [&] { return cm.Propagate(pair.producer, *dov); }).ok()) {
      return;
    }
    pair.propagated.push_back(*dov);

    // Consumer DOP: the newest propagated version plus one older one
    // (on the producer's shard), checked in on the consumer's shard — a
    // cross-shard commit.
    DovId newest = pair.propagated.back();
    DovId older = pair.propagated[d.rng().Index(pair.propagated.size() - 1)];
    d.StartDop();
    auto use = d.Op(OpKind::kBegin, [&] { return client.BeginDop(pair.consumer); });
    if (!use.ok()) return d.EndDop(false);
    for (DovId input : {newest, older}) {
      Status read = d.Op(OpKind::kCheckout, [&] { return client.Checkout(*use, input); });
      if (!read.ok()) return Abandon(d, client, *use);
      ExpectInput(d.checks(), client, *use, input, pair.values[input.value()]);
    }
    int64_t derived_value = d.rng().Uniform(0, kMaxValue);
    auto derived = d.Op(OpKind::kCheckinCommit, [&] {
      return client.CheckinCommit(*use, PlaneObject(plane_->cell_dot(), derived_value),
                                  {newest, older});
    });
    if (!derived.ok()) return Abandon(d, client, *use);
    d.EndDop(true);
    pair.acked.push_back({*derived, derived_value, pair.consumer});

    // Retire one propagated version other than the newest.
    if (pair.propagated.size() <= kLivePropagations) return;
    size_t index = d.rng().Index(pair.propagated.size() - 1);
    DovId retired = pair.propagated[index];
    pair.propagated.erase(pair.propagated.begin() + static_cast<long>(index));
    Status retire = d.rng().Chance(0.5)
                        ? d.Op(OpKind::kWithdraw, [&] {
                            return cm.WithdrawPropagation(pair.producer, retired);
                          })
                        : d.Op(OpKind::kInvalidateReplace, [&] {
                            return cm.InvalidateAndReplace(pair.producer, retired,
                                                           newest);
                          });
    if (!retire.ok()) return;
    pair.retired.push_back(retired);
    d.checks().Expect(!AnyCacheContains(retired),
                      "a workstation cache still holds retired DOV", retired.value());
  }

  Counters Snapshot() override {
    Counters c;
    c.envelopes = static_cast<double>(namespaces_.envelopes.load());
    for (const auto& station : stations_) AddClientTm(*station->tm, &c);
    for (size_t s = 0; s < plane_->node_count(); ++s) {
      AddServerTm(*plane_->shard(s).tm, &c);
    }
    c.bus_deliveries = static_cast<double>(plane_->bus().stats().deliveries);
    c.sim_messages = static_cast<double>(plane_->network().stats().messages_sent);
    return c;
  }

  void Verify(Checks& checks) override {
    checks.Expect(namespaces_.foreign_txn_ids.load() == 0,
                  "envelopes whose TxnId is outside the sender's namespace:",
                  namespaces_.foreign_txn_ids.load());
    for (size_t a = 0; a < plane_->workstation_count(); ++a) {
      for (size_t b = a + 1; b < plane_->workstation_count(); ++b) {
        checks.Expect(plane_->workstation(a).node != plane_->workstation(b).node,
                      "two workstations share NodeId",
                      plane_->workstation(a).node.value());
      }
    }
    // Cache coherence first: the read-back below re-arms the verifier's
    // cache with versions the producer still owns.
    for (const Pair& pair : pairs_) {
      for (DovId retired : pair.retired) {
        checks.Expect(!AnyCacheContains(retired),
                      "a workstation cache still holds retired DOV", retired.value());
      }
    }
    std::vector<Acked> all;
    for (const Pair& pair : pairs_) {
      all.insert(all.end(), pair.acked.begin(), pair.acked.end());
    }
    std::vector<txn::ClientTm*> verifiers;
    for (size_t v = 0; v < kVerifiers; ++v) {
      verifiers.push_back(plane_->workstation(kDesigners + v).client.get());
    }
    ReadBack(verifiers, all, checks);
  }

  size_t server_workers() const override { return 0; }
  std::string data_dir() const override {
    return (fs::path(flags_.out) / "data" / "coop_sim").string();
  }

 private:
  struct Station {
    SimClock clock;
    NodeId node;
    std::vector<std::unique_ptr<SimService>> services;
    std::unique_ptr<txn::ClientTm> tm;
  };
  struct Pair {
    DaId producer;
    DaId consumer;
    DovId latest;
    std::map<uint64_t, int64_t> values;
    std::vector<DovId> propagated;
    std::vector<DovId> retired;
    std::vector<Acked> acked;
  };

  bool AnyCacheContains(DovId dov) const {
    for (const auto& station : stations_) {
      if (station->tm->cache().Contains(dov)) return true;
    }
    for (size_t w = 0; w < plane_->workstation_count(); ++w) {
      if (plane_->workstation(w).client->cache().Contains(dov)) return true;
    }
    return false;
  }

  static void Abandon(Designer& d, txn::ClientTm& client, DopId dop) {
    client.AbortDop(dop).ok();
    d.EndDop(false);
  }

  const Flags flags_;
  NamespaceCheck namespaces_;
  std::unique_ptr<sim::ScalePlane> plane_;
  /// Declared after the plane: destroyed first (they subscribe to its
  /// bus and route through its stubs).
  std::vector<std::unique_ptr<Station>> stations_;
  std::vector<Pair> pairs_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const Flags& flags, ServerSpanSink* sink) {
  if (flags.workload == "commit_uds") return std::make_unique<CommitUds>(flags, sink);
  if (flags.workload == "read_uds") return std::make_unique<ReadUds>(flags, sink);
  if (flags.workload == "cross_uds") return std::make_unique<CrossUds>(flags, sink);
  if (flags.workload == "coop_sim") return std::make_unique<CoopSim>(flags, sink);
  return nullptr;
}

}  // namespace concord::bench_e2e
