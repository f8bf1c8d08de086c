#ifndef CONCORD_BENCH_E2E_PROBES_H_
#define CONCORD_BENCH_E2E_PROBES_H_

// The bench's timed seams into the system. Every per-layer number is
// taken here, from outside: the workstation-side ServerService the
// bench installs under each ClientTm (encode / Call / decode, the three
// steps net::NetServerService performs), and the server-side RPC
// handler the bench registers on each in-process RpcServer (decode /
// DispatchBatch / encode, the wiring of tools/concordd.cc). No src/
// code is instrumented.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "bench/e2e/e2e_trace.h"
#include "common/ids.h"
#include "common/result.h"
#include "common/sync.h"
#include "net/rpc_client.h"
#include "txn/server_service.h"

namespace concord::bench_e2e {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The measured window is cut into one-second slices: throughput is the
/// median of the per-slice rates, and the traced run alternates
/// untraced and traced slices.
inline constexpr int64_t kSliceNs = 1'000'000'000;

// --- Trace schedule ---------------------------------------------------------

/// When the traced run traces. The measured window's slices alternate
/// untraced / traced, so the tracing overhead is measured in the same
/// run against interleaved untraced slices (drift cancels). The server
/// side keeps recording for `grace_ns` past each traced slice so a DOP
/// that began traced finds every envelope recorded; a traced DOP still
/// running after the grace is left out of the aggregates.
struct TraceSchedule {
  bool enabled = false;
  int64_t window_start_ns = 0;
  int64_t window_end_ns = 0;
  int64_t slice_ns = kSliceNs;
  int64_t grace_ns = 50'000'000;

  int64_t SliceIndex(int64_t t) const {
    return (t - window_start_ns) / slice_ns;
  }
  /// A DOP (or coop op) starting at `t` is traced.
  bool ClientTraced(int64_t t) const {
    return enabled && t >= window_start_ns && t < window_end_ns &&
           SliceIndex(t) % 2 == 1;
  }
  /// A server handler entered at `t` records its spans.
  bool ServerTraced(int64_t t) const {
    if (!enabled || t < window_start_ns || t >= window_end_ns + grace_ns) {
      return false;
    }
    int64_t k = SliceIndex(t);
    if (k % 2 == 1) return true;
    return k > 0 && (t - window_start_ns) % slice_ns < grace_ns;
  }
  /// Latest end for a traced DOP that started at `t` to be aggregated.
  int64_t TracedDeadline(int64_t t) const {
    return window_start_ns + (SliceIndex(t) + 1) * slice_ns + grace_ns;
  }
};

// --- Records ----------------------------------------------------------------

/// Designer-visible operations (root spans of the trace).
enum class OpKind : uint8_t {
  kBegin,
  kCheckout,
  kCheckinCommit,
  kCommitDop,
  kPropagate,
  kWithdraw,
  kInvalidateReplace,
};
inline constexpr size_t kOpKinds = 7;
inline constexpr const char* kOpKindNames[kOpKinds] = {
    "begin",   "checkout", "checkin_commit",    "commit_dop",
    "propagate", "withdraw", "invalidate_replace"};

inline bool IsCoopOp(OpKind kind) { return kind >= OpKind::kPropagate; }

/// Server envelope shapes, classified from the decoded BatchRequest.
enum class EnvelopeKind : uint8_t {
  kBegin,          // [Prepare, BeginDop, Decide]
  kCheckout,       // single-node envelope carrying a checkout
  kCheckinCommit,  // single-node envelope carrying a checkin
  kCommitDop,      // single-node End-of-DOP without a checkin
  kPhase1,         // [Prepare, ops...] of a multi-participant 2PC
  kDecide,         // [Decide] of a multi-participant 2PC
  kOther,
};
inline constexpr size_t kEnvelopeKinds = 7;
inline constexpr const char* kEnvelopeKindNames[kEnvelopeKinds] = {
    "begin", "checkout", "checkin_commit", "commit_dop",
    "phase1", "decide", "other"};

/// The key both ends can compute for an envelope (see EnvelopeKey).
inline EnvelopeKey KeyOf(const txn::BatchRequest& batch, uint32_t shard) {
  EnvelopeKey key;
  key.shard = shard;
  key.decide_only = 1;
  for (const txn::ServerRequest& op : batch.ops) {
    if (const auto* prepare = std::get_if<txn::PrepareRequest>(&op)) {
      key.txn = prepare->txn.value();
      key.decide_only = 0;
      break;
    }
    if (const auto* decide = std::get_if<txn::DecideRequest>(&op)) {
      key.txn = decide->txn.value();
    }
  }
  return key;
}

inline EnvelopeKind KindOf(const txn::BatchRequest& batch) {
  bool prepare = false, decide = false, begin = false, checkout = false,
       checkin = false, finish = false;
  for (const txn::ServerRequest& op : batch.ops) {
    prepare |= std::holds_alternative<txn::PrepareRequest>(op);
    decide |= std::holds_alternative<txn::DecideRequest>(op);
    begin |= std::holds_alternative<txn::BeginDopRequest>(op);
    checkout |= std::holds_alternative<txn::CheckoutRequest>(op);
    checkin |= std::holds_alternative<txn::CheckinRequest>(op);
    finish |= std::holds_alternative<txn::CommitDopRequest>(op) ||
              std::holds_alternative<txn::AbortDopRequest>(op);
  }
  if (prepare && !decide) return EnvelopeKind::kPhase1;
  if (decide && !prepare) return EnvelopeKind::kDecide;
  if (checkin) return EnvelopeKind::kCheckinCommit;
  if (checkout) return EnvelopeKind::kCheckout;
  if (finish) return EnvelopeKind::kCommitDop;
  if (begin) return EnvelopeKind::kBegin;
  return EnvelopeKind::kOther;
}

/// One envelope as the workstation saw it. Socket envelopes split into
/// encode [enter, encoded], Call [encoded, called], decode [called,
/// decoded]; a simulated-transport envelope has only the stub call
/// [enter, called] (encoded == enter, decoded == called).
struct ClientEnvelope {
  EnvelopeKey key;
  bool simulated = false;
  int64_t enter = 0;
  int64_t encoded = 0;
  int64_t called = 0;
  int64_t decoded = 0;
  int64_t exit = 0;
  uint32_t request_bytes = 0;
  uint32_t reply_bytes = 0;
};

/// One designer operation (root span); its envelopes are
/// envelopes[first_envelope, first_envelope + envelope_count). A trace
/// unit is one DOP (all its operations) or one cooperation op.
struct OpSpan {
  OpKind kind = OpKind::kBegin;
  uint64_t unit_seq = 0;
  int64_t unit_start = 0;
  int64_t start = 0;
  int64_t end = 0;
  uint32_t first_envelope = 0;
  uint32_t envelope_count = 0;
};

/// Per-designer-thread trace buffers. `active` is true while the
/// current DOP (or coop op) is traced; the client seams record only
/// then.
struct DesignerTrace {
  bool active = false;
  std::vector<OpSpan> ops;
  std::vector<ClientEnvelope> envelopes;
};

/// The trace buffer of the designer running on this thread (null on
/// every other thread).
inline thread_local DesignerTrace* t_designer_trace = nullptr;

/// One envelope as the server handler saw it: decode [t0, t1],
/// DispatchBatch [t1, t2], encode [t2, t3].
struct ServerRecord {
  EnvelopeKey key;
  EnvelopeKind kind = EnvelopeKind::kOther;
  uint32_t thread = 0;
  int64_t t0 = 0;
  int64_t t1 = 0;
  int64_t t2 = 0;
  int64_t t3 = 0;
};

/// Server-side span sink: one preallocated buffer per handler thread,
/// registered on the thread's first record. Collect() only at
/// quiescence (servers stopped or idle). One sink per process: the
/// thread-local registration is shared by all instances.
class ServerSpanSink {
 public:
  ServerSpanSink() = default;
  ServerSpanSink(const ServerSpanSink&) = delete;
  ServerSpanSink& operator=(const ServerSpanSink&) = delete;

  /// Installs the schedule once the window is known (after set-up, with
  /// the servers already running but idle); handlers record nothing
  /// before.
  void Arm(TraceSchedule schedule) {
    schedule_ = schedule;
    armed_.store(true, std::memory_order_release);
  }
  bool Traced(int64_t t) const {
    return armed_.load(std::memory_order_acquire) && schedule_.ServerTraced(t);
  }

  void Record(ServerRecord record) {
    thread_local std::vector<ServerRecord>* buffer = nullptr;
    thread_local uint32_t slot = 0;
    if (buffer == nullptr) {
      MutexLock lock(&mu_);
      buffers_.push_back(std::make_unique<std::vector<ServerRecord>>());
      buffers_.back()->reserve(1 << 16);
      buffer = buffers_.back().get();
      slot = static_cast<uint32_t>(buffers_.size() - 1);
    }
    record.thread = slot;
    buffer->push_back(record);
  }

  std::vector<ServerRecord> Collect() const {
    MutexLock lock(&mu_);
    std::vector<ServerRecord> all;
    for (const auto& buffer : buffers_) {
      all.insert(all.end(), buffer->begin(), buffer->end());
    }
    return all;
  }

 private:
  TraceSchedule schedule_;
  std::atomic<bool> armed_{false};
  mutable Mutex mu_;
  std::vector<std::unique_ptr<std::vector<ServerRecord>>> buffers_
      GUARDED_BY(mu_);
};

/// Counts envelopes whose TxnId does not carry the sending workstation's
/// NodeId in its top 32 bits — ClientTm namespaces DOP and Txn ids as
/// (node << 32) | counter, so two workstations sharing a NodeId would
/// collide at the server (see README, "Workstation NodeIds").
struct NamespaceCheck {
  std::atomic<uint64_t> envelopes{0};
  std::atomic<uint64_t> foreign_txn_ids{0};

  void Note(const EnvelopeKey& key, NodeId node) {
    envelopes.fetch_add(1, std::memory_order_relaxed);
    if ((key.txn >> 32) != node.value()) {
      foreign_txn_ids.fetch_add(1, std::memory_order_relaxed);
    }
  }
};

// --- Workstation seams ------------------------------------------------------

/// txn::ServerService over an RpcChannel: NetServerService's three
/// steps (encode, Call, decode) with a timestamp between each.
class SocketService : public txn::ServerService {
 public:
  SocketService(NodeId server_node, uint32_t shard, NodeId workstation,
                std::unique_ptr<net::RpcChannel> channel,
                NamespaceCheck* namespaces)
      : server_node_(server_node),
        shard_(shard),
        workstation_(workstation),
        channel_(std::move(channel)),
        namespaces_(namespaces) {}

  NodeId server_node() const override { return server_node_; }
  net::RpcChannel& channel() { return *channel_; }

  Result<txn::BatchReply> Execute(const txn::BatchRequest& batch) override {
    EnvelopeKey key = KeyOf(batch, shard_);
    namespaces_->Note(key, workstation_);
    DesignerTrace* trace = t_designer_trace;
    bool traced = trace != nullptr && trace->active;
    ClientEnvelope env;
    if (traced) env.enter = NowNs();
    std::string request = txn::EncodeBatchRequest(batch);
    if (traced) env.encoded = NowNs();
    auto reply = channel_->Call(txn::kServerServiceMethod, request);
    if (traced) env.called = NowNs();
    if (!reply.ok()) return reply.status();
    auto decoded = txn::DecodeBatchReply(*reply);
    if (traced) {
      env.decoded = NowNs();
      env.key = key;
      env.request_bytes = static_cast<uint32_t>(request.size());
      env.reply_bytes = static_cast<uint32_t>(reply->size());
      env.exit = NowNs();
      trace->envelopes.push_back(env);
    }
    return decoded;
  }

 private:
  const NodeId server_node_;
  const uint32_t shard_;
  const NodeId workstation_;
  std::unique_ptr<net::RpcChannel> channel_;
  NamespaceCheck* namespaces_;
};

/// Wraps a simulated-transport ServerService (RemoteServerStub): the
/// stub's encode + simulated LAN + dispatch + decode is one call here.
class SimService : public txn::ServerService {
 public:
  SimService(txn::ServerService* inner, uint32_t shard, NodeId workstation,
             NamespaceCheck* namespaces)
      : inner_(inner),
        shard_(shard),
        workstation_(workstation),
        namespaces_(namespaces) {}

  NodeId server_node() const override { return inner_->server_node(); }

  Result<txn::BatchReply> Execute(const txn::BatchRequest& batch) override {
    EnvelopeKey key = KeyOf(batch, shard_);
    namespaces_->Note(key, workstation_);
    DesignerTrace* trace = t_designer_trace;
    if (trace == nullptr || !trace->active) return inner_->Execute(batch);
    ClientEnvelope env;
    env.simulated = true;
    env.key = key;
    env.enter = env.encoded = NowNs();
    auto reply = inner_->Execute(batch);
    env.called = env.decoded = NowNs();
    env.exit = NowNs();
    trace->envelopes.push_back(env);
    return reply;
  }

 private:
  txn::ServerService* inner_;
  const uint32_t shard_;
  const NodeId workstation_;
  NamespaceCheck* namespaces_;
};

// --- Server seam ------------------------------------------------------------

/// The RpcServer handler of tools/concordd.cc (DecodeBatchRequest ->
/// DispatchBatch -> EncodeBatchReply), timed when `sink` is set and
/// its schedule says the handler entry falls in a traced slice.
inline auto MakeServerHandler(txn::ServerTm* tm, uint32_t shard,
                              ServerSpanSink* sink) {
  return [tm, shard, sink](const std::string& payload) -> Result<std::string> {
    int64_t t0 = sink != nullptr ? NowNs() : 0;
    bool traced = sink != nullptr && sink->Traced(t0);
    CONCORD_ASSIGN_OR_RETURN(txn::BatchRequest batch,
                             txn::DecodeBatchRequest(payload));
    int64_t t1 = traced ? NowNs() : 0;
    txn::BatchReply reply = txn::DispatchBatch(*tm, batch);
    int64_t t2 = traced ? NowNs() : 0;
    std::string out = txn::EncodeBatchReply(reply);
    if (traced) {
      ServerRecord record;
      record.key = KeyOf(batch, shard);
      record.kind = KindOf(batch);
      record.t0 = t0;
      record.t1 = t1;
      record.t2 = t2;
      record.t3 = NowNs();
      sink->Record(record);
    }
    return out;
  };
}

}  // namespace concord::bench_e2e

#endif  // CONCORD_BENCH_E2E_PROBES_H_
