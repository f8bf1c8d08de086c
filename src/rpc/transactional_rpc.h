#ifndef CONCORD_RPC_TRANSACTIONAL_RPC_H_
#define CONCORD_RPC_TRANSACTIONAL_RPC_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>

#include "common/ids.h"
#include "common/result.h"
#include "common/status.h"
#include "common/sync.h"
#include "rpc/dedup_cache.h"
#include "rpc/network.h"

namespace concord::rpc {

/// Counters for the reliable channel. Fields are atomic
/// (ServerTmStats-style) so concurrent designer threads can bump them
/// without serializing on the dedup-table mutex; read them at
/// quiescence (or accept slightly stale values).
struct RpcStats {
  std::atomic<uint64_t> calls{0};
  std::atomic<uint64_t> retries{0};
  std::atomic<uint64_t> failures{0};
  std::atomic<uint64_t> duplicate_suppressed{0};
};

/// The transport seam every client-side stub sits on: one call to a
/// bound endpoint, `method` run there on `request`, its reply or the
/// transport's error returned. TransactionalRpc::Bind makes one for the
/// simulated LAN; a socket client binds RpcChannel::Call the same way.
using CallFn = std::function<Result<std::string>(const std::string& method,
                                                 const std::string& request)>;

/// Reliable request/response on top of the lossy Network. The paper
/// assumes "reliable communication protocols (transactional RPC, ...)
/// which insulate the cooperation protocols from network failures and
/// workstation crashes" (Sect. 5.4). We realize this with
/// at-most-once execution: each logical call carries a fresh call id;
/// retries reuse the id, and the callee-side dedup table suppresses
/// re-execution while still re-sending the reply.
///
/// Handlers are registered per (node, method) pair; a call fails with
/// kUnavailable only if the destination stays unreachable for all
/// retry attempts — which is exactly the "workstation crash" case the
/// CM handles at a higher level.
///
/// Thread-safe: one channel serves every workstation's client-TM, so
/// concurrent designer threads call it at once. The handler and dedup
/// tables sit behind mu_ (held only for the point lookups/inserts,
/// never across a handler execution or a network hop — handlers run
/// concurrently and synchronize themselves), and the stats are atomic.
class TransactionalRpc {
 public:
  /// A handler consumes a request payload and produces a reply payload.
  using Handler = std::function<Result<std::string>(const std::string&)>;

  /// The callee-side at-most-once table (rpc::DedupCache) pins the
  /// entries of live retry loops, so its bound only backstops leaks,
  /// never weakens at-most-once for a call that may still be retried.
  explicit TransactionalRpc(Network* network) : network_(network) {}
  TransactionalRpc(const TransactionalRpc&) = delete;
  TransactionalRpc& operator=(const TransactionalRpc&) = delete;

  void RegisterHandler(NodeId node, const std::string& method,
                       Handler handler);

  /// Executes `method` on `to`, retrying over message loss. Exactly-
  /// once effect on the callee per call id.
  Result<std::string> Call(NodeId from, NodeId to, const std::string& method,
                           const std::string& request);

  /// `Call(from, to, ...)` with both ends fixed: the seam a stub or a
  /// placement client on `from` uses to reach `to`.
  CallFn Bind(NodeId from, NodeId to) {
    return [this, from, to](const std::string& method,
                            const std::string& request) {
      return Call(from, to, method, request);
    };
  }

  /// Drops the callee-side dedup state for a node — part of simulating
  /// a crash of that machine (the at-most-once table is volatile
  /// memory on the callee).
  void ClearNodeState(NodeId node);

  const RpcStats& stats() const { return stats_; }
  /// The callee-side at-most-once table (bound/eviction introspection).
  const DedupCache& dedup() const { return dedup_; }
  /// Envelopes addressed to `node` (counted per logical call, like
  /// stats().calls). The sharded server plane reads this for per-node
  /// round-trip accounting.
  uint64_t CallsTo(NodeId node) const;
  void ResetStats();

 private:
  /// Re-sends of one call after a lost message, before it fails.
  static constexpr int kMaxRetries = 5;

  struct HandlerKey {
    NodeId node;
    std::string method;
    bool operator==(const HandlerKey&) const = default;
  };
  struct HandlerKeyHash {
    size_t operator()(const HandlerKey& key) const {
      return std::hash<uint64_t>()(key.node.value()) ^
             (std::hash<std::string>()(key.method) << 1);
    }
  };

  Network* network_;
  IdGenerator<MsgId> call_gen_;
  /// Guards handlers_ and calls_per_node_; leaf mutex, never held
  /// across a handler execution or a Network::Send.
  mutable Mutex mu_;
  std::unordered_map<HandlerKey, Handler, HandlerKeyHash> handlers_
      GUARDED_BY(mu_);
  /// Callee-side at-most-once table, keyed by callee node. Entries are
  /// inserted PINNED and erased on every Call exit path (a returned
  /// Call never re-sends its id), so in steady state the table holds
  /// only in-flight calls; the LRU capacity is a leak backstop. Shared
  /// type with the socket transport (net::RpcServer).
  DedupCache dedup_;
  /// callee node -> logical calls addressed to it (per-node share of
  /// stats_.calls).
  std::unordered_map<NodeId, uint64_t> calls_per_node_ GUARDED_BY(mu_);
  RpcStats stats_;
};

}  // namespace concord::rpc

#endif  // CONCORD_RPC_TRANSACTIONAL_RPC_H_
