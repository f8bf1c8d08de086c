#ifndef CONCORD_NET_RPC_SERVER_H_
#define CONCORD_NET_RPC_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/sync.h"
#include "net/address.h"
#include "net/connection.h"
#include "net/event_loop.h"
#include "rpc/dedup_cache.h"

namespace concord::net {

struct RpcServerStats {
  uint64_t requests_received = 0;
  uint64_t requests_executed = 0;
  uint64_t dedup_hits = 0;
  uint64_t duplicate_in_flight = 0;
  uint64_t protocol_errors = 0;
};

/// Socket-facing RPC server: accepts framed connections on one listen
/// address, decodes request envelopes, and executes registered method
/// handlers with at-most-once semantics per (client_id, call_id).
///
/// Threading: one event-loop thread accepts, reads, decodes,
/// deduplicates and queues requests; it never runs a handler, because
/// handlers run full transaction batches and may block on fsync. A
/// small worker pool executes them, and the worker that ran a handler
/// completes the call itself: it records the reply in the shared
/// DedupCache, then writes it to every connection waiting on the call
/// (FramedConnection::SendFrame; a partial write is left to the loop's
/// POLLOUT path). A retry arriving while the original execution is
/// still running attaches to that execution instead of re-executing.
///
/// At-most-once holds per server incarnation: the dedup table is in
/// memory, so a kill -9 erases it and a retried call from before the
/// crash may re-execute. The transaction layer is what makes that safe
/// (idempotent Decide, WAL-recovered prepared state); see
/// docs/TRANSPORT.md.
class RpcServer {
 public:
  using Handler = std::function<Result<std::string>(const std::string&)>;

  struct Options {
    int worker_threads = 2;
    /// Per-client cached-reply bound (rpc::DedupCache).
    size_t dedup_capacity_per_peer = 1024;
  };

  explicit RpcServer(Address address)
      : RpcServer(std::move(address), Options()) {}
  RpcServer(Address address, Options options);
  ~RpcServer();
  RpcServer(const RpcServer&) = delete;
  RpcServer& operator=(const RpcServer&) = delete;

  /// Register before Start(); the method table is immutable afterwards.
  void RegisterMethod(std::string method, Handler handler);

  /// Binds, listens, and spins up the loop + worker threads.
  Status Start();

  /// Graceful: sends kGoodbye on every open connection, stops
  /// accepting, drains workers, joins all threads. Idempotent.
  void Shutdown();

  /// Valid after Start(); ephemeral TCP ports are resolved here.
  const Address& bound_address() const { return bound_; }

  RpcServerStats stats() const;
  const rpc::DedupCache& dedup() const { return dedup_; }

 private:
  struct WorkItem {
    uint64_t client_id = 0;
    uint64_t call_id = 0;
    std::string method;
    std::string payload;
  };
  using CallKey = std::pair<uint64_t, uint64_t>;  // (client, call)

  // Loop-thread-only.
  void AcceptPending();
  void OnFrame(uint64_t conn_id, Frame frame);
  void DropConnection(uint64_t conn_id);

  void WorkerMain();
  /// Worker: records the reply, then writes it to every waiter.
  void CompleteCall(uint64_t client_id, uint64_t call_id,
                    const Status& status, const std::string& payload)
      EXCLUDES(in_flight_mu_);

  const Address address_;
  const Options options_;
  Address bound_;
  int listen_fd_ = -1;
  bool started_ = false;
  bool shut_down_ = false;

  EventLoop loop_;
  std::thread loop_thread_;
  std::vector<std::thread> workers_;

  // Owned by the loop thread after Start().
  uint64_t next_conn_id_ = 1;
  std::unordered_map<uint64_t, std::shared_ptr<FramedConnection>> conns_;
  std::unordered_map<std::string, Handler> methods_;

  /// Leaf: never held while sending or taking another lock.
  Mutex in_flight_mu_;
  /// Running executions → the connections waiting on each. Holding the
  /// connection itself lets a worker reply without a lookup; a waiter
  /// that has since closed makes SendFrame a no-op.
  std::map<CallKey, std::vector<std::shared_ptr<FramedConnection>>>
      in_flight_ GUARDED_BY(in_flight_mu_);

  rpc::DedupCache dedup_;

  Mutex queue_mu_;
  CondVar queue_cv_;
  std::deque<WorkItem> queue_ GUARDED_BY(queue_mu_);
  bool stopping_ GUARDED_BY(queue_mu_) = false;

  std::atomic<uint64_t> requests_received_{0};
  std::atomic<uint64_t> requests_executed_{0};
  std::atomic<uint64_t> duplicate_in_flight_{0};
  std::atomic<uint64_t> protocol_errors_{0};
};

}  // namespace concord::net

#endif  // CONCORD_NET_RPC_SERVER_H_
