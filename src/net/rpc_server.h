#ifndef CONCORD_NET_RPC_SERVER_H_
#define CONCORD_NET_RPC_SERVER_H_

#include <atomic>
#include <cstdint>
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
/// Threading: the server runs exactly `worker_threads` threads, and
/// they wait on the server's fds themselves, in one epoll set that
/// holds the listen fd, a shutdown eventfd and every connection (armed
/// EPOLLONESHOT; see FramedConnection). The worker a request wakes
/// reads it, deduplicates it, runs the handler and completes the call:
/// it records the reply in the shared DedupCache, then writes it to
/// every connection waiting on the call. A connection is re-armed as
/// soon as its bytes are read, so its next request wakes another
/// worker while this one runs the handler, and the extra frames of a
/// multi-frame read go to further workers. A retry arriving while the
/// original execution is still running attaches to that execution
/// instead of re-executing.
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
  };

  explicit RpcServer(Address address)
      : RpcServer(std::move(address), Options()) {}
  RpcServer(Address address, Options options);
  ~RpcServer();
  RpcServer(const RpcServer&) = delete;
  RpcServer& operator=(const RpcServer&) = delete;

  /// Register before Start(); the method table is immutable afterwards.
  void RegisterMethod(std::string method, Handler handler);

  /// Binds, listens, and starts the worker threads.
  Status Start();

  /// Graceful: stops accepting, sends kGoodbye on every open
  /// connection, lets each worker finish (and reply to) the call it is
  /// running, joins them, and unlinks a Unix socket path that still
  /// names the socket Start bound. Idempotent.
  void Shutdown();

  /// Valid after Start(); ephemeral TCP ports are resolved here.
  const Address& bound_address() const { return bound_; }

  RpcServerStats stats() const;
  const rpc::DedupCache& dedup() const { return dedup_; }

 private:
  using CallKey = std::pair<uint64_t, uint64_t>;  // (client, call)
  /// epoll tokens; connection tokens count up from 1.
  static constexpr uint64_t kListenToken = 0;
  static constexpr uint64_t kShutdownToken = ~uint64_t{0};

  void WorkerMain();
  void AcceptPending() EXCLUDES(conns_mu_);
  /// Reads the connection behind `token` and runs the request it
  /// yields, if any.
  void ServeConnection(uint64_t token) EXCLUDES(conns_mu_);
  void HandleFrame(uint64_t token,
                   const std::shared_ptr<FramedConnection>& conn,
                   Frame frame) EXCLUDES(conns_mu_, in_flight_mu_);
  void DropConnection(uint64_t token, FramedConnection* conn)
      EXCLUDES(conns_mu_);
  /// Records the reply, then writes it to every waiter.
  void CompleteCall(uint64_t client_id, uint64_t call_id,
                    const Status& status, const std::string& payload)
      EXCLUDES(in_flight_mu_);
  void CloseFds();

  const Address address_;
  const Options options_;
  Address bound_;
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int shutdown_fd_ = -1;
  /// The bound Unix socket's inode, so Shutdown unlinks only its own.
  uint64_t socket_dev_ = 0;
  uint64_t socket_ino_ = 0;
  bool started_ = false;
  bool shut_down_ = false;

  std::unordered_map<std::string, Handler> methods_;

  /// Held to look up, add or remove a connection; taken before a
  /// connection's own mutexes, never while holding one.
  Mutex conns_mu_;
  uint64_t next_token_ GUARDED_BY(conns_mu_) = 1;
  bool accepting_ GUARDED_BY(conns_mu_) = true;
  std::unordered_map<uint64_t, std::shared_ptr<FramedConnection>> conns_
      GUARDED_BY(conns_mu_);

  /// Leaf: never held while sending or taking another lock.
  Mutex in_flight_mu_;
  /// Running executions → the connections waiting on each. Holding the
  /// connection itself lets a worker reply without a lookup; a waiter
  /// that has since closed makes SendFrame a no-op.
  std::map<CallKey, std::vector<std::shared_ptr<FramedConnection>>>
      in_flight_ GUARDED_BY(in_flight_mu_);

  rpc::DedupCache dedup_;

  std::atomic<uint64_t> requests_received_{0};
  std::atomic<uint64_t> requests_executed_{0};
  std::atomic<uint64_t> duplicate_in_flight_{0};
  std::atomic<uint64_t> protocol_errors_{0};

  std::vector<std::thread> workers_;
};

}  // namespace concord::net

#endif  // CONCORD_NET_RPC_SERVER_H_
