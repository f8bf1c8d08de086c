#ifndef CONCORD_NET_RPC_CLIENT_H_
#define CONCORD_NET_RPC_CLIENT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>

#include "common/result.h"
#include "common/status.h"
#include "common/sync.h"
#include "net/address.h"
#include "net/frame.h"

namespace concord::net {

struct RpcChannelStats {
  uint64_t calls = 0;
  uint64_t retries = 0;     // envelopes re-sent after a reconnect
  uint64_t reconnects = 0;  // successful connects after the first
  uint64_t timeouts = 0;
  uint64_t connect_failures = 0;
};

/// Client end of the socket RPC transport: one channel per server
/// address, carrying synchronous Call()s from any number of threads.
///
/// The channel owns no thread; every socket operation runs on a
/// calling thread. A caller encodes its request frame once and writes
/// it itself under a per-channel send mutex. Replies are read by a
/// Leader/Followers reader role: at most one waiting caller reads the
/// socket, fulfils every reply it decodes (waking that call's
/// caller), and hands the role to another waiter when its own reply
/// arrives or its deadline passes. A lone caller is therefore woken by
/// the socket itself.
///
/// Connection management is automatic and is also done by the reader
/// (or by the first caller on a channel with no connection): the first
/// call connects lazily; a broken connection (peer death, network
/// error, server kGoodbye) is replaced after an exponential backoff
/// (connect_backoff_initial_ms doubling to _max_ms), and every
/// unreplied call is re-sent, lowest id first. Because call ids are
/// monotonic and the server deduplicates on (client_id, call_id),
/// re-sending is safe: a call the server already executed is answered
/// from its dedup cache, not run twice. Each request piggybacks
/// acked_below — the lowest call id this channel may still retry —
/// letting the server prune its cache.
///
/// A Call that outlives its deadline fails with kUnavailable and is
/// never retried again by this channel (its id is then below
/// acked_below); the caller decides what an in-doubt outcome means —
/// exactly the contract ClientTm already implements for the simulated
/// transport.
class RpcChannel {
 public:
  struct Options {
    int64_t call_timeout_ms = 10000;
    int64_t connect_backoff_initial_ms = 10;
    int64_t connect_backoff_max_ms = 1000;
  };

  /// `client_id` must be unique among clients of the target server —
  /// it keys the server's at-most-once table.
  RpcChannel(uint64_t client_id, Address server)
      : RpcChannel(client_id, std::move(server), Options()) {}
  RpcChannel(uint64_t client_id, Address server, Options options);
  ~RpcChannel();
  RpcChannel(const RpcChannel&) = delete;
  RpcChannel& operator=(const RpcChannel&) = delete;

  /// Synchronous call; thread-safe. OK with the reply payload,
  /// the handler's typed error, or kUnavailable on timeout/shutdown.
  Result<std::string> Call(const std::string& method,
                           const std::string& payload);

  /// Fails outstanding calls, closes the connection, and waits until
  /// every caller has left Call. Idempotent; also run by the
  /// destructor.
  void Shutdown();

  RpcChannelStats stats() const;
  uint64_t client_id() const { return client_id_; }

 private:
  using Clock = std::chrono::steady_clock;

  /// One connected socket. Writers and the reader each hold a
  /// reference, so a repair that replaces the link never closes an fd
  /// another thread is still using: the fd closes with the last
  /// reference.
  struct Link {
    explicit Link(int socket_fd) : fd(socket_fd) {}
    ~Link();
    Link(const Link&) = delete;
    Link& operator=(const Link&) = delete;

    const int fd;
    /// Touched only by the thread holding the reader role.
    FrameDecoder decoder;
  };

  /// One in-flight call, on its caller's stack. Every field is guarded
  /// by the channel's mu_, except that the caller may read `frame`,
  /// which is set once before the call is published, without it.
  struct PendingCall {
    std::string frame;  // the encoded request, kept for resends
    bool done = false;
    Status status = Status::OK();
    std::string reply;
    CondVar cv;
  };

  /// Waits for the call's reply, taking the reader role when it is
  /// free. Removes the call from outstanding_ before returning.
  Result<std::string> Await(uint64_t call_id, PendingCall* call,
                            Clock::time_point deadline) REQUIRES(mu_);
  /// Reader role: reads the socket (repairing it when needed) until
  /// `call` is done, the deadline passes, or the channel shuts down.
  void ReadUntilDone(PendingCall* call, Clock::time_point deadline)
      REQUIRES(mu_);
  /// One connection attempt, after waiting out the backoff; on success
  /// installs link_ and re-sends every unreplied call.
  void Reconnect(PendingCall* call, Clock::time_point deadline)
      REQUIRES(mu_);
  /// Retires `link` if it is still current and wakes its reader.
  void BreakLink(const std::shared_ptr<Link>& link) REQUIRES(mu_);
  /// Wakes the lowest waiting call so it can take the free reader role.
  void WakeNextReader() REQUIRES(mu_);
  /// Writes whole frames under send_mu_; breaks the link on failure.
  void Send(const std::shared_ptr<Link>& link,
            std::span<const std::string> frames, Clock::time_point deadline)
      EXCLUDES(mu_, send_mu_);

  const uint64_t client_id_;
  const Address server_;
  const Options options_;

  /// Serializes frame writes, so frames never interleave on the
  /// socket. Never held together with mu_.
  Mutex send_mu_;

  Mutex mu_;
  std::shared_ptr<Link> link_ GUARDED_BY(mu_);
  /// Unreplied calls; ordered, so a resend walks ids low → high.
  std::map<uint64_t, PendingCall*> outstanding_ GUARDED_BY(mu_);
  uint64_t next_call_id_ GUARDED_BY(mu_) = 1;
  bool reader_active_ GUARDED_BY(mu_) = false;
  bool shut_down_ GUARDED_BY(mu_) = false;
  /// Threads inside Call; Shutdown waits on idle_cv_ for zero.
  int active_calls_ GUARDED_BY(mu_) = 0;
  CondVar idle_cv_;
  bool connected_once_ GUARDED_BY(mu_) = false;
  int64_t backoff_ms_ GUARDED_BY(mu_);
  Clock::time_point next_connect_ GUARDED_BY(mu_);

  std::atomic<uint64_t> calls_{0};
  std::atomic<uint64_t> retries_{0};
  std::atomic<uint64_t> reconnects_{0};
  std::atomic<uint64_t> timeouts_{0};
  std::atomic<uint64_t> connect_failures_{0};
};

}  // namespace concord::net

#endif  // CONCORD_NET_RPC_CLIENT_H_
