#ifndef CONCORD_NET_RPC_CLIENT_H_
#define CONCORD_NET_RPC_CLIENT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
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
/// address, carrying synchronous Call()s — one at a time, the shape of
/// a CONCORD critical interaction.
///
/// The channel owns no thread; every socket operation runs on the
/// calling thread. Concurrent callers take turns: a caller waits for
/// the turn (the wait counts against its deadline), then encodes its
/// request frame, writes it, and reads the socket itself until its own
/// reply arrives. A lone caller is therefore woken by the socket
/// itself.
///
/// Connection management is automatic and also runs inside the call
/// holding the turn: the first call connects lazily; a broken
/// connection (peer death, network error, server kGoodbye) is replaced
/// after an exponential backoff (10 ms doubling to 1 s), and the call
/// re-sends its own frame on the new connection. Because call ids are
/// monotonic and the server deduplicates on (client_id, call_id),
/// re-sending is safe: a call the server already executed is answered
/// from its dedup cache, not run twice. Each request piggybacks
/// acked_below — the lowest call id this channel may still retry, which
/// is the call's own id since every earlier call has finished — letting
/// the server prune its cache.
///
/// A Call that outlives its deadline fails with kUnavailable and is
/// never retried again by this channel (its id is then below
/// acked_below); a late reply to it is read and dropped by a later
/// call. The caller decides what an in-doubt outcome means — exactly
/// the contract ClientTm already implements for the simulated
/// transport.
class RpcChannel {
 public:
  struct Options {
    int64_t call_timeout_ms = 10000;
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

  /// Fails the running call and any queued ones, closes the connection,
  /// and waits until every caller has left Call. Idempotent; also run
  /// by the destructor.
  void Shutdown();

  RpcChannelStats stats() const;
  uint64_t client_id() const { return client_id_; }

 private:
  using Clock = std::chrono::steady_clock;

  /// The call holding the turn: sends its frame (again after every
  /// reconnect) and reads until its reply arrives, the deadline
  /// passes, or the channel shuts down. Drops mu_ around socket I/O.
  Result<std::string> RunTurn(const std::string& method,
                              const std::string& payload,
                              Clock::time_point deadline) REQUIRES(mu_);
  /// One connection attempt, after waiting out the backoff; on success
  /// installs fd_.
  void Reconnect(Clock::time_point deadline) REQUIRES(mu_);
  /// Closes fd_, if open, and starts the next backoff.
  void BreakLink() REQUIRES(mu_);
  /// Counts a timeout and says so, in doubt.
  Status TimedOut();

  const uint64_t client_id_;
  const Address server_;
  const Options options_;

  Mutex mu_;
  /// Signalled when the turn is released and when the channel shuts
  /// down (which also ends the turn holder's backoff wait).
  CondVar cv_;
  bool turn_taken_ GUARDED_BY(mu_) = false;
  /// The connected socket, or -1. Only the turn holder opens or closes
  /// it (Shutdown too, once no call runs), so the holder may use it with
  /// mu_ dropped.
  int fd_ GUARDED_BY(mu_) = -1;
  /// fd_'s reassembler, fresh per connection. Touched only by the turn
  /// holder; bytes of a late reply stay buffered here for the next call
  /// to read and drop.
  std::optional<FrameDecoder> decoder_;
  uint64_t next_call_id_ GUARDED_BY(mu_) = 1;
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
