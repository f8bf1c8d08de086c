#include "net/rpc_client.h"

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <string_view>
#include <utility>

#include "common/logging.h"
#include "net/wire.h"

namespace concord::net {

namespace {

using Clock = std::chrono::steady_clock;

/// Reconnect backoff: doubles from the first to the last.
constexpr int64_t kBackoffInitialMs = 10;
constexpr int64_t kBackoffMaxMs = 1000;

/// Milliseconds left until `deadline`, rounded up so a sub-millisecond
/// remainder still waits; 0 once it has passed.
int RemainingMs(Clock::time_point deadline) {
  auto left = deadline - Clock::now();
  if (left <= Clock::duration::zero()) return 0;
  auto ms = std::chrono::ceil<std::chrono::milliseconds>(left).count();
  return static_cast<int>(std::min<int64_t>(ms, 1 << 30));
}

/// Writes all of `bytes`, waiting for POLLOUT while the socket buffer is
/// full. False on a socket error or when the deadline passes.
bool WriteAll(int fd, std::string_view bytes, Clock::time_point deadline) {
  while (!bytes.empty()) {
    ssize_t n = ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (n > 0) {
      bytes.remove_prefix(static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      int wait_ms = RemainingMs(deadline);
      if (wait_ms == 0) return false;
      pollfd pfd{fd, POLLOUT, 0};
      ::poll(&pfd, 1, wait_ms);
      continue;
    }
    return false;
  }
  return true;
}

/// Connects within `deadline`: the fd, or the connect error.
Result<int> Connect(const Address& server, Clock::time_point deadline) {
  CONCORD_ASSIGN_OR_RETURN(int fd, StartConnect(server));
  pollfd pfd{fd, POLLOUT, 0};
  int rc = ::poll(&pfd, 1, RemainingMs(deadline));
  Status st = rc > 0 ? FinishConnect(fd)
                     : Status::Unavailable("connect to " + server.ToString() +
                                           " did not complete");
  if (!st.ok()) {
    CloseFd(fd);
    return st;
  }
  return fd;
}

/// Waits for the socket to turn readable, reads once, and decodes
/// complete frames until the reply to `call_id`, which lands in
/// `reply`. Replies to other ids answer earlier, abandoned calls and
/// are dropped. OK when the link is still usable (possibly with no
/// reply yet), else why it broke.
Status ReadReply(int fd, FrameDecoder* decoder, uint64_t call_id,
                 Clock::time_point deadline,
                 std::optional<ReplyEnvelope>* reply) {
  pollfd pfd{fd, POLLIN, 0};
  int rc = ::poll(&pfd, 1, RemainingMs(deadline));
  if (rc <= 0) return Status::OK();  // deadline, or EINTR: caller re-checks
  char buf[16384];
  ssize_t n = ::read(fd, buf, sizeof(buf));
  if (n == 0) return Status::Unavailable("peer closed connection");
  if (n < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
      return Status::OK();
    }
    return Status::Unavailable(std::string("read: ") + std::strerror(errno));
  }
  decoder->Feed(std::string_view(buf, static_cast<size_t>(n)));
  while (!reply->has_value()) {
    auto frame = decoder->Next();
    if (!frame.ok()) {
      if (frame.status().IsUnavailable()) return Status::OK();  // need more
      return frame.status();
    }
    // kGoodbye: the server is going away; the EOF after it breaks the
    // link and the call reconnects.
    if (frame->type == FrameType::kGoodbye) continue;
    if (frame->type != FrameType::kReply) {
      return Status::ProtocolViolation("unexpected frame type");
    }
    auto decoded = DecodeReplyEnvelope(frame->payload);
    if (!decoded.ok()) return decoded.status();
    if (decoded->call_id == call_id) *reply = std::move(*decoded);
  }
  return Status::OK();
}

}  // namespace

RpcChannel::RpcChannel(uint64_t client_id, Address server, Options options)
    : client_id_(client_id),
      server_(std::move(server)),
      options_(options),
      backoff_ms_(kBackoffInitialMs) {}

RpcChannel::~RpcChannel() { Shutdown(); }

void RpcChannel::Shutdown() {
  MutexLock lock(&mu_);
  if (shut_down_) return;
  shut_down_ = true;
  cv_.NotifyAll();  // fails queued callers, ends a backoff wait
  if (fd_ >= 0) {
    // Best effort, and only on an idle socket: a running call may be
    // part-way through writing its frame.
    if (!turn_taken_) {
      std::string goodbye;
      AppendFrame(&goodbye, FrameType::kGoodbye, "bye");
      (void)!::send(fd_, goodbye.data(), goodbye.size(),
                    MSG_NOSIGNAL | MSG_DONTWAIT);
    }
    // Wakes the running call blocked in poll and fails its writes.
    ::shutdown(fd_, SHUT_RDWR);
  }
  idle_cv_.Wait(&mu_, [this]() REQUIRES(mu_) { return active_calls_ == 0; });
  if (fd_ >= 0) {
    CloseFd(fd_);
    fd_ = -1;
  }
}

RpcChannelStats RpcChannel::stats() const {
  RpcChannelStats s;
  s.calls = calls_.load(std::memory_order_relaxed);
  s.retries = retries_.load(std::memory_order_relaxed);
  s.reconnects = reconnects_.load(std::memory_order_relaxed);
  s.timeouts = timeouts_.load(std::memory_order_relaxed);
  s.connect_failures = connect_failures_.load(std::memory_order_relaxed);
  return s;
}

Result<std::string> RpcChannel::Call(const std::string& method,
                                     const std::string& payload) {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(options_.call_timeout_ms);
  MutexLock lock(&mu_);
  if (shut_down_) return Status::Unavailable("rpc channel shut down");
  calls_.fetch_add(1, std::memory_order_relaxed);
  ++active_calls_;
  // Callers take turns; the wait counts against this call's deadline.
  while (turn_taken_ && !shut_down_ && Clock::now() < deadline) {
    cv_.WaitFor(&mu_, std::max(RemainingMs(deadline), 1));
  }
  Result<std::string> result = Status::Unavailable("rpc channel shut down");
  if (!turn_taken_) {
    turn_taken_ = true;
    result = RunTurn(method, payload, deadline);
    turn_taken_ = false;
  } else if (!shut_down_) {
    result = TimedOut();
  }
  // Hands the free turn on; a caller leaving the queue on its deadline
  // also passes on a wake-up it may have taken.
  if (!turn_taken_) cv_.NotifyOne();
  if (--active_calls_ == 0 && shut_down_) idle_cv_.NotifyAll();
  return result;
}

Result<std::string> RpcChannel::RunTurn(const std::string& method,
                                        const std::string& payload,
                                        Clock::time_point deadline) {
  RequestEnvelope request;
  request.client_id = client_id_;
  request.call_id = next_call_id_++;
  // Every earlier call has finished (replied or abandoned), so this
  // call's own id is the lowest the channel may still re-send.
  request.acked_below = request.call_id;
  request.method = method;
  request.payload = payload;
  std::string frame;
  AppendFrame(&frame, FrameType::kRequest, EncodeRequestEnvelope(request));
  bool sent_once = false;  // on any connection
  bool written = false;    // on the current one
  std::optional<ReplyEnvelope> reply;
  while (!shut_down_) {
    if (Clock::now() >= deadline) return TimedOut();
    if (fd_ < 0) {
      Reconnect(deadline);
      written = false;
      continue;
    }
    const int fd = fd_;
    mu_.unlock();
    Status io = Status::OK();
    if (!written) {
      // Re-sending is safe: the server answers an id it already ran
      // from its dedup cache.
      if (sent_once) retries_.fetch_add(1, std::memory_order_relaxed);
      sent_once = true;
      written = WriteAll(fd, frame, deadline);
      // A partly written frame leaves the stream unusable.
      if (!written) io = Status::Unavailable("write failed");
    }
    if (io.ok()) {
      io = ReadReply(fd, &*decoder_, request.call_id, deadline, &reply);
    }
    mu_.lock();
    if (reply.has_value()) {
      if (!reply->status.ok()) return std::move(reply->status);
      return std::move(reply->payload);
    }
    if (!io.ok()) {
      CONCORD_DEBUG("net", "connection to " << server_.ToString()
                                            << " lost: " << io.message());
      BreakLink();
    }
  }
  return Status::Unavailable("rpc channel shut down");
}

void RpcChannel::Reconnect(Clock::time_point deadline) {
  // Shutdown ends this wait through cv_.
  while (!shut_down_ && Clock::now() < std::min(next_connect_, deadline)) {
    cv_.WaitFor(&mu_,
                std::max(RemainingMs(std::min(next_connect_, deadline)), 1));
  }
  if (shut_down_ || Clock::now() >= deadline) return;
  mu_.unlock();
  Result<int> fd = Connect(server_, deadline);
  mu_.lock();
  if (!fd.ok()) {
    connect_failures_.fetch_add(1, std::memory_order_relaxed);
    BreakLink();
    return;
  }
  if (shut_down_) {
    CloseFd(*fd);
    return;
  }
  fd_ = *fd;
  decoder_.emplace();
  backoff_ms_ = kBackoffInitialMs;
  if (connected_once_) reconnects_.fetch_add(1, std::memory_order_relaxed);
  connected_once_ = true;
}

void RpcChannel::BreakLink() {
  if (fd_ >= 0) {
    CloseFd(fd_);
    fd_ = -1;
    decoder_.reset();
  }
  next_connect_ = Clock::now() + std::chrono::milliseconds(backoff_ms_);
  backoff_ms_ = std::min(backoff_ms_ * 2, kBackoffMaxMs);
}

Status RpcChannel::TimedOut() {
  timeouts_.fetch_add(1, std::memory_order_relaxed);
  return Status::Unavailable("rpc call timed out after " +
                             std::to_string(options_.call_timeout_ms) +
                             "ms (in doubt)");
}

}  // namespace concord::net
