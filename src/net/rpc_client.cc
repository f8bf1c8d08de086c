#include "net/rpc_client.h"

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <string_view>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "net/wire.h"

namespace concord::net {

namespace {

using Clock = std::chrono::steady_clock;

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

/// Waits for the socket to turn readable, reads once, and decodes every
/// complete reply frame into `replies`. OK when the link is still
/// usable (possibly with no reply yet), else why it broke.
Status ReadReplies(int fd, FrameDecoder* decoder, Clock::time_point deadline,
                   std::vector<ReplyEnvelope>* replies) {
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
  for (;;) {
    auto frame = decoder->Next();
    if (!frame.ok()) {
      if (frame.status().IsUnavailable()) return Status::OK();  // need more
      return frame.status();
    }
    // kGoodbye: the server is going away; the EOF after it breaks the
    // link and the repair path reconnects.
    if (frame->type == FrameType::kGoodbye) continue;
    if (frame->type != FrameType::kReply) {
      return Status::ProtocolViolation("unexpected frame type");
    }
    auto reply = DecodeReplyEnvelope(frame->payload);
    if (!reply.ok()) return reply.status();
    replies->push_back(std::move(*reply));
  }
}

}  // namespace

RpcChannel::Link::~Link() { CloseFd(fd); }

RpcChannel::RpcChannel(uint64_t client_id, Address server, Options options)
    : client_id_(client_id),
      server_(std::move(server)),
      options_(options),
      backoff_ms_(options.connect_backoff_initial_ms) {}

RpcChannel::~RpcChannel() { Shutdown(); }

void RpcChannel::Shutdown() {
  std::shared_ptr<Link> link;
  {
    MutexLock lock(&mu_);
    if (shut_down_) return;
    shut_down_ = true;
    link = std::move(link_);
    for (auto& [id, call] : outstanding_) {
      (void)id;
      call->done = true;
      call->status = Status::Unavailable("rpc channel shut down");
      call->cv.NotifyAll();
    }
    outstanding_.clear();
  }
  if (link != nullptr) {
    // Best effort: a writer stuck on a full socket keeps send_mu_, and
    // the shutdown below is what unblocks it.
    if (send_mu_.try_lock()) {
      std::string goodbye;
      AppendFrame(&goodbye, FrameType::kGoodbye, "bye");
      (void)!::send(link->fd, goodbye.data(), goodbye.size(),
                    MSG_NOSIGNAL | MSG_DONTWAIT);
      send_mu_.unlock();
    }
    // Wakes a reader blocked in poll and fails any writer.
    ::shutdown(link->fd, SHUT_RDWR);
  }
  MutexLock lock(&mu_);
  idle_cv_.Wait(&mu_, [this]() REQUIRES(mu_) { return active_calls_ == 0; });
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
  PendingCall call;
  RequestEnvelope request;
  request.client_id = client_id_;
  request.method = method;
  request.payload = payload;
  std::shared_ptr<Link> link;
  {
    MutexLock lock(&mu_);
    if (shut_down_) return Status::Unavailable("rpc channel shut down");
    request.call_id = next_call_id_++;
    // Call ids are monotonic; everything below the lowest id still
    // outstanding is complete (replied or abandoned) and will never be
    // retried by this channel.
    request.acked_below =
        outstanding_.empty() ? request.call_id : outstanding_.begin()->first;
    AppendFrame(&call.frame, FrameType::kRequest,
                EncodeRequestEnvelope(request));
    outstanding_[request.call_id] = &call;
    ++active_calls_;
    link = link_;
  }
  calls_.fetch_add(1, std::memory_order_relaxed);
  // With no link yet, the caller that repairs it sends this frame.
  if (link != nullptr) {
    Send(link, std::span<const std::string>(&call.frame, 1), deadline);
  }

  MutexLock lock(&mu_);
  return Await(request.call_id, &call, deadline);
}

Result<std::string> RpcChannel::Await(uint64_t call_id, PendingCall* call,
                                      Clock::time_point deadline) {
  while (!call->done && Clock::now() < deadline) {
    if (!reader_active_) {
      reader_active_ = true;
      ReadUntilDone(call, deadline);
      reader_active_ = false;
      continue;
    }
    call->cv.WaitFor(&mu_, std::max(RemainingMs(deadline), 1));
  }
  // Abandon on timeout: once erased, this id is never retried, so it
  // drops below acked_below and the server may forget it. A late reply
  // finds no call and is dropped.
  if (!call->done) outstanding_.erase(call_id);
  // The reader role may be free with followers still waiting (this
  // caller just gave it up, or was woken to take it and timed out).
  if (!reader_active_) WakeNextReader();
  if (--active_calls_ == 0 && shut_down_) idle_cv_.NotifyAll();
  if (!call->done) {
    timeouts_.fetch_add(1, std::memory_order_relaxed);
    return Status::Unavailable("rpc call timed out after " +
                               std::to_string(options_.call_timeout_ms) +
                               "ms (in doubt)");
  }
  if (!call->status.ok()) return call->status;
  return std::move(call->reply);
}

void RpcChannel::ReadUntilDone(PendingCall* call,
                               Clock::time_point deadline) {
  std::vector<ReplyEnvelope> replies;
  while (!call->done && !shut_down_ && Clock::now() < deadline) {
    if (link_ == nullptr) {
      Reconnect(call, deadline);
      continue;
    }
    std::shared_ptr<Link> link = link_;
    mu_.unlock();
    Status read = ReadReplies(link->fd, &link->decoder, deadline, &replies);
    mu_.lock();
    for (ReplyEnvelope& reply : replies) {
      auto it = outstanding_.find(reply.call_id);
      if (it == outstanding_.end()) continue;  // abandoned (timed out)
      PendingCall* target = it->second;
      outstanding_.erase(it);
      target->done = true;
      target->status = std::move(reply.status);
      target->reply = std::move(reply.payload);
      // Under mu_: the target's caller may return (destroying the
      // condvar) as soon as it can observe `done`.
      target->cv.NotifyOne();
    }
    replies.clear();
    if (!read.ok()) {
      CONCORD_DEBUG("net", "connection to " << server_.ToString()
                                            << " lost: " << read.message());
      BreakLink(link);
    }
  }
}

void RpcChannel::Reconnect(PendingCall* call, Clock::time_point deadline) {
  while (!shut_down_ && Clock::now() < next_connect_) {
    if (Clock::now() >= deadline) return;
    call->cv.WaitFor(&mu_, std::max(RemainingMs(std::min(next_connect_,
                                                         deadline)),
                                    1));
  }
  if (shut_down_ || Clock::now() >= deadline) return;
  mu_.unlock();
  Result<int> fd = Connect(server_, deadline);
  mu_.lock();
  if (!fd.ok()) {
    connect_failures_.fetch_add(1, std::memory_order_relaxed);
    next_connect_ = Clock::now() + std::chrono::milliseconds(backoff_ms_);
    backoff_ms_ = std::min(backoff_ms_ * 2, options_.connect_backoff_max_ms);
    return;
  }
  if (shut_down_) {
    CloseFd(*fd);
    return;
  }
  auto link = std::make_shared<Link>(*fd);
  link_ = link;
  backoff_ms_ = options_.connect_backoff_initial_ms;
  bool reconnect = connected_once_;
  connected_once_ = true;
  if (reconnect) reconnects_.fetch_add(1, std::memory_order_relaxed);
  // Re-send every unreplied call, lowest id first. The server's dedup
  // table answers the ones it already executed.
  std::vector<std::string> frames;
  for (const auto& [id, pending] : outstanding_) {
    (void)id;
    frames.push_back(pending->frame);
  }
  if (frames.empty()) return;
  mu_.unlock();
  Send(link, frames, deadline);
  mu_.lock();
  if (reconnect) {
    retries_.fetch_add(frames.size(), std::memory_order_relaxed);
  }
}

void RpcChannel::Send(const std::shared_ptr<Link>& link,
                      std::span<const std::string> frames,
                      Clock::time_point deadline) {
  bool ok = true;
  {
    MutexLock lock(&send_mu_);
    for (const std::string& frame : frames) {
      ok = WriteAll(link->fd, frame, deadline);
      if (!ok) break;
    }
  }
  if (!ok) {
    // A partly written frame leaves the stream unusable; the repair
    // path re-sends every unreplied call on a fresh connection.
    MutexLock lock(&mu_);
    BreakLink(link);
  }
}

void RpcChannel::BreakLink(const std::shared_ptr<Link>& link) {
  if (link_ == link) {
    link_.reset();
    next_connect_ = Clock::now() + std::chrono::milliseconds(backoff_ms_);
    backoff_ms_ = std::min(backoff_ms_ * 2, options_.connect_backoff_max_ms);
  }
  ::shutdown(link->fd, SHUT_RDWR);
}

void RpcChannel::WakeNextReader() {
  if (!outstanding_.empty()) outstanding_.begin()->second->cv.NotifyOne();
}

}  // namespace concord::net
