#include "net/connection.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "net/address.h"

namespace concord::net {

FramedConnection::FramedConnection(EventLoop* loop, int fd)
    : loop_(loop), fd_(fd) {}

FramedConnection::~FramedConnection() { Close(); }

void FramedConnection::Start() {
  loop_->RegisterFd(fd_, POLLIN, [this](short events) { HandleEvents(events); });
}

bool FramedConnection::closed() const {
  MutexLock lock(&out_mu_);
  return !open_;
}

void FramedConnection::Close() {
  {
    MutexLock lock(&out_mu_);
    if (!open_) return;
    open_ = false;
    outbound_.clear();
    outbound_offset_ = 0;
  }
  // No sender can reach the fd now: every write checks open_ under
  // out_mu_ first.
  loop_->UnregisterFd(fd_);
  CloseFd(fd_);
}

void FramedConnection::Fail(Status reason) {
  if (closed()) return;
  Close();
  if (on_closed_) {
    // The handler may destroy this connection; detach it first and
    // touch nothing afterwards.
    ClosedHandler handler = std::move(on_closed_);
    on_closed_ = nullptr;
    handler(std::move(reason));
  }
}

void FramedConnection::HandleEvents(short events) {
  // Read first even on POLLERR/POLLHUP: the kernel may still hold
  // buffered bytes (including the peer's goodbye frame).
  if (events & (POLLIN | POLLERR | POLLHUP)) {
    HandleReadable();
    if (closed()) return;
  }
  if (events & POLLOUT) {
    HandleWritable();
  }
}

void FramedConnection::HandleReadable() {
  char buf[16384];
  for (;;) {
    ssize_t n = ::read(fd_, buf, sizeof(buf));
    if (n > 0) {
      decoder_.Feed(std::string_view(buf, static_cast<size_t>(n)));
      for (;;) {
        auto frame = decoder_.Next();
        if (!frame.ok()) {
          if (frame.status().IsUnavailable()) break;  // need more bytes
          Fail(frame.status());
          return;
        }
        if (frame->type == FrameType::kGoodbye) {
          peer_said_goodbye_ = true;
        }
        if (on_frame_) on_frame_(std::move(*frame));
        if (closed()) return;  // handler closed us
      }
      continue;
    }
    if (n == 0) {
      Fail(peer_said_goodbye_
               ? Status::OK()
               : Status::Unavailable("peer closed connection"));
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    Fail(Status::Unavailable(std::string("read: ") + std::strerror(errno)));
    return;
  }
}

Status FramedConnection::FlushLocked() {
  Status result = Status::OK();
  while (HasPendingOutputLocked()) {
    ssize_t n = ::send(fd_, outbound_.data() + outbound_offset_,
                       outbound_.size() - outbound_offset_, MSG_NOSIGNAL);
    if (n > 0) {
      outbound_offset_ += static_cast<size_t>(n);
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    result = Status::Unavailable(std::string("write: ") + std::strerror(errno));
    break;
  }
  if (!HasPendingOutputLocked()) {
    outbound_.clear();
    outbound_offset_ = 0;
  } else if (outbound_offset_ > 65536) {
    outbound_.erase(0, outbound_offset_);
    outbound_offset_ = 0;
  }
  return result;
}

void FramedConnection::HandleWritable() {
  Status flushed = Status::OK();
  short events = POLLIN;
  {
    MutexLock lock(&out_mu_);
    if (!open_) return;
    flushed = FlushLocked();
    if (HasPendingOutputLocked()) events |= POLLOUT;
  }
  if (!flushed.ok()) {
    Fail(std::move(flushed));
    return;
  }
  loop_->UpdateEvents(fd_, events);
}

void FramedConnection::SendFrame(FrameType type, std::string_view payload) {
  {
    MutexLock lock(&out_mu_);
    if (!open_) return;
    // Bytes already queued mean the loop is draining them behind
    // POLLOUT (or is about to): append behind them, never write past.
    bool idle = !HasPendingOutputLocked();
    AppendFrame(&outbound_, type, payload);
    if (!idle) return;
    // A write error leaves the bytes queued; the loop's POLLOUT pass
    // meets the same error and fails the connection on its thread.
    (void)FlushLocked();
    if (!HasPendingOutputLocked()) return;
  }
  // Hand the remainder to the loop's POLLOUT path.
  if (loop_->OnLoopThread()) {
    loop_->UpdateEvents(fd_, POLLIN | POLLOUT);
  } else {
    loop_->Post([self = shared_from_this()] { self->HandleWritable(); });
  }
}

}  // namespace concord::net
