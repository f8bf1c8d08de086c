#include "net/connection.h"

#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "net/address.h"

namespace concord::net {

FramedConnection::FramedConnection(int epoll_fd, int fd, uint64_t token)
    : epoll_fd_(epoll_fd), fd_(fd), token_(token) {}

FramedConnection::~FramedConnection() { Close(); }

Status FramedConnection::Start() {
  epoll_event event{};
  event.events = EPOLLIN | EPOLLONESHOT;
  event.data.u64 = token_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd_, &event) != 0) {
    return Status::Internal(std::string("epoll_ctl add: ") +
                            std::strerror(errno));
  }
  return Status::OK();
}

void FramedConnection::Close() {
  MutexLock read_lock(&read_mu_);
  MutexLock lock(&out_mu_);
  if (!open_) return;
  open_ = false;
  outbound_.clear();
  outbound_offset_ = 0;
  // Holding both mutexes: no reader, sender or re-arm can reach the fd.
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd_, nullptr);
  CloseFd(fd_);
}

Result<std::optional<Frame>> FramedConnection::Receive() {
  MutexLock read_lock(&read_mu_);
  {
    MutexLock lock(&out_mu_);
    if (!open_) return std::optional<Frame>();
    CONCORD_RETURN_NOT_OK(FlushLocked());
  }
  CONCORD_RETURN_NOT_OK(ReadAvailable());
  std::optional<Frame> frame;
  if (!frames_.empty()) {
    frame = std::move(frames_.front());
    frames_.pop_front();
  }
  MutexLock lock(&out_mu_);
  ArmLocked(!frames_.empty());
  return frame;
}

Status FramedConnection::ReadAvailable() {
  char buf[16384];
  for (;;) {
    ssize_t n = ::read(fd_, buf, sizeof(buf));
    if (n > 0) {
      decoder_.Feed(std::string_view(buf, static_cast<size_t>(n)));
      // A short read drained the socket; bytes that land later find
      // the re-armed watch.
      if (static_cast<size_t>(n) < sizeof(buf)) break;
      continue;
    }
    if (n == 0) return Status::Unavailable("peer closed connection");
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    return Status::Unavailable(std::string("read: ") + std::strerror(errno));
  }
  for (;;) {
    auto frame = decoder_.Next();
    if (!frame.ok()) {
      if (frame.status().IsUnavailable()) return Status::OK();  // need more
      return frame.status();
    }
    if (frame->type != FrameType::kGoodbye) {
      frames_.push_back(std::move(*frame));
    }
  }
}

void FramedConnection::ArmLocked(bool more_frames) {
  epoll_event event{};
  event.events = EPOLLIN | EPOLLONESHOT;
  if (more_frames || HasPendingOutputLocked()) event.events |= EPOLLOUT;
  event.data.u64 = token_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd_, &event);
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

void FramedConnection::SendFrame(FrameType type, std::string_view payload) {
  MutexLock lock(&out_mu_);
  if (!open_) return;
  // Bytes already queued wait on EPOLLOUT: append behind them, never
  // write past.
  bool idle = !HasPendingOutputLocked();
  AppendFrame(&outbound_, type, payload);
  if (!idle) return;
  // A write error leaves the bytes queued; the worker that takes the
  // EPOLLOUT (or error) event meets it again and reports the
  // connection broken.
  (void)FlushLocked();
  // Re-arming a watch a worker holds only wakes a second worker, which
  // waits on read_mu_; the holder re-arms again when it is done.
  if (HasPendingOutputLocked()) ArmLocked(false);
}

}  // namespace concord::net
