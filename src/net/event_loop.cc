#include "net/event_loop.h"

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "common/logging.h"

namespace concord::net {

EventLoop::EventLoop() {
  int fds[2];
  if (::pipe2(fds, O_NONBLOCK | O_CLOEXEC) != 0) {
    // Without the wake pipe, Post/Stop could block a sleeping poller
    // forever; this is an out-of-fds condition, not a recoverable one.
    std::perror("concord::net::EventLoop pipe2");
    std::abort();
  }
  wake_read_fd_ = fds[0];
  wake_write_fd_ = fds[1];
}

EventLoop::~EventLoop() {
  ::close(wake_read_fd_);
  ::close(wake_write_fd_);
}

bool EventLoop::OnLoopThread() const {
  return loop_thread_.load(std::memory_order_acquire) ==
         std::this_thread::get_id();
}

void EventLoop::Post(std::function<void()> fn) {
  bool wake = false;
  {
    MutexLock lock(&mu_);
    posted_.push_back(std::move(fn));
    if (!wake_pending_) {
      wake_pending_ = true;
      wake = true;
    }
  }
  if (wake) {
    char byte = 'w';
    // EAGAIN just means the pipe already holds a wakeup.
    (void)!::write(wake_write_fd_, &byte, 1);
  }
}

void EventLoop::Stop() {
  {
    MutexLock lock(&mu_);
    stop_requested_ = true;
  }
  Post([] {});  // ensure the poller wakes to observe the flag
}

void EventLoop::RegisterFd(int fd, short events, FdCallback cb) {
  fds_[fd] = FdEntry{events, std::move(cb)};
}

void EventLoop::UpdateEvents(int fd, short events) {
  auto it = fds_.find(fd);
  if (it != fds_.end()) it->second.events = events;
}

void EventLoop::UnregisterFd(int fd) { fds_.erase(fd); }

void EventLoop::DrainWakePipe() {
  char sink[64];
  while (::read(wake_read_fd_, sink, sizeof(sink)) > 0) {
  }
  MutexLock lock(&mu_);
  wake_pending_ = false;
}

void EventLoop::RunPosted() {
  std::vector<std::function<void()>> batch;
  {
    MutexLock lock(&mu_);
    batch.swap(posted_);
  }
  for (auto& fn : batch) fn();
}

void EventLoop::Run() {
  loop_thread_.store(std::this_thread::get_id(), std::memory_order_release);
  for (;;) {
    // Posted work runs before the stop check so tasks queued just
    // ahead of Stop() (e.g. goodbye frames) are flushed, not dropped.
    RunPosted();
    {
      MutexLock lock(&mu_);
      if (stop_requested_) break;
    }

    std::vector<pollfd> pfds;
    pfds.reserve(fds_.size() + 1);
    pfds.push_back(pollfd{wake_read_fd_, POLLIN, 0});
    for (const auto& [fd, entry] : fds_) {
      pfds.push_back(pollfd{fd, entry.events, 0});
    }

    int rc = ::poll(pfds.data(), pfds.size(), -1);
    if (rc < 0 && errno != EINTR) {
      CONCORD_ERROR("net", "event loop poll failed: " << std::strerror(errno));
      break;
    }
    if (pfds[0].revents != 0) DrainWakePipe();
    for (size_t i = 1; i < pfds.size(); ++i) {
      if (pfds[i].revents == 0) continue;
      // A callback may unregister any fd (including itself) or tear
      // down a whole connection — re-check registration before firing.
      auto it = fds_.find(pfds[i].fd);
      if (it == fds_.end()) continue;
      FdCallback cb = it->second.callback;
      cb(pfds[i].revents);
    }
  }
  loop_thread_.store(std::thread::id(), std::memory_order_release);
}

}  // namespace concord::net
