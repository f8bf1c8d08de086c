#ifndef CONCORD_NET_EVENT_LOOP_H_
#define CONCORD_NET_EVENT_LOOP_H_

#include <cstdint>
#include <functional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/sync.h"

namespace concord::net {

/// A small poll(2)-driven reactor. One thread calls Run(); the fd
/// registrations, and the per-fd read state hung off their callbacks,
/// are touched only from that thread. Other threads reach the loop
/// through Post()/Stop(), which enqueue under a mutex and wake the
/// poller via a self-pipe — and, for the one state that is shared on
/// purpose, through FramedConnection::SendFrame: a server worker
/// writes its reply to the socket itself, under the connection's own
/// outbound-buffer mutex, and posts to the loop only when a partial
/// write leaves bytes for the POLLOUT path.
///
/// Scale note: concordd planes are a handful of peers, not ten
/// thousand; poll over a rebuilt pollfd vector is the right tool, and
/// the interface hides the mechanism if epoll ever becomes worth it.
class EventLoop {
 public:
  /// Bitmask delivered to fd callbacks: POLLIN/POLLOUT/POLLERR/POLLHUP
  /// as defined by <poll.h>.
  using FdCallback = std::function<void(short events)>;

  EventLoop();
  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Runs until Stop(). Tags the caller as the loop thread.
  void Run();

  /// Thread-safe; returns once the stop request is queued (the loop
  /// exits after finishing the current iteration).
  void Stop();

  /// Enqueues `fn` to run on the loop thread; thread-safe, callable
  /// before Run() starts. Tasks run in post order.
  void Post(std::function<void()> fn);

  /// True on the thread currently inside Run().
  bool OnLoopThread() const;

  // -- Loop-thread-only surface (callable before Run() starts too). ---

  /// Watches `fd` for `events` (POLLIN and/or POLLOUT). The callback
  /// also fires for error/hangup conditions regardless of the mask.
  void RegisterFd(int fd, short events, FdCallback cb);
  void UpdateEvents(int fd, short events);
  /// Stops watching `fd`. Safe to call from inside that fd's own
  /// callback; does not close the fd.
  void UnregisterFd(int fd);

 private:
  struct FdEntry {
    short events = 0;
    FdCallback callback;
  };

  void DrainWakePipe();
  void RunPosted();

  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;

  // Loop-thread-only state.
  std::unordered_map<int, FdEntry> fds_;
  std::atomic<std::thread::id> loop_thread_{};

  Mutex mu_;
  std::vector<std::function<void()>> posted_ GUARDED_BY(mu_);
  bool stop_requested_ GUARDED_BY(mu_) = false;
  bool wake_pending_ GUARDED_BY(mu_) = false;
};

}  // namespace concord::net

#endif  // CONCORD_NET_EVENT_LOOP_H_
