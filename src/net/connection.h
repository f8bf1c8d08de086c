#ifndef CONCORD_NET_CONNECTION_H_
#define CONCORD_NET_CONNECTION_H_

#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "common/status.h"
#include "common/sync.h"
#include "net/event_loop.h"
#include "net/frame.h"

namespace concord::net {

/// One established stream socket carrying frames, owned by an
/// EventLoop. The loop thread registers the fd, reassembles inbound
/// frames through a FrameDecoder, and closes the connection. Any thread
/// may SendFrame: the outbound buffer and the open/closed state sit
/// under a leaf mutex, a sender writes to the socket itself only while
/// the buffer is empty, and whatever a partial write leaves behind is
/// drained by the loop behind a POLLOUT watch — so a peer that stops
/// reading costs buffer space, never a blocked sender.
///
/// Lifecycle: the owner constructs with an fd it already owns (accepted
/// or connected) inside a std::shared_ptr (a sender off the loop thread
/// keeps the connection alive until its POLLOUT hand-off has run), then
/// Start() registers with the loop. Close() (or any
/// read/write/framing error → on_closed) unregisters and closes the fd.
/// on_closed is invoked at most once; after it fires the owner is
/// expected to drop the connection (possibly re-entrantly from the
/// callback, which is safe — the connection touches no members after
/// invoking it). SendFrame on a closed connection is a no-op.
class FramedConnection
    : public std::enable_shared_from_this<FramedConnection> {
 public:
  using FrameHandler = std::function<void(Frame frame)>;
  /// `reason` is OK for a clean peer close after kGoodbye, else the
  /// read/write/framing error.
  using ClosedHandler = std::function<void(Status reason)>;

  FramedConnection(EventLoop* loop, int fd);
  ~FramedConnection();
  FramedConnection(const FramedConnection&) = delete;
  FramedConnection& operator=(const FramedConnection&) = delete;

  void set_on_frame(FrameHandler handler) { on_frame_ = std::move(handler); }
  void set_on_closed(ClosedHandler handler) {
    on_closed_ = std::move(handler);
  }

  /// Registers with the event loop. Call after the handlers are set.
  void Start();

  /// Queues one frame for transmission and, when nothing was queued
  /// before it, writes as much as the socket accepts immediately.
  /// Thread-safe; never blocks on the peer.
  void SendFrame(FrameType type, std::string_view payload)
      EXCLUDES(out_mu_);

  /// Loop thread: unregisters and closes the fd without invoking
  /// on_closed (the owner already knows).
  void Close() EXCLUDES(out_mu_);

  bool closed() const EXCLUDES(out_mu_);

 private:
  void HandleEvents(short events);
  /// Reads until EAGAIN, dispatching complete frames.
  void HandleReadable();
  /// Loop thread: flushes the outbound buffer and re-arms POLLOUT while
  /// bytes remain.
  void HandleWritable() EXCLUDES(out_mu_);
  /// Writes the outbound buffer until EAGAIN or empty; the error that
  /// stopped it, if any (the bytes stay queued).
  Status FlushLocked() REQUIRES(out_mu_);
  bool HasPendingOutputLocked() const REQUIRES(out_mu_) {
    return outbound_.size() > outbound_offset_;
  }
  /// Tears down and fires on_closed exactly once.
  void Fail(Status reason);

  EventLoop* const loop_;
  const int fd_;
  // Loop-thread-only.
  FrameDecoder decoder_;
  bool peer_said_goodbye_ = false;
  FrameHandler on_frame_;
  ClosedHandler on_closed_;

  mutable Mutex out_mu_;
  bool open_ GUARDED_BY(out_mu_) = true;
  std::string outbound_ GUARDED_BY(out_mu_);
  size_t outbound_offset_ GUARDED_BY(out_mu_) = 0;
};

}  // namespace concord::net

#endif  // CONCORD_NET_CONNECTION_H_
