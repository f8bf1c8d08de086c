#ifndef CONCORD_NET_CONNECTION_H_
#define CONCORD_NET_CONNECTION_H_

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <string_view>

#include "common/result.h"
#include "common/status.h"
#include "common/sync.h"
#include "net/frame.h"

namespace concord::net {

/// One accepted stream socket of an RpcServer. The fd sits in the
/// server's epoll set under `token`, armed EPOLLONESHOT, so an event
/// wakes exactly one of the server's workers.
///
/// Reading: the woken worker calls Receive(), which flushes queued
/// output, reads what the socket holds, reassembles frames, takes at
/// most one and re-arms the fd before it returns — so while that
/// worker runs the frame's handler, the connection's next bytes wake
/// another worker. Frames a read decodes beyond the first stay queued
/// here and the re-arm adds EPOLLOUT: a socket with room to send is
/// writable at once, so the next worker wakes straight away for the
/// next frame, and several requests in one read run side by side. The
/// read side sits under read_mu_; one-shot arming keeps it
/// uncontended except when a sender's re-arm races a wake.
///
/// Writing: any thread may SendFrame. The outbound buffer and the open
/// flag sit under a leaf mutex; a sender writes to the socket itself
/// only while the buffer is empty, and whatever a partial write leaves
/// behind is armed for EPOLLOUT and flushed by the worker that takes
/// that event — so a peer that stops reading costs buffer space, never
/// a blocked sender. SendFrame on a closed connection is a no-op.
///
/// Close() (the owner's call, after Receive reports the connection
/// broken) removes the fd from the set and closes it; the destructor
/// closes too.
class FramedConnection {
 public:
  FramedConnection(int epoll_fd, int fd, uint64_t token);
  ~FramedConnection();
  FramedConnection(const FramedConnection&) = delete;
  FramedConnection& operator=(const FramedConnection&) = delete;

  /// Adds the fd to the epoll set, armed for EPOLLIN.
  Status Start() EXCLUDES(out_mu_);

  /// For the worker that took this connection's event: the next frame
  /// to handle, an empty optional when no complete frame is buffered
  /// (or the connection is closed), or why the connection broke — the
  /// peer hung up, a read or write failed, or the stream violated the
  /// framing. A kGoodbye only announces the EOF behind it and is
  /// skipped.
  Result<std::optional<Frame>> Receive() EXCLUDES(read_mu_, out_mu_);

  /// Queues one frame and, when nothing was queued before it, writes
  /// as much as the socket accepts. Thread-safe; never blocks on the
  /// peer.
  void SendFrame(FrameType type, std::string_view payload)
      EXCLUDES(out_mu_);

  void Close() EXCLUDES(read_mu_, out_mu_);

 private:
  /// Reads until a short read or EAGAIN and decodes every complete
  /// frame into frames_.
  Status ReadAvailable() REQUIRES(read_mu_);
  /// Re-arms the one-shot watch, adding EPOLLOUT when output is queued
  /// or `more_frames` wait.
  void ArmLocked(bool more_frames) REQUIRES(out_mu_);
  /// Writes the outbound buffer until EAGAIN or empty; the error that
  /// stopped it, if any (the bytes stay queued).
  Status FlushLocked() REQUIRES(out_mu_);
  bool HasPendingOutputLocked() const REQUIRES(out_mu_) {
    return outbound_.size() > outbound_offset_;
  }

  const int epoll_fd_;
  const int fd_;
  const uint64_t token_;

  /// Taken before out_mu_ when both are held.
  Mutex read_mu_;
  FrameDecoder decoder_ GUARDED_BY(read_mu_);
  std::deque<Frame> frames_ GUARDED_BY(read_mu_);

  Mutex out_mu_;
  bool open_ GUARDED_BY(out_mu_) = true;
  std::string outbound_ GUARDED_BY(out_mu_);
  size_t outbound_offset_ GUARDED_BY(out_mu_) = 0;
};

}  // namespace concord::net

#endif  // CONCORD_NET_CONNECTION_H_
