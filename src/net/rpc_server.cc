#include "net/rpc_server.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/logging.h"
#include "net/wire.h"

namespace concord::net {

RpcServer::RpcServer(Address address, Options options)
    : address_(std::move(address)), options_(options) {}

RpcServer::~RpcServer() { Shutdown(); }

void RpcServer::RegisterMethod(std::string method, Handler handler) {
  methods_[std::move(method)] = std::move(handler);
}

Status RpcServer::Start() {
  CONCORD_ASSIGN_OR_RETURN(listen_fd_, ListenOn(address_, 64, &bound_));
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  shutdown_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  auto watch = [this](int fd, uint64_t token, uint32_t events) {
    epoll_event event{};
    event.events = events;
    event.data.u64 = token;
    return ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &event) == 0;
  };
  // The shutdown eventfd is level-triggered: once written it stays
  // readable for every worker.
  if (epoll_fd_ < 0 || shutdown_fd_ < 0 ||
      !watch(listen_fd_, kListenToken, EPOLLIN | EPOLLONESHOT) ||
      !watch(shutdown_fd_, kShutdownToken, EPOLLIN)) {
    Status st = Status::Internal(std::string("epoll set-up: ") +
                                 std::strerror(errno));
    CloseFds();
    return st;
  }
  struct stat st;
  if (address_.kind == Address::Kind::kUnix &&
      ::stat(address_.path.c_str(), &st) == 0) {
    socket_dev_ = st.st_dev;
    socket_ino_ = st.st_ino;
  }
  for (int i = 0; i < options_.worker_threads; ++i) {
    workers_.emplace_back([this] { WorkerMain(); });
  }
  started_ = true;
  CONCORD_INFO("net", "rpc server listening on " << bound_.ToString());
  return Status::OK();
}

void RpcServer::Shutdown() {
  if (!started_ || shut_down_) return;
  shut_down_ = true;
  std::vector<std::shared_ptr<FramedConnection>> open;
  {
    MutexLock lock(&conns_mu_);
    accepting_ = false;
    for (const auto& [token, conn] : conns_) open.push_back(conn);
  }
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
  // Announce the close to every peer so their in-flight calls retry
  // instead of failing. A worker running a handler still writes its
  // reply before it next waits and meets the shutdown event.
  for (const auto& conn : open) conn->SendFrame(FrameType::kGoodbye, "bye");
  uint64_t one = 1;
  (void)!::write(shutdown_fd_, &one, sizeof(one));
  for (auto& worker : workers_) worker.join();
  workers_.clear();
  {
    MutexLock lock(&conns_mu_);
    conns_.clear();
  }
  open.clear();
  if (address_.kind == Address::Kind::kUnix && socket_ino_ != 0) {
    // Only while the path still names this server's socket: a later
    // server may have re-bound it.
    struct stat st;
    if (::stat(address_.path.c_str(), &st) == 0 && st.st_dev == socket_dev_ &&
        st.st_ino == socket_ino_) {
      ::unlink(address_.path.c_str());
    }
  }
  CloseFds();
}

void RpcServer::CloseFds() {
  for (int* fd : {&listen_fd_, &shutdown_fd_, &epoll_fd_}) {
    CloseFd(*fd);
    *fd = -1;
  }
}

RpcServerStats RpcServer::stats() const {
  RpcServerStats s;
  s.requests_received = requests_received_.load(std::memory_order_relaxed);
  s.requests_executed = requests_executed_.load(std::memory_order_relaxed);
  s.dedup_hits = dedup_.stats().hits;
  s.duplicate_in_flight =
      duplicate_in_flight_.load(std::memory_order_relaxed);
  s.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  return s;
}

void RpcServer::WorkerMain() {
  for (;;) {
    epoll_event event;
    // One event per wake: whatever else is ready stays for the other
    // workers.
    int n = ::epoll_wait(epoll_fd_, &event, 1, -1);
    if (n < 0 && errno != EINTR) {
      CONCORD_ERROR("net", "epoll_wait failed: " << std::strerror(errno));
      return;
    }
    if (n <= 0) continue;
    if (event.data.u64 == kShutdownToken) {
      // Pass the wake-up on, so every sleeping worker meets the event.
      uint64_t one = 1;
      (void)!::write(shutdown_fd_, &one, sizeof(one));
      return;
    }
    if (event.data.u64 == kListenToken) {
      AcceptPending();
    } else {
      ServeConnection(event.data.u64);
    }
  }
}

void RpcServer::AcceptPending() {
  for (;;) {
    auto fd = AcceptOn(listen_fd_);
    if (!fd.ok()) {
      if (!fd.status().IsUnavailable()) {
        CONCORD_WARN("net", "accept failed: " << fd.status().message());
      }
      break;
    }
    MutexLock lock(&conns_mu_);
    if (!accepting_) {
      CloseFd(*fd);
      continue;
    }
    // Registered under conns_mu_, so the worker its first event wakes
    // finds it in conns_.
    uint64_t token = next_token_++;
    auto conn = std::make_shared<FramedConnection>(epoll_fd_, *fd, token);
    Status watched = conn->Start();
    if (!watched.ok()) {
      CONCORD_WARN("net", "dropping connection: " << watched.message());
      continue;
    }
    conns_.emplace(token, std::move(conn));
  }
  epoll_event event{};
  event.events = EPOLLIN | EPOLLONESHOT;
  event.data.u64 = kListenToken;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, listen_fd_, &event);
}

void RpcServer::ServeConnection(uint64_t token) {
  std::shared_ptr<FramedConnection> conn;
  {
    MutexLock lock(&conns_mu_);
    auto it = conns_.find(token);
    if (it == conns_.end()) return;  // dropped since the event fired
    conn = it->second;
  }
  auto frame = conn->Receive();
  if (!frame.ok()) {
    // Framing violations (bad magic/type/length/CRC) surface here —
    // the decoder breaks the connection before any frame exists.
    if (frame.status().IsProtocolViolation()) {
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    }
    DropConnection(token, conn.get());
    return;
  }
  if (frame->has_value()) HandleFrame(token, conn, std::move(**frame));
}

void RpcServer::DropConnection(uint64_t token, FramedConnection* conn) {
  conn->Close();
  MutexLock lock(&conns_mu_);
  conns_.erase(token);
}

void RpcServer::HandleFrame(uint64_t token,
                            const std::shared_ptr<FramedConnection>& conn,
                            Frame frame) {
  auto request = frame.type == FrameType::kRequest
                     ? DecodeRequestEnvelope(frame.payload)
                     : Status::ProtocolViolation("unexpected frame type");
  if (!request.ok()) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    CONCORD_WARN("net", "tearing down connection: "
                            << request.status().message());
    DropConnection(token, conn.get());
    return;
  }
  requests_received_.fetch_add(1, std::memory_order_relaxed);
  if (request->acked_below > 0) {
    dedup_.PruneBelow(request->client_id, request->acked_below);
  }
  // Still executing (e.g. the client reconnected and retried while a
  // worker holds the original): attach to that execution. Checked
  // before the dedup cache: a worker records the reply there before it
  // retires the in-flight entry, so a call found in neither place is
  // not running and has no recorded reply.
  CallKey key{request->client_id, request->call_id};
  {
    MutexLock lock(&in_flight_mu_);
    auto in_flight_it = in_flight_.find(key);
    if (in_flight_it != in_flight_.end()) {
      duplicate_in_flight_.fetch_add(1, std::memory_order_relaxed);
      auto& waiters = in_flight_it->second;
      if (std::find(waiters.begin(), waiters.end(), conn) == waiters.end()) {
        waiters.push_back(conn);
      }
      return;
    }
  }
  // At-most-once: a completed call replays its recorded reply.
  if (auto cached = dedup_.Lookup(request->client_id, request->call_id)) {
    conn->SendFrame(FrameType::kReply, *cached);
    return;
  }
  {
    MutexLock lock(&in_flight_mu_);
    in_flight_[key] = {conn};
  }
  Status status = Status::OK();
  std::string reply_payload;
  auto method_it = methods_.find(request->method);
  if (method_it == methods_.end()) {
    status = Status::NotFound("unknown rpc method '" + request->method + "'");
  } else {
    auto result = method_it->second(request->payload);
    if (result.ok()) {
      reply_payload = std::move(*result);
    } else {
      status = result.status();
    }
  }
  requests_executed_.fetch_add(1, std::memory_order_relaxed);
  CompleteCall(request->client_id, request->call_id, status, reply_payload);
}

void RpcServer::CompleteCall(uint64_t client_id, uint64_t call_id,
                             const Status& status,
                             const std::string& payload) {
  ReplyEnvelope reply;
  reply.call_id = call_id;
  reply.status = status;
  reply.payload = payload;
  std::string encoded = EncodeReplyEnvelope(reply);
  // Record first, send second: if the send races a connection drop the
  // client's retry still finds the recorded outcome.
  dedup_.Insert(client_id, call_id, encoded);
  std::vector<std::shared_ptr<FramedConnection>> waiters;
  {
    MutexLock lock(&in_flight_mu_);
    auto it = in_flight_.find(CallKey{client_id, call_id});
    if (it != in_flight_.end()) {
      waiters = std::move(it->second);
      in_flight_.erase(it);
    }
  }
  for (const auto& conn : waiters) {
    conn->SendFrame(FrameType::kReply, encoded);
  }
}

}  // namespace concord::net
