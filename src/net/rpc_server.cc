#include "net/rpc_server.h"

#include <poll.h>

#include <algorithm>

#include "common/logging.h"
#include "net/wire.h"

namespace concord::net {

RpcServer::RpcServer(Address address, Options options)
    : address_(std::move(address)),
      options_(options),
      dedup_(options.dedup_capacity_per_peer) {}

RpcServer::~RpcServer() { Shutdown(); }

void RpcServer::RegisterMethod(std::string method, Handler handler) {
  methods_[std::move(method)] = std::move(handler);
}

Status RpcServer::Start() {
  CONCORD_ASSIGN_OR_RETURN(listen_fd_, ListenOn(address_, 64, &bound_));
  // Registration happens before Run(), so this is still "loop thread"
  // territory by the EventLoop contract.
  loop_.RegisterFd(listen_fd_, POLLIN, [this](short) { AcceptPending(); });
  loop_thread_ = std::thread([this] { loop_.Run(); });
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
  // Stop accepting and announce the close to every peer so their
  // in-flight calls retry instead of failing.
  loop_.Post([this] {
    loop_.UnregisterFd(listen_fd_);
    for (auto& [id, conn] : conns_) {
      (void)id;
      if (!conn->closed()) conn->SendFrame(FrameType::kGoodbye, "bye");
    }
  });
  {
    MutexLock lock(&queue_mu_);
    stopping_ = true;
  }
  queue_cv_.NotifyAll();
  for (auto& worker : workers_) worker.join();
  workers_.clear();
  // Stop() runs what is still posted (goodbyes, POLLOUT hand-offs of
  // the workers' final replies) before the loop exits.
  loop_.Stop();
  loop_thread_.join();
  conns_.clear();
  CloseFd(listen_fd_);
  listen_fd_ = -1;
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

void RpcServer::AcceptPending() {
  for (;;) {
    auto fd = AcceptOn(listen_fd_);
    if (!fd.ok()) {
      if (!fd.status().IsUnavailable()) {
        CONCORD_WARN("net", "accept failed: " << fd.status().message());
      }
      return;
    }
    uint64_t conn_id = next_conn_id_++;
    auto conn = std::make_shared<FramedConnection>(&loop_, *fd);
    conn->set_on_frame(
        [this, conn_id](Frame frame) { OnFrame(conn_id, std::move(frame)); });
    conn->set_on_closed([this, conn_id](Status reason) {
      // Framing violations (bad magic/type/length/CRC) surface here —
      // the decoder tears the connection down before any frame exists.
      if (reason.IsProtocolViolation()) {
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      }
      DropConnection(conn_id);
    });
    conn->Start();
    conns_[conn_id] = std::move(conn);
  }
}

void RpcServer::DropConnection(uint64_t conn_id) {
  // Runs on the connection's own stack (its close handler, or OnFrame);
  // defer the destruction one loop iteration.
  loop_.Post([this, conn_id] { conns_.erase(conn_id); });
}

void RpcServer::OnFrame(uint64_t conn_id, Frame frame) {
  if (frame.type == FrameType::kGoodbye) return;  // EOF follows
  auto conn_it = conns_.find(conn_id);
  if (conn_it == conns_.end()) return;
  const std::shared_ptr<FramedConnection>& conn = conn_it->second;
  if (frame.type != FrameType::kRequest) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    conn->Close();
    DropConnection(conn_id);
    return;
  }
  auto request = DecodeRequestEnvelope(frame.payload);
  if (!request.ok()) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    CONCORD_WARN("net", "tearing down connection: "
                            << request.status().message());
    conn->Close();
    DropConnection(conn_id);
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
  WorkItem item;
  item.client_id = request->client_id;
  item.call_id = request->call_id;
  item.method = std::move(request->method);
  item.payload = std::move(request->payload);
  {
    MutexLock lock(&queue_mu_);
    queue_.push_back(std::move(item));
  }
  queue_cv_.NotifyOne();
}

void RpcServer::WorkerMain() {
  for (;;) {
    WorkItem item;
    {
      MutexLock lock(&queue_mu_);
      queue_cv_.Wait(&queue_mu_,
                     [this]() REQUIRES(queue_mu_) {
                       return stopping_ || !queue_.empty();
                     });
      if (queue_.empty()) return;  // stopping
      item = std::move(queue_.front());
      queue_.pop_front();
    }
    Status status = Status::OK();
    std::string reply_payload;
    auto method_it = methods_.find(item.method);
    if (method_it == methods_.end()) {
      status = Status::NotFound("unknown rpc method '" + item.method + "'");
    } else {
      auto result = method_it->second(item.payload);
      if (result.ok()) {
        reply_payload = std::move(*result);
      } else {
        status = result.status();
      }
    }
    requests_executed_.fetch_add(1, std::memory_order_relaxed);
    CompleteCall(item.client_id, item.call_id, status, reply_payload);
  }
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
