#include "rpc/transactional_rpc.h"

#include <optional>
#include <utility>

#include "common/logging.h"

namespace concord::rpc {

void TransactionalRpc::RegisterHandler(NodeId node, const std::string& method,
                                       Handler handler) {
  MutexLock lock(&mu_);
  handlers_[HandlerKey{node, method}] = std::move(handler);
}

Result<std::string> TransactionalRpc::Call(NodeId from, NodeId to,
                                           const std::string& method,
                                           const std::string& request) {
  stats_.calls.fetch_add(1, std::memory_order_relaxed);
  Handler handler;
  {
    MutexLock lock(&mu_);
    ++calls_per_node_[to];
    auto handler_it = handlers_.find(HandlerKey{to, method});
    if (handler_it == handlers_.end()) {
      stats_.failures.fetch_add(1, std::memory_order_relaxed);
      return Status::NotFound("no handler for method '" + method +
                              "' on node " + to.ToString());
    }
    handler = handler_it->second;  // copy: executed without the lock
  }
  uint64_t call_id = call_gen_.Next().value();
  // A call id lives exactly as long as its retry loop: no sender ever
  // reuses the id after Call returns, so the callee-side dedup entry
  // is dropped on every exit path — the table stays bounded by the
  // number of in-flight calls, not by the operation count. The
  // capacity bound in dedup_ is a backstop, and in-flight entries are
  // pinned against it (see DedupCache).
  auto drop_dedup = [&] { dedup_.Erase(to.value(), call_id); };

  for (int attempt = 0; attempt <= kMaxRetries; ++attempt) {
    if (attempt > 0) stats_.retries.fetch_add(1, std::memory_order_relaxed);
    // Request hop.
    Status sent = network_->Send(from, to);
    if (!sent.ok()) {
      if (!network_->IsUp(to) || !network_->IsUp(from)) {
        stats_.failures.fetch_add(1, std::memory_order_relaxed);
        return sent;  // crash, not loss: retrying is pointless
      }
      continue;  // lost in transit: retry with the same call id
    }
    // Execute at most once per call id. The dedup check and the result
    // insert are two separate critical sections; that is safe because a
    // call id is retried only by its originating thread, so no two
    // threads ever race on the same id.
    std::optional<std::string> cached = dedup_.Lookup(to.value(), call_id);
    std::string reply;
    if (cached.has_value()) {
      stats_.duplicate_suppressed.fetch_add(1, std::memory_order_relaxed);
      reply = std::move(*cached);
    } else {
      Result<std::string> result = handler(request);
      if (!result.ok()) {
        // Application-level failure: deliver it once, no retry. The
        // reply hop still costs latency.
        network_->Send(to, from).ok();
        return result.status();
      }
      reply = std::move(result).value();
      dedup_.Insert(to.value(), call_id, reply, /*pinned=*/true);
    }
    // Reply hop.
    Status replied = network_->Send(to, from);
    if (replied.ok()) {
      drop_dedup();
      return reply;
    }
    if (!network_->IsUp(to) || !network_->IsUp(from)) {
      stats_.failures.fetch_add(1, std::memory_order_relaxed);
      drop_dedup();
      return replied;
    }
    // Reply lost: retry; dedup makes the re-execution a no-op.
  }
  stats_.failures.fetch_add(1, std::memory_order_relaxed);
  drop_dedup();
  return Status::Unavailable("rpc '" + method + "' exhausted retries");
}

void TransactionalRpc::ClearNodeState(NodeId node) {
  dedup_.ErasePeer(node.value());
}

uint64_t TransactionalRpc::CallsTo(NodeId node) const {
  MutexLock lock(&mu_);
  auto it = calls_per_node_.find(node);
  return it == calls_per_node_.end() ? 0 : it->second;
}

void TransactionalRpc::ResetStats() {
  stats_.calls.store(0, std::memory_order_relaxed);
  stats_.retries.store(0, std::memory_order_relaxed);
  stats_.failures.store(0, std::memory_order_relaxed);
  stats_.duplicate_suppressed.store(0, std::memory_order_relaxed);
  MutexLock lock(&mu_);
  calls_per_node_.clear();
}

}  // namespace concord::rpc
