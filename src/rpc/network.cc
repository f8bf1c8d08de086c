#include "rpc/network.h"

#include "common/logging.h"

namespace concord::rpc {

Network::Network(SimClock* clock, uint64_t seed, NodeId first_node)
    : clock_(clock),
      rng_(seed),
      id_base_(first_node.value() - 1),
      node_gen_(id_base_) {}

NodeId Network::AddNode(const std::string& name) {
  MutexLock lock(&mu_);
  NodeId id = node_gen_.Next();
  if (id.value() - id_base_ > kMaxNodes) {
    CONCORD_ERROR("net", "node limit " << kMaxNodes << " exceeded");
    std::abort();
  }
  names_.emplace(id, name);
  up_[id.value() - id_base_ - 1].store(true, std::memory_order_relaxed);
  return id;
}

Result<std::string> Network::NodeName(NodeId node) const {
  MutexLock lock(&mu_);
  auto it = names_.find(node);
  if (it == names_.end()) {
    return Status::NotFound("unknown node " + node.ToString());
  }
  return it->second;
}

void Network::SetNodeUp(NodeId node, bool up) {
  MutexLock lock(&mu_);
  auto it = names_.find(node);
  if (it == names_.end()) return;
  if (up_[node.value() - id_base_ - 1].load(std::memory_order_relaxed) != up) {
    CONCORD_INFO("net", "node " << it->second << " is now "
                                << (up ? "UP" : "DOWN"));
  }
  up_[node.value() - id_base_ - 1].store(up, std::memory_order_relaxed);
}

SimTime Network::Latency(NodeId from, NodeId to) const {
  return from == to ? local_latency_ : lan_latency_;
}

Status Network::Send(NodeId from, NodeId to) {
  MutexLock lock(&mu_);
  if (!IsUp(from)) {
    ++stats_.messages_rejected_node_down;
    return Status::Unavailable("source node down");
  }
  if (!IsUp(to)) {
    ++stats_.messages_rejected_node_down;
    return Status::Unavailable("destination node down");
  }
  double loss = loss_probability_.load(std::memory_order_relaxed);
  if (from != to && loss > 0.0 && rng_.Chance(loss)) {
    ++stats_.messages_lost;
    // A lost message still costs the sender time (timeout handled by
    // the caller); we account the hop latency once.
    clock_->Advance(Latency(from, to));
    return Status::Unavailable("message lost");
  }
  SimTime latency = Latency(from, to);
  clock_->Advance(latency);
  ++stats_.messages_sent;
  stats_.total_latency += latency;
  return Status::OK();
}

}  // namespace concord::rpc
