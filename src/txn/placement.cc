#include "txn/placement.h"

#include <algorithm>

#include "common/serde.h"

namespace concord::txn {

void PlacementMap::RegisterNode(NodeId node) {
  MutexLock lock(&mu_);
  if (IsRegisteredLocked(node)) return;
  nodes_.push_back(node);
  load_.emplace(node.value(), 0);
}

std::vector<NodeId> PlacementMap::nodes() const {
  MutexLock lock(&mu_);
  return nodes_;
}

size_t PlacementMap::node_count() const {
  MutexLock lock(&mu_);
  return nodes_.size();
}

bool PlacementMap::IsRegisteredLocked(NodeId node) const {
  return std::find(nodes_.begin(), nodes_.end(), node) != nodes_.end();
}

NodeId PlacementMap::HomeOf(DaId da) const {
  MutexLock lock(&mu_);
  ++stats_.lookups;
  auto it = home_.find(da);
  return it == home_.end() ? NodeId() : it->second;
}

void PlacementMap::SetLivenessProbe(std::function<bool(NodeId)> probe) {
  MutexLock lock(&mu_);
  liveness_ = std::move(probe);
}

NodeId PlacementMap::AssignLeastLoaded(DaId da) {
  MutexLock lock(&mu_);
  auto existing = home_.find(da);
  if (existing != home_.end()) return existing->second;
  if (nodes_.empty()) return NodeId();
  // Prefer live nodes: a crashed node's load counter is low precisely
  // because it is dead, and homing fresh DAs there would stall new
  // work even though the surviving shards are healthy. If the probe
  // reports the whole plane down, fall back to pure least-loaded.
  NodeId best;
  for (NodeId node : nodes_) {
    if (liveness_ && !liveness_(node)) continue;
    if (!best.valid() || load_[node.value()] < load_[best.value()]) {
      best = node;
    }
  }
  if (!best.valid()) {
    best = nodes_.front();
    for (NodeId node : nodes_) {
      if (load_[node.value()] < load_[best.value()]) best = node;
    }
  }
  home_.emplace(da, best);
  ++load_[best.value()];
  ++stats_.assignments;
  return best;
}

Status PlacementMap::Assign(DaId da, NodeId node) {
  MutexLock lock(&mu_);
  if (!IsRegisteredLocked(node)) {
    return Status::InvalidArgument(node.ToString() +
                                   " is not a registered server node");
  }
  auto it = home_.find(da);
  if (it != home_.end()) {
    if (it->second == node) return Status::OK();
    --load_[it->second.value()];
    it->second = node;
  } else {
    home_.emplace(da, node);
    ++stats_.assignments;
  }
  ++load_[node.value()];
  return Status::OK();
}

Result<NodeId> PlacementMap::Migrate(DaId da, NodeId to) {
  MutexLock lock(&mu_);
  if (!IsRegisteredLocked(to)) {
    return Status::InvalidArgument(to.ToString() +
                                   " is not a registered server node");
  }
  auto it = home_.find(da);
  if (it == home_.end()) {
    return Status::NotFound(da.ToString() + " has no placement to migrate");
  }
  NodeId from = it->second;
  if (from == to) return from;
  --load_[from.value()];
  ++load_[to.value()];
  it->second = to;
  ++stats_.migrations;
  return from;
}

void PlacementMap::Release(DaId da) {
  MutexLock lock(&mu_);
  auto it = home_.find(da);
  if (it == home_.end()) return;
  --load_[it->second.value()];
  home_.erase(it);
}

PlacementStats PlacementMap::stats() const {
  MutexLock lock(&mu_);
  return stats_;
}

rpc::TransactionalRpc::Handler PlacementHandler(const PlacementMap* placement) {
  return [placement](const std::string& request) -> Result<std::string> {
    ByteReader in(request);
    uint64_t da_value = 0;
    if (!in.ReadFixed64(&da_value) || in.remaining() != 0) {
      return Status::InvalidArgument("malformed placement lookup");
    }
    std::string reply;
    PutFixed64(&reply, placement->HomeOf(DaId(da_value)).value());
    return reply;
  };
}

Result<NodeId> PlacementClient::HomeOf(DaId da) {
  {
    MutexLock lock(&mu_);
    ++stats_.lookups;
    auto it = cache_.find(da);
    if (it != cache_.end()) {
      ++stats_.cache_hits;
      return it->second;
    }
  }
  std::string request;
  PutFixed64(&request, da.value());
  CONCORD_ASSIGN_OR_RETURN(std::string wire, call_(kPlacementMethod, request));
  ByteReader in(wire);
  uint64_t node_value = 0;
  if (!in.ReadFixed64(&node_value)) {
    return Status::Internal("malformed placement reply");
  }
  NodeId home(node_value);
  if (!home.valid()) {
    // Unknown DAs are not cached: the authority may learn the
    // placement (InitDesign) right after this miss.
    return Status::NotFound("placement authority knows no home for " +
                            da.ToString());
  }
  MutexLock lock(&mu_);
  ++stats_.fetches;
  cache_[da] = home;
  return home;
}

void PlacementClient::Forget(DaId da) {
  MutexLock lock(&mu_);
  ++stats_.invalidations;
  cache_.erase(da);
}

PlacementClientStats PlacementClient::stats() const {
  MutexLock lock(&mu_);
  return stats_;
}

}  // namespace concord::txn
