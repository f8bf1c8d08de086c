#ifndef CONCORD_RPC_NETWORK_H_
#define CONCORD_RPC_NETWORK_H_

#include <array>
#include <atomic>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/ids.h"
#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "common/sync.h"

namespace concord::rpc {

/// Per-network counters; the 2PC-optimization benchmark (EXPERIMENTS
/// A4) reads these.
struct NetworkStats {
  uint64_t messages_sent = 0;
  uint64_t messages_lost = 0;
  uint64_t messages_rejected_node_down = 0;
  SimTime total_latency = 0;
};

/// The simulated workstation/server LAN of Sect. 5.1. Deterministic:
/// latency is configured, loss is drawn from a seeded Rng, and crashes
/// are injected explicitly by tests/benchmarks via SetNodeUp().
///
/// "Sending" a message is modeled as a synchronous hop that advances
/// the shared SimClock by the link latency and updates the counters;
/// protocol state machines (transactional RPC, 2PC) are driven by
/// their initiator. This preserves message counts and latency totals —
/// the quantities the paper's efficiency discussion cares about.
///
/// Thread-safe: concurrent designer threads (one client-TM each) and
/// the server's invalidation push all share this one LAN, so the node
/// table, counters and the loss Rng sit behind one mutex. Single-
/// threaded runs stay deterministic; multi-threaded runs keep exact
/// counts but interleave loss draws in thread-schedule order.
class Network {
 public:
  /// Upper bound on registered machines; node up/down flags live in a
  /// fixed array of atomics so IsUp is lock-free (it sits on the
  /// client-TM's cache-hit fast path).
  static constexpr size_t kMaxNodes = 1024;

  /// `first_node` is the id the first AddNode returns. A process that
  /// hosts one real machine passes that machine's identity, so ids
  /// derived from its NodeId (a ClientTm's DOP and 2PC namespaces) stay
  /// distinct across processes sharing a server.
  Network(SimClock* clock, uint64_t seed, NodeId first_node = NodeId(1));
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Registers a machine. The first registered node is conventionally
  /// the server.
  NodeId AddNode(const std::string& name);

  Result<std::string> NodeName(NodeId node) const;
  /// Lock-free: a relaxed atomic read (single source of truth for the
  /// node's up/down state, also consulted by cache-hit checkouts).
  bool IsUp(NodeId node) const {
    uint64_t value = node.value();
    return value > id_base_ && value <= node_gen_.last() &&
           up_[value - id_base_ - 1].load(std::memory_order_relaxed);
  }
  /// Crash / restart a machine. Crashing is the caller's cue to also
  /// wipe the volatile state of components hosted on that machine.
  void SetNodeUp(NodeId node, bool up);

  /// One-way message hop. Fails with kUnavailable if either endpoint is
  /// down or the (seeded) loss draw fires. On success the clock
  /// advances by the link latency.
  Status Send(NodeId from, NodeId to);

  /// Latency of a single hop: intra-node messages use the main-memory
  /// cost, inter-node messages the LAN cost (Sect. 6 distinguishes the
  /// two for commit processing).
  SimTime Latency(NodeId from, NodeId to) const;

  void set_lan_latency(SimTime t) { lan_latency_ = t; }
  void set_local_latency(SimTime t) { local_latency_ = t; }
  /// Safe to call while traffic is in flight: the chaos harness churns
  /// the loss rate mid-run, so the knob is atomic (relaxed — each Send
  /// just needs some recent value, not a synchronized one).
  void set_loss_probability(double p) {
    loss_probability_.store(p, std::memory_order_relaxed);
  }

  SimTime lan_latency() const { return lan_latency_; }
  SimTime local_latency() const { return local_latency_; }

  /// Consistent snapshot of the counters.
  NetworkStats stats() const {
    MutexLock lock(&mu_);
    return stats_;
  }
  void ResetStats() {
    MutexLock lock(&mu_);
    stats_ = NetworkStats{};
  }
  size_t node_count() const { return node_gen_.last() - id_base_; }

 private:
  SimClock* clock_;
  /// Guards names_, stats_ and rng_ (the latency knobs are set before
  /// traffic starts and read unguarded; loss_probability_ and up_ are
  /// atomic). Leaf lock: never held across a handler or another
  /// component's call.
  mutable Mutex mu_;
  Rng rng_ GUARDED_BY(mu_);
  /// One below the first node id; slot i of up_ is node id_base_ + i + 1.
  const uint64_t id_base_;
  IdGenerator<NodeId> node_gen_;
  std::unordered_map<NodeId, std::string> names_ GUARDED_BY(mu_);
  /// Indexed by NodeId value - id_base_ - 1; slots past the last
  /// registered node unused.
  std::array<std::atomic<bool>, kMaxNodes> up_{};
  SimTime lan_latency_ = 2 * kMillisecond;
  SimTime local_latency_ = 20 * kMicrosecond;
  std::atomic<double> loss_probability_{0.0};
  NetworkStats stats_ GUARDED_BY(mu_);
};

}  // namespace concord::rpc

#endif  // CONCORD_RPC_NETWORK_H_
