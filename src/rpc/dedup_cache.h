#ifndef CONCORD_RPC_DEDUP_CACHE_H_
#define CONCORD_RPC_DEDUP_CACHE_H_

#include <cstdint>
#include <list>
#include <optional>
#include <string>
#include <unordered_map>

#include "common/sync.h"

namespace concord::rpc {

struct DedupCacheStats {
  uint64_t inserts = 0;
  uint64_t hits = 0;
  uint64_t evictions = 0;
  uint64_t pruned = 0;
};

/// Bounded callee-side at-most-once table, shared by the simulated
/// channel (rpc::TransactionalRpc) and the socket transport
/// (net::RpcServer). Maps (peer, call id) -> cached reply so a retried
/// call re-sends the recorded outcome instead of re-executing.
///
/// Two mechanisms keep a long-lived peer from growing server memory
/// without bound:
///
///  - Explicit acknowledgement: peers whose call ids are monotonic can
///    piggyback "everything below X is complete" (the socket envelope's
///    acked_below field); PruneBelow drops those entries outright.
///  - LRU bound: each peer holds at most `per_peer_capacity` entries;
///    inserting past that evicts the least-recently-used UNPINNED
///    entry. Entries inserted pinned (calls whose retry loop is still
///    live — the simulated channel pins, since it erases explicitly at
///    completion) are never evicted, so at-most-once can only weaken
///    for calls the eviction horizon has passed: a peer that retries a
///    call older than its last `per_peer_capacity` completed ones may
///    see it re-executed. Retry windows are short (seconds); the bound
///    is the backstop against peers that never ack.
///
/// Thread-safe; one leaf mutex (point lookups and inserts only, never
/// held across handler execution).
class DedupCache {
 public:
  /// The bound both RPC servers (socket and simulated) run with.
  static constexpr size_t kPerPeerCapacity = 1024;

  explicit DedupCache(size_t per_peer_capacity = kPerPeerCapacity)
      : per_peer_capacity_(per_peer_capacity == 0 ? 1 : per_peer_capacity) {}
  DedupCache(const DedupCache&) = delete;
  DedupCache& operator=(const DedupCache&) = delete;

  /// Cached reply for (peer, call), refreshing its LRU position.
  std::optional<std::string> Lookup(uint64_t peer, uint64_t call);

  /// True while (peer, call) has an entry (test introspection).
  bool Contains(uint64_t peer, uint64_t call) const;

  /// Records the reply. Overwrites an existing entry (keeping the
  /// stronger pin). May evict the peer's LRU unpinned entry.
  void Insert(uint64_t peer, uint64_t call, std::string reply,
              bool pinned = false);

  /// Completes a pinned entry: either drops it (keep == false, the
  /// simulated channel's call-returned path) or unpins it so the LRU
  /// bound may reclaim it later.
  void Unpin(uint64_t peer, uint64_t call, bool keep);

  void Erase(uint64_t peer, uint64_t call);

  /// Drops every entry of `peer` with call id < acked_below.
  void PruneBelow(uint64_t peer, uint64_t acked_below);

  /// Drops all state of `peer` (peer machine crashed / forgotten).
  void ErasePeer(uint64_t peer);

  size_t PeerEntries(uint64_t peer) const;
  DedupCacheStats stats() const;

 private:
  struct Entry {
    uint64_t call = 0;
    std::string reply;
    bool pinned = false;
  };
  /// Front = most recently used.
  struct PeerTable {
    std::list<Entry> lru;
    std::unordered_map<uint64_t, std::list<Entry>::iterator> by_call;
  };

  void EvictIfNeeded(PeerTable& table) REQUIRES(mu_);

  const size_t per_peer_capacity_;
  mutable Mutex mu_;
  std::unordered_map<uint64_t, PeerTable> peers_ GUARDED_BY(mu_);
  DedupCacheStats stats_ GUARDED_BY(mu_);
};

}  // namespace concord::rpc

#endif  // CONCORD_RPC_DEDUP_CACHE_H_
