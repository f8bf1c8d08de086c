#ifndef CONCORD_TXN_PLACEMENT_H_
#define CONCORD_TXN_PLACEMENT_H_

#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/result.h"
#include "common/status.h"
#include "common/sync.h"
#include "rpc/transactional_rpc.h"

namespace concord::txn {

struct PlacementStats {
  uint64_t assignments = 0;
  uint64_t migrations = 0;
  uint64_t lookups = 0;
};

/// The server plane's placement authority: which server node owns each
/// design activity. A DA's home node registers its DOPs' checkins —
/// i.e. every DOV a DA creates is stored on (and id-stamped by, see
/// common/ids.h) the DA's home shard at creation time. Migrating a DA
/// moves where its *future* DOVs go; already-created versions keep
/// their shard (the id is the address), so migration never copies
/// data.
///
/// The cooperation manager drives this map — placement is a
/// cooperation decision (Create_Sub_DA picks the least-loaded shard
/// for the delegated activity) — and every server-TM consults it to
/// reject checkins routed via a stale workstation cache (kWrongShard).
///
/// Thread-safe: designer threads look up placements while the CM
/// assigns and migrates concurrently.
class PlacementMap {
 public:
  PlacementMap() = default;
  PlacementMap(const PlacementMap&) = delete;
  PlacementMap& operator=(const PlacementMap&) = delete;

  /// Registers a server node; registration order defines the shard
  /// index (node registered first = shard 0 = the coordinator).
  void RegisterNode(NodeId node);
  std::vector<NodeId> nodes() const;
  size_t node_count() const;

  /// Installs a liveness probe (typically Network::IsUp) consulted by
  /// AssignLeastLoaded: a crashed node must not be handed fresh DAs —
  /// its load counter is low precisely because it is dead. Install
  /// before traffic; without a probe every registered node is a
  /// candidate.
  void SetLivenessProbe(std::function<bool(NodeId)> probe);

  /// Home node of `da`; invalid NodeId if the DA has no placement.
  NodeId HomeOf(DaId da) const;

  /// Places `da` on the live node currently owning the fewest DAs
  /// (ties go to the lowest shard; nodes the liveness probe reports
  /// down are skipped unless every node is down). Idempotent: an
  /// already-placed DA keeps its home. Returns the home node (invalid
  /// if no node is registered).
  NodeId AssignLeastLoaded(DaId da);

  /// Pins `da` to `node` (must be registered).
  Status Assign(DaId da, NodeId node);

  /// Re-homes `da` onto `to`; future checkins land there. Returns the
  /// previous home. Workstation placement caches become stale at this
  /// moment — they find out through the next kWrongShard reply.
  Result<NodeId> Migrate(DaId da, NodeId to);

  /// Drops the placement (DA terminated) and frees its load slot.
  void Release(DaId da);

  PlacementStats stats() const;

 private:
  bool IsRegisteredLocked(NodeId node) const REQUIRES(mu_);

  /// Leaf lock: never held across the liveness probe's owner or an RPC.
  mutable Mutex mu_;
  std::function<bool(NodeId)> liveness_ GUARDED_BY(mu_);
  std::vector<NodeId> nodes_ GUARDED_BY(mu_);
  std::unordered_map<DaId, NodeId> home_ GUARDED_BY(mu_);
  /// DAs currently homed per node (keyed by NodeId value).
  std::unordered_map<uint64_t, uint64_t> load_ GUARDED_BY(mu_);
  mutable PlacementStats stats_ GUARDED_BY(mu_);
};

/// RPC method the placement authority's lookup endpoint registers
/// under (hosted on the coordinator node next to the CM).
inline constexpr const char* kPlacementMethod = "txn.Placement/HomeOf";

/// The authority's lookup handler for `placement`: register it under
/// kPlacementMethod on the authority node.
rpc::TransactionalRpc::Handler PlacementHandler(const PlacementMap* placement);

struct PlacementClientStats {
  uint64_t lookups = 0;
  uint64_t cache_hits = 0;
  uint64_t fetches = 0;
  uint64_t invalidations = 0;
};

/// Workstation-side placement cache. A DA's home node is fetched from
/// the authority once (one LAN round trip over the transactional RPC)
/// and cached; every later envelope to that DA routes locally. The
/// cache can go stale when the CM migrates a DA — the owning server
/// answers kWrongShard, the client-TM calls Forget() and the next
/// lookup re-fetches. `call` is bound to the authority (on the
/// simulated LAN, TransactionalRpc::Bind).
///
/// Thread-safe (one designer thread per workstation is the norm, but
/// recovery and invalidation paths may race).
class PlacementClient {
 public:
  explicit PlacementClient(rpc::CallFn call) : call_(std::move(call)) {}
  PlacementClient(const PlacementClient&) = delete;
  PlacementClient& operator=(const PlacementClient&) = delete;

  /// Home node of `da`: cached answer, or one RPC to the authority.
  /// kNotFound if the authority knows no placement for the DA.
  Result<NodeId> HomeOf(DaId da);

  /// Drops the cached placement for `da` (stale-shard recovery).
  void Forget(DaId da);

  PlacementClientStats stats() const;

 private:
  const rpc::CallFn call_;
  /// Leaf lock: released before the RPC round trip in HomeOf.
  mutable Mutex mu_;
  std::unordered_map<DaId, NodeId> cache_ GUARDED_BY(mu_);
  mutable PlacementClientStats stats_ GUARDED_BY(mu_);
};

}  // namespace concord::txn

#endif  // CONCORD_TXN_PLACEMENT_H_
