#ifndef CONCORD_COMMON_IDS_H_
#define CONCORD_COMMON_IDS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <ostream>
#include <string>

namespace concord {

/// Strongly-typed integer id. Each CONCORD entity gets its own Tag so
/// that, e.g., a design-activity id cannot be passed where a version id
/// is expected. Id 0 is reserved as "invalid".
template <typename Tag>
class Id {
 public:
  constexpr Id() : value_(0) {}
  constexpr explicit Id(uint64_t value) : value_(value) {}

  constexpr uint64_t value() const { return value_; }
  constexpr bool valid() const { return value_ != 0; }

  friend constexpr bool operator==(Id a, Id b) { return a.value_ == b.value_; }
  friend constexpr bool operator!=(Id a, Id b) { return a.value_ != b.value_; }
  friend constexpr bool operator<(Id a, Id b) { return a.value_ < b.value_; }

  std::string ToString() const {
    return std::string(Tag::kPrefix) + std::to_string(value_);
  }

 private:
  uint64_t value_;
};

template <typename Tag>
std::ostream& operator<<(std::ostream& os, Id<Tag> id) {
  return os << id.ToString();
}

struct DaTag { static constexpr const char* kPrefix = "DA"; };
struct DovTag { static constexpr const char* kPrefix = "DOV"; };
struct DopTag { static constexpr const char* kPrefix = "DOP"; };
struct DotTag { static constexpr const char* kPrefix = "DOT"; };
struct DesignerTag { static constexpr const char* kPrefix = "DSGR"; };
struct NodeTag { static constexpr const char* kPrefix = "NODE"; };
struct TxnTag { static constexpr const char* kPrefix = "TXN"; };
struct RelTag { static constexpr const char* kPrefix = "REL"; };
struct RuleTag { static constexpr const char* kPrefix = "RULE"; };
struct MsgTag { static constexpr const char* kPrefix = "MSG"; };
struct CellTag { static constexpr const char* kPrefix = "CELL"; };

/// Design activity (AC level).
using DaId = Id<DaTag>;
/// Design object version (repository).
using DovId = Id<DovTag>;
/// Design operation — one long ACID transaction (TE level).
using DopId = Id<DopTag>;
/// Design object type (schema).
using DotId = Id<DotTag>;
/// A human designer (or scripted designer agent).
using DesignerId = Id<DesignerTag>;
/// A machine in the simulated workstation/server network.
using NodeId = Id<NodeTag>;
/// A repository-level transaction.
using TxnId = Id<TxnTag>;
/// A cooperation relationship (delegation/negotiation/usage).
using RelId = Id<RelTag>;
/// An ECA rule registered with a design manager.
using RuleId = Id<RuleTag>;
/// A message on the simulated LAN.
using MsgId = Id<MsgTag>;
/// A cell in the VLSI cell hierarchy.
using CellId = Id<CellTag>;

/// DOV ids are namespaced by the server shard that created them: the
/// top 16 bits carry the shard index, the low 48 bits the shard-local
/// counter. Both sides of the wire can therefore route a DOV to its
/// owning server node without a placement lookup — the id IS the
/// address — and per-shard repositories never collide on ids. Shard 0
/// (the single-server default) produces exactly the ids the
/// un-sharded system always produced.
inline constexpr int kDovShardShift = 48;
inline constexpr uint64_t kDovLocalMask =
    (uint64_t{1} << kDovShardShift) - 1;

/// Shard index encoded in a DOV id (0 for single-server ids).
inline constexpr uint32_t DovShardOf(DovId dov) {
  return static_cast<uint32_t>(dov.value() >> kDovShardShift);
}

/// The shard-local counter part of a DOV id.
inline constexpr uint64_t DovLocalOf(DovId dov) {
  return dov.value() & kDovLocalMask;
}

/// Shard index of `dov` clamped to a plane of `shard_count` nodes: an
/// out-of-range index (corrupt or future id) routes to the coordinator
/// (shard 0), whose repository answers NotFound — the single policy
/// every router (ShardRouter, RepositoryRouter, LockRouter, the
/// invalidation sink) applies to unroutable ids.
inline constexpr size_t DovShardClamped(DovId dov, size_t shard_count) {
  uint32_t shard = DovShardOf(dov);
  return shard < shard_count ? shard : 0;
}

// --- Server-side execution partitioning (txn/partition.h) ----------------
//
// Each server node runs K single-threaded executor partitions; every
// piece of TM state is owned by exactly one of them, and an id routes
// all operations on that state to its owner. DOV ids partition on the
// shard-local counter (sequential per shard, so modulo-K spreads them
// uniformly AND the repository's per-partition sub-shards agree with
// the lock tables about who owns a DOV). DOP and TXN ids carry a
// workstation namespace in their high bits, so they run through a
// 64-bit finalizer first — raw modulo would be fine for the low
// counter bits but the mix keeps the spread independent of how the
// namespace is packed.

/// SplitMix64 finalizer: a cheap, well-distributed 64-bit mix.
inline constexpr uint64_t IdMix64(uint64_t v) {
  v ^= v >> 33;
  v *= 0xff51afd7ed558ccdULL;
  v ^= v >> 33;
  v *= 0xc4ceb9fe1a85ec53ULL;
  v ^= v >> 33;
  return v;
}

/// Executor partition owning `dov` on a node with `partitions`
/// executors. Partition 0 (the single-executor default) owns all ids.
inline constexpr size_t DovPartitionOf(DovId dov, size_t partitions) {
  return partitions <= 1 ? 0
                         : static_cast<size_t>(DovLocalOf(dov) % partitions);
}

/// Executor partition owning the registration state of `dop`.
inline constexpr size_t DopPartitionOf(DopId dop, size_t partitions) {
  return partitions <= 1 ? 0
                         : static_cast<size_t>(IdMix64(dop.value()) %
                                               partitions);
}

/// Executor partition owning the prepared-2PC ledger entry of `txn`.
inline constexpr size_t TxnPartitionOf(TxnId txn, size_t partitions) {
  return partitions <= 1 ? 0
                         : static_cast<size_t>(IdMix64(txn.value()) %
                                               partitions);
}

/// Monotonic id generator. Thread-safe: ids may be drawn concurrently
/// (e.g. parallel checkins asking the repository for fresh DOV ids);
/// single-threaded components pay one uncontended atomic increment,
/// which keeps deterministic runs deterministic.
template <typename IdType>
class IdGenerator {
 public:
  IdGenerator() = default;
  /// The first Next() returns `last + 1`.
  explicit IdGenerator(uint64_t last) : last_(last) {}

  IdType Next() {
    return IdType(last_.fetch_add(1, std::memory_order_relaxed) + 1);
  }
  uint64_t last() const { return last_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> last_{0};
};

}  // namespace concord

namespace std {
template <typename Tag>
struct hash<concord::Id<Tag>> {
  size_t operator()(concord::Id<Tag> id) const noexcept {
    return std::hash<uint64_t>()(id.value());
  }
};
}  // namespace std

#endif  // CONCORD_COMMON_IDS_H_
