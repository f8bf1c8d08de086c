#ifndef CONCORD_BENCH_E2E_E2E_TRACE_H_
#define CONCORD_BENCH_E2E_E2E_TRACE_H_

// Span bookkeeping for the traced run: self time over a span tree, and
// matching a workstation's envelope to the server span that executed
// it. Spans are recorded by the bench around its own calls into the
// system (see probes.h); nothing here touches the system itself.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

namespace concord::bench_e2e {

/// One timed interval of a span tree. `parent` indexes the same vector
/// (-1 for the root); a parent always precedes its children.
struct Span {
  int stage = 0;
  int parent = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Self time of every span: its duration minus the part of its
/// interval that its children cover (children clipped to the parent,
/// overlaps counted once). When every child lies inside its parent the
/// self times sum exactly to the root's duration; a child poking out of
/// its parent makes the sum exceed it, which is how the traced run
/// detects broken instrumentation.
inline std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> covered(spans.size());
  for (const Span& span : spans) {
    if (span.parent < 0) continue;
    const Span& parent = spans[static_cast<size_t>(span.parent)];
    int64_t lo = std::max(span.start_ns, parent.start_ns);
    int64_t hi = std::min(span.end_ns, parent.end_ns);
    if (hi > lo) covered[static_cast<size_t>(span.parent)].emplace_back(lo, hi);
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& intervals = covered[i];
    std::sort(intervals.begin(), intervals.end());
    int64_t union_ns = 0;
    int64_t run_lo = 0;
    int64_t run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : intervals) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) union_ns += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) union_ns += run_hi - run_lo;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - union_ns;
  }
  return self;
}

/// Identity of one envelope on the wire, as both ends can see it: the
/// interaction's 2PC transaction id (every envelope the client-TM sends
/// carries a Prepare or Decide leg naming it), the server shard it went
/// to, and the leg — a phase-1 or single-node envelope (it carries the
/// Prepare) versus the Decide-only phase-2 envelope of the same txn.
struct EnvelopeKey {
  uint64_t txn = 0;
  uint32_t shard = 0;
  uint8_t decide_only = 0;

  bool operator==(const EnvelopeKey& other) const = default;
};

struct EnvelopeKeyHash {
  size_t operator()(const EnvelopeKey& key) const {
    uint64_t mixed = key.txn * 0x9e3779b97f4a7c15ULL ^
                     (static_cast<uint64_t>(key.shard) << 1) ^ key.decide_only;
    return std::hash<uint64_t>()(mixed);
  }
};

/// For each client envelope, the index of the server record with the
/// same key (each server record used at most once), or -1 when the
/// server never recorded it — an envelope
/// answered from the RPC dedup cache, or one whose server span was
/// lost.
inline std::vector<int> MatchEnvelopes(const std::vector<EnvelopeKey>& client,
                                       const std::vector<EnvelopeKey>& server) {
  std::unordered_multimap<EnvelopeKey, size_t, EnvelopeKeyHash> unused;
  unused.reserve(server.size());
  for (size_t i = 0; i < server.size(); ++i) unused.emplace(server[i], i);
  std::vector<int> matched(client.size(), -1);
  for (size_t i = 0; i < client.size(); ++i) {
    auto it = unused.find(client[i]);
    if (it == unused.end()) continue;
    matched[i] = static_cast<int>(it->second);
    unused.erase(it);
  }
  return matched;
}

}  // namespace concord::bench_e2e

#endif  // CONCORD_BENCH_E2E_E2E_TRACE_H_
