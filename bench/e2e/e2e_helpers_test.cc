// Unit tests for the bench's own helpers: percentiles and the
// supported-percentile rule, span self time, envelope matching, and the
// traced-slice schedule.

#include <gtest/gtest.h>

#include <vector>

#include "bench/e2e/e2e_stats.h"
#include "bench/e2e/e2e_trace.h"
#include "bench/e2e/probes.h"

namespace concord::bench_e2e {
namespace {

std::vector<double> OneTo(size_t n) {
  std::vector<double> v;
  for (size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(Percentile, NearestRankOnSmallSamples) {
  std::vector<double> v = {15, 20, 35, 40, 50};
  EXPECT_EQ(PercentileSorted(v, 5), 15);
  EXPECT_EQ(PercentileSorted(v, 30), 20);
  EXPECT_EQ(PercentileSorted(v, 40), 20);
  EXPECT_EQ(PercentileSorted(v, 50), 35);
  EXPECT_EQ(PercentileSorted(v, 100), 50);
  EXPECT_EQ(PercentileSorted({}, 50), 0);
}

TEST(Percentile, ExactRanksDoNotRoundUp) {
  std::vector<double> v = OneTo(1000);
  EXPECT_EQ(PercentileSorted(v, 50), 500);
  EXPECT_EQ(PercentileSorted(v, 99), 990);
  EXPECT_EQ(PercentileSorted(v, 99.9), 999);
}

TEST(Percentile, HighestSupportedNeedsTenSamplesBeyond) {
  EXPECT_EQ(HighestSupportedPercentile(0), 0);
  EXPECT_EQ(HighestSupportedPercentile(19), 0);    // 19 - 10 = 9 beyond p50
  EXPECT_EQ(HighestSupportedPercentile(20), 50);   // 20 - 10 = 10
  EXPECT_EQ(HighestSupportedPercentile(100), 90);  // 100 - 90 = 10
  EXPECT_EQ(HighestSupportedPercentile(999), 90);  // 999 - 990 = 9 beyond p99
  EXPECT_EQ(HighestSupportedPercentile(1000), 99);
  EXPECT_EQ(HighestSupportedPercentile(9999), 99);
  EXPECT_EQ(HighestSupportedPercentile(10000), 99.9);
  EXPECT_EQ(HighestSupportedPercentile(100000), 99.99);
}

TEST(Percentile, SummarizeSortsAndCounts) {
  std::vector<double> v = {5, 1, 4, 2, 3};
  Summary s = Summarize(v);
  EXPECT_EQ(s.n, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_EQ(s.p50, 3);
  EXPECT_EQ(s.p99, 5);
  EXPECT_EQ(v.front(), 1);
}

TEST(SelfTime, NestedChildrenSumToTheRoot) {
  // root [0,100]; exec [10,90] with encode [10,20], call [20,80];
  // server handler [30,70] under call.
  std::vector<Span> spans = {
      {0, -1, 0, 100}, {1, 0, 10, 90}, {2, 1, 10, 20},
      {3, 1, 20, 80},  {4, 3, 30, 70},
  };
  std::vector<int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self, (std::vector<int64_t>{20, 10, 10, 20, 40}));
  int64_t sum = 0;
  for (int64_t s : self) sum += s;
  EXPECT_EQ(sum, 100);
}

TEST(SelfTime, OverlappingChildrenCountOnce) {
  std::vector<Span> spans = {{0, -1, 0, 100}, {1, 0, 10, 50}, {2, 0, 40, 60}};
  EXPECT_EQ(SelfTimes(spans)[0], 50);
}

TEST(SelfTime, ChildOutsideItsParentBreaksTheSum) {
  // The child runs past its parent: clipped out of the parent's cover,
  // so the self times add up to more than the root — what the traced
  // run's 10% check catches.
  std::vector<Span> spans = {{0, -1, 0, 100}, {1, 0, 50, 150}};
  std::vector<int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 50);
  EXPECT_EQ(self[1], 100);
  EXPECT_GT(self[0] + self[1], 100);
}

TEST(EnvelopeMatching, MatchesByTxnShardAndLeg) {
  std::vector<EnvelopeKey> client = {
      {7, 0, 0},  // phase 1 on shard 0
      {7, 1, 0},  // phase 1 on shard 1
      {7, 0, 1},  // decide on shard 0
      {7, 1, 1},  // decide on shard 1
  };
  std::vector<EnvelopeKey> server = {{7, 1, 1}, {7, 0, 0}, {7, 0, 1}, {7, 1, 0}};
  EXPECT_EQ(MatchEnvelopes(client, server), (std::vector<int>{1, 3, 2, 0}));
}

TEST(EnvelopeMatching, UnrecordedEnvelopeStaysUnmatched) {
  // The second envelope was answered without running the handler (e.g.
  // from the RPC dedup cache): no server span carries its key.
  std::vector<EnvelopeKey> client = {{1, 0, 0}, {2, 0, 0}, {3, 0, 0}};
  std::vector<EnvelopeKey> server = {{3, 0, 0}, {1, 0, 0}, {9, 0, 0}};
  std::vector<int> matched = MatchEnvelopes(client, server);
  EXPECT_EQ(matched, (std::vector<int>{1, -1, 0}));
}

TEST(EnvelopeMatching, EachServerRecordMatchesOnce) {
  std::vector<EnvelopeKey> client = {{4, 0, 0}, {4, 0, 0}};
  std::vector<EnvelopeKey> server = {{4, 0, 0}};
  std::vector<int> matched = MatchEnvelopes(client, server);
  EXPECT_EQ(matched[0] + matched[1], -1);  // one matched (0), one not (-1)
}

TEST(EnvelopeKeys, KeyAndKindFollowTheEnvelopeShape) {
  txn::BatchRequest single;
  single.ops.emplace_back(txn::PrepareRequest{TxnId(42)});
  single.ops.emplace_back(txn::BeginDopRequest{DopId(1), DaId(1)});
  single.ops.emplace_back(txn::DecideRequest{TxnId(42), true});
  EXPECT_EQ(KeyOf(single, 3), (EnvelopeKey{42, 3, 0}));
  EXPECT_EQ(KindOf(single), EnvelopeKind::kBegin);

  txn::BatchRequest decide;
  decide.ops.emplace_back(txn::DecideRequest{TxnId(42), true});
  EXPECT_EQ(KeyOf(decide, 3), (EnvelopeKey{42, 3, 1}));
  EXPECT_EQ(KindOf(decide), EnvelopeKind::kDecide);

  txn::BatchRequest phase1;
  phase1.ops.emplace_back(txn::PrepareRequest{TxnId(43)});
  phase1.ops.emplace_back(txn::CommitDopRequest{DopId(1)});
  EXPECT_EQ(KindOf(phase1), EnvelopeKind::kPhase1);
}

TEST(TraceSchedule, AlternatesSlicesWithServerGrace) {
  TraceSchedule s;
  s.enabled = true;
  s.window_start_ns = 1000;
  s.window_end_ns = 1000 + 4 * s.slice_ns;
  EXPECT_FALSE(s.ClientTraced(999));
  EXPECT_FALSE(s.ClientTraced(1000));                // slice 0: untraced
  EXPECT_TRUE(s.ClientTraced(1000 + s.slice_ns));    // slice 1: traced
  EXPECT_FALSE(s.ServerTraced(1000));
  EXPECT_TRUE(s.ServerTraced(1000 + s.slice_ns));
  // Grace: the server keeps recording just past a traced slice.
  EXPECT_TRUE(s.ServerTraced(1000 + 2 * s.slice_ns + s.grace_ns - 1));
  EXPECT_FALSE(s.ServerTraced(1000 + 2 * s.slice_ns + s.grace_ns));
  EXPECT_TRUE(s.ServerTraced(s.window_end_ns + s.grace_ns - 1));
  EXPECT_FALSE(s.ServerTraced(s.window_end_ns + s.grace_ns));
  EXPECT_EQ(s.TracedDeadline(1000 + s.slice_ns + 5),
            1000 + 2 * s.slice_ns + s.grace_ns);
}

}  // namespace
}  // namespace concord::bench_e2e
