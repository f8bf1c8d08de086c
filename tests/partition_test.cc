// Shared-nothing server execution: the PartitionEngine executor core,
// the partition-routing helpers, the sliced ServerLockTable, and the
// partitioned ServerTm choreography — functional parity with the
// single-executor TM at K > 1, per-partition counter accumulation, the
// partition tasks each one-op executor call costs, independent
// envelopes run op by op in envelope order, and the deterministic
// crash drain.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <tuple>
#include <vector>

#include "common/ids.h"
#include "rpc/network.h"
#include "storage/repository.h"
#include "txn/partition.h"
#include "txn/scope_authority.h"
#include "txn/server_lock_table.h"
#include "txn/server_service.h"
#include "txn/server_tm.h"

namespace concord::txn {
namespace {

// --- PartitionEngine ------------------------------------------------------

TEST(PartitionEngineTest, InlineModeRunsOnCallerThread) {
  PartitionEngine engine(1);
  EXPECT_EQ(engine.count(), 1u);
  EXPECT_FALSE(engine.threaded());
  std::thread::id caller = std::this_thread::get_id();
  std::thread::id ran_on = engine.Run(0, [] { return std::this_thread::get_id(); });
  EXPECT_EQ(ran_on, caller);
  // Post in inline mode executes immediately and returns a ready future.
  auto future = engine.Post(0, [] { return 41 + 1; });
  EXPECT_EQ(future.get(), 42);
}

TEST(PartitionEngineTest, RunOnIdlePartitionRunsOnCallerAsItsExecutor) {
  PartitionEngine engine(4);
  EXPECT_EQ(engine.count(), 4u);
  EXPECT_TRUE(engine.threaded());
  std::thread::id caller = std::this_thread::get_id();
  for (size_t p = 0; p < 4; ++p) {
    // Nothing is queued, so the caller borrows partition p's token and
    // runs the task itself, tagged as p's executor.
    auto [ran_on, role, partition] = engine.Run(p, [] {
      return std::make_tuple(std::this_thread::get_id(), CurrentThreadRole(),
                             CurrentThreadPartition());
    });
    EXPECT_EQ(ran_on, caller);
    EXPECT_EQ(role, ThreadRole::kPartitionExecutor);
    EXPECT_EQ(partition, static_cast<int>(p));
    // The tag ends with the task.
    EXPECT_EQ(CurrentThreadRole(), ThreadRole::kGeneral);
    EXPECT_EQ(CurrentThreadPartition(), -1);
  }
  EXPECT_EQ(engine.queue_stats(0).inline_runs, 1u);
}

TEST(PartitionEngineTest, RunOnBusyPartitionRunsOnItsExecutor) {
  PartitionEngine engine(2);
  std::promise<std::thread::id> started;
  std::promise<void> gate;
  std::shared_future<void> open = gate.get_future().share();
  auto blocker = engine.Post(1, [&started, open] {
    started.set_value(std::this_thread::get_id());
    open.wait();
  });
  std::thread::id executor = started.get_future().get();
  // Queued behind the blocker: the mailbox is now one deep.
  auto queued = engine.Post(1, [] {});

  std::thread::id runner;
  std::thread::id ran_on;
  std::atomic<bool> returned{false};
  std::thread caller([&] {
    runner = std::this_thread::get_id();
    ran_on = engine.Run(1, [] { return std::this_thread::get_id(); });
    returned.store(true);
  });
  // The Run has joined the mailbox once it is two deep (a Run that
  // wrongly borrowed the busy partition returns instead).
  while (engine.queue_stats(1).queue_high_water < 2 && !returned.load()) {
    std::this_thread::yield();
  }
  gate.set_value();
  caller.join();
  blocker.get();
  queued.get();
  EXPECT_EQ(ran_on, executor);
  EXPECT_NE(ran_on, runner);
  EXPECT_EQ(engine.queue_stats(1).inline_runs, 0u);
}

TEST(PartitionEngineTest, PostThenRunOnOnePartitionKeepsSubmissionOrder) {
  PartitionEngine engine(2);
  std::vector<int> order;
  std::vector<std::future<void>> posted;
  for (int i = 0; i < 100; ++i) {
    // A slow Post keeps the executor busy, so some Runs take the
    // mailbox and some find the partition idle and borrow it; either
    // way each must follow the Post submitted before it.
    posted.push_back(engine.Post(0, [&order, i] {
      if (i % 10 == 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      order.push_back(2 * i);
    }));
    engine.Run(0, [&order, i] { order.push_back(2 * i + 1); });
  }
  for (auto& f : posted) f.get();
  ASSERT_EQ(order.size(), 200u);
  for (int i = 0; i < 200; ++i) EXPECT_EQ(order[i], i);
}

TEST(PartitionEngineTest, DrainAndStopWaitForABorrowedRun) {
  for (bool stop : {false, true}) {
    PartitionEngine engine(2);
    std::promise<void> started;
    std::promise<void> gate;
    std::shared_future<void> open = gate.get_future().share();
    std::atomic<bool> done{false};
    std::thread borrower([&] {
      engine.Run(0, [&] {
        started.set_value();
        open.wait();
        done.store(true);
      });
    });
    started.get_future().wait();
    std::atomic<bool> saw_done{false};
    std::thread barrier([&] {
      if (stop) {
        engine.Stop();
      } else {
        engine.Drain();
      }
      saw_done.store(done.load());
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    gate.set_value();
    barrier.join();
    borrower.join();
    EXPECT_TRUE(saw_done.load()) << (stop ? "Stop" : "Drain")
                                 << " returned during a borrowed run";
  }
}

TEST(PartitionEngineTest, RunAndPostNeverOverlapOnOnePartition) {
  // Exclusivity hammer: a plain (non-atomic) counter bumped by borrowed
  // runs and mailbox tasks alike must reach the exact total, and TSan
  // (CI) must see every increment ordered.
  PartitionEngine engine(2);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  uint64_t counter = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&engine, &counter] {
      std::vector<std::future<void>> posted;
      for (int i = 0; i < kPerThread; ++i) {
        if (i % 2 == 0) {
          engine.Run(0, [&counter] { ++counter; });
        } else {
          posted.push_back(engine.Post(0, [&counter] { ++counter; }));
        }
      }
      for (auto& f : posted) f.get();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(engine.Run(0, [&counter] { return counter; }),
            uint64_t{kThreads} * kPerThread);
}

TEST(PartitionEngineDeathTest, BorrowedTaskMustNotSubmitAndWait) {
  if (!ThreadAssertsEnabled()) {
    GTEST_SKIP() << "CONCORD_THREAD_ASSERTS compiled out in this build";
  }
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // The partition is idle, so the outer Run borrows it on this thread;
  // the borrowed task carries the executor tag, so the nested
  // submit-and-wait must abort exactly as it would on the executor.
  EXPECT_DEATH(
      {
        PartitionEngine engine(2);
        engine.Run(0, [&engine] { return engine.Run(1, [] { return 1; }); });
      },
      "submit-and-wait");
}

TEST(PartitionEngineTest, TasksOnOnePartitionRunInFifoOrder) {
  PartitionEngine engine(2);
  std::vector<int> order;
  std::vector<std::future<void>> posted;
  for (int i = 0; i < 100; ++i) {
    // All on partition 0: the mailbox must preserve submission order.
    posted.push_back(engine.Post(0, [&order, i] { order.push_back(i); }));
  }
  for (auto& f : posted) f.get();
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[i], i);
}

TEST(PartitionEngineTest, DrainWaitsForQueuedWork) {
  PartitionEngine engine(3);
  std::atomic<int> done{0};
  for (size_t p = 0; p < 3; ++p) {
    for (int i = 0; i < 50; ++i) {
      engine.Post(p, [&done] { ++done; });
    }
  }
  engine.Drain();
  EXPECT_EQ(done.load(), 150);
}

TEST(PartitionEngineTest, StopJoinsAndFallsBackToInline) {
  PartitionEngine engine(4);
  std::atomic<int> done{0};
  for (size_t p = 0; p < 4; ++p) engine.Post(p, [&done] { ++done; });
  engine.Stop();
  EXPECT_EQ(done.load(), 4);  // queued work finished before the join
  EXPECT_FALSE(engine.threaded());
  // Post-Stop submissions run inline (the shutdown path still works).
  EXPECT_EQ(engine.Run(2, [] { return 7; }), 7);
}

TEST(PartitionEngineTest, QueueStatsCountMailboxAndBorrowedTasks) {
  PartitionEngine engine(2);
  for (int i = 0; i < 20; ++i) {
    engine.Post(0, [] {});
  }
  engine.Drain();
  // Drained and single-threaded: every Run finds the partition idle.
  for (int i = 0; i < 5; ++i) engine.Run(0, [] {});
  for (int i = 0; i < 7; ++i) engine.Post(0, [] {});
  engine.Drain();
  PartitionQueueSnapshot snap = engine.queue_stats(0);
  EXPECT_EQ(snap.inline_runs, 5u);
  EXPECT_EQ(snap.tasks, 27u + snap.inline_runs);
  EXPECT_GE(snap.batches, 2u);
  EXPECT_GE(snap.queue_high_water, 1u);
  EXPECT_EQ(engine.queue_stats(1).tasks, 0u);
}

// --- Partition routing ----------------------------------------------------

TEST(PartitionRoutingTest, SinglePartitionOwnsEverything) {
  EXPECT_EQ(DovPartitionOf(DovId(123), 1), 0u);
  EXPECT_EQ(DopPartitionOf(DopId(456), 1), 0u);
  EXPECT_EQ(TxnPartitionOf(TxnId(789), 1), 0u);
}

TEST(PartitionRoutingTest, SequentialDovIdsSpreadUniformly) {
  // DOV ids are sequential per shard; modulo-K must round-robin them.
  std::vector<int> hits(4, 0);
  for (uint64_t i = 1; i <= 400; ++i) {
    ++hits[DovPartitionOf(DovId(i), 4)];
  }
  for (int h : hits) EXPECT_EQ(h, 100);
  // Shard-namespaced ids (top 16 bits) route on the LOCAL counter, so
  // the same local id lands on the same partition regardless of shard.
  DovId sharded(uint64_t{3} << kDovShardShift | 42);
  EXPECT_EQ(DovPartitionOf(sharded, 4), DovPartitionOf(DovId(42), 4));
}

TEST(PartitionRoutingTest, MixedIdsStayInRangeAndSpread) {
  // DOP ids carry a node namespace in the high bits; the mix must keep
  // the spread healthy anyway (no partition starved over 1k ids).
  std::vector<int> hits(8, 0);
  for (uint64_t node = 1; node <= 4; ++node) {
    for (uint64_t c = 1; c <= 250; ++c) {
      ++hits[DopPartitionOf(DopId((node << 32) | c), 8)];
    }
  }
  for (int h : hits) EXPECT_GT(h, 60);
}

// --- ServerLockTable ------------------------------------------------------

TEST(ServerLockTableTest, RoutesToOwningSliceAndAggregates) {
  ServerLockTable table(4);
  EXPECT_EQ(table.partition_count(), 4u);
  DovId a(1), b(2);
  ASSERT_NE(DovPartitionOf(a, 4), DovPartitionOf(b, 4));
  ASSERT_TRUE(table.AcquireDerivation(a, DaId(1)).ok());
  ASSERT_TRUE(table.AcquireDerivation(b, DaId(2)).ok());
  // Each lock lives in exactly its owning slice.
  EXPECT_EQ(table.Slice(DovPartitionOf(a, 4)).DerivationHolder(a), DaId(1));
  EXPECT_FALSE(table.Slice(DovPartitionOf(b, 4)).DerivationHolder(a).valid());
  EXPECT_EQ(table.DerivationHolder(b), DaId(2));
  // Aggregated stats sum the slices.
  EXPECT_EQ(table.stats().derivation_locks_taken, 2u);
  // Plane-wide release fans out over all slices.
  EXPECT_EQ(table.ReleaseAllDerivation(DaId(1)), 1);
  EXPECT_FALSE(table.DerivationHolder(a).valid());
}

TEST(ServerLockTableTest, OwnedByConcatenatesSlices) {
  ServerLockTable table(4);
  for (uint64_t i = 1; i <= 8; ++i) table.SetScopeOwner(DovId(i), DaId(9));
  EXPECT_EQ(table.OwnedBy(DaId(9)).size(), 8u);
}

// --- Partitioned ServerTm -------------------------------------------------

class PartitionedTmTest : public ::testing::TestWithParam<int> {
 protected:
  PartitionedTmTest() : network_(&clock_, 1), repo_(&clock_) {
    server_node_ = network_.AddNode("server");
    auto* type = repo_.schema().DefineType("thing");
    type->AddAttr({"value", storage::AttrType::kInt, true, 0.0, 1000.0});
    dot_ = type->id();
    server_ = std::make_unique<ServerTm>(&repo_, &network_, server_node_,
                                         &scope_, nullptr, GetParam());
  }

  storage::DesignObject MakeObj(int64_t value) {
    storage::DesignObject obj(dot_);
    obj.SetAttr("value", value);
    return obj;
  }

  DovId Seed(DaId da, int64_t value) {
    TxnId txn = repo_.Begin();
    storage::DovRecord record;
    record.id = repo_.NextDovId();
    record.owner_da = da;
    record.type = dot_;
    record.data = MakeObj(value);
    DovId id = record.id;
    repo_.Put(txn, std::move(record)).ok();
    repo_.Commit(txn).ok();
    server_->locks().SetScopeOwner(id, da);
    return id;
  }

  SimClock clock_;
  rpc::Network network_;
  storage::Repository repo_;
  PermissiveScopeAuthority scope_;
  NodeId server_node_;
  DotId dot_;
  std::unique_ptr<ServerTm> server_;
};

INSTANTIATE_TEST_SUITE_P(Partitions, PartitionedTmTest,
                         ::testing::Values(1, 4));

TEST_P(PartitionedTmTest, FullDopLifecycleAcrossPartitions) {
  EXPECT_EQ(server_->partition_count(), static_cast<size_t>(GetParam()));
  // Enough inputs to touch every partition.
  std::vector<DovId> inputs;
  for (int i = 0; i < 8; ++i) inputs.push_back(Seed(DaId(1), i));

  DopId dop(7);
  ASSERT_TRUE(server_->BeginDop(dop, DaId(1)).ok());
  for (DovId input : inputs) {
    auto record = server_->Checkout(dop, input, /*take_derivation_lock=*/true);
    ASSERT_TRUE(record.ok());
    EXPECT_EQ(record->id, input);
    EXPECT_EQ(server_->locks().DerivationHolder(input), DaId(1));
  }
  auto out = server_->Checkin(dop, MakeObj(99), inputs, clock_.Now());
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(server_->locks().ScopeOwner(*out), DaId(1));
  ASSERT_TRUE(server_->CommitDop(dop).ok());
  // End-of-DOP released every derivation lock, whichever slice held it.
  for (DovId input : inputs) {
    EXPECT_FALSE(server_->locks().DerivationHolder(input).valid());
  }

  ServerTmStats stats = server_->stats();
  EXPECT_EQ(stats.checkouts, 8u);
  EXPECT_EQ(stats.checkins, 1u);
  EXPECT_EQ(stats.dops_begun, 1u);
  EXPECT_EQ(stats.dops_committed, 1u);
}

TEST_P(PartitionedTmTest, DenialsAndUnknownDopsKeepTheirTypedStatus) {
  DovId input = Seed(DaId(1), 5);
  DopId dop(1), other(2);
  ASSERT_TRUE(server_->BeginDop(dop, DaId(1)).ok());
  ASSERT_TRUE(server_->BeginDop(other, DaId(2)).ok());
  // Derivation-lock conflict across DAs.
  ASSERT_TRUE(server_->Checkout(dop, input, true).ok());
  auto denied = server_->Checkout(other, input, true);
  EXPECT_TRUE(denied.status().IsLockConflict());
  // Unregistered DOP.
  EXPECT_TRUE(server_->Checkout(DopId(99), input, false).status().IsNotFound());
  ServerTmStats stats = server_->stats();
  EXPECT_EQ(stats.checkouts_denied_lock, 1u);

  // The staged (phase-1) forms keep the same typed failures and stage
  // nothing when they fail.
  auto staged = [&](TxnId txn, ServerRequest op) {
    return server_->Execute(op, txn);
  };
  TxnId stranger_txn(7);
  EXPECT_TRUE(staged(stranger_txn, CheckinRequest{DopId(99), MakeObj(1), {}, 0})
                  .status.IsNotFound());
  EXPECT_TRUE(
      staged(stranger_txn, CommitDopRequest{DopId(99)}).status.IsNotFound());
  EXPECT_FALSE(server_->HasPrepared(stranger_txn));
  // Integrity failure: "value" is required.
  TxnId bad_txn(8);
  ServerReply bad =
      staged(bad_txn, CheckinRequest{dop, storage::DesignObject(dot_), {}, 0});
  EXPECT_TRUE(bad.status.IsConstraintViolation()) << bad.status.ToString();
  EXPECT_EQ(server_->stats().checkin_failures, stats.checkin_failures + 1);
  EXPECT_FALSE(server_->HasPrepared(bad_txn));
}

TEST_P(PartitionedTmTest, StatsAggregateExactlyFromPartitionSlices) {
  std::vector<DovId> inputs;
  for (int i = 0; i < 16; ++i) inputs.push_back(Seed(DaId(1), i));
  DopId dop(3);
  ASSERT_TRUE(server_->BeginDop(dop, DaId(1)).ok());
  for (DovId input : inputs) {
    ASSERT_TRUE(server_->Checkout(dop, input, false).ok());
  }
  ServerTmStats total = server_->stats();
  uint64_t checkouts_summed = 0;
  for (size_t p = 0; p < server_->partition_count(); ++p) {
    checkouts_summed += server_->partition_stats(p).checkouts;
  }
  EXPECT_EQ(total.checkouts, 16u);
  EXPECT_EQ(checkouts_summed, total.checkouts);
  if (GetParam() > 1) {
    // Uniform DOV round-robin: every partition saw exactly its share,
    // counted on its own slice.
    for (size_t p = 0; p < server_->partition_count(); ++p) {
      EXPECT_EQ(server_->partition_stats(p).checkouts,
                16u / server_->partition_count());
    }
  }
}

TEST_P(PartitionedTmTest, IndependentCheckoutsArePositional) {
  std::vector<DovId> inputs;
  for (int i = 0; i < 8; ++i) inputs.push_back(Seed(DaId(1), i));
  DopId dop(5);
  ASSERT_TRUE(server_->BeginDop(dop, DaId(1)).ok());

  BatchRequest batch;
  batch.independent = true;
  for (DovId input : inputs) {
    batch.ops.emplace_back(CheckoutRequest{dop, input, false});
  }
  // Slot 3: unregistered DOP; slot 5: unknown DOV. Replies must stay
  // positional around the failures, and the independent envelope runs
  // the ops after them.
  std::get<CheckoutRequest>(batch.ops[3]).dop = DopId(99);
  std::get<CheckoutRequest>(batch.ops[5]).dov = DovId(123456);
  std::vector<ServerReply> replies = DispatchBatch(*server_, batch).ops;
  ASSERT_EQ(replies.size(), batch.ops.size());
  for (size_t i = 0; i < replies.size(); ++i) {
    if (i == 3) {
      EXPECT_TRUE(replies[i].status.IsNotFound());
    } else if (i == 5) {
      EXPECT_FALSE(replies[i].status.ok());
    } else {
      ASSERT_TRUE(replies[i].status.ok());
      auto* body = std::get_if<CheckoutReply>(&replies[i].body);
      ASSERT_NE(body, nullptr);
      EXPECT_EQ(body->record.id, inputs[i]);
    }
  }
  ServerTmStats stats = server_->stats();
  EXPECT_EQ(stats.checkouts, 6u);
}

TEST_P(PartitionedTmTest, IndependentEnvelopeRunsItsOpsInOrder) {
  DovId input = Seed(DaId(1), 5);
  DopId other(21);
  ASSERT_TRUE(server_->BeginDop(other, DaId(2)).ok());

  DopId dop(20);
  BatchRequest batch;
  batch.independent = true;
  batch.ops.emplace_back(BeginDopRequest{dop, DaId(1)});
  batch.ops.emplace_back(
      CheckoutRequest{dop, input, /*take_derivation_lock=*/true});
  batch.ops.emplace_back(CommitDopRequest{dop});
  batch.ops.emplace_back(
      CheckinRequest{other, MakeObj(7), {input}, clock_.Now()});
  std::vector<ServerReply> replies = DispatchBatch(*server_, batch).ops;
  for (const ServerReply& reply : replies) {
    ASSERT_TRUE(reply.status.ok()) << reply.status.ToString();
  }
  // The begin ran before the checkout: the checkout found its DOP.
  auto* checkout = std::get_if<CheckoutReply>(&replies[1].body);
  ASSERT_NE(checkout, nullptr);
  EXPECT_EQ(checkout->record.id, input);
  // The lock was recorded before the finish, so the CommitDop released
  // it: no derivation lock is left, and the DOP is deregistered.
  EXPECT_FALSE(server_->locks().DerivationHolder(input).valid());
  EXPECT_TRUE(server_->DaOfDop(dop).status().IsNotFound());
  // The checkin on the other DOP committed its DOV.
  auto* checkin = std::get_if<CheckinReply>(&replies[3].body);
  ASSERT_NE(checkin, nullptr);
  EXPECT_TRUE(repo_.Contains(checkin->dov));
  EXPECT_EQ(server_->locks().ScopeOwner(checkin->dov), DaId(2));

  ServerTmStats stats = server_->stats();
  EXPECT_EQ(stats.dops_committed, 1u);
  EXPECT_EQ(stats.checkins, 1u);
}

// The partition tasks one executor call costs at K = 4, counted as
// the delta of the summed mailbox-plus-borrowed task counters: each op
// runs exactly the tasks its state needs, and no hop more.
class PartitionedTmTaskCostTest : public PartitionedTmTest {
 protected:
  uint64_t TasksOf(const std::function<void()>& call) {
    auto total = [&] {
      uint64_t tasks = 0;
      for (size_t p = 0; p < server_->partition_count(); ++p) {
        tasks += server_->partition_queue_stats(p).tasks;
      }
      return tasks;
    };
    uint64_t before = total();
    call();
    return total() - before;
  }
};

INSTANTIATE_TEST_SUITE_P(Partitions, PartitionedTmTaskCostTest,
                         ::testing::Values(4));

TEST_P(PartitionedTmTaskCostTest, EachOneOpCallRunsOnlyTheTasksItNeeds) {
  DovId a = Seed(DaId(1), 1);
  DovId b = Seed(DaId(1), 2);
  ASSERT_NE(DovPartitionOf(a, 4), DovPartitionOf(b, 4));
  DopId dop(1), other(2);
  // Registration on the DOP's partition.
  EXPECT_EQ(TasksOf([&] { EXPECT_TRUE(server_->BeginDop(dop, DaId(1)).ok()); }),
            1u);
  EXPECT_EQ(
      TasksOf([&] { EXPECT_TRUE(server_->BeginDop(other, DaId(1)).ok()); }),
      1u);
  // The lookup alone.
  EXPECT_EQ(TasksOf([&] { EXPECT_TRUE(server_->DaOfDop(dop).ok()); }), 1u);
  // Lookup, then the lock test and read on the DOV's partition.
  EXPECT_EQ(
      TasksOf([&] { EXPECT_TRUE(server_->Checkout(other, a, false).ok()); }),
      2u);
  // ... plus the held lock's record on the DOP's partition.
  EXPECT_EQ(TasksOf([&] { EXPECT_TRUE(server_->Checkout(dop, a, true).ok()); }),
            3u);
  EXPECT_EQ(TasksOf([&] { EXPECT_TRUE(server_->Checkout(dop, b, true).ok()); }),
            3u);
  // Lookup, then the repository transaction on the new DOV's partition.
  EXPECT_EQ(TasksOf([&] {
              EXPECT_TRUE(
                  server_->Checkin(other, MakeObj(3), {a}, clock_.Now()).ok());
            }),
            2u);
  // Extraction, then one release task per DOV partition holding a lock.
  EXPECT_EQ(TasksOf([&] { EXPECT_TRUE(server_->CommitDop(dop).ok()); }), 3u);
  EXPECT_FALSE(server_->locks().DerivationHolder(a).valid());
  EXPECT_FALSE(server_->locks().DerivationHolder(b).valid());
  // No locks held: the extraction alone.
  EXPECT_EQ(TasksOf([&] { EXPECT_TRUE(server_->AbortDop(other).ok()); }), 1u);
}

TEST_P(PartitionedTmTest, CrashWipesAllPartitionsAndRecoverRestores) {
  DovId input = Seed(DaId(1), 5);
  std::vector<DopId> dops;
  for (uint64_t i = 1; i <= 8; ++i) {
    DopId dop(i);
    ASSERT_TRUE(server_->BeginDop(dop, DaId(1)).ok());
    ASSERT_TRUE(server_->Checkout(dop, input, false).ok());
    dops.push_back(dop);
  }
  server_->Crash();
  ASSERT_TRUE(server_->Recover().ok());
  // Every partition's registrations were wiped and remembered: any
  // pre-crash DOP now answers the typed kUnknownDop, whichever
  // partition owned it.
  for (DopId dop : dops) {
    EXPECT_TRUE(server_->Checkout(dop, input, false).status().IsUnknownDop());
  }
  EXPECT_EQ(server_->stats().unknown_dop_requests, 8u);
}

// The satellite regression: crash/recover must drain in-flight
// partition work deterministically — no executor may touch freed or
// wiped state after Crash() returns. Run under TSAN in CI.
TEST(PartitionCrashDrainTest, CrashRecoverUnderConcurrentTraffic) {
  SimClock clock;
  rpc::Network network(&clock, 1);
  storage::Repository repo(&clock);
  auto* type = repo.schema().DefineType("thing");
  type->AddAttr({"value", storage::AttrType::kInt, true, 0.0, 1000.0});
  DotId dot = type->id();
  PermissiveScopeAuthority scope;
  NodeId node = network.AddNode("server");
  ServerTm server(&repo, &network, node, &scope, nullptr, /*partitions=*/4);

  std::vector<DovId> inputs;
  for (int i = 0; i < 32; ++i) {
    TxnId txn = repo.Begin();
    storage::DovRecord record;
    record.id = repo.NextDovId();
    record.owner_da = DaId(1);
    record.type = dot;
    record.data = storage::DesignObject(dot);
    record.data.SetAttr("value", static_cast<int64_t>(i));
    DovId id = record.id;
    repo.Put(txn, std::move(record)).ok();
    repo.Commit(txn).ok();
    server.locks().SetScopeOwner(id, DaId(1));
    inputs.push_back(id);
  }

  constexpr int kDesigners = 8;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> ops{0};
  std::vector<std::thread> designers;
  for (int t = 0; t < kDesigners; ++t) {
    designers.emplace_back([&, t] {
      uint64_t seq = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        // Fresh DOP ids per attempt: registrations race the crashes,
        // and every status (OK / unknown-DOP / not-found) is legal —
        // the invariant under test is freedom from data races and
        // use-after-wipe, not success.
        DopId dop(1000 + static_cast<uint64_t>(t) * 1000000 + ++seq);
        if (server.BeginDop(dop, DaId(1)).ok()) {
          for (int i = 0; i < 4; ++i) {
            server.Checkout(dop, inputs[(t * 4 + i) % inputs.size()],
                            (i % 2) == 0);
          }
          storage::DesignObject obj(dot);
          obj.SetAttr("value", static_cast<int64_t>(seq % 1000));
          server.Checkin(dop, std::move(obj), {}, 0);
          server.CommitDop(dop).ok();
        }
        ++ops;
      }
    });
  }

  for (int round = 0; round < 5; ++round) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    server.Crash();
    ASSERT_TRUE(server.Recover().ok());
  }
  stop.store(true);
  for (auto& d : designers) d.join();
  EXPECT_GT(ops.load(), 0u);
  // The system still works after the storm.
  DopId dop(1);
  ASSERT_TRUE(server.BeginDop(dop, DaId(1)).ok());
  EXPECT_TRUE(server.Checkout(dop, inputs[0], false).ok());
}

// Concurrent DispatchBatch traffic on a two-partition node: Begin,
// an independent two-checkout envelope (with a derivation lock on the
// other partition than the DOP's), and checkin+commit envelopes — half
// degenerate [Prepare, ops, Decide], half two-phase — from four
// designers, while a reader polls stats and dispatches registration
// reads. Tasks borrow idle partitions and queue behind busy ones; the
// counts and locks must come out exact. Run under TSan in CI (thread
// asserts on in the sanitizer legs).
TEST(PartitionedDispatchTest, ConcurrentEnvelopesCountEveryCheckinOnce) {
  SimClock clock;
  rpc::Network network(&clock, 1);
  storage::Repository repo(&clock);
  auto* type = repo.schema().DefineType("thing");
  type->AddAttr({"value", storage::AttrType::kInt, true, 0.0, 1000.0});
  DotId dot = type->id();
  PermissiveScopeAuthority scope;
  NodeId node = network.AddNode("server");
  ServerTm server(&repo, &network, node, &scope, nullptr, /*partitions=*/2);

  constexpr int kDesigners = 4;
  constexpr int kDops = 100;
  // Two DOVs per designer, one on each partition, owned by its DA.
  std::vector<std::vector<DovId>> owned(kDesigners);
  for (int t = 0; t < kDesigners; ++t) {
    for (int i = 0; i < 2; ++i) {
      TxnId txn = repo.Begin();
      storage::DovRecord record;
      record.id = repo.NextDovId();
      record.owner_da = DaId(t + 1);
      record.type = dot;
      record.data = storage::DesignObject(dot);
      record.data.SetAttr("value", static_cast<int64_t>(i));
      DovId id = record.id;
      repo.Put(txn, std::move(record)).ok();
      repo.Commit(txn).ok();
      server.locks().SetScopeOwner(id, DaId(t + 1));
      owned[t].push_back(id);
    }
    ASSERT_NE(DovPartitionOf(owned[t][0], 2), DovPartitionOf(owned[t][1], 2));
  }

  std::atomic<uint64_t> acked{0};
  std::atomic<int> failures{0};
  std::atomic<bool> designers_done{false};
  std::vector<std::thread> designers;
  for (int t = 0; t < kDesigners; ++t) {
    designers.emplace_back([&, t] {
      DaId da(t + 1);
      uint64_t txn_seq = static_cast<uint64_t>(t + 1) << 32;
      for (int i = 0; i < kDops; ++i) {
        DopId dop((static_cast<uint64_t>(t + 1) << 32) | (i + 1));
        size_t dop_part = DopPartitionOf(dop, 2);
        DovId cross = owned[t][DovPartitionOf(owned[t][0], 2) == dop_part];
        DovId local = owned[t][DovPartitionOf(owned[t][0], 2) != dop_part];

        BatchRequest begin;
        TxnId begin_txn(++txn_seq);
        begin.ops = {PrepareRequest{begin_txn}, BeginDopRequest{dop, da},
                     DecideRequest{begin_txn, true}};
        if (!DispatchBatch(server, begin).ops[1].status.ok()) ++failures;

        BatchRequest checkout;
        TxnId checkout_txn(++txn_seq);
        checkout.independent = true;
        checkout.ops = {PrepareRequest{checkout_txn},
                        CheckoutRequest{dop, cross, true},
                        CheckoutRequest{dop, local, false},
                        DecideRequest{checkout_txn, true}};
        BatchReply read = DispatchBatch(server, checkout);
        if (!read.ops[1].status.ok() || !read.ops[2].status.ok()) ++failures;

        TxnId commit_txn(++txn_seq);
        storage::DesignObject obj(dot);
        obj.SetAttr("value", static_cast<int64_t>(i));
        BatchRequest commit;
        commit.ops = {PrepareRequest{commit_txn},
                      CheckinRequest{dop, std::move(obj), {cross}, 0},
                      CommitDopRequest{dop}};
        bool two_phase = (i % 2) == 1;
        if (!two_phase) {
          commit.ops.emplace_back(DecideRequest{commit_txn, true});
        }
        BatchReply wrote = DispatchBatch(server, commit);
        bool ok = wrote.ops[1].status.ok() && wrote.ops[2].status.ok();
        if (two_phase) {
          BatchRequest decide;
          decide.ops = {DecideRequest{commit_txn, ok}};
          ok = DispatchBatch(server, decide).ops[0].status.ok() && ok;
        }
        if (ok) {
          ++acked;
        } else {
          ++failures;
        }
      }
    });
  }
  std::thread reader([&] {
    BatchRequest reads;
    reads.independent = true;
    reads.ops = {DaOfDopRequest{DopId((uint64_t{1} << 32) | 1)},
                 DaOfDopRequest{DopId((uint64_t{2} << 32) | 2)}};
    while (!designers_done.load()) {
      server.stats();
      for (size_t p = 0; p < 2; ++p) server.partition_queue_stats(p);
      server.PreparedTxns();
      DispatchBatch(server, reads);
    }
  });
  for (auto& d : designers) d.join();
  designers_done.store(true);
  reader.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(acked.load(), uint64_t{kDesigners} * kDops);
  uint64_t checkins = 0;
  for (size_t p = 0; p < 2; ++p) checkins += server.partition_stats(p).checkins;
  EXPECT_EQ(checkins, acked.load());
  for (const auto& dovs : owned) {
    for (DovId dov : dovs) {
      EXPECT_FALSE(server.locks().DerivationHolder(dov).valid())
          << dov.ToString();
    }
  }
  EXPECT_TRUE(server.PreparedTxns().empty());
}

}  // namespace
}  // namespace concord::txn
