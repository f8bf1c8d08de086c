#ifndef CONCORD_TXN_PARTITION_H_
#define CONCORD_TXN_PARTITION_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/sync.h"

namespace concord::txn {

/// Executor-side counters of one partition, padded so two partitions'
/// counters never share a cache line.
struct alignas(64) PartitionQueueStats {
  /// Tasks executed on the partition: mailbox tasks plus borrowed runs.
  std::atomic<uint64_t> tasks{0};
  /// Of `tasks`, the Run calls the caller executed itself on the idle
  /// partition (no mailbox hop).
  std::atomic<uint64_t> inline_runs{0};
  /// Mailbox dequeue bursts: one burst drains everything queued at
  /// wake-up, so (tasks - inline_runs)/batches is the effective
  /// batching factor under load.
  std::atomic<uint64_t> batches{0};
  /// Deepest the mailbox ever got (contention indicator).
  std::atomic<uint64_t> queue_high_water{0};
};

/// Plain snapshot of PartitionQueueStats.
struct PartitionQueueSnapshot {
  uint64_t tasks = 0;
  uint64_t inline_runs = 0;
  uint64_t batches = 0;
  uint64_t queue_high_water = 0;
};

/// The shared-nothing execution core of a server node: K partitions,
/// each a single-threaded executor with an MPSC mailbox. State sliced
/// across partitions is touched only by tasks submitted to the owning
/// partition — cross-partition work rides messages (closures) with
/// completion futures, never a shared data mutex.
///
/// Ownership is an exclusive token per partition, not a thread: the
/// executor holds it while it drains its mailbox, and a Run caller may
/// borrow it for one task when the executor is idle and the mailbox
/// empty (flat combining: the waiter does the work itself instead of
/// paying a wake-up and a future hop). A borrowed task runs tagged as
/// partition p's executor, and the executor, Drain() and Stop() wait
/// while the token is out, so tasks on one partition still never
/// overlap and still run in submission order.
///
/// K == 1 is the inline mode: no thread is spawned and Run/Post
/// execute the task on the calling thread, reproducing the
/// pre-partitioning behaviour bit-identically (including same-thread
/// reentrancy into callers' recursive mutexes).
///
/// Deadlock discipline: a task RUNNING ON an executor must never
/// submit-and-wait to another partition (executors waiting on each
/// other can cycle). Choreography across partitions belongs on the
/// dispatching thread — it submits a step, waits, and submits the next
/// step to the next owner. Tasks themselves only touch partition-owned
/// state and internally-synchronized leaves (repository shards, WAL).
class PartitionEngine {
 public:
  explicit PartitionEngine(size_t partitions) : partitions_(partitions) {
    if (partitions_ < 1) partitions_ = 1;
    if (partitions_ == 1) return;
    executors_.reserve(partitions_);
    for (size_t p = 0; p < partitions_; ++p) {
      executors_.push_back(std::make_unique<Executor>());
      Executor* ex = executors_.back().get();
      ex->thread = std::thread([this, ex, p] {
        // The executor owns partition p for its whole lifetime; the
        // role tag is what CONCORD_ASSERT_ON_PARTITION checks against.
        ScopedThreadRole role(ThreadRole::kPartitionExecutor,
                              static_cast<int>(p));
        RunLoop(ex);
      });
    }
  }

  ~PartitionEngine() { Stop(); }
  PartitionEngine(const PartitionEngine&) = delete;
  PartitionEngine& operator=(const PartitionEngine&) = delete;

  size_t count() const { return partitions_; }
  /// False in inline mode (K == 1, or after Stop()).
  bool threaded() const { return !executors_.empty() && !stopped_; }

  /// Runs `fn` as a task of partition `p` and returns its result: on
  /// the calling thread when the partition is idle (borrowing its
  /// token), otherwise through the mailbox behind the queued work (or
  /// inline when not threaded).
  template <typename F>
  std::invoke_result_t<F> Run(size_t p, F&& fn) const {
    if (!threaded()) return std::forward<F>(fn)();
    // Deadlock rule (class comment): submit-and-wait is forbidden FROM
    // executor context — executors waiting on each other can cycle. A
    // borrowed task carries the executor tag, so the rule holds there.
    CONCORD_ASSERT_OFF_EXECUTOR();
    size_t owner = p % executors_.size();
    Borrow borrow(executors_[owner].get());
    if (!borrow.held()) return Post(p, std::forward<F>(fn)).get();
    ScopedThreadRole role(ThreadRole::kPartitionExecutor,
                          static_cast<int>(owner));
    return std::forward<F>(fn)();
  }

  /// Runs `body(p)` once for each (distinct) partition in `parts` and
  /// returns when all are done. Every partition but the last gets a
  /// mailbox task; the last goes through Run, so the caller works one
  /// slice instead of sleeping.
  template <typename F>
  void RunEach(const std::vector<size_t>& parts, const F& body) const {
    if (parts.empty()) return;
    std::vector<std::future<void>> done;
    done.reserve(parts.size() - 1);
    for (size_t i = 0; i + 1 < parts.size(); ++i) {
      size_t p = parts[i];
      done.push_back(Post(p, [&body, p] { body(p); }));
    }
    size_t last = parts.back();
    Run(last, [&body, last] { body(last); });
    for (auto& f : done) f.get();
  }

  /// Submits `fn` to partition `p` and returns the completion future —
  /// the fan-out primitive (submit to many partitions, then wait).
  template <typename F>
  std::future<std::invoke_result_t<F>> Post(size_t p, F&& fn) const {
    using R = std::invoke_result_t<F>;
    if (!threaded()) {
      std::promise<R> ready;
      if constexpr (std::is_void_v<R>) {
        std::forward<F>(fn)();
        ready.set_value();
      } else {
        ready.set_value(std::forward<F>(fn)());
      }
      return ready.get_future();
    }
    // std::function must be copyable, so the move-only packaged_task
    // rides behind a shared_ptr. One allocation per message — the
    // handoff cost is identical for every K, so scaling ratios are
    // unaffected.
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> future = task->get_future();
    Enqueue(p, [task] { (*task)(); });
    return future;
  }

  /// Barrier: returns when every mailbox is empty, every executor idle
  /// and no token borrowed. Only meaningful when no new work is being
  /// submitted.
  void Drain() const {
    CONCORD_ASSERT_OFF_EXECUTOR();
    for (const auto& ex : executors_) {
      MutexLock lock(&ex->mu);
      while (!(ex->queue.empty() && ex->idle && !ex->borrowed)) {
        ex->idle_cv.Wait(&ex->mu);
      }
    }
  }

  /// Joins the executor threads (after finishing all queued work and
  /// any borrowed run).
  /// Further Run/Post calls execute inline — the shutdown path may
  /// still need to touch partition state, just not concurrently.
  void Stop() {
    if (executors_.empty() || stopped_) return;
    for (auto& ex : executors_) {
      {
        MutexLock lock(&ex->mu);
        ex->stop = true;
      }
      ex->cv.NotifyOne();
    }
    for (auto& ex : executors_) {
      if (ex->thread.joinable()) ex->thread.join();
    }
    stopped_ = true;
  }

  PartitionQueueSnapshot queue_stats(size_t p) const {
    PartitionQueueSnapshot snap;
    if (p >= executors_.size()) return snap;
    const PartitionQueueStats& stats = executors_[p]->stats;
    snap.tasks = stats.tasks.load(std::memory_order_relaxed);
    snap.inline_runs = stats.inline_runs.load(std::memory_order_relaxed);
    snap.batches = stats.batches.load(std::memory_order_relaxed);
    snap.queue_high_water =
        stats.queue_high_water.load(std::memory_order_relaxed);
    return snap;
  }

 private:
  struct Executor {
    Mutex mu;
    CondVar cv;
    CondVar idle_cv;
    std::deque<std::function<void()>> queue GUARDED_BY(mu);
    bool stop GUARDED_BY(mu) = false;
    bool idle GUARDED_BY(mu) = true;
    /// A Run caller holds the partition's token (see Borrow).
    bool borrowed GUARDED_BY(mu) = false;
    PartitionQueueStats stats;
    std::thread thread;
  };

  /// The partition's token, taken for one Run on the calling thread.
  /// Held only when the executor was idle with an empty mailbox, so
  /// nothing submitted earlier is still pending. Handing it back wakes
  /// the executor if work queued meanwhile (or Stop() is waiting), and
  /// any Drain() waiter.
  class Borrow {
   public:
    explicit Borrow(Executor* ex) : ex_(ex) {
      MutexLock lock(&ex_->mu);
      held_ = ex_->idle && !ex_->borrowed && ex_->queue.empty();
      ex_->borrowed = held_;
    }
    ~Borrow() {
      if (!held_) return;
      ex_->stats.tasks.fetch_add(1, std::memory_order_relaxed);
      ex_->stats.inline_runs.fetch_add(1, std::memory_order_relaxed);
      bool wake = false;
      {
        MutexLock lock(&ex_->mu);
        ex_->borrowed = false;
        wake = ex_->stop || !ex_->queue.empty();
      }
      if (wake) ex_->cv.NotifyOne();
      ex_->idle_cv.NotifyAll();
    }
    Borrow(const Borrow&) = delete;
    Borrow& operator=(const Borrow&) = delete;

    bool held() const { return held_; }

   private:
    Executor* ex_;
    bool held_ = false;
  };

  void Enqueue(size_t p, std::function<void()> task) const {
    Executor* ex = executors_[p % executors_.size()].get();
    {
      MutexLock lock(&ex->mu);
      ex->queue.push_back(std::move(task));
      uint64_t depth = ex->queue.size();
      uint64_t high = ex->stats.queue_high_water.load(std::memory_order_relaxed);
      if (depth > high) {
        ex->stats.queue_high_water.store(depth, std::memory_order_relaxed);
      }
    }
    ex->cv.NotifyOne();
  }

  void RunLoop(Executor* ex) {
    std::deque<std::function<void()>> burst;
    for (;;) {
      {
        MutexLock lock(&ex->mu);
        ex->idle = true;
        ex->idle_cv.NotifyAll();
        while (ex->borrowed || (!ex->stop && ex->queue.empty())) {
          ex->cv.Wait(&ex->mu);
        }
        if (ex->queue.empty()) return;  // stop requested, mailbox drained
        burst.swap(ex->queue);
        ex->idle = false;
      }
      ex->stats.batches.fetch_add(1, std::memory_order_relaxed);
      ex->stats.tasks.fetch_add(burst.size(), std::memory_order_relaxed);
      for (auto& task : burst) task();
      burst.clear();
    }
  }

  size_t partitions_;
  bool stopped_ = false;
  /// Empty in inline mode. The executors are const-submittable: Run
  /// and Post are semantically reads of the engine (the mutation is
  /// the task's, on its owning partition).
  std::vector<std::unique_ptr<Executor>> executors_;
};

}  // namespace concord::txn

#endif  // CONCORD_TXN_PARTITION_H_
