#ifndef CONCORD_WORKFLOW_TASK_GRAPH_H_
#define CONCORD_WORKFLOW_TASK_GRAPH_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/status.h"

namespace concord::workflow {

/// Lexicographic position of a task node in the depth-first lowering of
/// a script: child i of a construct ranked r is ranked r+[i]. Running
/// ready nodes in ascending rank order reproduces the depth-first
/// interleaving of the old synchronous stack machine exactly — this is
/// the determinism contract of the single-threaded scheduler mode.
/// Nodes added mid-run (alternative/iteration/open expansions) inherit
/// their decision node's rank prefix, so the order stays total even
/// though the graph grows while it executes.
using TaskRank = std::vector<uint32_t>;

/// Rank component reserved for the join closing a compound lowering
/// (branch / alternative / iteration / open): larger than any real
/// child index, so the join orders after its entire subtree.
inline constexpr uint32_t kJoinRank = std::numeric_limits<uint32_t>::max();

/// "0.1.2" — also the replay key persisted with each log entry.
std::string TaskRankToString(const TaskRank& rank);

enum class TaskNodeKind {
  /// Runs one DOP through the tool runner (pool-eligible).
  kDop,
  /// Runs one DA-level operation through the cooperation layer
  /// (pool-eligible).
  kDaOp,
  /// A designer decision point (alternative choice, iteration
  /// continue, open-segment plan). Decision bodies may expand the
  /// graph, so they always run on the choreographer thread.
  kDecision,
  /// Structural barrier closing a compound construct. No body work;
  /// always runs on the choreographer thread.
  kJoin,
};

const char* TaskNodeKindToString(TaskNodeKind kind);

enum class TaskNodeState {
  kBlocked,    // has unmet dependencies
  kReady,      // all dependencies met, awaiting dispatch
  kRunning,    // dispatched (inline or on an executor)
  kDone,       // body returned OK
  kFailed,     // body returned an error (kContinueOnError only)
  kCancelled,  // a transitive dependency failed (kContinueOnError only)
};

/// What the scheduler does when a node's body fails.
enum class ErrorPolicy {
  /// Stop dispatching, surface the first error, and re-arm the failed
  /// node as kReady — it is a *retry point*: the next run resumes
  /// exactly there (the design-manager semantics for aborted DOPs).
  kCancelOnError,
  /// Mark the node kFailed, cancel its transitive dependents, keep
  /// executing independent subtrees, and report the first error once
  /// the rest of the graph has drained.
  kContinueOnError,
};

using TaskNodeId = uint32_t;
inline constexpr TaskNodeId kNoTaskNode =
    std::numeric_limits<TaskNodeId>::max();

/// One schedulable unit: a DOP run, a DA-op, a decision, or a join.
struct TaskNode {
  TaskNodeKind kind = TaskNodeKind::kJoin;
  TaskNodeState state = TaskNodeState::kBlocked;
  TaskRank rank;
  /// DOP type / DA-op name / decision label (for hooks and logs).
  std::string name;
  /// The node's action. Null bodies (joins) complete immediately with
  /// OK. Decision bodies may call TaskGraph::AddNode/AddEdge — they
  /// run on the choreographer thread, which owns the graph.
  std::function<Status()> body;
  /// Sim-time budget for the body (0 = unlimited). Enforced
  /// cooperatively: the scheduler compares the sim-clock before/after
  /// the body and converts an overrun into an Aborted status.
  SimTime timeout = 0;
  size_t unmet_deps = 0;
  std::vector<TaskNodeId> dependents;
  /// Outcome of the last execution attempt.
  Status last_status;
};

/// Dependency graph of task nodes, grown by lowering a Script (and by
/// decision bodies at run time). NOT thread-safe: the scheduler
/// confines all graph access to the choreographer thread; executor
/// threads only run node bodies and report completions through the
/// scheduler's queue.
class TaskGraph {
 public:
  /// Adds a node. With no dependencies it becomes kReady immediately.
  TaskNodeId AddNode(TaskNodeKind kind, TaskRank rank, std::string name,
                     std::function<Status()> body, SimTime timeout = 0);

  /// Adds the edge `from` → `to`. If `from` is already done the edge is
  /// satisfied on arrival (mid-run expansion wires new nodes to both
  /// finished and unfinished predecessors).
  void AddEdge(TaskNodeId from, TaskNodeId to);

  void Clear();

  size_t size() const { return nodes_.size(); }
  bool empty() const { return nodes_.empty(); }
  const TaskNode& node(TaskNodeId id) const { return nodes_[id]; }
  TaskNode& node(TaskNodeId id) { return nodes_[id]; }

  bool HasReady() const { return !ready_.empty(); }
  /// Lowest-ranked ready node (the determinism contract), or
  /// kNoTaskNode when nothing is ready.
  TaskNodeId MinReady() const;

  /// kReady → kRunning (removes the node from the ready set).
  void MarkRunning(TaskNodeId id);
  /// kRunning → kDone; unblocks dependents whose last dependency this
  /// was.
  void MarkDone(TaskNodeId id);
  /// kRunning → kReady: the retry-point transition of
  /// ErrorPolicy::kCancelOnError.
  void MarkReadyAgain(TaskNodeId id);
  /// kRunning → kFailed, and every transitive dependent that is not
  /// already terminal → kCancelled (ErrorPolicy::kContinueOnError).
  void MarkFailed(TaskNodeId id);

  size_t running() const { return running_; }
  /// Every node is kDone / kFailed / kCancelled.
  bool AllTerminal() const;
  /// Every node is kDone.
  bool AllDone() const;

 private:
  std::vector<TaskNode> nodes_;
  /// Ready set ordered by (rank, id): MinReady is the deterministic
  /// next node.
  std::set<std::pair<TaskRank, TaskNodeId>> ready_;
  size_t running_ = 0;
};

}  // namespace concord::workflow

#endif  // CONCORD_WORKFLOW_TASK_GRAPH_H_
