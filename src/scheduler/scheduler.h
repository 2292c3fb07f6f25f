#ifndef PIPES_SCHEDULER_SCHEDULER_H_
#define PIPES_SCHEDULER_SCHEDULER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/core/graph.h"
#include "src/scheduler/executor.h"
#include "src/scheduler/profiler.h"
#include "src/scheduler/strategy.h"

/// \file
/// Layer 3 of the scheduling framework. The single-thread driver is
/// `PipeExecutor` (executor.h); it runs all active nodes of a graph in one
/// thread under a layer-2 `Strategy`, fully deterministic.
///
/// `ThreadScheduler` partitions the active nodes over several worker
/// threads. Each worker is a `PipeExecutor` over its active nodes plus the
/// passive operators they reach, with its own strategy instance. Edges
/// that cross a thread boundary must go through a `ConcurrentBuffer`.

namespace pipes::scheduler {

/// Builds a `ThreadScheduler` assignment vector from a node→worker map:
/// the result follows `graph.ActiveNodes()` order, mapping each listed node
/// through `worker_of` and everything unlisted to worker 0. This is how
/// plan-level helpers (e.g. the keyed-parallel replication in
/// `src/algebra/parallel.h`) pin a replica chain — the `ConcurrentBuffer`s
/// that feed it — to one worker without knowing active-node order.
std::vector<int> MakeAssignment(
    const QueryGraph& graph,
    const std::unordered_map<const Node*, int>& worker_of);

/// Layer 3: fixed partitioning of active nodes onto worker threads. Each
/// worker runs a `PipeExecutor` with a private strategy over its partition
/// — its active nodes plus every passive operator reachable from them
/// without crossing another active node — until the whole graph has
/// drained.
class ThreadScheduler {
 public:
  using StrategyFactory = std::function<std::unique_ptr<Strategy>()>;

  /// `assignment[i]` is the worker index (in [0, num_threads)) of the i-th
  /// active node (graph.ActiveNodes() order). An empty assignment
  /// distributes round-robin.
  ThreadScheduler(QueryGraph& graph, int num_threads,
                  StrategyFactory strategy_factory,
                  std::vector<int> assignment = {},
                  std::size_t batch_size = 64);

  /// Runs worker threads until the graph is drained; returns merged stats.
  /// Aborts, before any thread starts, if an operator is reachable from
  /// two workers without a `ConcurrentBuffer` between them (a data race).
  RunStats RunToCompletion();

  /// Attaches a profiler. Each worker records into a private instance; the
  /// merged result is folded into `profiler` when RunToCompletion returns
  /// (so the target needs no synchronization).
  void set_profiler(Profiler* profiler) { profiler_ = profiler; }

 private:
  QueryGraph& graph_;
  int num_threads_;
  StrategyFactory strategy_factory_;
  std::vector<int> assignment_;
  std::size_t batch_size_;
  Profiler* profiler_ = nullptr;
};

}  // namespace pipes::scheduler

#endif  // PIPES_SCHEDULER_SCHEDULER_H_
