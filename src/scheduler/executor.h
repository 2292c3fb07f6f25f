#ifndef PIPES_SCHEDULER_EXECUTOR_H_
#define PIPES_SCHEDULER_EXECUTOR_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "src/core/graph.h"
#include "src/core/pipe_edge.h"
#include "src/scheduler/profiler.h"
#include "src/scheduler/strategy.h"

/// \file
/// The one single-thread driver (DESIGN.md §4f). On construction it links
/// the output pipe every `Source<T>`-derived node owns — enqueuing, once,
/// any pipe that already holds content — and the main loop then alternates
/// between two kinds of steps:
///
///  1. *Deliver*: pop the next ready pipe from the FIFO work queue and
///     deliver its staged columnar runs to the producer's subscribers. The
///     operators invoked stage their own output and enqueue their own
///     pipes, so a chain of any depth drains iteratively — the executor's
///     stack never grows with chain length.
///  2. *Poll*: when no pipe is ready, pick one active node (sources,
///     buffers) through the layer-2 `Strategy` and give it a `DoWork`
///     quantum, which stages fresh supply.
///
/// Delivery order is deterministic (FIFO over ready pipes, strategy over
/// active nodes), so runs are reproducible and the fuzzer's differential
/// oracles can compare arms. Destroying the executor delivers whatever is
/// still staged and unlinks the pipes; content staged afterwards (e.g. by
/// a graph mutation) waits for the next executor.

namespace pipes::scheduler {

/// Aggregate statistics of one run.
struct RunStats {
  /// Steps taken: pipe deliveries plus DoWork polls.
  std::uint64_t iterations = 0;
  /// DoWork polls among them (the steps that sample queue sizes).
  std::uint64_t polls = 0;
  /// Work units performed (elements + control signals).
  std::uint64_t units = 0;
  /// Peak of the summed queue sizes over all active nodes, sampled at each
  /// poll — the memory objective Chain minimizes.
  std::size_t peak_total_queue = 0;
  /// Sum over polls of total queued entries (time-averaged queue occupancy
  /// x polls).
  std::uint64_t accumulated_queue = 0;
};

/// Deterministic one-thread, queue-driven driver.
class PipeExecutor : public ExecutorLink {
 public:
  /// Drives every node of `graph`. `batch_size` is the max work units per
  /// DoWork poll (Aurora-style train size). The graph must not gain or
  /// lose nodes while the executor lives.
  PipeExecutor(QueryGraph& graph, Strategy& strategy,
               std::size_t batch_size = 64);

  /// Drives `nodes` only — one `ThreadScheduler` worker's share of a
  /// graph: links their pipes and polls the active ones, in this order.
  PipeExecutor(const std::vector<Node*>& nodes, Strategy& strategy,
               std::size_t batch_size = 64);

  /// Delivers everything still staged, then unlinks every pipe.
  ~PipeExecutor() override;

  PipeExecutor(const PipeExecutor&) = delete;
  PipeExecutor& operator=(const PipeExecutor&) = delete;

  /// One step: a pipe delivery if any pipe is ready, otherwise one DoWork
  /// quantum on a strategy-selected active node. Returns false when neither
  /// is possible (graph drained, or an external source still owes input).
  bool Step();

  /// Runs until the graph is drained and every pipe is idle, or
  /// `max_iterations` steps were taken.
  RunStats RunToCompletion(
      std::uint64_t max_iterations = std::uint64_t{1} << 62);

  const RunStats& stats() const { return stats_; }

  /// Attaches a profiler: DoWork quanta are recorded with their candidate
  /// count; pipe deliveries are recorded against the producer node.
  /// nullptr detaches; unprofiled runs pay nothing.
  void set_profiler(Profiler* profiler) { profiler_ = profiler; }

  /// True when every pipe has delivered everything staged.
  bool AllPipesIdle() const;

  /// Deepest observed nesting of `Deliver` calls. Structurally always 1 —
  /// delivery never recurses into another delivery — and asserted by the
  /// stack-safety tests; exposed so they do not need to instrument pipes.
  std::size_t max_deliver_nesting() const { return max_deliver_nesting_; }

 private:
  /// ExecutorLink: a pipe gained staged content — enqueue it (nothing
  /// else).
  void PipeReady(PipeBase* pipe) override;

  /// Pops and delivers the front ready pipe; returns the units delivered.
  std::size_t DeliverFront();

  Strategy& strategy_;
  std::size_t batch_size_;
  RunStats stats_;
  Profiler* profiler_ = nullptr;

  /// Active nodes polled for supply, in construction order.
  std::vector<Node*> active_;
  /// Every pipe linked at construction, for unlink and idle checks.
  std::vector<PipeBase*> pipes_;
  /// Ready pipes in arrival order.
  std::deque<PipeBase*> ready_;
  /// Poll scratch: the active nodes that have work.
  std::vector<Node*> candidates_;

  std::size_t deliver_nesting_ = 0;
  std::size_t max_deliver_nesting_ = 0;
};

}  // namespace pipes::scheduler

#endif  // PIPES_SCHEDULER_EXECUTOR_H_
