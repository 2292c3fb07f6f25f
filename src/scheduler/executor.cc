#include "src/scheduler/executor.h"

#include <algorithm>

#include "src/common/macros.h"
#include "src/core/metrics.h"

namespace pipes::scheduler {

PipeExecutor::PipeExecutor(QueryGraph& graph, Strategy& strategy,
                           std::size_t batch_size)
    : PipeExecutor(graph.nodes(), strategy, batch_size) {}

PipeExecutor::PipeExecutor(const std::vector<Node*>& nodes,
                           Strategy& strategy, std::size_t batch_size)
    : strategy_(strategy), batch_size_(batch_size) {
  PIPES_CHECK(batch_size > 0);
  for (Node* node : nodes) {
    if (node->is_active()) active_.push_back(node);
    PipeBase* pipe = node->output_pipe();
    if (pipe == nullptr) continue;
    pipes_.push_back(pipe);
    pipe->Link(this);
  }
}

PipeExecutor::~PipeExecutor() {
  // Deliver leftover supply (e.g. an aborted run or a suspended engine) so
  // nothing staged under this executor outlives it, then unlink. The
  // profiler may already be gone.
  profiler_ = nullptr;
  while (!ready_.empty()) DeliverFront();
  for (PipeBase* pipe : pipes_) pipe->Unlink();
}

void PipeExecutor::PipeReady(PipeBase* pipe) { ready_.push_back(pipe); }

bool PipeExecutor::AllPipesIdle() const {
  return std::all_of(pipes_.begin(), pipes_.end(), [](const PipeBase* p) {
    return !p->HasStaged();
  });
}

std::size_t PipeExecutor::DeliverFront() {
  PipeBase* pipe = ready_.front();
  ready_.pop_front();
  pipe->ClearInQueue();
  ++deliver_nesting_;
  max_deliver_nesting_ = std::max(max_deliver_nesting_, deliver_nesting_);
  std::size_t units;
  if (profiler_ != nullptr) {
    const std::int64_t t0 = obs::SteadyNowNs();
    units = pipe->Deliver();
    const std::int64_t t1 = obs::SteadyNowNs();
    profiler_->RecordQuantum(*pipe->producer(), 1, units,
                             static_cast<std::uint64_t>(t1 - t0));
  } else {
    units = pipe->Deliver();
  }
  --deliver_nesting_;
  return units;
}

bool PipeExecutor::Step() {
  if (!ready_.empty()) {
    stats_.units += DeliverFront();
    ++stats_.iterations;
    return true;
  }

  // No ready pipe: poll an active node for fresh supply.
  candidates_.clear();
  std::size_t total_queue = 0;
  for (Node* node : active_) {
    total_queue += node->queue_size();
    if (node->HasWork()) candidates_.push_back(node);
  }
  stats_.peak_total_queue = std::max(stats_.peak_total_queue, total_queue);
  stats_.accumulated_queue += total_queue;
  if (candidates_.empty()) return false;

  const std::size_t pick = strategy_.Select(candidates_);
  PIPES_CHECK(pick < candidates_.size());
  Node* chosen = candidates_[pick];
  // Whatever the poll stages enqueues the node's pipe.
  if (profiler_ != nullptr) {
    const std::int64_t t0 = obs::SteadyNowNs();
    const std::size_t units = chosen->DoWork(batch_size_);
    const std::int64_t t1 = obs::SteadyNowNs();
    profiler_->RecordQuantum(*chosen, candidates_.size(), units,
                             static_cast<std::uint64_t>(t1 - t0));
    stats_.units += units;
  } else {
    stats_.units += chosen->DoWork(batch_size_);
  }
  ++stats_.polls;
  ++stats_.iterations;
  return true;
}

RunStats PipeExecutor::RunToCompletion(std::uint64_t max_iterations) {
  while (stats_.iterations < max_iterations) {
    if (!Step()) {
      // Either fully drained, or an external (non-scheduled) source still
      // owes input; in both cases nothing more can happen now.
      break;
    }
  }
  return stats_;
}

}  // namespace pipes::scheduler
