#include "src/scheduler/scheduler.h"

#include <algorithm>
#include <memory>
#include <string>
#include <thread>

#include "src/common/macros.h"
#include "src/core/metrics.h"

namespace pipes::scheduler {

std::vector<int> MakeAssignment(
    const QueryGraph& graph,
    const std::unordered_map<const Node*, int>& worker_of) {
  const std::vector<Node*> active = graph.ActiveNodes();
  std::vector<int> assignment(active.size(), 0);
  for (std::size_t i = 0; i < active.size(); ++i) {
    const auto it = worker_of.find(active[i]);
    if (it != worker_of.end()) assignment[i] = it->second;
  }
  return assignment;
}

ThreadScheduler::ThreadScheduler(QueryGraph& graph, int num_threads,
                                 StrategyFactory strategy_factory,
                                 std::vector<int> assignment,
                                 std::size_t batch_size)
    : graph_(graph),
      num_threads_(num_threads),
      strategy_factory_(std::move(strategy_factory)),
      assignment_(std::move(assignment)),
      batch_size_(batch_size) {
  PIPES_CHECK(num_threads_ > 0);
}

namespace {

/// Splits the graph into one node list per worker: each worker's assigned
/// active nodes (in graph order), then every passive node reachable from
/// them without crossing another active node. Passive nodes with no
/// upstream (externally fed sources) ride on worker 0. Aborts on a passive
/// node two workers reach — it would run on both threads at once.
std::vector<std::vector<Node*>> OwnedNodes(const QueryGraph& graph,
                                           const std::vector<int>& assignment,
                                           int num_threads) {
  std::vector<std::vector<Node*>> owned(num_threads);
  const std::vector<Node*> active = graph.ActiveNodes();
  PIPES_CHECK(assignment.empty() || assignment.size() >= active.size());
  for (std::size_t i = 0; i < active.size(); ++i) {
    const int worker = assignment.empty()
                           ? static_cast<int>(i % num_threads)
                           : assignment[i];
    PIPES_CHECK(worker >= 0 && worker < num_threads);
    owned[worker].push_back(active[i]);
  }
  for (Node* node : graph.nodes()) {
    if (!node->is_active() && node->upstream().empty()) {
      owned[0].push_back(node);
    }
  }
  std::unordered_map<const Node*, int> owner;
  for (int w = 0; w < num_threads; ++w) {
    std::vector<Node*> stack = owned[w];
    for (Node* root : stack) owner.emplace(root, w);
    while (!stack.empty()) {
      Node* node = stack.back();
      stack.pop_back();
      for (Node* down : node->downstream()) {
        if (down->is_active()) continue;
        const auto [it, fresh] = owner.emplace(down, w);
        if (!fresh) {
          PIPES_CHECK_MSG(it->second == w,
                          ("operator '" + down->name() +
                           "' is reachable from workers " +
                           std::to_string(it->second) + " and " +
                           std::to_string(w) +
                           " with no ConcurrentBuffer between them")
                              .c_str());
          continue;
        }
        owned[w].push_back(down);
        stack.push_back(down);
      }
    }
  }
  return owned;
}

}  // namespace

RunStats ThreadScheduler::RunToCompletion() {
  const std::vector<std::vector<Node*>> owned =
      OwnedNodes(graph_, assignment_, num_threads_);
  std::vector<std::unique_ptr<Strategy>> strategies;
  std::vector<std::unique_ptr<PipeExecutor>> executors;
  std::vector<Profiler> per_thread_profile(
      profiler_ != nullptr ? num_threads_ : 0);
  for (int w = 0; w < num_threads_; ++w) {
    strategies.push_back(strategy_factory_());
    executors.push_back(std::make_unique<PipeExecutor>(
        owned[w], *strategies.back(), batch_size_));
    if (profiler_ != nullptr) {
      executors.back()->set_profiler(&per_thread_profile[w]);
    }
  }

  // A worker whose executor has nothing to deliver and whose active nodes
  // are all finished can never get work again — its passive nodes are fed
  // only through its own active nodes — so it stops. Workers inspect only
  // nodes they own: a foreign source's exhausted flag is unsynchronized.
  std::vector<std::thread> workers;
  workers.reserve(num_threads_);
  for (int w = 0; w < num_threads_; ++w) {
    workers.emplace_back([&executor = *executors[w], &mine = owned[w]]() {
      const auto finished = [&mine] {
        return std::all_of(mine.begin(), mine.end(), [](const Node* node) {
          return !node->is_active() || node->IsFinished();
        });
      };
      for (;;) {
        if (executor.Step()) continue;
        if (finished()) break;
        std::this_thread::yield();  // until an owned buffer gets input
      }
    });
  }
  for (auto& t : workers) t.join();

  RunStats merged;
  for (const std::unique_ptr<PipeExecutor>& executor : executors) {
    const RunStats& s = executor->stats();
    merged.iterations += s.iterations;
    merged.polls += s.polls;
    merged.units += s.units;
    merged.peak_total_queue += s.peak_total_queue;
    merged.accumulated_queue += s.accumulated_queue;
  }
  for (const Profiler& p : per_thread_profile) {
    profiler_->Merge(p);
  }
  return merged;
}

}  // namespace pipes::scheduler
