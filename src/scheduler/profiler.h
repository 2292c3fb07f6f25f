#ifndef PIPES_SCHEDULER_PROFILER_H_
#define PIPES_SCHEDULER_PROFILER_H_

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/core/node.h"

/// \file
/// Scheduler profiling: per-quantum records of what the executor ran and
/// what it cost. A quantum is a `DoWork` poll of an active node or the
/// delivery of one node's pipe. A `Profiler` aggregates, per node, the
/// number of quanta, the work units performed (train lengths), and the
/// service time spent in them — the data behind the paper's
/// online monitoring of "runtime behaviour of the system". Profiling is
/// opt-in: schedulers run unprofiled (and pay nothing) unless a profiler is
/// attached; each worker thread of the `ThreadScheduler` fills a private
/// instance which is merged at the end of the run.

namespace pipes::scheduler {

/// Aggregated profile of one node: its `DoWork` polls (active nodes) and
/// its pipe deliveries (every node with an output).
struct NodeProfile {
  std::uint64_t node_id = 0;
  std::string node_name;

  /// Quanta of this node (polls the strategy picked it for, plus pipe
  /// deliveries).
  std::uint64_t quanta = 0;
  /// Work units performed over all quanta.
  std::uint64_t units = 0;
  /// Nanoseconds spent inside DoWork or delivering, over all quanta.
  std::uint64_t service_ns = 0;
  /// Longest single quantum, in nanoseconds.
  std::uint64_t max_service_ns = 0;
  /// Sum of candidate-set sizes at the decisions that picked this node
  /// (divide by `quanta` for the average contention the node won against).
  std::uint64_t candidates_sum = 0;

  /// Train-length histogram: bucket i counts quanta whose unit count was in
  /// [2^i, 2^(i+1)) (bucket 0 = 0-or-1 unit trains; the last bucket is
  /// unbounded).
  static constexpr std::size_t kTrainBuckets = 12;
  std::array<std::uint64_t, kTrainBuckets> train_length_buckets{};

  double MeanTrainLength() const {
    return quanta == 0 ? 0.0
                       : static_cast<double>(units) /
                             static_cast<double>(quanta);
  }
  double MeanServiceNs() const {
    return quanta == 0 ? 0.0
                       : static_cast<double>(service_ns) /
                             static_cast<double>(quanta);
  }
};

/// Collects per-quantum scheduling records. Not thread-safe: one instance
/// per scheduling thread (merge afterwards).
class Profiler {
 public:
  /// Records one scheduling decision: the strategy picked `node` out of
  /// `num_candidates`, and the node performed `units` units in `service_ns`
  /// nanoseconds.
  void RecordQuantum(const Node& node, std::size_t num_candidates,
                     std::size_t units, std::uint64_t service_ns);

  /// Folds `other`'s records into this profiler (for merging the per-worker
  /// profilers of a ThreadScheduler run).
  void Merge(const Profiler& other);

  /// Total scheduling decisions recorded.
  std::uint64_t decisions() const { return decisions_; }
  /// Total work units across all quanta.
  std::uint64_t total_units() const { return total_units_; }
  /// Total nanoseconds inside DoWork or delivering, across all quanta.
  std::uint64_t total_service_ns() const { return total_service_ns_; }

  /// Per-node aggregates, ordered by node id.
  std::vector<NodeProfile> PerNode() const;

  /// Profile of one node (zeros if never scheduled).
  NodeProfile ForNode(const Node& node) const;

  /// Human-readable table, one row per node.
  std::string Summary() const;

 private:
  std::map<std::uint64_t, NodeProfile> per_node_;
  std::uint64_t decisions_ = 0;
  std::uint64_t total_units_ = 0;
  std::uint64_t total_service_ns_ = 0;
};

}  // namespace pipes::scheduler

#endif  // PIPES_SCHEDULER_PROFILER_H_
