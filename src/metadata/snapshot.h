#ifndef PIPES_METADATA_SNAPSHOT_H_
#define PIPES_METADATA_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/common/time.h"
#include "src/core/graph.h"
#include "src/core/metrics.h"
#include "src/memory/memory_manager.h"
#include "src/scheduler/profiler.h"

/// \file
/// `MetricsSnapshot`: one consistent-enough view of everything a running
/// query graph exposes — per-node hot-path counters (elements, batches,
/// selectivity, progress/watermark lag, service-time histogram), queue and
/// state sizes (SweepAreas report through `Node::ApproxMemoryBytes`),
/// topology, optional memory-manager gauges, and optional scheduler
/// profiles. Capturing walks the graph reading relaxed atomics only, so it
/// is safe concurrently with a running scheduler and never perturbs the
/// dataflow. Exporters: JSON (with a round-trip parser), a Graphviz DOT
/// overlay with rates and selectivities on edges (the paper's monitoring
/// screenshots in text form), and the `pipes_top` dashboard built on top.

namespace pipes::metadata {

/// Metrics of one node at capture time.
struct NodeSnapshot {
  std::uint64_t id = 0;
  std::string name;
  bool active = false;

  std::uint64_t elements_in = 0;
  std::uint64_t elements_out = 0;
  std::uint64_t batches_in = 0;
  std::uint64_t batches_out = 0;
  /// Cumulative elements_out / elements_in; 0 when nothing was consumed.
  double selectivity = 0.0;

  /// Elements dropped under resource pressure (`Node::ShedCount`): bounded
  /// buffers and load-shedding joins report here; 0 elsewhere.
  std::uint64_t shed = 0;

  std::uint64_t queue_size = 0;
  /// Approximate bytes of operator state (SweepAreas, sweep-line segments,
  /// buffer queues).
  std::uint64_t memory_bytes = 0;
  std::uint64_t subscribers = 0;

  /// The node's progress clock (see Node::progress); valid iff
  /// `has_progress`.
  bool has_progress = false;
  Timestamp progress = 0;
  /// `high_watermark - progress`: how far this node trails the most
  /// advanced node in the graph. 0 when the node has no progress yet.
  Timestamp watermark_lag = 0;

  obs::HistogramSnapshot service;

  /// Scheduler profile (all zero unless a Profiler was attached and passed
  /// to CaptureSnapshot).
  std::uint64_t sched_quanta = 0;
  std::uint64_t sched_units = 0;
  std::uint64_t sched_service_ns = 0;

  /// Per-output-partition element counts (`Node::PartitionCounts`); empty
  /// for everything but splitter nodes (`Partition`). The skew metric of a
  /// keyed-parallel stage: ideally uniform, a hot key shows as one entry
  /// dominating.
  std::vector<std::uint64_t> partition_out;

  /// Bytes of state paged to the disk tier (`Node::SpilledBytes`, lossless
  /// spill per docs/memory.md); 0 for nodes that never spill. Not included
  /// in `memory_bytes`, which is RAM only.
  std::uint64_t spilled_bytes = 0;

  /// Number of on-disk runs (`Node::SpilledPartitions`) backing
  /// `spilled_bytes`.
  std::uint64_t spilled_partitions = 0;

  /// "dataflow."-prefixed metadata gauges, sorted by name: the static
  /// state-certificate stamps the engine writes on its result sinks
  /// (`dataflow.cert_*`, -1 = unbounded) and any per-instance transfer
  /// function overrides (docs/lint.md). Empty for undecorated nodes and
  /// absent from the JSON document when empty, so documents predating the
  /// certificate work are byte-identical.
  std::vector<std::pair<std::string, double>> gauges;

  /// max / mean of `partition_out`: 1.0 is perfectly balanced, `n` means
  /// one partition carries everything. 0 when not a splitter or no output.
  double PartitionSkew() const;

  friend bool operator==(const NodeSnapshot&, const NodeSnapshot&) = default;
};

/// One subscription edge (parallel edges appear once per subscription).
struct EdgeSnapshot {
  std::uint64_t from = 0;
  std::uint64_t to = 0;

  friend bool operator==(const EdgeSnapshot&, const EdgeSnapshot&) = default;
};

/// Memory-manager gauges (absent unless a manager was passed). The disk
/// fields cover the spill tier (docs/memory.md): all zero — and absent
/// from the JSON document — when no user can spill and no disk budget is
/// set, which keeps pre-spill documents byte-identical.
struct MemoryGauges {
  bool present = false;
  std::uint64_t budget_bytes = 0;
  std::uint64_t usage_bytes = 0;
  std::uint64_t users = 0;
  /// Disk budget over all spill-capable users; 0 means unlimited.
  std::uint64_t disk_budget_bytes = 0;
  /// Sum of all users' spilled bytes.
  std::uint64_t disk_usage_bytes = 0;
  /// Registered users that can page state to disk.
  std::uint64_t spill_users = 0;

  friend bool operator==(const MemoryGauges&, const MemoryGauges&) = default;
};

struct MetricsSnapshot {
  /// Max progress clock over all nodes; kMinTimestamp when nothing moved.
  Timestamp high_watermark = kMinTimestamp;
  std::vector<NodeSnapshot> nodes;
  std::vector<EdgeSnapshot> edges;
  MemoryGauges memory;

  const NodeSnapshot* FindNode(std::uint64_t id) const;
  const NodeSnapshot* FindNode(const std::string& name) const;

  friend bool operator==(const MetricsSnapshot&,
                         const MetricsSnapshot&) = default;
};

struct CaptureOptions {
  const memory::MemoryManager* memory_manager = nullptr;
  const scheduler::Profiler* profiler = nullptr;
};

/// Walks `graph` and reads every node's counters. Relaxed-atomic reads
/// only: concurrent schedulers keep running, counters are monotone across
/// repeated captures, and the dataflow output is unchanged by capturing.
MetricsSnapshot CaptureSnapshot(const QueryGraph& graph,
                                const CaptureOptions& options = {});

/// The one option struct every snapshot exporter takes (JSON, DOT, and the
/// subgraph filter). Replaces the former per-exporter positional flags:
/// construct it with designated initializers and pass the same instance to
/// any exporter — irrelevant fields are ignored.
struct SnapshotOptions {
  /// Keep only nodes whose id is in this set, and the edges between them
  /// (the per-tenant / per-query view the engine and server expose). Empty
  /// means keep everything.
  std::vector<std::uint64_t> node_filter;

  /// Optional provenance label (e.g. the tenant whose queries the filtered
  /// view shows). Emitted as a `"scope"` key in JSON and a graph label in
  /// DOT; empty emits nothing, preserving the legacy formats byte-for-byte.
  std::string scope;

  /// With a previous snapshot and the elapsed seconds between the two,
  /// DOT edges carry rates (elements/sec) instead of cumulative counts.
  const MetricsSnapshot* previous = nullptr;
  double elapsed_seconds = 0.0;
};

/// Applies `options.node_filter` (when non-empty): nodes outside the set
/// are dropped, edges survive only when both endpoints do, and the high
/// watermark is recomputed over the kept nodes (lags keep their global
/// values — a tenant's lag is still measured against the whole graph).
MetricsSnapshot FilterSnapshot(const MetricsSnapshot& snapshot,
                               const SnapshotOptions& options);

/// JSON document (single object; keys are stable, doubles round-trip
/// exactly). Filtering and scope come from `options`.
std::string ToJson(const MetricsSnapshot& snapshot,
                   const SnapshotOptions& options = {});

/// Parses a document produced by `ToJson`. Round-trip guarantee:
/// `SnapshotFromJson(ToJson(s)) == s` (the optional `"scope"` key is
/// accepted and ignored).
Result<MetricsSnapshot> SnapshotFromJson(const std::string& json);

/// Graphviz rendering with the monitoring overlay: nodes show element
/// counts, queue/state sizes, and watermark lag; edges show the producing
/// node's output volume (or rate) and selectivity — the paper's visual
/// monitoring tool as a DOT document. Filtering, scope label, and the rate
/// overlay all come from `options`.
std::string ToDot(const MetricsSnapshot& snapshot,
                  const SnapshotOptions& options = {});

}  // namespace pipes::metadata

#endif  // PIPES_METADATA_SNAPSHOT_H_
