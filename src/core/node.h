#ifndef PIPES_CORE_NODE_H_
#define PIPES_CORE_NODE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/time.h"
#include "src/core/descriptor.h"
#include "src/core/metrics.h"
#include "src/metadata/registry.h"

/// \file
/// The untyped base of every node in a query graph. The paper distinguishes
/// three node kinds — sources, sinks, and operators (pipes) — which in this
/// implementation are the typed templates `Source<T>`, `Sink<T>` and the
/// pipe bases built from them. `Node` carries what the runtime environment
/// (scheduler, memory manager, metadata monitor, optimizer) needs without
/// knowing element types: identity, graph topology, scheduling hooks, and
/// the secondary-metadata registry.

namespace pipes {

class PipeBase;

/// Base class of all query-graph nodes. Not copyable or movable: a node's
/// identity is its address (subscriptions hold pointers to it).
class Node {
 public:
  explicit Node(std::string name);
  virtual ~Node();

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  /// Process-unique id, assigned at construction.
  std::uint64_t id() const { return id_; }

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  // --- Topology -----------------------------------------------------------
  // Maintained by Subscribe/Unsubscribe; a node may appear multiple times if
  // multiple edges connect the same pair.

  const std::vector<Node*>& upstream() const { return upstream_; }
  const std::vector<Node*>& downstream() const { return downstream_; }

  // --- Scheduling hooks ----------------------------------------------------
  // An *active* node is one the scheduler must drive: a source that creates
  // elements, or a buffer that drains its queue. Everything connected by
  // direct subscriptions drains through pipes before the executor polls
  // again — the paper's "virtual node" fused unit. Passive nodes keep the
  // defaults.

  /// True if this node must be driven by a scheduler.
  virtual bool is_active() const { return false; }

  /// Performs up to `max_units` units of work (one unit = one element or
  /// control signal). Returns the number of units actually performed.
  virtual std::size_t DoWork(std::size_t max_units);

  /// True if calling DoWork now could make progress.
  virtual bool HasWork() const { return false; }

  /// True once this node will never produce work again (source exhausted,
  /// or buffer drained after end-of-stream).
  virtual bool IsFinished() const { return true; }

  /// Number of queued entries (0 for queue-less nodes). Scheduling
  /// strategies such as Chain use this.
  virtual std::size_t queue_size() const { return 0; }

  /// Approximate bytes of operator state (SweepAreas, sweep-line segments,
  /// queues). The metadata monitor samples this for the memory_bytes
  /// metric; stateless operators keep the default.
  virtual std::size_t ApproxMemoryBytes() const { return 0; }

  /// Per-output-partition element counts for splitter nodes (`Partition`);
  /// empty for every other node. The snapshot layer turns these into the
  /// partition-skew metric (max/mean). Reading must be safe concurrently
  /// with a running scheduler (relaxed atomics).
  virtual std::vector<std::uint64_t> PartitionCounts() const { return {}; }

  /// Elements this node dropped under resource pressure: buffer overflow
  /// eviction or memory-manager-forced load shedding. Zero for nodes that
  /// never shed. Together with elements_in/elements_out this closes the
  /// conservation equation the simulation oracles check:
  /// elements_in == elements_out + retained_state + shed.
  virtual std::uint64_t ShedCount() const { return 0; }

  /// Bytes of operator state currently paged to the disk tier (lossless
  /// spill, docs/memory.md). Zero for nodes that never spill. Not part of
  /// `ApproxMemoryBytes()`, which reports RAM only.
  virtual std::uint64_t SpilledBytes() const { return 0; }

  /// Number of on-disk runs (spilled partitions) currently held.
  virtual std::uint64_t SpilledPartitions() const { return 0; }

  // --- Output pipe ----------------------------------------------------------
  // The executor-polled execution model (DESIGN.md §4f): nodes with a typed
  // output (`Source<T>` and everything derived from it) own a `Pipe<T>`
  // edge from construction and stage every transfer there; a
  // `PipeExecutor` links the pipes of the nodes it drives. Output-less
  // nodes (sinks) and splitters that deliver synchronously by design
  // (`Partition`) have none.

  /// This node's output pipe, or nullptr if it has no pollable output.
  virtual PipeBase* output_pipe() { return nullptr; }

  // --- Static introspection -------------------------------------------------

  /// The node's static contract card, consumed by `analysis::Lint`. The
  /// base implementation reports an opaque node (unknown kind, no contract
  /// flags); typed bases and operators override it to declare their role,
  /// per-port arity, and composition contracts. Not safe to call while a
  /// scheduler is mutating subscriptions.
  virtual NodeDescriptor Describe() const;

  // --- Secondary metadata ---------------------------------------------------
  // Hot-path counters: relaxed atomics written from inside the transfer
  // path, read by the metadata monitor and `metadata::MetricsSnapshot`.
  // Individual counters are never torn; cross-counter consistency is
  // monitoring-grade (each counter is independently monotone).

  /// Total elements received on all input ports.
  std::uint64_t elements_in() const {
    return elements_in_.load(std::memory_order_relaxed);
  }
  /// Total elements transferred to subscribers.
  std::uint64_t elements_out() const {
    return elements_out_.load(std::memory_order_relaxed);
  }
  /// Run deliveries received on all input ports (`ReceiveRun` calls;
  /// the per-element path counts none, so batches_in <= elements_in and the
  /// mean input batch length is elements_in / max(1, batches_in)).
  std::uint64_t batches_in() const {
    return batches_in_.load(std::memory_order_relaxed);
  }
  /// Run transfers to subscribers (`TransferRun` calls).
  std::uint64_t batches_out() const {
    return batches_out_.load(std::memory_order_relaxed);
  }

  void CountIn(std::uint64_t n = 1) {
    elements_in_.fetch_add(n, std::memory_order_relaxed);
  }
  void CountOut(std::uint64_t n = 1) {
    elements_out_.fetch_add(n, std::memory_order_relaxed);
  }
  void CountBatchIn() {
    batches_in_.fetch_add(1, std::memory_order_relaxed);
  }
  void CountBatchOut() {
    batches_out_.fetch_add(1, std::memory_order_relaxed);
  }

  /// The node's progress clock: the largest timestamp this node is known to
  /// have advanced to — for operators the latest merged input watermark
  /// notified on any port, for sources the largest element start
  /// transferred. Snapshots turn the spread of progress clocks across a
  /// graph into per-node *watermark lag*.
  Timestamp progress() const {
    return progress_.load(std::memory_order_relaxed);
  }

  /// Raises the progress clock to `t` (monotone; callers may race, losing a
  /// concurrent raise to a larger value only momentarily).
  void AdvanceProgress(Timestamp t) {
    if (t > progress_.load(std::memory_order_relaxed)) {
      progress_.store(t, std::memory_order_relaxed);
    }
  }

  /// Per-delivery service-time histogram, sampled on the port path while
  /// `obs::MetricsEnabled()` (one sample per `obs::kLatencySamplePeriod`
  /// deliveries).
  const obs::LatencyHistogram& service_histogram() const {
    return service_histogram_;
  }
  obs::LatencyHistogram& service_histogram() { return service_histogram_; }

  /// Named gauges/estimators attached by the metadata factory at runtime.
  metadata::Registry& metadata() { return metadata_; }
  const metadata::Registry& metadata() const { return metadata_; }

 private:
  template <typename T>
  friend class Source;
  template <typename T>
  friend class InputPort;
  template <typename T, typename KeyFn>
  friend class Partition;

  static std::uint64_t NextId();

  std::uint64_t id_;
  std::string name_;
  std::vector<Node*> upstream_;
  std::vector<Node*> downstream_;
  std::atomic<std::uint64_t> elements_in_{0};
  std::atomic<std::uint64_t> elements_out_{0};
  std::atomic<std::uint64_t> batches_in_{0};
  std::atomic<std::uint64_t> batches_out_{0};
  std::atomic<Timestamp> progress_{kMinTimestamp};
  obs::LatencyHistogram service_histogram_;
  metadata::Registry metadata_;
};

}  // namespace pipes

#endif  // PIPES_CORE_NODE_H_
