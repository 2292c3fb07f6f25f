#ifndef PIPES_CORE_DESCRIPTOR_H_
#define PIPES_CORE_DESCRIPTOR_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

/// \file
/// Static self-description of query-graph nodes, the introspection surface
/// the static analyzer (`src/analysis/`) walks. Every node can answer "what
/// kind of thing am I, and which composition contracts do I participate
/// in?" without the analyzer knowing its element types — the runtime
/// equivalent of the compile-time traits (`algebra::KeyPartitionable`,
/// batch-kernel overrides) that type erasure hides once operators sit
/// behind untyped `Node*` edges.
///
/// Descriptors are *declarations*: a node vouches for its own contract
/// flags, and `tests/analysis_test.cc` holds the declared flags to the
/// compile-time traits where both exist. `Describe()` is meant for
/// analysis before (or after) a run, not concurrently with a scheduler.

namespace pipes {

class Node;

/// One node's static contract card.
struct NodeDescriptor {
  /// Structural role in the pub-sub graph.
  enum class Kind {
    kOpaque,     ///< Unknown: the node does not describe itself.
    kSource,     ///< Root producer (generator, reordering adapter).
    kOperator,   ///< Pipe: consumes and produces.
    kBuffer,     ///< Queueing identity at a scheduling boundary.
    kPartition,  ///< Keyed splitter of a replicated stage.
    kMerge,      ///< Order-restoring combiner of a replicated stage.
    kSink,       ///< Terminal consumer.
  };

  Kind kind = Kind::kOpaque;

  /// Operator family, e.g. "filter", "time-window", "hash-join". Purely
  /// informative; rules key off the flags, not this string.
  std::string op = "opaque";

  /// Per declared input port: how many upstreams are currently subscribed.
  /// Empty when the node has no input ports (sources) or does not expose
  /// them (opaque nodes) — rules that need arity skip empty vectors.
  std::vector<std::size_t> port_upstreams;

  /// Accumulates state that is only released/purged by watermark progress
  /// (join, aggregate, distinct, difference, intersect, multiway join).
  bool blocking = false;

  /// Safe to clone into keyed shared-nothing replicas — must agree with
  /// `algebra::KeyPartitionable` where the compile-time trait exists.
  bool key_partitionable = false;

  /// Can page state to disk losslessly under memory pressure (spillable
  /// SweepAreas, docs/memory.md). With a spill tier available, shedding is
  /// an opt-in fallback — lint rule P020 flags the combination below.
  bool spill_capable = false;

  /// Load shedding is currently enabled on this node (drops state for
  /// bounded memory, trading recall). Always declared so P020 can compare
  /// it against `spill_capable`.
  bool shedding_enabled = false;

  /// Rewrites every output validity to a bounded interval (window
  /// operators, relation-to-stream): downstream state purges again even if
  /// the input was unbounded.
  bool bounds_validity = false;

  /// May emit elements valid forever (`UnboundedWindow`): blocking
  /// consumers downstream never purge.
  bool unbounded_validity = false;

  /// Source-kind nodes only: whether the node advances downstream
  /// watermarks (implicit heartbeats from monotone element starts, or
  /// explicit ones). A non-emitting source stalls every fan-in it feeds.
  bool emits_heartbeats = true;

  /// Partition only: number of keyed outputs.
  std::size_t fan_out = 0;

  /// Merge only: number of replica input ports.
  std::size_t fan_in = 0;

  /// Partition only: the subscriber nodes of each keyed output, by output
  /// index — what `Node::downstream()` flattens away and replica-stage
  /// analysis needs back.
  std::vector<std::vector<const Node*>> output_subscribers;

  /// Foot-gun notes the node wants surfaced (e.g. a bounded buffer that
  /// sheds elements). Reported by the lint rule for foot-gun APIs.
  std::vector<std::string> notes;

  /// Non-empty when the node was built through a deprecated API; the text
  /// is the migration hint.
  std::string deprecated;

  // --- Dataflow transfer functions (src/analysis/dataflow.h) ----------------
  // Conservative per-node annotations the abstract interpreter composes into
  // per-edge facts (cardinality, rate, validity extent, disorder, progress)
  // and the per-plan StateCertificate. Every numeric field is an upper
  // bound; the sentinels below mean "unknown / unbounded". Sources declare
  // feed contracts; operators declare output and state transfer functions.
  // Metadata gauges named "dataflow.<field>" override the corresponding
  // declaration on a per-instance basis (used by plan lowering and the fuzz
  // materializer, which know things the operator type cannot).
  struct Dataflow {
    /// Count sentinel: total element count is unknown or unbounded.
    static constexpr std::uint64_t kUnknownCount =
        std::numeric_limits<std::uint64_t>::max();
    /// Time sentinel: validity extent / disorder is unknown or unbounded.
    static constexpr std::int64_t kUnknownTime =
        std::numeric_limits<std::int64_t>::max();

    /// Sources: total elements this source will ever emit (kUnknownCount =
    /// unbounded feed). Finite backing stores (VectorSource) declare their
    /// size.
    std::uint64_t total_elements = kUnknownCount;
    /// Sources: declared peak feed rate in elements per time unit of the
    /// graph's timestamp domain (0 = undeclared). A contract, not a
    /// measurement: the analysis is sound relative to it.
    double rate_per_unit = 0.0;
    /// Sources: max backward displacement of the raw feed relative to its
    /// own running max start, in time units (0 = in-order feed).
    std::int64_t feed_disorder = 0;
    /// Reordering sources: slack absorbed before elements are dropped
    /// (-1 = not a reordering stage). Compared against feed_disorder by the
    /// disorder-exceeds-slack rule.
    std::int64_t reorder_slack = -1;
    /// Emitted watermarks may trail the max emitted start by this many time
    /// units (a reordering source's slack); downstream state retention
    /// grows by the same amount.
    std::int64_t watermark_lag = 0;

    /// Operators: max output elements per input element (filter <= 1,
    /// aggregates <= 2 sweep-line segments per input boundary, ...).
    double output_factor = 1.0;
    /// Additive output allowance independent of input count.
    std::uint64_t output_fixed = 0;
    /// Binary joins: output cardinality is bounded by |left| * |right|
    /// pairs (times output_factor) instead of per-input composition.
    bool output_per_pair = false;
    /// Nodes with bounds_validity set: max (end - start) of any output
    /// element in time units (kUnknownTime = the node re-stamps validity
    /// but with no static bound, e.g. count windows before end-of-stream).
    /// Joins intersect validities instead: see intersects_validity.
    std::int64_t validity_extent = kUnknownTime;
    /// Output validity is the intersection of the inputs' (temporal joins):
    /// the output extent is bounded by the *minimum* input extent.
    bool intersects_validity = false;
    /// Output validity may exceed any single input element's (coalescing
    /// merges abutting intervals): the output extent is statically
    /// unbounded even when the input's is known.
    bool extends_validity = false;

    /// Watermark-purged state: peak bytes retained per cumulative input
    /// element, covering the node's own accounting (`ApproxMemoryBytes` +
    /// `SpilledBytes`). 0 on a blocking node means unknown, i.e. an
    /// unbounded state bound.
    std::size_t state_bytes_per_element = 0;
    /// Constant state overhead independent of input count (e.g. a count
    /// window's bounded pending queue).
    std::size_t state_bytes_fixed = 0;
    /// The node's state is scheduler-transient queue occupancy (buffers,
    /// merge staging), not watermark-purged operator state: excluded from
    /// the StateCertificate, which bounds the latter (docs/lint.md).
    bool transient_state = false;
  };
  Dataflow dataflow;
};

/// Readable name of a descriptor kind ("source", "buffer", ...).
const char* NodeKindName(NodeDescriptor::Kind kind);

}  // namespace pipes

#endif  // PIPES_CORE_DESCRIPTOR_H_
