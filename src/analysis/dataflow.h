#ifndef PIPES_ANALYSIS_DATAFLOW_H_
#define PIPES_ANALYSIS_DATAFLOW_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "src/analysis/analyzer.h"
#include "src/common/status.h"
#include "src/core/descriptor.h"
#include "src/core/graph.h"
#include "src/optimizer/logical_plan.h"

/// \file
/// Dataflow abstract interpretation over query graphs: a forward pass in
/// topological order that composes the per-node transfer functions declared
/// in `NodeDescriptor::Dataflow` into per-edge facts — output ordering,
/// watermark progress and lag, cardinality and rate intervals, validity
/// extent — and folds the per-node peak-state bounds they imply into one
/// `StateCertificate` for the whole plan.
///
/// Everything here is *static*: no element flows, no scheduler runs. The
/// facts are sound relative to the declared contracts (a source that
/// declares a feed rate and then exceeds it voids its certificate); the
/// fuzz harness enforces the bounds empirically against observed peak
/// state on non-shedding runs (src/testing/harness.cc).
///
/// The certificate powers lint rules P021–P025 (`DataflowDiagnostics`),
/// `engine::Engine`'s admission gate (reject/queue a Register whose
/// certified footprint exceeds the remaining budget), and the
/// `pipes_lint --certify` CLI mode. Rule catalog: docs/lint.md.

namespace pipes::cql {
class Catalog;
}

namespace pipes::analysis {

/// Schema version stamped into every machine-readable document this module
/// and the lint CLI emit (`{"schema_version": N, ...}`). Bumped whenever a
/// field is added or changes meaning, so downstream parsers can reject
/// documents they do not understand.
inline constexpr int kLintJsonSchemaVersion = 2;

/// Abstract facts about the stream crossing one edge (equivalently: about
/// one node's output). Numeric fields are conservative upper bounds; the
/// sentinels from `NodeDescriptor::Dataflow` mean unknown/unbounded.
struct EdgeFacts {
  /// Ordering discipline of the element starts on this edge.
  enum class Order {
    kOrdered,          ///< Starts are non-decreasing.
    kBoundedDisorder,  ///< Starts may regress by at most `disorder`.
    kResegmented,      ///< Ordered, but starts were re-stamped to segment
                       ///< boundaries (windows, sweep-line aggregates).
  };

  Order order = Order::kOrdered;
  /// Max backward start displacement when `order == kBoundedDisorder`.
  std::int64_t disorder = 0;

  /// Whether the watermark on this edge provably advances before
  /// end-of-stream. False downstream of a source that emits no heartbeats
  /// (and of every fan-in merging such an input).
  bool watermark_advances = true;
  /// Max trailing distance of the edge watermark behind the max emitted
  /// start (a reordering source's slack, plus the segment extent of every
  /// re-stamping stage crossed). kUnknownTime = unbounded.
  std::int64_t watermark_lag = 0;

  /// Max elements ever crossing this edge. kUnknownCount = unbounded.
  std::uint64_t max_elements = NodeDescriptor::Dataflow::kUnknownCount;
  /// Max rate in elements per time unit; infinity = unbounded/undeclared.
  double rate_max = 0.0;
  /// Max validity extent (end - start) of any element on this edge.
  /// kUnknownTime = unbounded.
  std::int64_t validity_extent = NodeDescriptor::Dataflow::kUnknownTime;
};

const char* OrderName(EdgeFacts::Order order);

/// Peak-state bound for one node, in bytes. kUnknownBytes = no static
/// bound exists (the certificate for the containing plan is then
/// unbounded too, unless the node is transient).
struct NodeStateBound {
  static constexpr std::uint64_t kUnknownBytes =
      std::numeric_limits<std::uint64_t>::max();

  /// Peak RAM the node's watermark-purged state may occupy.
  std::uint64_t ram_bytes = 0;
  /// Peak disk-tier bytes (lossless spill). Spill-capable nodes carry
  /// their bound in *both* columns: any element may live in either tier.
  std::uint64_t disk_bytes = 0;
  /// Scheduler-transient queue occupancy (buffers, merge staging):
  /// excluded from the certificate and from the empirical oracle.
  bool transient = false;
  /// The node accumulates watermark-purged state at all.
  bool blocking = false;
};

/// The per-plan admission certificate: what the whole graph may ever hold,
/// plus the progress and ordering guarantees the facts establish.
struct StateCertificate {
  /// Sum of non-transient per-node RAM bounds. kUnknownBytes if any node
  /// has no static bound.
  std::uint64_t ram_bytes = 0;
  /// Sum of non-transient per-node disk bounds (spill tier).
  std::uint64_t disk_bytes = 0;
  /// Every edge's watermark provably advances (no static starvation).
  bool progress_ok = true;
  /// Max watermark lag / disorder bound over all edges; kUnknownTime if
  /// any edge's lag is unbounded.
  std::int64_t disorder_bound = 0;

  bool ram_bounded() const { return ram_bytes != NodeStateBound::kUnknownBytes; }
  bool disk_bounded() const {
    return disk_bytes != NodeStateBound::kUnknownBytes;
  }
};

/// One analyzed node: its identity plus the facts on its output edge and
/// its own state bound.
struct NodeFacts {
  const Node* node = nullptr;
  std::uint64_t node_id = 0;
  std::string name;
  std::string op;
  NodeDescriptor::Kind kind = NodeDescriptor::Kind::kOpaque;
  /// Facts on this node's output edge (for sinks: the merged input facts).
  EdgeFacts out;
  NodeStateBound state;
};

/// Result of one abstract-interpretation pass.
struct DataflowResult {
  /// Per-node facts in topological (upstream-before-downstream) order.
  std::vector<NodeFacts> nodes;
  StateCertificate certificate;
  /// The graph had a subscription cycle: only the acyclic prefix was
  /// analyzed and the certificate is unbounded/not-progressing.
  bool has_cycle = false;

  /// Cost-model cross-check (plan analysis only): the optimizer's expected
  /// root output rate must not exceed the certified static bound.
  bool has_cost_check = false;
  double cost_model_rate_eps = 0.0;  ///< optimizer::CostModel estimate.
  double certified_rate_eps = 0.0;   ///< root edge bound, elements/second.
  bool rate_consistent = true;       ///< estimate <= bound (or bound unknown).
};

/// Runs the forward abstract interpretation over a constructed graph.
/// Reads each node's `Describe()` plus any per-instance overrides in
/// metadata gauges named "dataflow.<field>" (value -1 = unknown).
DataflowResult AnalyzeDataflow(const QueryGraph& graph);

/// Plan-level analysis: materializes the plan into a scratch graph
/// (`MaterializePlan`, as `LintPlan` does), seeds the synthetic sources
/// from the catalog's rate hints (`rate_hint` per second -> elements per
/// ms, total unknown: registered streams are unbounded feeds), analyzes
/// it, and cross-checks the root rate bound against
/// `optimizer::CostModel`.
/// `catalog` supplies rate hints; nullptr uses the default hint.
Result<DataflowResult> AnalyzeDataflowPlan(const optimizer::LogicalPlan& plan,
                                           const cql::Catalog* catalog = nullptr);

/// The certificate-backed lint rules P021–P025 over a constructed graph.
/// `Lint()` includes these; standalone callers (the engine's admission
/// path) can run just the dataflow rules.
std::vector<Diagnostic> DataflowDiagnostics(const QueryGraph& graph);

/// JSON rendering: {"schema_version": N, "certificate": {...},
/// "nodes": [...]} with -1 encoding unknown/unbounded (never inf/NaN).
std::string ToJson(const DataflowResult& result);

/// Extracts the top-level `schema_version` of any machine-readable
/// document this module or the lint CLI emits, so downstream tooling can
/// reject documents it does not understand. InvalidArgument when the
/// field is absent (documents predating `kLintJsonSchemaVersion` = 2).
Result<int> ParseLintJsonSchemaVersion(const std::string& json);

/// Graphviz rendering with per-edge fact labels.
std::string ToDot(const DataflowResult& result);

/// Human rendering: a per-node fact table plus the certificate summary.
std::string ToText(const DataflowResult& result);

}  // namespace pipes::analysis

#endif  // PIPES_ANALYSIS_DATAFLOW_H_
