#ifndef PIPES_ANALYSIS_ANALYZER_H_
#define PIPES_ANALYSIS_ANALYZER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/core/graph.h"
#include "src/optimizer/logical_plan.h"

/// \file
/// pipes-lint: static contract checking for query graphs. `Lint` walks a
/// constructed `QueryGraph` — without running it — and reports violations
/// of the composition contracts of DESIGN.md §4a–4c (ordering, batched
/// delivery, keyed parallelism, pinned assignments) plus structural
/// mistakes (cycles, dangling ports, unreachable sinks). A miswired graph
/// that would fail *silently* at runtime fails loudly at analysis time.
///
/// The analyzer reads each node's `NodeDescriptor` (`Node::Describe()`),
/// the untyped mirror of the compile-time contracts that type erasure
/// hides behind `Node*` edges. Rule catalog: docs/lint.md.

namespace pipes::analysis {

/// How bad a finding is. Orderable: kError > kWarning > kNote.
enum class Severity { kNote = 0, kWarning = 1, kError = 2 };

const char* SeverityName(Severity severity);

/// One finding of the analyzer.
struct Diagnostic {
  /// Stable rule identifier, e.g. "P006" (see docs/lint.md).
  std::string rule_id;
  Severity severity = Severity::kNote;
  /// Id of the offending node; 0 for graph-level findings. Process-unique,
  /// so *not* part of equality (two equivalent graphs built independently
  /// must lint identically — the plan-XML parity contract).
  std::uint64_t node_id = 0;
  /// Name of the offending node; empty for graph-level findings.
  std::string node;
  /// Provenance context for path-dependent rules ("unbounded-window ->
  /// join"); empty when the finding is local to the node.
  std::string path;
  std::string message;
  /// Suggested remedy; empty when no mechanical fix exists.
  std::string fixit;
};

/// Equality over everything except `node_id` (see its comment).
bool operator==(const Diagnostic& a, const Diagnostic& b);

/// Catalog entry of one rule, for `--rules` listings and docs.
struct RuleInfo {
  const char* id;
  Severity severity;
  const char* summary;
};

/// All rules, in id order.
const std::vector<RuleInfo>& RuleCatalog();

/// Lints a constructed graph. Diagnostics are sorted by (rule, node name,
/// message) — deterministic for equivalent graphs. Must not run
/// concurrently with a scheduler mutating the graph.
std::vector<Diagnostic> Lint(const QueryGraph& graph);

/// Lints a `ThreadScheduler` assignment against the graph's replicated
/// stages (rules P010–P012, P017): `assignment[i]` is the worker of the
/// i-th node in `graph.ActiveNodes()` order, workers in [0, num_workers).
/// Append these to `Lint(graph)` when a pinned run is planned.
std::vector<Diagnostic> LintAssignment(const QueryGraph& graph,
                                       const std::vector<int>& assignment,
                                       int num_workers);

/// Materializes a non-null logical plan into `graph` for static analysis:
/// an empty `VectorSource` per scanned stream, bound in a scratch catalog,
/// `optimizer::PhysicalBuilder` for every operator, and a "plan-output"
/// collector on the output — exactly the operators the plan would run.
/// Returns the sources by stream name. Fails if the plan cannot be
/// instantiated.
Result<std::map<std::string, Node*>> MaterializePlan(
    const optimizer::LogicalPlan& plan, QueryGraph* graph);

/// Lints a logical plan by materializing it into a scratch graph
/// (`MaterializePlan`) and linting that. Fails if the plan cannot be
/// instantiated.
Result<std::vector<Diagnostic>> LintPlan(const optimizer::LogicalPlan& plan);

/// `FromXml` + `LintPlan`: the CLI path for stored plan documents.
Result<std::vector<Diagnostic>> LintPlanXml(const std::string& xml);

/// Highest severity present (kNote when empty).
Severity MaxSeverity(const std::vector<Diagnostic>& diagnostics);

/// JSON rendering: an array of objects with the Diagnostic fields.
std::string ToJson(const std::vector<Diagnostic>& diagnostics);

/// Human rendering: "severity rule node: message (path) [fix: ...]".
std::string ToText(const std::vector<Diagnostic>& diagnostics);

}  // namespace pipes::analysis

#endif  // PIPES_ANALYSIS_ANALYZER_H_
