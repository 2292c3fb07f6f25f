#ifndef PIPES_TESTING_CONFORMANCE_H_
#define PIPES_TESTING_CONFORMANCE_H_

#include <iosfwd>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/core/element.h"
#include "src/optimizer/logical_plan.h"
#include "src/relational/schema.h"
#include "src/relational/tuple.h"

/// \file
/// The sequenced-temporal blackbox conformance corpus (docs/workloads.md):
/// declarative files pairing CQL query text with the *expected interval
/// table* — the full temporal relation [start, end) | payload the query
/// must produce over shared fixture streams. A corpus case passes when
/// every execution arm (independent reference evaluator, live `Engine`,
/// `PipeExecutor` with per-element and with columnar sources, keyed-parallel
/// replication) is snapshot-equivalent to the expectation: equal payload
/// multisets at every instant, regardless of how validity is segmented
/// into elements (coalescing-insensitive, exactly the paper's equivalence
/// notion).
///
/// The reference evaluator here is a second, independent implementation of
/// the temporal algebra straight from the logical plan — materialized
/// vectors, no operator code from src/algebra/, no scheduling — so an
/// algebra bug has to be made twice to slip through.

namespace pipes::testing::conformance {

using TupleElement = StreamElement<relational::Tuple>;

/// A materialized temporal relation: rows tagged with validity intervals.
struct IntervalTable {
  relational::Schema schema;
  std::vector<TupleElement> rows;
};

/// One shared fixture stream of a corpus file.
struct CorpusStream {
  std::string name;
  relational::Schema schema;
  /// Arrival order == vector order; starts must be non-decreasing.
  std::vector<TupleElement> rows;
  double rate_hint = 1000.0;
};

/// One conformance case: a query plus its expected interval table.
struct CorpusCase {
  std::string name;
  std::string file;  // source corpus file, for diagnostics
  std::string query;
  IntervalTable expected;
};

/// One parsed corpus file: fixture streams shared by its cases.
struct Corpus {
  std::string file;
  std::vector<CorpusStream> streams;
  std::vector<CorpusCase> cases;
};

// --- Loading ----------------------------------------------------------------

/// Parses the line-oriented corpus format (see docs/workloads.md):
///
///     stream <name> (<field>:<type>, ...)
///       <start> <end> | <value> ...
///     end
///     case <name>
///     query <CQL text (may continue on indented lines)>
///     expect (<field>:<type>, ...)
///       <start> <end> | <value> ...
///     end
///
/// `#` starts a comment; `inf` as an end timestamp means kMaxTimestamp;
/// values are typed by the header (int/double/bool/string) or the literal
/// `null`; strings are single-quoted.
Result<Corpus> ParseCorpus(const std::string& text, const std::string& file);

/// Reads and parses one `.corpus` file.
Result<Corpus> LoadCorpusFile(const std::string& path);

/// Loads every `*.corpus` file under `dir` (sorted by name).
Result<std::vector<Corpus>> LoadCorpusDir(const std::string& dir);

// --- Reference evaluation ---------------------------------------------------

/// Evaluates the (unoptimized) logical plan over the corpus streams,
/// straight from the snapshot semantics of every operator. Window
/// semantics mirror src/algebra/window.h element-for-element; aggregation
/// reuses `optimizer::TupleAggPolicy` so numeric results are bit-identical
/// to the physical sweep-line path.
Result<IntervalTable> ReferenceEval(const optimizer::LogicalPlan& plan,
                                    const Corpus& corpus);

// --- Snapshot comparison ----------------------------------------------------

/// Canonical form: per distinct payload, validity is re-segmented into
/// maximal constant-multiplicity intervals (a multiplicity-k segment
/// renders as k identical rows). Two tables are snapshot-equivalent iff
/// their canonical forms are equal (up to float tolerance). Rows come out
/// sorted by (start, end, payload).
IntervalTable Canonicalize(const IntervalTable& table);

/// Result of a snapshot comparison.
struct TableDiff {
  bool equivalent = true;
  /// Human-readable description of the first differing instant: the
  /// expected and actual snapshots side by side. Empty when equivalent.
  std::string message;
};

/// Coalescing-insensitive comparison: at every critical instant of either
/// table, the payload multisets must match. Doubles compare with relative
/// tolerance 1e-9 (corpus files hold rounded decimals).
TableDiff SnapshotDiff(const IntervalTable& expected,
                       const IntervalTable& actual);

/// Renders the canonical form, one `start end | values` row per line
/// (the failing-case artifact format).
std::string RenderTable(const IntervalTable& table);

// --- Execution arms ---------------------------------------------------------

/// The independent execution paths every case must agree across.
enum class Arm {
  kReference,      ///< materializing evaluator above (no operator code)
  kEngine,         ///< live Engine: optimizer + sharing + PipeExecutor
  kPerElement,     ///< PlanManager + PipeExecutor, runs of 1, batch 1
  kColumnar,       ///< PlanManager + PipeExecutor, runs of 16, batch 64
  kKeyedParallel,  ///< partitionable operators replicated via MakeKeyedParallel
};

const char* ArmName(Arm arm);

/// All five arms, in the order above.
std::vector<Arm> AllArms();

/// Compiles and runs `c.query` under one arm, returning the produced
/// interval table (schema = compiled output schema).
Result<IntervalTable> RunArm(Arm arm, const CorpusCase& c,
                             const Corpus& corpus);

/// Outcome of one case across a set of arms.
struct CaseResult {
  std::string name;
  std::string file;
  bool passed = true;
  std::string failing_arm;  // first arm that diverged (or errored)
  std::string message;      // diff message or error text
  std::string expected_rendered;  // canonical expected table (artifact)
  std::string actual_rendered;    // canonical actual table of failing arm
};

/// Runs one case under every requested arm, diffing each against the
/// expectation. Stops at the first failing arm.
CaseResult RunCase(const CorpusCase& c, const Corpus& corpus,
                   const std::vector<Arm>& arms);

/// Aggregate outcome of a corpus run.
struct CorpusRunStats {
  std::size_t cases_run = 0;
  std::size_t cases_failed = 0;
  std::size_t arms_run = 0;
  std::vector<CaseResult> failures;
};

/// Runs every case of every corpus under `arms`. When `log` is non-null,
/// one line per case is written to it.
CorpusRunStats RunCorpora(const std::vector<Corpus>& corpora,
                          const std::vector<Arm>& arms, std::ostream* log);

}  // namespace pipes::testing::conformance

#endif  // PIPES_TESTING_CONFORMANCE_H_
