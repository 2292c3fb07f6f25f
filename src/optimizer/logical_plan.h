#ifndef PIPES_OPTIMIZER_LOGICAL_PLAN_H_
#define PIPES_OPTIMIZER_LOGICAL_PLAN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/time.h"
#include "src/relational/expression.h"
#include "src/relational/schema.h"

/// \file
/// Logical query plans over tuple streams: the intermediate representation
/// between the CQL front end and the physical publish-subscribe graph. A
/// plan is an immutable DAG of `LogicalOp` nodes; the optimizer rewrites it
/// rule-by-rule into snapshot-equivalent alternatives, costs them, and the
/// plan manager instantiates (or re-uses) physical operators bottom-up.

namespace pipes::optimizer {

/// Window specifications attached to stream scans. All but
/// kPartitionedRows have CQL syntax; that one is built in plans only (plan
/// XML, the fuzzer).
enum class WindowKind {
  kNow,
  kRange,
  kRangeSlide,
  kRows,
  kUnbounded,
  kPartitionedRows,  // the last `rows` rows of each partition
};

struct WindowSpec {
  WindowKind kind = WindowKind::kNow;
  Timestamp range = 0;      // kRange / kRangeSlide
  Timestamp slide = 0;      // kRangeSlide
  std::size_t rows = 0;     // kRows / kPartitionedRows
  std::vector<std::size_t> partition;  // kPartitionedRows: partition fields

  std::string ToString() const;
  friend bool operator==(const WindowSpec&, const WindowSpec&) = default;
};

enum class AggKind { kCount, kSum, kAvg, kMin, kMax, kVariance, kStddev };

const char* AggKindName(AggKind kind);

/// One aggregate in a GROUP BY plan: `kind(arg)` named `output_name`.
struct AggSpec {
  AggKind kind = AggKind::kCount;
  relational::ExprPtr arg;  // may be null for COUNT(*)
  std::string output_name;
};

class LogicalOp;
using LogicalPlan = std::shared_ptr<const LogicalOp>;

/// A node of the logical algebra. One struct with kind-specific fields —
/// flat and easy to hash/rewrite (only the fields of `kind` are
/// meaningful).
class LogicalOp {
 public:
  enum class Kind {
    kStreamScan,      // leaf: named stream + window
    kFilter,          // predicate over the child schema
    kProject,         // expressions + output names
    kJoin,            // two children; equi keys + residual predicate
    kGroupAggregate,  // group fields + aggregate specs
    kDistinct,
    kUnion,
    kIStream,  // relation-to-stream: point element at each validity start
    kDStream,  // relation-to-stream: point element at each validity end
    // Bag set operators on equal-arity children, per snapshot: max(0, l - r)
    // and min(l, r) copies of each payload. No CQL syntax.
    kDifference,
    kIntersect,
  };

  Kind kind;
  std::vector<LogicalPlan> children;
  relational::Schema schema;  // output schema

  // kStreamScan
  std::string stream_name;
  WindowSpec window;

  // kFilter / kJoin residual
  relational::ExprPtr predicate;

  // kProject
  std::vector<relational::ExprPtr> exprs;

  // kJoin: pairs of (left child field index, right child field index)
  std::vector<std::pair<std::size_t, std::size_t>> equi_keys;

  // kGroupAggregate
  std::vector<std::size_t> group_fields;
  std::vector<AggSpec> aggs;

  /// Canonical textual form; equal signatures mean syntactically equal
  /// (hence snapshot-equivalent) subplans — the multi-query optimizer's
  /// sharing key.
  std::string Signature() const;

  /// This node's label without the children suffix (used by ToString).
  std::string Head() const;

  /// Multi-line tree rendering for debugging.
  std::string ToString(int indent = 0) const;
};

// --- Builders (compute the output schema) ------------------------------------

LogicalPlan ScanOp(std::string stream_name, relational::Schema schema,
                   WindowSpec window);
LogicalPlan FilterOp(LogicalPlan child, relational::ExprPtr predicate);
LogicalPlan ProjectOp(LogicalPlan child,
                      std::vector<relational::ExprPtr> exprs,
                      std::vector<std::string> names);
LogicalPlan JoinOp(LogicalPlan left, LogicalPlan right,
                   std::vector<std::pair<std::size_t, std::size_t>> equi_keys,
                   relational::ExprPtr residual);
LogicalPlan GroupAggregateOp(LogicalPlan child,
                             std::vector<std::size_t> group_fields,
                             std::vector<AggSpec> aggs);
LogicalPlan DistinctOp(LogicalPlan child);
LogicalPlan UnionOp(LogicalPlan left, LogicalPlan right);
LogicalPlan DifferenceOp(LogicalPlan left, LogicalPlan right);
LogicalPlan IntersectOp(LogicalPlan left, LogicalPlan right);
LogicalPlan IStreamOp(LogicalPlan child);
LogicalPlan DStreamOp(LogicalPlan child);

/// Result type of an expression under a schema (best-effort inference; used
/// for projected output schemas).
relational::ValueType InferType(const relational::ExprPtr& expr,
                                const relational::Schema& schema);

}  // namespace pipes::optimizer

#endif  // PIPES_OPTIMIZER_LOGICAL_PLAN_H_
