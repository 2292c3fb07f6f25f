#ifndef PIPES_OPTIMIZER_PHYSICAL_H_
#define PIPES_OPTIMIZER_PHYSICAL_H_

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/core/graph.h"
#include "src/core/source.h"
#include "src/cql/catalog.h"
#include "src/optimizer/logical_plan.h"
#include "src/relational/expression.h"
#include "src/relational/tuple.h"

/// \file
/// Physical plan instantiation: lowers a (normalized) logical plan into
/// operators of the generic algebra over `Tuple` payloads and subscribes
/// them into the running query graph. When a subplan-signature registry is
/// supplied, structurally identical subplans are *shared* — new queries
/// graft onto the running graph through the publish-subscribe architecture
/// instead of rebuilding common work (multi-query optimization).

namespace pipes::optimizer {

// --- Runtime parameter functors (also reusable in tests/examples) -----------

/// Truthiness of a compiled expression, as a filter predicate.
struct ExprPredicate {
  relational::ExprPtr expr;
  bool operator()(const relational::Tuple& t) const {
    return expr->Eval(t).Truthy();
  }
};

/// Evaluates a projection list.
struct ExprProjector {
  std::vector<relational::ExprPtr> exprs;
  relational::Tuple operator()(const relational::Tuple& t) const {
    std::vector<relational::Value> values;
    values.reserve(exprs.size());
    for (const auto& expr : exprs) values.push_back(expr->Eval(t));
    return relational::Tuple(std::move(values));
  }
};

/// Projects the key fields of a tuple (join/grouping keys).
struct FieldsKey {
  std::vector<std::size_t> fields;
  relational::Tuple operator()(const relational::Tuple& t) const {
    return t.Project(fields);
  }
};

/// Concatenation: the join combiner, and the grouped aggregate's `Combine`
/// (group key ++ aggregate values).
struct TupleConcatCombine {
  relational::Tuple operator()(const relational::Tuple& l,
                               const relational::Tuple& r) const {
    return l.Concat(r);
  }
};

/// The whole tuple (aggregate values, distinct keys).
struct TupleIdentity {
  const relational::Tuple& operator()(const relational::Tuple& t) const {
    return t;
  }
};

/// Theta-join predicate evaluated over the concatenated pair.
struct ConcatPredicate {
  relational::ExprPtr expr;  // null = cross product
  bool operator()(const relational::Tuple& l,
                  const relational::Tuple& r) const {
    if (expr == nullptr) return true;
    return expr->Eval(l.Concat(r)).Truthy();
  }
};

/// Runtime-parameterized aggregation policy over tuples: one accumulator
/// per `AggSpec`. Plugs into the same sweep-line machinery as the static
/// policies (instance-based policy support).
class TupleAggPolicy {
 public:
  using Value = relational::Tuple;
  using Output = relational::Tuple;

  struct SingleState {
    std::uint64_t count = 0;        // all rows (COUNT)
    std::uint64_t value_count = 0;  // rows with a non-null argument (AVG)
    std::int64_t int_sum = 0;
    double double_sum = 0;
    bool saw_double = false;
    double mean = 0;  // Welford state for VARIANCE/STDDEV
    double m2 = 0;
    bool set = false;
    relational::Value min;
    relational::Value max;
  };
  using State = std::vector<SingleState>;

  explicit TupleAggPolicy(std::vector<AggSpec> specs)
      : specs_(std::move(specs)) {}

  State Init() const { return State(specs_.size()); }

  void Add(State& state, const relational::Tuple& tuple) const;

  Output Result(const State& state) const;

 private:
  std::vector<AggSpec> specs_;
};

/// Stateful tuple operators declare per-element state bytes in terms of
/// sizeof(Tuple), which misses the heap the schema's values occupy. Stamps
/// a schema-based estimate on the stateful ones among `nodes` as the
/// `dataflow.bytes_per_element` gauge, so the abstract interpreter
/// (src/analysis/dataflow.h) bounds real retention. Every lowering of a
/// plan node with output `schema` calls it on the nodes it created.
void StampStateBytes(const std::vector<Node*>& nodes,
                     const relational::Schema& schema);

/// One instantiated subplan, keyed by its logical signature. Besides the
/// output to subscribe to, it carries what dynamic *removal* needs: the
/// nodes created for it, closures that detach them from their upstreams,
/// and a reference count of installed queries using it.
struct SubplanEntry {
  Source<relational::Tuple>* output = nullptr;
  std::vector<Node*> nodes;  // empty for bare scans (the catalog's source)
  std::vector<std::function<Status()>> disconnects;
  std::size_t refcount = 0;
};

using SubplanMap = std::map<std::string, SubplanEntry>;

/// Lowers logical plans into the graph.
class PhysicalBuilder {
 public:
  struct BuildStats {
    std::size_t operators_created = 0;
    std::size_t operators_reused = 0;
  };

  /// `graph` receives the operators; `catalog` resolves scan sources.
  PhysicalBuilder(QueryGraph* graph, const cql::Catalog* catalog);

  /// Instantiates `plan` and returns its output. Subplans whose signature
  /// is present in `registry` are reused; new ones are recorded there.
  /// `used_postorder` (optional) receives each distinct signature of the
  /// plan once, children before parents — the removal script for
  /// `PlanManager::UninstallQuery`.
  Result<Source<relational::Tuple>*> Build(
      const LogicalPlan& plan, SubplanMap* registry = nullptr,
      BuildStats* stats = nullptr,
      std::vector<std::string>* used_postorder = nullptr);

 private:
  Result<Source<relational::Tuple>*> BuildNode(
      const LogicalPlan& plan, SubplanMap* registry, BuildStats* stats,
      std::vector<std::string>* used_postorder,
      std::set<std::string>* used_set);

  QueryGraph* graph_;
  const cql::Catalog* catalog_;
};

}  // namespace pipes::optimizer

#endif  // PIPES_OPTIMIZER_PHYSICAL_H_
