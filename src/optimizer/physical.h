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
#include "src/relational/tuple.h"

/// \file
/// Physical plan instantiation, the one lowering of `LogicalPlan`: lowers a
/// (normalized) logical plan into operators of the generic algebra over
/// `Tuple` payloads and subscribes them into the running query graph. When
/// a subplan-signature registry is supplied, structurally identical
/// subplans are *shared* — new queries graft onto the running graph through
/// the publish-subscribe architecture instead of rebuilding common work
/// (multi-query optimization). `PhysicalOptions` chooses between the plain
/// physical forms and two others: keyed replicas of the key-partitionable
/// operators, and equi-joins whose state can spill to disk.

namespace pipes::optimizer {

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

/// Which physical form the builder gives an operator. Signatures do not
/// record it, so a registry is shared only among builders with equal
/// options.
struct PhysicalOptions {
  /// Keyed replicas of each grouped aggregate, `DISTINCT`, partitioned-rows
  /// window and equi-join (`algebra::MakeKeyedParallel` /
  /// `MakeParallelHashJoin`); 1 builds them unreplicated.
  std::size_t replicas = 1;
  /// Build unreplicated equi-joins whose inputs hold at most four
  /// non-string fields with spillable SweepAreas (`MakeSpillableHashJoin`
  /// over a trivially copyable packing of the rows), so a memory squeeze
  /// pages join state to disk instead of shedding it.
  bool spillable_joins = false;
};

/// Lowers logical plans into the graph.
class PhysicalBuilder {
 public:
  struct BuildStats {
    std::size_t operators_created = 0;
    std::size_t operators_reused = 0;
  };

  /// `graph` receives the operators; `catalog` resolves scan sources.
  PhysicalBuilder(QueryGraph* graph, const cql::Catalog* catalog,
                  PhysicalOptions options = {});

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
  PhysicalOptions options_;
};

}  // namespace pipes::optimizer

#endif  // PIPES_OPTIMIZER_PHYSICAL_H_
