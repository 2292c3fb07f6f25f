#ifndef PIPES_OPTIMIZER_PLAN_MANAGER_H_
#define PIPES_OPTIMIZER_PLAN_MANAGER_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/core/graph.h"
#include "src/cql/catalog.h"
#include "src/optimizer/optimizer.h"
#include "src/optimizer/physical.h"

/// \file
/// The multi-query plan manager: the component that "takes a new query as
/// input, heuristically produces a set of snapshot-equivalent query plans,
/// probes each against the currently running query graph, and integrates
/// the best matching plan's accessory nodes via the publish-subscribe
/// architecture". It owns the signature registry of everything already
/// instantiated, so later queries share common subplans instead of
/// recomputing them — and queries can be *uninstalled* again: shared
/// subplans are reference counted and physically removed only when their
/// last query leaves.

namespace pipes::optimizer {

class PlanManager {
 public:
  struct InstalledQuery {
    std::uint64_t query_id = 0;                   // handle for UninstallQuery
    LogicalPlan plan;                             // the chosen alternative
    Source<relational::Tuple>* output = nullptr;  // subscribe sinks here
    relational::Schema schema;
    std::size_t operators_created = 0;
    std::size_t operators_reused = 0;
    double estimated_cost = 0;
    std::size_t alternatives_considered = 0;
  };

  /// `sharing` off turns the manager into a naive per-query instantiator
  /// (the baseline of experiment E5).
  PlanManager(QueryGraph* graph, const cql::Catalog* catalog,
              bool sharing = true);

  /// Compiles, optimizes, and instantiates a CQL query against the running
  /// graph.
  Result<InstalledQuery> InstallQuery(const std::string& cql_text);

  /// Same, for an already-analyzed logical plan.
  Result<InstalledQuery> InstallPlan(const LogicalPlan& plan);

  /// Removes the query from the running graph: its subplans' reference
  /// counts drop, and subplans no other query uses are unsubscribed from
  /// their upstreams and deleted. Fails with FailedPrecondition — without
  /// modifying anything — while external sinks are still subscribed to an
  /// operator that would be removed (detach them first).
  Status UninstallQuery(std::uint64_t query_id);

  std::size_t total_operators_created() const { return total_created_; }
  std::size_t total_operators_reused() const { return total_reused_; }
  /// Queries currently running (installed and not uninstalled).
  std::size_t installed_queries() const { return queries_.size(); }
  /// Distinct subplans currently instantiated.
  std::size_t live_subplans() const { return registry_.size(); }

  /// The physical nodes instantiated for (or shared into) `query_id`, in
  /// children-before-parents subplan order. Shared nodes appear for every
  /// query using them. Empty result for a bare catalog scan; NotFound for
  /// an unknown/uninstalled id. The engine's per-query metrics and the
  /// per-tenant snapshot filter are built from this.
  Result<std::vector<const Node*>> QueryNodes(std::uint64_t query_id) const;

 private:
  struct QueryRecord {
    std::vector<std::string> signatures_postorder;  // children before parents
  };

  QueryGraph* graph_;
  const cql::Catalog* catalog_;
  bool sharing_;
  Optimizer optimizer_;
  // Default `PhysicalOptions`: the engine builds every operator unreplicated
  // and without spilling, so `UninstallQuery` never meets a replicated or
  // packed subplan.
  PhysicalBuilder builder_;
  SubplanMap registry_;
  std::map<std::uint64_t, QueryRecord> queries_;
  std::uint64_t next_query_id_ = 1;
  std::size_t total_created_ = 0;
  std::size_t total_reused_ = 0;
};

}  // namespace pipes::optimizer

#endif  // PIPES_OPTIMIZER_PLAN_MANAGER_H_
