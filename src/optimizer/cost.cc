#include "src/optimizer/cost.h"

#include <algorithm>

namespace pipes::optimizer {

CostEstimate CostModel::Estimate(const LogicalPlan& plan,
                                 const std::set<std::string>* shared) const {
  const bool is_shared =
      shared != nullptr && shared->count(plan->Signature()) > 0;

  // Children first (rates are needed even for shared subtrees).
  std::vector<CostEstimate> child;
  child.reserve(plan->children.size());
  for (const LogicalPlan& c : plan->children) {
    child.push_back(Estimate(c, shared));
  }

  CostEstimate estimate;
  double own_cost = 0;
  switch (plan->kind) {
    case LogicalOp::Kind::kStreamScan: {
      estimate.output_rate = kDefaultScanRate;
      if (catalog_ != nullptr) {
        auto info = catalog_->Lookup(plan->stream_name);
        if (info.ok()) estimate.output_rate = (*info)->rate_hint;
      }
      own_cost = 0;
      break;
    }
    case LogicalOp::Kind::kFilter:
      estimate.output_rate = child[0].output_rate * kFilterSelectivity;
      own_cost = child[0].output_rate;
      break;
    case LogicalOp::Kind::kProject:
      estimate.output_rate = child[0].output_rate;
      own_cost = child[0].output_rate;
      break;
    case LogicalOp::Kind::kJoin: {
      const double selectivity =
          plan->equi_keys.empty()
              ? (plan->predicate != nullptr ? kResidualSelectivity : 1.0)
              : kEquiJoinSelectivity *
                    (plan->predicate != nullptr ? kResidualSelectivity : 1.0);
      estimate.output_rate = child[0].output_rate * child[1].output_rate *
                             kJoinWindowSeconds * selectivity;
      // Inserts and probes on both sides plus result construction.
      own_cost = child[0].output_rate + child[1].output_rate +
                 estimate.output_rate;
      break;
    }
    case LogicalOp::Kind::kGroupAggregate:
      estimate.output_rate = child[0].output_rate * kAggregateRateFactor;
      own_cost = child[0].output_rate;
      break;
    case LogicalOp::Kind::kDistinct:
      estimate.output_rate = child[0].output_rate * kDistinctRateFactor;
      own_cost = child[0].output_rate;
      break;
    case LogicalOp::Kind::kUnion:
      estimate.output_rate = child[0].output_rate + child[1].output_rate;
      own_cost = estimate.output_rate;
      break;
    case LogicalOp::Kind::kDifference:
    case LogicalOp::Kind::kIntersect:
      // Coverage sweeps over both inputs; the output is bounded by the left
      // (difference) or the smaller (intersect) input.
      estimate.output_rate =
          plan->kind == LogicalOp::Kind::kDifference
              ? child[0].output_rate
              : std::min(child[0].output_rate, child[1].output_rate);
      own_cost = child[0].output_rate + child[1].output_rate;
      break;
    case LogicalOp::Kind::kIStream:
    case LogicalOp::Kind::kDStream:
      estimate.output_rate = child[0].output_rate;
      own_cost = child[0].output_rate;
      break;
  }

  if (is_shared) {
    // The running graph already computes this subtree.
    estimate.cost = 0;
  } else {
    estimate.cost = own_cost;
    for (const CostEstimate& c : child) estimate.cost += c.cost;
  }
  return estimate;
}

}  // namespace pipes::optimizer
