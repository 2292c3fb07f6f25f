#include "src/optimizer/rules.h"

#include <algorithm>
#include <utility>

#include "src/common/macros.h"

namespace pipes::optimizer {

using relational::BinaryExpr;
using relational::BinaryOp;
using relational::ExprPtr;
using relational::FieldRef;
using relational::Literal;

LogicalPlan CloneWithChildren(const LogicalOp& op,
                              std::vector<LogicalPlan> children) {
  switch (op.kind) {
    case LogicalOp::Kind::kStreamScan:
      return ScanOp(op.stream_name, op.schema, op.window);
    case LogicalOp::Kind::kFilter:
      return FilterOp(std::move(children[0]), op.predicate);
    case LogicalOp::Kind::kProject: {
      std::vector<std::string> names;
      names.reserve(op.schema.arity());
      for (const auto& field : op.schema.fields()) names.push_back(field.name);
      return ProjectOp(std::move(children[0]), op.exprs, std::move(names));
    }
    case LogicalOp::Kind::kJoin:
      return JoinOp(std::move(children[0]), std::move(children[1]),
                    op.equi_keys, op.predicate);
    case LogicalOp::Kind::kGroupAggregate:
      return GroupAggregateOp(std::move(children[0]), op.group_fields,
                              op.aggs);
    case LogicalOp::Kind::kDistinct:
      return DistinctOp(std::move(children[0]));
    case LogicalOp::Kind::kUnion:
      return UnionOp(std::move(children[0]), std::move(children[1]));
    case LogicalOp::Kind::kIStream:
      return IStreamOp(std::move(children[0]));
    case LogicalOp::Kind::kDStream:
      return DStreamOp(std::move(children[0]));
    case LogicalOp::Kind::kDifference:
      return DifferenceOp(std::move(children[0]), std::move(children[1]));
    case LogicalOp::Kind::kIntersect:
      return IntersectOp(std::move(children[0]), std::move(children[1]));
  }
  PIPES_CHECK_MSG(false, "unhandled logical op kind");
  return nullptr;
}

LogicalPlan MergeFiltersRule::Apply(const LogicalPlan& plan) const {
  if (plan->kind != LogicalOp::Kind::kFilter) return nullptr;
  const LogicalPlan& child = plan->children[0];
  if (child->kind != LogicalOp::Kind::kFilter) return nullptr;
  return FilterOp(child->children[0],
                  relational::MakeBinary(BinaryOp::kAnd, plan->predicate,
                                         child->predicate));
}

namespace {

/// Field-index mapping that keeps [0, arity) and drops the rest.
std::vector<int> KeepPrefix(std::size_t total, std::size_t arity) {
  std::vector<int> mapping(total, -1);
  for (std::size_t i = 0; i < arity && i < total; ++i) {
    mapping[i] = static_cast<int>(i);
  }
  return mapping;
}

/// Mapping that shifts [offset, total) down to [0, total - offset).
std::vector<int> KeepSuffix(std::size_t total, std::size_t offset) {
  std::vector<int> mapping(total, -1);
  for (std::size_t i = offset; i < total; ++i) {
    mapping[i] = static_cast<int>(i - offset);
  }
  return mapping;
}

}  // namespace

LogicalPlan ExtractJoinKeysRule::Apply(const LogicalPlan& plan) const {
  if (plan->kind != LogicalOp::Kind::kFilter) return nullptr;
  const LogicalPlan& join = plan->children[0];
  if (join->kind != LogicalOp::Kind::kJoin) return nullptr;

  const std::size_t left_arity = join->children[0]->schema.arity();
  const std::size_t total = join->schema.arity();

  std::vector<ExprPtr> conjuncts;
  relational::SplitConjuncts(plan->predicate, &conjuncts);

  std::vector<std::pair<std::size_t, std::size_t>> equi_keys =
      join->equi_keys;
  std::vector<ExprPtr> left_preds;
  std::vector<ExprPtr> right_preds;
  std::vector<ExprPtr> residuals;
  bool changed = false;

  const auto left_map = KeepPrefix(total, left_arity);
  const auto right_map = KeepSuffix(total, left_arity);

  for (const ExprPtr& conjunct : conjuncts) {
    // Equi-key pattern: FieldRef(=)FieldRef across the two sides.
    if (const auto* eq = dynamic_cast<const BinaryExpr*>(conjunct.get());
        eq != nullptr && eq->op() == BinaryOp::kEq) {
      const auto* a = dynamic_cast<const FieldRef*>(eq->left().get());
      const auto* b = dynamic_cast<const FieldRef*>(eq->right().get());
      if (a != nullptr && b != nullptr) {
        std::size_t l = a->index();
        std::size_t r = b->index();
        if (l >= left_arity && r < left_arity) std::swap(l, r);
        if (l < left_arity && r >= left_arity) {
          equi_keys.emplace_back(l, r - left_arity);
          changed = true;
          continue;
        }
      }
    }
    // Single-side conjuncts are pushed into the inputs.
    if (ExprPtr pushed = conjunct->RemapFields(left_map); pushed != nullptr) {
      left_preds.push_back(std::move(pushed));
      changed = true;
      continue;
    }
    if (ExprPtr pushed = conjunct->RemapFields(right_map);
        pushed != nullptr) {
      right_preds.push_back(std::move(pushed));
      changed = true;
      continue;
    }
    residuals.push_back(conjunct);
  }
  if (!changed) return nullptr;

  LogicalPlan left = join->children[0];
  if (ExprPtr pred = relational::CombineConjuncts(left_preds);
      pred != nullptr) {
    left = FilterOp(std::move(left), std::move(pred));
  }
  LogicalPlan right = join->children[1];
  if (ExprPtr pred = relational::CombineConjuncts(right_preds);
      pred != nullptr) {
    right = FilterOp(std::move(right), std::move(pred));
  }
  ExprPtr residual = relational::CombineConjuncts(residuals);
  if (join->predicate != nullptr) {
    residual = residual == nullptr
                   ? join->predicate
                   : relational::MakeBinary(BinaryOp::kAnd, residual,
                                            join->predicate);
  }
  return JoinOp(std::move(left), std::move(right), std::move(equi_keys),
                std::move(residual));
}

LogicalPlan PushFilterThroughProjectRule::Apply(
    const LogicalPlan& plan) const {
  if (plan->kind != LogicalOp::Kind::kFilter) return nullptr;
  const LogicalPlan& project = plan->children[0];
  if (project->kind != LogicalOp::Kind::kProject) return nullptr;

  // Output field i corresponds to input field j iff exprs[i] is FieldRef(j).
  std::vector<int> mapping(project->schema.arity(), -1);
  for (std::size_t i = 0; i < project->exprs.size(); ++i) {
    if (const auto* f =
            dynamic_cast<const FieldRef*>(project->exprs[i].get())) {
      mapping[i] = static_cast<int>(f->index());
    }
  }
  ExprPtr pushed = plan->predicate->RemapFields(mapping);
  if (pushed == nullptr) return nullptr;

  std::vector<std::string> names;
  for (const auto& field : project->schema.fields()) {
    names.push_back(field.name);
  }
  return ProjectOp(FilterOp(project->children[0], std::move(pushed)),
                   project->exprs, std::move(names));
}

LogicalPlan RemoveTrivialFilterRule::Apply(const LogicalPlan& plan) const {
  if (plan->kind != LogicalOp::Kind::kFilter) return nullptr;
  if (const auto* lit =
          dynamic_cast<const Literal*>(plan->predicate.get());
      lit != nullptr && lit->value().type() == relational::ValueType::kBool &&
      lit->value().AsBool()) {
    return plan->children[0];
  }
  return nullptr;
}

std::vector<std::unique_ptr<Rule>> DefaultRules() {
  std::vector<std::unique_ptr<Rule>> rules;
  rules.push_back(std::make_unique<RemoveTrivialFilterRule>());
  rules.push_back(std::make_unique<MergeFiltersRule>());
  rules.push_back(std::make_unique<PushFilterThroughProjectRule>());
  rules.push_back(std::make_unique<ExtractJoinKeysRule>());
  return rules;
}

LogicalPlan Rewrite(const LogicalPlan& plan,
                    const std::vector<std::unique_ptr<Rule>>& rules) {
  // Normalize children first.
  std::vector<LogicalPlan> children;
  bool child_changed = false;
  children.reserve(plan->children.size());
  for (const LogicalPlan& child : plan->children) {
    LogicalPlan rewritten = Rewrite(child, rules);
    child_changed |= rewritten != child;
    children.push_back(std::move(rewritten));
  }
  LogicalPlan current =
      child_changed ? CloneWithChildren(*plan, std::move(children)) : plan;

  // Root-level fixpoint, bounded to guard against oscillating rule sets.
  for (int round = 0; round < 16; ++round) {
    bool any = false;
    for (const auto& rule : rules) {
      if (LogicalPlan rewritten = rule->Apply(current);
          rewritten != nullptr) {
        // The rewrite may expose new opportunities below the root (e.g.
        // pushed filters); re-normalize the whole subtree.
        std::vector<LogicalPlan> new_children;
        new_children.reserve(rewritten->children.size());
        bool changed_below = false;
        for (const LogicalPlan& child : rewritten->children) {
          LogicalPlan r = Rewrite(child, rules);
          changed_below |= r != child;
          new_children.push_back(std::move(r));
        }
        current = changed_below
                      ? CloneWithChildren(*rewritten, std::move(new_children))
                      : rewritten;
        any = true;
      }
    }
    if (!any) break;
  }
  return current;
}

}  // namespace pipes::optimizer
