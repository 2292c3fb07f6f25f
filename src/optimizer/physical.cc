#include "src/optimizer/physical.h"

#include <cmath>
#include <utility>

#include "src/algebra/aggregate.h"
#include "src/algebra/difference.h"
#include "src/algebra/distinct.h"
#include "src/algebra/filter.h"
#include "src/algebra/intersect.h"
#include "src/algebra/join.h"
#include "src/algebra/map.h"
#include "src/algebra/relation_to_stream.h"
#include "src/algebra/union.h"
#include "src/algebra/window.h"
#include "src/common/macros.h"

namespace pipes::optimizer {

using relational::Tuple;

void TupleAggPolicy::Add(State& state, const Tuple& tuple) const {
  PIPES_DCHECK(state.size() == specs_.size());
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    SingleState& s = state[i];
    ++s.count;
    const AggSpec& spec = specs_[i];
    if (spec.arg == nullptr) continue;  // COUNT(*)
    const relational::Value v = spec.arg->Eval(tuple);
    if (v.is_null()) continue;
    ++s.value_count;
    switch (spec.kind) {
      case AggKind::kCount:
        break;
      case AggKind::kSum:
      case AggKind::kAvg:
        if (v.type() == relational::ValueType::kInt) {
          s.int_sum += v.AsInt();
        } else {
          s.saw_double = true;
        }
        s.double_sum += v.AsDouble();
        break;
      case AggKind::kMin:
        if (!s.set || v < s.min) s.min = v;
        s.set = true;
        break;
      case AggKind::kMax:
        if (!s.set || s.max < v) s.max = v;
        s.set = true;
        break;
      case AggKind::kVariance:
      case AggKind::kStddev: {
        // Welford over the non-null arguments (value_count was just
        // incremented).
        const double x = v.AsDouble();
        const double delta = x - s.mean;
        s.mean += delta / static_cast<double>(s.value_count);
        s.m2 += delta * (x - s.mean);
        break;
      }
    }
  }
}

Tuple TupleAggPolicy::Result(const State& state) const {
  std::vector<relational::Value> values;
  values.reserve(specs_.size());
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    const SingleState& s = state[i];
    switch (specs_[i].kind) {
      case AggKind::kCount:
        values.push_back(relational::Value(static_cast<std::int64_t>(s.count)));
        break;
      case AggKind::kSum:
        values.push_back(s.saw_double
                             ? relational::Value(s.double_sum)
                             : relational::Value(s.int_sum));
        break;
      case AggKind::kAvg:
        values.push_back(
            s.value_count == 0
                ? relational::Value::Null()
                : relational::Value(s.double_sum /
                                    static_cast<double>(s.value_count)));
        break;
      case AggKind::kMin:
        values.push_back(s.set ? s.min : relational::Value::Null());
        break;
      case AggKind::kMax:
        values.push_back(s.set ? s.max : relational::Value::Null());
        break;
      case AggKind::kVariance:
      case AggKind::kStddev: {
        if (s.value_count == 0) {
          values.push_back(relational::Value::Null());
          break;
        }
        const double variance =
            s.value_count < 2
                ? 0.0
                : s.m2 / static_cast<double>(s.value_count);
        values.push_back(relational::Value(
            specs_[i].kind == AggKind::kStddev ? std::sqrt(variance)
                                               : variance));
        break;
      }
    }
  }
  return Tuple(std::move(values));
}

void StampStateBytes(const std::vector<Node*>& nodes,
                     const relational::Schema& schema) {
  const std::size_t tuple_bytes =
      sizeof(Tuple) + schema.fields().size() * (sizeof(relational::Value) + 16);
  for (Node* node : nodes) {
    const NodeDescriptor desc = node->Describe();
    if (desc.dataflow.state_bytes_per_element == 0 && !desc.blocking) {
      continue;
    }
    // Mirror the template formulas' shape conservatively: up to two
    // retained copies per input element, each with key/boundary overhead.
    node->metadata().SetGauge(
        "dataflow.bytes_per_element",
        static_cast<double>(2 * (tuple_bytes + 64) +
                            desc.dataflow.state_bytes_per_element));
  }
}

PhysicalBuilder::PhysicalBuilder(QueryGraph* graph,
                                 const cql::Catalog* catalog)
    : graph_(graph), catalog_(catalog) {
  PIPES_CHECK(graph != nullptr && catalog != nullptr);
}

namespace {

/// Rejects window parameters no window operator accepts — non-positive
/// RANGE, SLIDE or ROWS — anywhere in `plan`, so a bad plan fails before
/// the first of its operators joins the graph.
Status ValidateWindows(const LogicalPlan& plan) {
  for (const LogicalPlan& child : plan->children) {
    PIPES_RETURN_IF_ERROR(ValidateWindows(child));
  }
  if (plan->kind != LogicalOp::Kind::kStreamScan) return Status::OK();
  const WindowSpec& w = plan->window;
  const bool rows = w.kind == WindowKind::kRows ||
                    w.kind == WindowKind::kPartitionedRows;
  const bool positive =
      (w.kind != WindowKind::kRange || w.range > 0) &&
      (w.kind != WindowKind::kRangeSlide || (w.range > 0 && w.slide > 0)) &&
      (!rows || w.rows > 0);
  if (!positive) {
    return Status::InvalidArgument("window [" + w.ToString() +
                                   "] on stream '" + plan->stream_name +
                                   "' needs positive RANGE, SLIDE and ROWS");
  }
  for (std::size_t field : w.partition) {
    if (field >= plan->schema.arity()) {
      return Status::InvalidArgument("window [" + w.ToString() +
                                     "] on stream '" + plan->stream_name +
                                     "' partitions by a missing field");
    }
  }
  return Status::OK();
}

/// Static type of `expr` over `schema`, or InvalidArgument naming the first
/// subexpression whose operand types would abort evaluation at the first
/// row: arithmetic or negation on a STRING or BOOL, a STRING where a truth
/// value is needed (NOT, AND, OR). Comparisons accept every type.
Result<relational::ValueType> CheckExpr(const relational::ExprPtr& expr,
                                        const relational::Schema& schema) {
  using relational::ValueType;
  const auto non_numeric = [](ValueType t) {
    return t == ValueType::kString || t == ValueType::kBool;
  };
  const auto ill_typed = [&]() {
    return Status::InvalidArgument("ill-typed expression " + expr->ToString());
  };
  if (const auto* u = dynamic_cast<const relational::UnaryExpr*>(expr.get())) {
    PIPES_ASSIGN_OR_RETURN(ValueType t, CheckExpr(u->operand(), schema));
    const bool bad = u->op() == relational::UnaryOp::kNot
                         ? t == ValueType::kString
                         : non_numeric(t);
    if (bad) return ill_typed();
  } else if (const auto* b =
                 dynamic_cast<const relational::BinaryExpr*>(expr.get())) {
    PIPES_ASSIGN_OR_RETURN(ValueType l, CheckExpr(b->left(), schema));
    PIPES_ASSIGN_OR_RETURN(ValueType r, CheckExpr(b->right(), schema));
    switch (b->op()) {
      case relational::BinaryOp::kAnd:
      case relational::BinaryOp::kOr:
        if (l == ValueType::kString || r == ValueType::kString) {
          return ill_typed();
        }
        break;
      case relational::BinaryOp::kAdd:
      case relational::BinaryOp::kSub:
      case relational::BinaryOp::kMul:
      case relational::BinaryOp::kDiv:
      case relational::BinaryOp::kMod:
        if (non_numeric(l) || non_numeric(r)) return ill_typed();
        break;
      default:
        break;
    }
  }
  return InferType(expr, schema);
}

/// `expr` used as a predicate: well typed, and not a STRING.
Status CheckPredicate(const relational::ExprPtr& expr,
                      const relational::Schema& schema) {
  PIPES_ASSIGN_OR_RETURN(relational::ValueType t, CheckExpr(expr, schema));
  if (t != relational::ValueType::kString) return Status::OK();
  return Status::InvalidArgument("predicate " + expr->ToString() +
                                 " is a STRING, not a truth value");
}

/// The type pass: every expression of `plan` is checked against its input
/// schema, so an ill-typed plan fails before the first of its operators
/// joins the graph instead of aborting at its first row.
Status CheckTypes(const LogicalPlan& plan) {
  for (const LogicalPlan& child : plan->children) {
    PIPES_RETURN_IF_ERROR(CheckTypes(child));
  }
  // A join's residual reads the concatenated schema, its own output.
  const relational::Schema& input = plan->children.size() == 1
                                        ? plan->children[0]->schema
                                        : plan->schema;
  if (plan->predicate != nullptr) {
    PIPES_RETURN_IF_ERROR(CheckPredicate(plan->predicate, input));
  }
  for (const relational::ExprPtr& expr : plan->exprs) {
    PIPES_RETURN_IF_ERROR(CheckExpr(expr, input).status());
  }
  for (const AggSpec& agg : plan->aggs) {
    if (agg.arg == nullptr) continue;
    PIPES_ASSIGN_OR_RETURN(relational::ValueType t, CheckExpr(agg.arg, input));
    const bool numeric_agg = agg.kind != AggKind::kCount &&
                             agg.kind != AggKind::kMin &&
                             agg.kind != AggKind::kMax;
    if (numeric_agg && (t == relational::ValueType::kString ||
                        t == relational::ValueType::kBool)) {
      return Status::InvalidArgument(
          std::string("ill-typed aggregate ") + AggKindName(agg.kind) + "(" +
          agg.arg->ToString() + ") over a " + relational::ValueTypeName(t));
    }
  }
  return Status::OK();
}

}  // namespace

Result<Source<Tuple>*> PhysicalBuilder::Build(
    const LogicalPlan& plan, SubplanMap* registry, BuildStats* stats,
    std::vector<std::string>* used_postorder) {
  PIPES_RETURN_IF_ERROR(ValidateWindows(plan));
  PIPES_RETURN_IF_ERROR(CheckTypes(plan));
  BuildStats local_stats;
  SubplanMap local_registry;
  std::set<std::string> used_set;
  return BuildNode(plan, registry != nullptr ? registry : &local_registry,
                   stats != nullptr ? stats : &local_stats, used_postorder,
                   &used_set);
}

namespace {

/// Appends every signature of `plan`'s subtree, children before parents.
void RememberSubtree(const LogicalPlan& plan,
                     std::vector<std::string>* used_postorder,
                     std::set<std::string>* used_set) {
  for (const LogicalPlan& child : plan->children) {
    RememberSubtree(child, used_postorder, used_set);
  }
  std::string signature = plan->Signature();
  if (used_set->insert(signature).second) {
    used_postorder->push_back(std::move(signature));
  }
}

}  // namespace

Result<Source<Tuple>*> PhysicalBuilder::BuildNode(
    const LogicalPlan& plan, SubplanMap* registry, BuildStats* stats,
    std::vector<std::string>* used_postorder,
    std::set<std::string>* used_set) {
  const std::string signature = plan->Signature();
  auto remember_use = [&]() {
    if (used_postorder != nullptr && used_set->insert(signature).second) {
      used_postorder->push_back(signature);
    }
  };
  if (auto it = registry->find(signature); it != registry->end()) {
    ++stats->operators_reused;
    // The query depends on the whole reused subtree, not just its root:
    // every signature below must be reference-counted too (children
    // first), or uninstalling the creator query would tear the shared
    // subplan's inputs away.
    if (used_postorder != nullptr) {
      RememberSubtree(plan, used_postorder, used_set);
    }
    return it->second.output;
  }

  std::vector<Source<Tuple>*> in;
  for (const LogicalPlan& child : plan->children) {
    PIPES_ASSIGN_OR_RETURN(
        Source<Tuple>* built,
        BuildNode(child, registry, stats, used_postorder, used_set));
    in.push_back(built);
  }

  SubplanEntry entry;
  // Subscribes `port` to `from`, remembering how to undo it.
  const auto subscribe = [&](auto* from, auto& port) {
    from->AddSubscriber(port);
    entry.disconnects.push_back(
        [from, p = &port]() { return from->UnsubscribeFrom(*p); });
  };
  // Records a created operator.
  const auto created = [&](Node& op) {
    ++stats->operators_created;
    entry.nodes.push_back(&op);
  };
  // Wires a created operator below `from` (or the two children); it becomes
  // the output.
  const auto unary = [&](auto* from, auto& op) {
    subscribe(from, op.input());
    created(op);
    entry.output = &op;
  };
  const auto binary = [&](auto& op) {
    subscribe(in[0], op.left());
    subscribe(in[1], op.right());
    created(op);
    entry.output = &op;
  };

  switch (plan->kind) {
    case LogicalOp::Kind::kStreamScan: {
      PIPES_ASSIGN_OR_RETURN(const cql::Catalog::StreamInfo* info,
                             catalog_->Lookup(plan->stream_name));
      if (info->source == nullptr) {
        return Status::FailedPrecondition(
            "stream '" + plan->stream_name + "' has no physical source");
      }
      Source<Tuple>* source = info->source;
      const WindowSpec& w = plan->window;
      const std::string& stream = plan->stream_name;
      switch (w.kind) {
        case WindowKind::kNow:
          entry.output = source;  // no operator: the source itself
          break;
        case WindowKind::kRange:
          unary(source, graph_->Add<algebra::TimeWindow<Tuple>>(
                            w.range, "window(" + stream + ")"));
          break;
        case WindowKind::kRangeSlide:
          unary(source, graph_->Add<algebra::SlideWindow<Tuple>>(
                            w.range, w.slide, "slide-window(" + stream + ")"));
          break;
        case WindowKind::kRows:
          unary(source, graph_->Add<algebra::CountWindow<Tuple>>(
                            w.rows, "rows-window(" + stream + ")"));
          break;
        case WindowKind::kUnbounded:
          unary(source, graph_->Add<algebra::UnboundedWindow<Tuple>>(
                            "unbounded-window(" + stream + ")"));
          break;
        case WindowKind::kPartitionedRows:
          unary(source,
                graph_->Add<algebra::PartitionedWindow<Tuple, FieldsKey>>(
                    FieldsKey{w.partition}, w.rows,
                    "partitioned-window(" + stream + ")"));
          break;
      }
      break;
    }

    case LogicalOp::Kind::kFilter:
      unary(in[0], graph_->Add<algebra::Filter<Tuple, ExprPredicate>>(
                       ExprPredicate{plan->predicate},
                       "filter[" + plan->predicate->ToString() + "]"));
      break;

    case LogicalOp::Kind::kProject:
      unary(in[0], graph_->Add<algebra::Map<Tuple, Tuple, ExprProjector>>(
                       ExprProjector{plan->exprs}, "project"));
      break;

    case LogicalOp::Kind::kJoin: {
      if (plan->equi_keys.empty()) {
        binary(graph_->Add(algebra::MakeNestedLoopsJoin<Tuple, Tuple>(
            ConcatPredicate{plan->predicate}, TupleConcatCombine{},
            plan->predicate == nullptr ? "cross-join" : "nl-join")));
        break;
      }
      FieldsKey left_key;
      FieldsKey right_key;
      for (const auto& [l, r] : plan->equi_keys) {
        left_key.fields.push_back(l);
        right_key.fields.push_back(r);
      }
      binary(graph_->Add(algebra::MakeHashJoin<Tuple, Tuple>(
          left_key, right_key, TupleConcatCombine{}, "hash-join")));
      if (plan->predicate != nullptr) {
        unary(entry.output, graph_->Add<algebra::Filter<Tuple, ExprPredicate>>(
                                ExprPredicate{plan->predicate},
                                "join-residual"));
      }
      break;
    }

    case LogicalOp::Kind::kGroupAggregate: {
      using Grouped = algebra::GroupedAggregate<Tuple, TupleAggPolicy,
                                                FieldsKey, TupleIdentity>;
      auto& grouped = graph_->Add<Grouped>(
          FieldsKey{plan->group_fields}, TupleIdentity{}, "group-aggregate",
          TupleAggPolicy(plan->aggs));
      subscribe(in[0], grouped.input());
      created(grouped);
      unary(&grouped,
            graph_->Add<algebra::Map<std::pair<Tuple, Tuple>, Tuple,
                                     PairConcat>>(PairConcat{},
                                                  "flatten-groups"));
      break;
    }

    case LogicalOp::Kind::kDistinct:
      unary(in[0], graph_->Add<algebra::Distinct<Tuple>>("distinct"));
      break;
    case LogicalOp::Kind::kUnion:
      binary(graph_->Add<algebra::Union<Tuple>>("union"));
      break;
    case LogicalOp::Kind::kDifference:
      binary(graph_->Add<algebra::Difference<Tuple>>("difference"));
      break;
    case LogicalOp::Kind::kIntersect:
      binary(graph_->Add<algebra::Intersect<Tuple>>("intersect"));
      break;
    case LogicalOp::Kind::kIStream:
      unary(in[0], graph_->Add<algebra::IStream<Tuple>>("istream"));
      break;
    case LogicalOp::Kind::kDStream:
      unary(in[0], graph_->Add<algebra::DStream<Tuple>>("dstream"));
      break;
  }

  PIPES_CHECK(entry.output != nullptr);
  StampStateBytes(entry.nodes, plan->schema);
  Source<Tuple>* output = entry.output;
  (*registry)[signature] = std::move(entry);
  remember_use();
  return output;
}

}  // namespace pipes::optimizer
