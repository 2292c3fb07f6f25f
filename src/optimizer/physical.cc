#include "src/optimizer/physical.h"

#include <cmath>
#include <utility>

#include "src/algebra/aggregate.h"
#include "src/algebra/distinct.h"
#include "src/algebra/filter.h"
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
  const bool positive =
      (w.kind != WindowKind::kRange || w.range > 0) &&
      (w.kind != WindowKind::kRangeSlide || (w.range > 0 && w.slide > 0)) &&
      (w.kind != WindowKind::kRows || w.rows > 0);
  if (positive) return Status::OK();
  return Status::InvalidArgument("window [" + w.ToString() + "] on stream '" +
                                 plan->stream_name +
                                 "' needs positive RANGE, SLIDE and ROWS");
}

}  // namespace

Result<Source<Tuple>*> PhysicalBuilder::Build(
    const LogicalPlan& plan, SubplanMap* registry, BuildStats* stats,
    std::vector<std::string>* used_postorder) {
  PIPES_RETURN_IF_ERROR(ValidateWindows(plan));
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

  SubplanEntry entry;
  switch (plan->kind) {
    case LogicalOp::Kind::kStreamScan: {
      PIPES_ASSIGN_OR_RETURN(const cql::Catalog::StreamInfo* info,
                             catalog_->Lookup(plan->stream_name));
      if (info->source == nullptr) {
        return Status::FailedPrecondition(
            "stream '" + plan->stream_name + "' has no physical source");
      }
      Source<Tuple>* source = info->source;
      auto attach = [&](auto& window) {
        source->AddSubscriber(window.input());
        ++stats->operators_created;
        entry.nodes.push_back(&window);
        entry.disconnects.push_back([source, op = &window]() {
          return source->UnsubscribeFrom(op->input());
        });
        entry.output = &window;
      };
      switch (plan->window.kind) {
        case WindowKind::kNow:
          entry.output = source;  // no operator: the source itself
          break;
        case WindowKind::kRange: {
          auto& window = graph_->Add<algebra::TimeWindow<Tuple>>(
              plan->window.range, "window(" + plan->stream_name + ")");
          attach(window);
          break;
        }
        case WindowKind::kRangeSlide: {
          auto& window = graph_->Add<algebra::SlideWindow<Tuple>>(
              plan->window.range, plan->window.slide,
              "slide-window(" + plan->stream_name + ")");
          attach(window);
          break;
        }
        case WindowKind::kRows: {
          auto& window = graph_->Add<algebra::CountWindow<Tuple>>(
              plan->window.rows, "rows-window(" + plan->stream_name + ")");
          attach(window);
          break;
        }
        case WindowKind::kUnbounded: {
          auto& window = graph_->Add<algebra::UnboundedWindow<Tuple>>(
              "unbounded-window(" + plan->stream_name + ")");
          attach(window);
          break;
        }
      }
      break;
    }

    case LogicalOp::Kind::kFilter: {
      PIPES_ASSIGN_OR_RETURN(
          Source<Tuple>* child,
          BuildNode(plan->children[0], registry, stats, used_postorder,
                    used_set));
      auto& filter = graph_->Add<algebra::Filter<Tuple, ExprPredicate>>(
          ExprPredicate{plan->predicate},
          "filter[" + plan->predicate->ToString() + "]");
      child->AddSubscriber(filter.input());
      ++stats->operators_created;
      entry.nodes.push_back(&filter);
      entry.disconnects.push_back([child, op = &filter]() {
        return child->UnsubscribeFrom(op->input());
      });
      entry.output = &filter;
      break;
    }

    case LogicalOp::Kind::kProject: {
      PIPES_ASSIGN_OR_RETURN(
          Source<Tuple>* child,
          BuildNode(plan->children[0], registry, stats, used_postorder,
                    used_set));
      auto& project = graph_->Add<algebra::Map<Tuple, Tuple, ExprProjector>>(
          ExprProjector{plan->exprs}, "project");
      child->AddSubscriber(project.input());
      ++stats->operators_created;
      entry.nodes.push_back(&project);
      entry.disconnects.push_back([child, op = &project]() {
        return child->UnsubscribeFrom(op->input());
      });
      entry.output = &project;
      break;
    }

    case LogicalOp::Kind::kJoin: {
      PIPES_ASSIGN_OR_RETURN(
          Source<Tuple>* left,
          BuildNode(plan->children[0], registry, stats, used_postorder,
                    used_set));
      PIPES_ASSIGN_OR_RETURN(
          Source<Tuple>* right,
          BuildNode(plan->children[1], registry, stats, used_postorder,
                    used_set));
      Source<Tuple>* join_out = nullptr;
      if (!plan->equi_keys.empty()) {
        FieldsKey left_key;
        FieldsKey right_key;
        for (const auto& [l, r] : plan->equi_keys) {
          left_key.fields.push_back(l);
          right_key.fields.push_back(r);
        }
        auto join = algebra::MakeHashJoin<Tuple, Tuple>(
            left_key, right_key, TupleConcatCombine{}, "hash-join");
        auto& node = graph_->Add(std::move(join));
        left->AddSubscriber(node.left());
        right->AddSubscriber(node.right());
        ++stats->operators_created;
        entry.nodes.push_back(&node);
        entry.disconnects.push_back([left, op = &node]() {
          return left->UnsubscribeFrom(op->left());
        });
        entry.disconnects.push_back([right, op = &node]() {
          return right->UnsubscribeFrom(op->right());
        });
        join_out = &node;
        if (plan->predicate != nullptr) {
          auto& residual =
              graph_->Add<algebra::Filter<Tuple, ExprPredicate>>(
                  ExprPredicate{plan->predicate}, "join-residual");
          join_out->AddSubscriber(residual.input());
          ++stats->operators_created;
          entry.nodes.push_back(&residual);
          Source<Tuple>* raw = join_out;
          entry.disconnects.push_back([raw, op = &residual]() {
            return raw->UnsubscribeFrom(op->input());
          });
          join_out = &residual;
        }
      } else {
        auto join = algebra::MakeNestedLoopsJoin<Tuple, Tuple>(
            ConcatPredicate{plan->predicate}, TupleConcatCombine{},
            plan->predicate == nullptr ? "cross-join" : "nl-join");
        auto& node = graph_->Add(std::move(join));
        left->AddSubscriber(node.left());
        right->AddSubscriber(node.right());
        ++stats->operators_created;
        entry.nodes.push_back(&node);
        entry.disconnects.push_back([left, op = &node]() {
          return left->UnsubscribeFrom(op->left());
        });
        entry.disconnects.push_back([right, op = &node]() {
          return right->UnsubscribeFrom(op->right());
        });
        join_out = &node;
      }
      entry.output = join_out;
      break;
    }

    case LogicalOp::Kind::kGroupAggregate: {
      PIPES_ASSIGN_OR_RETURN(
          Source<Tuple>* child,
          BuildNode(plan->children[0], registry, stats, used_postorder,
                    used_set));
      struct TupleIdentity {
        const Tuple& operator()(const Tuple& t) const { return t; }
      };
      using Grouped = algebra::GroupedAggregate<Tuple, TupleAggPolicy,
                                                FieldsKey, TupleIdentity>;
      auto& grouped = graph_->Add<Grouped>(
          FieldsKey{plan->group_fields}, TupleIdentity{}, "group-aggregate",
          TupleAggPolicy(plan->aggs));
      child->AddSubscriber(grouped.input());
      ++stats->operators_created;

      // (group key, agg results) -> flat output tuple.
      struct PairConcat {
        Tuple operator()(const std::pair<Tuple, Tuple>& p) const {
          return p.first.Concat(p.second);
        }
      };
      auto& flatten = graph_->Add<
          algebra::Map<std::pair<Tuple, Tuple>, Tuple, PairConcat>>(
          PairConcat{}, "flatten-groups");
      grouped.AddSubscriber(flatten.input());
      ++stats->operators_created;

      entry.nodes.push_back(&grouped);
      entry.nodes.push_back(&flatten);
      entry.disconnects.push_back([child, op = &grouped]() {
        return child->UnsubscribeFrom(op->input());
      });
      entry.disconnects.push_back([g = &grouped, f = &flatten]() {
        return g->UnsubscribeFrom(f->input());
      });
      entry.output = &flatten;
      break;
    }

    case LogicalOp::Kind::kDistinct: {
      PIPES_ASSIGN_OR_RETURN(
          Source<Tuple>* child,
          BuildNode(plan->children[0], registry, stats, used_postorder,
                    used_set));
      auto& distinct = graph_->Add<algebra::Distinct<Tuple>>("distinct");
      child->AddSubscriber(distinct.input());
      ++stats->operators_created;
      entry.nodes.push_back(&distinct);
      entry.disconnects.push_back([child, op = &distinct]() {
        return child->UnsubscribeFrom(op->input());
      });
      entry.output = &distinct;
      break;
    }

    case LogicalOp::Kind::kUnion: {
      PIPES_ASSIGN_OR_RETURN(
          Source<Tuple>* left,
          BuildNode(plan->children[0], registry, stats, used_postorder,
                    used_set));
      PIPES_ASSIGN_OR_RETURN(
          Source<Tuple>* right,
          BuildNode(plan->children[1], registry, stats, used_postorder,
                    used_set));
      auto& unite = graph_->Add<algebra::Union<Tuple>>("union");
      left->AddSubscriber(unite.left());
      right->AddSubscriber(unite.right());
      ++stats->operators_created;
      entry.nodes.push_back(&unite);
      entry.disconnects.push_back([left, op = &unite]() {
        return left->UnsubscribeFrom(op->left());
      });
      entry.disconnects.push_back([right, op = &unite]() {
        return right->UnsubscribeFrom(op->right());
      });
      entry.output = &unite;
      break;
    }

    case LogicalOp::Kind::kIStream:
    case LogicalOp::Kind::kDStream: {
      PIPES_ASSIGN_OR_RETURN(
          Source<Tuple>* child,
          BuildNode(plan->children[0], registry, stats, used_postorder,
                    used_set));
      Source<Tuple>* out = nullptr;
      if (plan->kind == LogicalOp::Kind::kIStream) {
        auto& node = graph_->Add<algebra::IStream<Tuple>>("istream");
        child->AddSubscriber(node.input());
        entry.disconnects.push_back([child, op = &node]() {
          return child->UnsubscribeFrom(op->input());
        });
        entry.nodes.push_back(&node);
        out = &node;
      } else {
        auto& node = graph_->Add<algebra::DStream<Tuple>>("dstream");
        child->AddSubscriber(node.input());
        entry.disconnects.push_back([child, op = &node]() {
          return child->UnsubscribeFrom(op->input());
        });
        entry.nodes.push_back(&node);
        out = &node;
      }
      ++stats->operators_created;
      entry.output = out;
      break;
    }
  }

  PIPES_CHECK(entry.output != nullptr);
  // Stateful tuple operators declare per-element state bytes in terms of
  // sizeof(Tuple), which misses the heap the schema's values occupy. Stamp
  // the schema-based estimate as a dataflow gauge so the abstract
  // interpreter (src/analysis/dataflow.h) bounds real retention.
  const std::size_t tuple_bytes =
      sizeof(Tuple) +
      plan->schema.fields().size() * (sizeof(relational::Value) + 16);
  for (Node* node : entry.nodes) {
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
  Source<Tuple>* output = entry.output;
  (*registry)[signature] = std::move(entry);
  remember_use();
  return output;
}

}  // namespace pipes::optimizer
