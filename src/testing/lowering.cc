#include "src/testing/lowering.h"

#include <array>
#include <cstdint>
#include <cstring>
#include <map>
#include <utility>
#include <vector>

#include "src/algebra/aggregate.h"
#include "src/algebra/difference.h"
#include "src/algebra/distinct.h"
#include "src/algebra/filter.h"
#include "src/algebra/intersect.h"
#include "src/algebra/join.h"
#include "src/algebra/map.h"
#include "src/algebra/parallel.h"
#include "src/algebra/relation_to_stream.h"
#include "src/algebra/union.h"
#include "src/algebra/window.h"
#include "src/optimizer/physical.h"

namespace pipes::testing {

namespace {

using optimizer::ExprPredicate;
using optimizer::FieldsKey;
using optimizer::LogicalOp;
using optimizer::LogicalPlan;
using optimizer::PairConcat;
using optimizer::TupleIdentity;
using optimizer::WindowKind;
using relational::Tuple;
using relational::Value;
using relational::ValueType;

/// Up to four non-string values in a trivially copyable row: the form a
/// spillable SweepArea can page to disk (the spill tier writes payloads
/// raw).
struct PackedRow {
  static constexpr std::size_t kMaxFields = 4;
  std::size_t arity = 0;
  std::array<ValueType, kMaxFields> types{};
  std::array<std::uint64_t, kMaxFields> bits{};
};

bool Packable(const relational::Schema& schema) {
  if (schema.arity() > PackedRow::kMaxFields) return false;
  for (const auto& field : schema.fields()) {
    if (field.type == ValueType::kString) return false;
  }
  return true;
}

struct Pack {
  PackedRow operator()(const Tuple& t) const {
    PIPES_CHECK(t.arity() <= PackedRow::kMaxFields);
    PackedRow row;
    row.arity = t.arity();
    for (std::size_t i = 0; i < t.arity(); ++i) {
      const Value& v = t.field(i);
      row.types[i] = v.type();
      if (v.type() == ValueType::kInt) {
        row.bits[i] = static_cast<std::uint64_t>(v.AsInt());
      } else if (v.type() == ValueType::kDouble) {
        const double d = v.AsDouble();
        std::memcpy(&row.bits[i], &d, sizeof d);
      } else if (v.type() == ValueType::kBool) {
        row.bits[i] = v.AsBool() ? 1 : 0;
      } else {
        PIPES_CHECK_MSG(v.is_null(), "strings do not pack");
      }
    }
    return row;
  }
};

Tuple Unpack(const PackedRow& row) {
  std::vector<Value> values(row.arity);
  for (std::size_t i = 0; i < row.arity; ++i) {
    double d = 0;
    std::memcpy(&d, &row.bits[i], sizeof d);
    if (row.types[i] == ValueType::kInt) {
      values[i] = Value(static_cast<std::int64_t>(row.bits[i]));
    } else if (row.types[i] == ValueType::kDouble) {
      values[i] = Value(d);
    } else if (row.types[i] == ValueType::kBool) {
      values[i] = Value(row.bits[i] != 0);
    }
  }
  return Tuple(std::move(values));
}

struct PackedKey {
  std::vector<std::size_t> fields;
  Tuple operator()(const PackedRow& row) const {
    return Unpack(row).Project(fields);
  }
};

struct PackedConcat {
  Tuple operator()(const PackedRow& l, const PackedRow& r) const {
    return Unpack(l).Concat(Unpack(r));
  }
};

class Lowering {
 public:
  Lowering(QueryGraph& graph, const cql::Catalog& catalog,
           const KeyedLowering& options)
      : graph_(graph), catalog_(catalog), options_(options) {}

  Result<Source<Tuple>*> Build(const LogicalPlan& plan) {
    if (auto it = built_.find(plan.get()); it != built_.end()) {
      return it->second;
    }
    std::vector<Source<Tuple>*> in;
    for (const LogicalPlan& child : plan->children) {
      PIPES_ASSIGN_OR_RETURN(Source<Tuple>* built, Build(child));
      in.push_back(built);
    }
    const std::size_t before = graph_.size();
    PIPES_ASSIGN_OR_RETURN(Source<Tuple>* out, BuildNode(*plan, in));
    const std::vector<Node*> nodes = graph_.nodes();
    optimizer::StampStateBytes(
        std::vector<Node*>(nodes.begin() + static_cast<std::ptrdiff_t>(before),
                           nodes.end()),
        plan->schema);
    built_[plan.get()] = out;
    return out;
  }

 private:
  template <typename Op, typename In, typename... Args>
  Op* Unary(Source<In>* in, Args&&... args) {
    auto& op = graph_.Add<Op>(std::forward<Args>(args)...);
    in->AddSubscriber(op.input());
    return &op;
  }

  template <typename Op>
  Op* Binary(const std::vector<Source<Tuple>*>& in, Op& op) {
    in[0]->AddSubscriber(op.left());
    in[1]->AddSubscriber(op.right());
    return &op;
  }

  /// `Op` over `in`, replicated across keyed replicas routed by `key`
  /// unless the options ask for one replica.
  template <typename Op, typename Key, typename... Args>
  Source<typename Op::OutputType>* Keyed(Source<Tuple>* in, Key key,
                                         const Args&... args) {
    if (options_.replicas <= 1) return Unary<Op>(in, args...);
    auto chain = algebra::MakeKeyedParallel<Op>(graph_, options_.replicas,
                                                std::move(key), args...);
    in->AddSubscriber(*chain.input);
    return chain.output;
  }

  Result<Source<Tuple>*> Scan(const LogicalOp& op) {
    PIPES_ASSIGN_OR_RETURN(const cql::Catalog::StreamInfo* info,
                           catalog_.Lookup(op.stream_name));
    if (info->source == nullptr) {
      return Status::FailedPrecondition("stream '" + op.stream_name +
                                        "' has no physical source");
    }
    Source<Tuple>* source = info->source;
    const optimizer::WindowSpec& w = op.window;
    switch (w.kind) {
      case WindowKind::kNow:
        return source;
      case WindowKind::kRange:
        return Unary<algebra::TimeWindow<Tuple>>(source, w.range, "window");
      case WindowKind::kRangeSlide:
        return Unary<algebra::SlideWindow<Tuple>>(source, w.range, w.slide,
                                                  "slide-window");
      case WindowKind::kRows:
        return Unary<algebra::CountWindow<Tuple>>(source, w.rows,
                                                  "rows-window");
      case WindowKind::kUnbounded:
        return Unary<algebra::UnboundedWindow<Tuple>>(source,
                                                      "unbounded-window");
      case WindowKind::kPartitionedRows:
        return Keyed<algebra::PartitionedWindow<Tuple, FieldsKey>>(
            source, FieldsKey{w.partition}, FieldsKey{w.partition}, w.rows,
            std::string("partitioned-window"));
    }
    return Status::Internal("unhandled window kind");
  }

  Source<Tuple>* EquiJoin(const LogicalOp& op,
                          const std::vector<Source<Tuple>*>& in) {
    FieldsKey left_key;
    FieldsKey right_key;
    for (const auto& [l, r] : op.equi_keys) {
      left_key.fields.push_back(l);
      right_key.fields.push_back(r);
    }
    if (options_.spillable_joins && options_.replicas <= 1 &&
        Packable(op.children[0]->schema) && Packable(op.children[1]->schema)) {
      auto& join = graph_.Add(algebra::MakeSpillableHashJoin<PackedRow,
                                                             PackedRow>(
          PackedKey{left_key.fields}, PackedKey{right_key.fields},
          PackedConcat{}, "spill-hash-join"));
      Unary<algebra::Map<Tuple, PackedRow, Pack>>(in[0], Pack{}, "pack-left")
          ->AddSubscriber(join.left());
      Unary<algebra::Map<Tuple, PackedRow, Pack>>(in[1], Pack{}, "pack-right")
          ->AddSubscriber(join.right());
      return &join;
    }
    if (options_.replicas <= 1) {
      return Binary(in, graph_.Add(algebra::MakeHashJoin<Tuple, Tuple>(
                            left_key, right_key,
                            optimizer::TupleConcatCombine{}, "hash-join")));
    }
    auto chain = algebra::MakeParallelHashJoin<Tuple, Tuple>(
        graph_, options_.replicas, left_key, right_key,
        optimizer::TupleConcatCombine{}, "parallel-hash-join");
    in[0]->AddSubscriber(*chain.left);
    in[1]->AddSubscriber(*chain.right);
    return chain.output;
  }

  Result<Source<Tuple>*> BuildNode(const LogicalOp& op,
                                   const std::vector<Source<Tuple>*>& in) {
    switch (op.kind) {
      case LogicalOp::Kind::kStreamScan:
        return Scan(op);
      case LogicalOp::Kind::kFilter:
        return Unary<algebra::Filter<Tuple, ExprPredicate>>(
            in[0], ExprPredicate{op.predicate}, "filter");
      case LogicalOp::Kind::kProject:
        return Unary<algebra::Map<Tuple, Tuple, optimizer::ExprProjector>>(
            in[0], optimizer::ExprProjector{op.exprs}, "project");
      case LogicalOp::Kind::kJoin: {
        if (op.equi_keys.empty()) {
          return Binary(in, graph_.Add(algebra::MakeNestedLoopsJoin<Tuple,
                                                                    Tuple>(
                                optimizer::ConcatPredicate{op.predicate},
                                optimizer::TupleConcatCombine{}, "nl-join")));
        }
        Source<Tuple>* out = EquiJoin(op, in);
        if (op.predicate == nullptr) return out;
        return Unary<algebra::Filter<Tuple, ExprPredicate>>(
            out, ExprPredicate{op.predicate}, "join-residual");
      }
      case LogicalOp::Kind::kGroupAggregate: {
        using Grouped =
            algebra::GroupedAggregate<Tuple, optimizer::TupleAggPolicy,
                                      FieldsKey, TupleIdentity>;
        auto* grouped = Keyed<Grouped>(
            in[0], FieldsKey{op.group_fields}, FieldsKey{op.group_fields},
            TupleIdentity{}, std::string("group-aggregate"),
            optimizer::TupleAggPolicy(op.aggs));
        return Unary<
            algebra::Map<std::pair<Tuple, Tuple>, Tuple, PairConcat>>(
            grouped, PairConcat{}, "flatten-groups");
      }
      case LogicalOp::Kind::kDistinct:
        return Keyed<algebra::Distinct<Tuple>>(in[0], TupleIdentity{},
                                               std::string("distinct"));
      case LogicalOp::Kind::kUnion:
        return Binary(in, graph_.Add<algebra::Union<Tuple>>("union"));
      case LogicalOp::Kind::kDifference:
        return Binary(in,
                      graph_.Add<algebra::Difference<Tuple>>("difference"));
      case LogicalOp::Kind::kIntersect:
        return Binary(in, graph_.Add<algebra::Intersect<Tuple>>("intersect"));
      case LogicalOp::Kind::kIStream:
        return Unary<algebra::IStream<Tuple>>(in[0], "istream");
      case LogicalOp::Kind::kDStream:
        return Unary<algebra::DStream<Tuple>>(in[0], "dstream");
    }
    return Status::Internal("unhandled logical operator kind");
  }

  QueryGraph& graph_;
  const cql::Catalog& catalog_;
  const KeyedLowering options_;
  std::map<const LogicalOp*, Source<Tuple>*> built_;
};

}  // namespace

Result<Source<Tuple>*> LowerKeyed(QueryGraph& graph,
                                  const cql::Catalog& catalog,
                                  const LogicalPlan& plan,
                                  const KeyedLowering& options) {
  return Lowering(graph, catalog, options).Build(plan);
}

}  // namespace pipes::testing
