#include "src/optimizer/logical_plan.h"

#include <sstream>

#include "src/common/macros.h"

namespace pipes::optimizer {

using relational::BinaryExpr;
using relational::ExprPtr;
using relational::FieldRef;
using relational::Literal;
using relational::Schema;
using relational::UnaryExpr;
using relational::ValueType;

std::string WindowSpec::ToString() const {
  std::ostringstream out;
  switch (kind) {
    case WindowKind::kNow:
      out << "NOW";
      break;
    case WindowKind::kRange:
      out << "RANGE " << range;
      break;
    case WindowKind::kRangeSlide:
      out << "RANGE " << range << " SLIDE " << slide;
      break;
    case WindowKind::kRows:
      out << "ROWS " << rows;
      break;
    case WindowKind::kUnbounded:
      out << "UNBOUNDED";
      break;
    case WindowKind::kPartitionedRows:
      out << "PARTITION BY";
      for (std::size_t i = 0; i < partition.size(); ++i) {
        out << (i > 0 ? ", " : " ") << partition[i];
      }
      out << " ROWS " << rows;
      break;
  }
  return out.str();
}

const char* AggKindName(AggKind kind) {
  switch (kind) {
    case AggKind::kCount:
      return "COUNT";
    case AggKind::kSum:
      return "SUM";
    case AggKind::kAvg:
      return "AVG";
    case AggKind::kMin:
      return "MIN";
    case AggKind::kMax:
      return "MAX";
    case AggKind::kVariance:
      return "VARIANCE";
    case AggKind::kStddev:
      return "STDDEV";
  }
  return "?";
}

std::string LogicalOp::Head() const {
  std::ostringstream out;
  switch (kind) {
    case Kind::kStreamScan:
      out << "Scan[" << stream_name << "; " << window.ToString() << "]";
      break;
    case Kind::kFilter:
      out << "Filter[" << predicate->ToString() << "]";
      break;
    case Kind::kProject: {
      out << "Project[";
      for (std::size_t i = 0; i < exprs.size(); ++i) {
        if (i > 0) out << ", ";
        out << exprs[i]->ToString() << " AS " << schema.field(i).name;
      }
      out << "]";
      break;
    }
    case Kind::kJoin: {
      out << "Join[";
      for (std::size_t i = 0; i < equi_keys.size(); ++i) {
        if (i > 0) out << ", ";
        out << equi_keys[i].first << "=" << equi_keys[i].second;
      }
      if (predicate != nullptr) out << "; " << predicate->ToString();
      out << "]";
      break;
    }
    case Kind::kGroupAggregate: {
      out << "GroupAgg[";
      for (std::size_t i = 0; i < group_fields.size(); ++i) {
        if (i > 0) out << ", ";
        out << group_fields[i];
      }
      out << "; ";
      for (std::size_t i = 0; i < aggs.size(); ++i) {
        if (i > 0) out << ", ";
        out << AggKindName(aggs[i].kind) << "("
            << (aggs[i].arg ? aggs[i].arg->ToString() : "*") << ")";
      }
      out << "]";
      break;
    }
    case Kind::kDistinct:
      out << "Distinct";
      break;
    case Kind::kUnion:
      out << "Union";
      break;
    case Kind::kIStream:
      out << "IStream";
      break;
    case Kind::kDStream:
      out << "DStream";
      break;
    case Kind::kDifference:
      out << "Difference";
      break;
    case Kind::kIntersect:
      out << "Intersect";
      break;
  }
  return out.str();
}

std::string LogicalOp::Signature() const {
  std::string out = Head();
  if (!children.empty()) {
    out += "(";
    for (std::size_t i = 0; i < children.size(); ++i) {
      if (i > 0) out += ", ";
      out += children[i]->Signature();
    }
    out += ")";
  }
  return out;
}

std::string LogicalOp::ToString(int indent) const {
  std::string pad(static_cast<std::size_t>(indent) * 2, ' ');
  std::string out = pad + Head() + "  " + schema.ToString() + "\n";
  for (const LogicalPlan& child : children) {
    out += child->ToString(indent + 1);
  }
  return out;
}

ValueType InferType(const ExprPtr& expr, const Schema& schema) {
  if (const auto* f = dynamic_cast<const FieldRef*>(expr.get())) {
    return f->index() < schema.arity() ? schema.field(f->index()).type
                                       : ValueType::kNull;
  }
  if (const auto* l = dynamic_cast<const Literal*>(expr.get())) {
    return l->value().type();
  }
  if (const auto* u = dynamic_cast<const UnaryExpr*>(expr.get())) {
    return u->op() == relational::UnaryOp::kNot
               ? ValueType::kBool
               : InferType(u->operand(), schema);
  }
  if (const auto* b = dynamic_cast<const BinaryExpr*>(expr.get())) {
    using relational::BinaryOp;
    switch (b->op()) {
      case BinaryOp::kAdd:
      case BinaryOp::kSub:
      case BinaryOp::kMul:
      case BinaryOp::kMod: {
        const ValueType lt = InferType(b->left(), schema);
        const ValueType rt = InferType(b->right(), schema);
        return (lt == ValueType::kInt && rt == ValueType::kInt)
                   ? ValueType::kInt
                   : ValueType::kDouble;
      }
      case BinaryOp::kDiv: {
        const ValueType lt = InferType(b->left(), schema);
        const ValueType rt = InferType(b->right(), schema);
        return (lt == ValueType::kInt && rt == ValueType::kInt)
                   ? ValueType::kInt
                   : ValueType::kDouble;
      }
      default:
        return ValueType::kBool;
    }
  }
  return ValueType::kNull;
}

LogicalPlan ScanOp(std::string stream_name, Schema schema,
                   WindowSpec window) {
  auto op = std::make_shared<LogicalOp>();
  op->kind = LogicalOp::Kind::kStreamScan;
  op->stream_name = std::move(stream_name);
  op->schema = std::move(schema);
  op->window = window;
  return op;
}

LogicalPlan FilterOp(LogicalPlan child, ExprPtr predicate) {
  PIPES_CHECK(child != nullptr && predicate != nullptr);
  auto op = std::make_shared<LogicalOp>();
  op->kind = LogicalOp::Kind::kFilter;
  op->schema = child->schema;
  op->children.push_back(std::move(child));
  op->predicate = std::move(predicate);
  return op;
}

LogicalPlan ProjectOp(LogicalPlan child, std::vector<ExprPtr> exprs,
                      std::vector<std::string> names) {
  PIPES_CHECK(child != nullptr && exprs.size() == names.size());
  auto op = std::make_shared<LogicalOp>();
  op->kind = LogicalOp::Kind::kProject;
  Schema schema;
  for (std::size_t i = 0; i < exprs.size(); ++i) {
    schema.Append({names[i], InferType(exprs[i], child->schema)});
  }
  op->schema = std::move(schema);
  op->children.push_back(std::move(child));
  op->exprs = std::move(exprs);
  return op;
}

LogicalPlan JoinOp(LogicalPlan left, LogicalPlan right,
                   std::vector<std::pair<std::size_t, std::size_t>> equi_keys,
                   ExprPtr residual) {
  PIPES_CHECK(left != nullptr && right != nullptr);
  auto op = std::make_shared<LogicalOp>();
  op->kind = LogicalOp::Kind::kJoin;
  op->schema = left->schema.Concat(right->schema);
  op->children.push_back(std::move(left));
  op->children.push_back(std::move(right));
  op->equi_keys = std::move(equi_keys);
  op->predicate = std::move(residual);
  return op;
}

LogicalPlan GroupAggregateOp(LogicalPlan child,
                             std::vector<std::size_t> group_fields,
                             std::vector<AggSpec> aggs) {
  PIPES_CHECK(child != nullptr);
  auto op = std::make_shared<LogicalOp>();
  op->kind = LogicalOp::Kind::kGroupAggregate;
  Schema schema;
  for (std::size_t field : group_fields) {
    schema.Append(child->schema.field(field));
  }
  for (const AggSpec& agg : aggs) {
    relational::ValueType type = relational::ValueType::kDouble;
    if (agg.kind == AggKind::kCount) type = relational::ValueType::kInt;
    schema.Append({agg.output_name, type});
  }
  op->schema = std::move(schema);
  op->children.push_back(std::move(child));
  op->group_fields = std::move(group_fields);
  op->aggs = std::move(aggs);
  return op;
}

LogicalPlan DistinctOp(LogicalPlan child) {
  PIPES_CHECK(child != nullptr);
  auto op = std::make_shared<LogicalOp>();
  op->kind = LogicalOp::Kind::kDistinct;
  op->schema = child->schema;
  op->children.push_back(std::move(child));
  return op;
}

namespace {

LogicalPlan UnaryStreamOp(LogicalOp::Kind kind, LogicalPlan child) {
  PIPES_CHECK(child != nullptr);
  auto op = std::make_shared<LogicalOp>();
  op->kind = kind;
  op->schema = child->schema;
  op->children.push_back(std::move(child));
  return op;
}

}  // namespace

LogicalPlan IStreamOp(LogicalPlan child) {
  return UnaryStreamOp(LogicalOp::Kind::kIStream, std::move(child));
}

LogicalPlan DStreamOp(LogicalPlan child) {
  return UnaryStreamOp(LogicalOp::Kind::kDStream, std::move(child));
}

namespace {

LogicalPlan SetOp(LogicalOp::Kind kind, LogicalPlan left, LogicalPlan right) {
  PIPES_CHECK(left != nullptr && right != nullptr);
  PIPES_CHECK_MSG(left->schema.arity() == right->schema.arity(),
                  "set operators require equal arity");
  auto op = std::make_shared<LogicalOp>();
  op->kind = kind;
  op->schema = left->schema;
  op->children.push_back(std::move(left));
  op->children.push_back(std::move(right));
  return op;
}

}  // namespace

LogicalPlan UnionOp(LogicalPlan left, LogicalPlan right) {
  return SetOp(LogicalOp::Kind::kUnion, std::move(left), std::move(right));
}

LogicalPlan DifferenceOp(LogicalPlan left, LogicalPlan right) {
  return SetOp(LogicalOp::Kind::kDifference, std::move(left),
               std::move(right));
}

LogicalPlan IntersectOp(LogicalPlan left, LogicalPlan right) {
  return SetOp(LogicalOp::Kind::kIntersect, std::move(left),
               std::move(right));
}

}  // namespace pipes::optimizer
