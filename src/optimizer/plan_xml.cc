#include "src/optimizer/plan_xml.h"

#include <cctype>
#include <charconv>
#include <map>
#include <sstream>
#include <system_error>
#include <vector>

#include "src/cql/analyzer.h"
#include "src/cql/parser.h"

namespace pipes::optimizer {

namespace {

using relational::ExprPtr;
using relational::Schema;
using relational::ValueType;

// --- Writing -------------------------------------------------------------------

std::string Escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '&':
        out += "&amp;";
        break;
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      case '"':
        out += "&quot;";
        break;
      case '\'':
        out += "&apos;";
        break;
      default:
        out += c;
    }
  }
  return out;
}

const char* KindName(LogicalOp::Kind kind) {
  switch (kind) {
    case LogicalOp::Kind::kStreamScan:
      return "scan";
    case LogicalOp::Kind::kFilter:
      return "filter";
    case LogicalOp::Kind::kProject:
      return "project";
    case LogicalOp::Kind::kJoin:
      return "join";
    case LogicalOp::Kind::kGroupAggregate:
      return "group-aggregate";
    case LogicalOp::Kind::kDistinct:
      return "distinct";
    case LogicalOp::Kind::kUnion:
      return "union";
    case LogicalOp::Kind::kIStream:
      return "istream";
    case LogicalOp::Kind::kDStream:
      return "dstream";
  }
  return "?";
}

const char* WindowName(WindowKind kind) {
  switch (kind) {
    case WindowKind::kNow:
      return "NOW";
    case WindowKind::kRange:
      return "RANGE";
    case WindowKind::kRangeSlide:
      return "RANGE_SLIDE";
    case WindowKind::kRows:
      return "ROWS";
    case WindowKind::kUnbounded:
      return "UNBOUNDED";
  }
  return "?";
}

void WriteOp(const LogicalPlan& plan, int indent, std::ostringstream& out) {
  const std::string pad(static_cast<std::size_t>(indent) * 2, ' ');
  out << pad << "<op kind=\"" << KindName(plan->kind) << '"';
  if (plan->kind == LogicalOp::Kind::kStreamScan) {
    out << " stream=\"" << Escape(plan->stream_name) << '"'
        << " window=\"" << WindowName(plan->window.kind) << '"';
    if (plan->window.kind == WindowKind::kRange ||
        plan->window.kind == WindowKind::kRangeSlide) {
      out << " range=\"" << plan->window.range << '"';
    }
    if (plan->window.kind == WindowKind::kRangeSlide) {
      out << " slide=\"" << plan->window.slide << '"';
    }
    if (plan->window.kind == WindowKind::kRows) {
      out << " rows=\"" << plan->window.rows << '"';
    }
  }
  out << ">\n";
  const std::string inner(static_cast<std::size_t>(indent + 1) * 2, ' ');

  // Scans embed their schema so the document is self-contained.
  if (plan->kind == LogicalOp::Kind::kStreamScan) {
    for (const auto& field : plan->schema.fields()) {
      out << inner << "<out name=\"" << Escape(field.name) << "\" type=\""
          << ValueTypeName(field.type) << "\"/>\n";
    }
  }
  if (plan->predicate != nullptr) {
    out << inner << "<pred text=\"" << Escape(plan->predicate->ToString())
        << "\"/>\n";
  }
  if (plan->kind == LogicalOp::Kind::kProject) {
    for (std::size_t i = 0; i < plan->exprs.size(); ++i) {
      out << inner << "<expr text=\""
          << Escape(plan->exprs[i]->ToString()) << "\" name=\""
          << Escape(plan->schema.field(i).name) << "\"/>\n";
    }
  }
  for (const auto& [l, r] : plan->equi_keys) {
    out << inner << "<key left=\"" << l << "\" right=\"" << r << "\"/>\n";
  }
  for (std::size_t field : plan->group_fields) {
    out << inner << "<group field=\"" << field << "\"/>\n";
  }
  for (const AggSpec& agg : plan->aggs) {
    out << inner << "<agg kind=\"" << AggKindName(agg.kind) << "\" name=\""
        << Escape(agg.output_name) << '"';
    if (agg.arg != nullptr) {
      out << " arg=\"" << Escape(agg.arg->ToString()) << '"';
    }
    out << "/>\n";
  }
  for (const LogicalPlan& child : plan->children) {
    WriteOp(child, indent + 1, out);
  }
  out << pad << "</op>\n";
}

// --- Minimal XML reader ----------------------------------------------------------

struct XmlNode {
  std::string tag;
  std::map<std::string, std::string> attrs;
  std::vector<XmlNode> children;
};

std::string Unescape(const std::string& text) {
  std::string out;
  for (std::size_t i = 0; i < text.size();) {
    if (text[i] != '&') {
      out += text[i++];
      continue;
    }
    const auto end = text.find(';', i);
    const std::string entity = text.substr(i, end - i + 1);
    if (entity == "&amp;") {
      out += '&';
    } else if (entity == "&lt;") {
      out += '<';
    } else if (entity == "&gt;") {
      out += '>';
    } else if (entity == "&quot;") {
      out += '"';
    } else if (entity == "&apos;") {
      out += '\'';
    } else {
      out += entity;  // unknown entity: keep verbatim
    }
    i = end == std::string::npos ? text.size() : end + 1;
  }
  return out;
}

/// Tag/attribute-only XML reader (no text nodes, comments, or CDATA —
/// everything `ToXml` emits).
class XmlReader {
 public:
  explicit XmlReader(const std::string& input) : input_(input) {}

  Result<XmlNode> ParseDocument() {
    SkipSpace();
    PIPES_ASSIGN_OR_RETURN(XmlNode root, ParseElement());
    SkipSpace();
    if (pos_ != input_.size()) {
      return Status::ParseError("trailing content after root element");
    }
    return root;
  }

 private:
  Status Error(const std::string& message) const {
    return Status::ParseError(message + " at offset " +
                              std::to_string(pos_));
  }

  void SkipSpace() {
    while (pos_ < input_.size() &&
           std::isspace(static_cast<unsigned char>(input_[pos_]))) {
      ++pos_;
    }
  }

  Result<XmlNode> ParseElement() {
    if (pos_ >= input_.size() || input_[pos_] != '<') {
      return Error("expected '<'");
    }
    ++pos_;
    XmlNode node;
    while (pos_ < input_.size() &&
           (std::isalnum(static_cast<unsigned char>(input_[pos_])) ||
            input_[pos_] == '-' || input_[pos_] == '_')) {
      node.tag += input_[pos_++];
    }
    if (node.tag.empty()) return Error("expected tag name");
    for (;;) {
      SkipSpace();
      if (pos_ >= input_.size()) return Error("unterminated element");
      if (input_[pos_] == '/') {
        if (pos_ + 1 >= input_.size() || input_[pos_ + 1] != '>') {
          return Error("expected '/>'");
        }
        pos_ += 2;
        return node;  // self-closing
      }
      if (input_[pos_] == '>') {
        ++pos_;
        break;
      }
      // Attribute.
      std::string name;
      while (pos_ < input_.size() && input_[pos_] != '=' &&
             !std::isspace(static_cast<unsigned char>(input_[pos_]))) {
        name += input_[pos_++];
      }
      SkipSpace();
      if (pos_ >= input_.size() || input_[pos_] != '=') {
        return Error("expected '=' in attribute");
      }
      ++pos_;
      SkipSpace();
      if (pos_ >= input_.size() || input_[pos_] != '"') {
        return Error("expected '\"'");
      }
      ++pos_;
      std::string value;
      while (pos_ < input_.size() && input_[pos_] != '"') {
        value += input_[pos_++];
      }
      if (pos_ >= input_.size()) return Error("unterminated attribute");
      ++pos_;
      node.attrs[name] = Unescape(value);
    }
    // Children until the closing tag.
    for (;;) {
      SkipSpace();
      if (pos_ + 1 < input_.size() && input_[pos_] == '<' &&
          input_[pos_ + 1] == '/') {
        pos_ += 2;
        std::string closing;
        while (pos_ < input_.size() && input_[pos_] != '>') {
          closing += input_[pos_++];
        }
        if (pos_ >= input_.size()) return Error("unterminated closing tag");
        ++pos_;
        if (closing != node.tag) {
          return Error("mismatched closing tag '" + closing + "'");
        }
        return node;
      }
      PIPES_ASSIGN_OR_RETURN(XmlNode child, ParseElement());
      node.children.push_back(std::move(child));
    }
  }

  const std::string& input_;
  std::size_t pos_ = 0;
};

// --- Rebuilding plans ------------------------------------------------------------

Result<std::string> RequireAttr(const XmlNode& node, const std::string& name) {
  auto it = node.attrs.find(name);
  if (it == node.attrs.end()) {
    return Status::ParseError("<" + node.tag + "> is missing attribute '" +
                              name + "'");
  }
  return it->second;
}

/// Attribute `name` of `node` as an `Int`. Non-numeric text, trailing
/// characters, values out of range for `Int` and (for unsigned `Int`) a
/// minus sign are parse errors naming the attribute.
template <typename Int>
Result<Int> RequireIntAttr(const XmlNode& node, const std::string& name) {
  PIPES_ASSIGN_OR_RETURN(std::string text, RequireAttr(node, name));
  Int value{};
  const char* last = text.data() + text.size();
  const std::from_chars_result parsed =
      std::from_chars(text.data(), last, value);
  if (parsed.ec != std::errc() || parsed.ptr != last) {
    return Status::ParseError("<" + node.tag + "> attribute '" + name +
                              "' is not a valid integer: '" + text + "'");
  }
  return value;
}

Result<ValueType> ParseValueType(const std::string& name) {
  for (int t = 0; t <= static_cast<int>(ValueType::kString); ++t) {
    if (name == ValueTypeName(static_cast<ValueType>(t))) {
      return static_cast<ValueType>(t);
    }
  }
  return Status::ParseError("unknown value type '" + name + "'");
}

Result<AggKind> ParseAggKind(const std::string& name) {
  for (int k = 0; k <= static_cast<int>(AggKind::kStddev); ++k) {
    if (name == AggKindName(static_cast<AggKind>(k))) {
      return static_cast<AggKind>(k);
    }
  }
  return Status::ParseError("unknown aggregate kind '" + name + "'");
}

Result<ExprPtr> ReviveExpr(const std::string& text, const Schema& schema) {
  PIPES_ASSIGN_OR_RETURN(cql::ExprAstPtr ast,
                         cql::ParseExpressionAst(text));
  return cql::ResolveExpression(ast, schema);
}

Result<LogicalPlan> BuildFromNode(const XmlNode& node) {
  if (node.tag != "op") {
    return Status::ParseError("expected <op>, found <" + node.tag + ">");
  }
  PIPES_ASSIGN_OR_RETURN(std::string kind, RequireAttr(node, "kind"));

  // Children plans first.
  std::vector<LogicalPlan> children;
  for (const XmlNode& child : node.children) {
    if (child.tag == "op") {
      PIPES_ASSIGN_OR_RETURN(LogicalPlan plan, BuildFromNode(child));
      children.push_back(std::move(plan));
    }
  }
  auto child_schema = [&]() -> const Schema& {
    static const Schema kEmpty;
    return children.empty() ? kEmpty : children[0]->schema;
  };

  if (kind == "scan") {
    PIPES_ASSIGN_OR_RETURN(std::string stream, RequireAttr(node, "stream"));
    PIPES_ASSIGN_OR_RETURN(std::string window_name,
                           RequireAttr(node, "window"));
    WindowSpec window;
    if (window_name == "NOW") {
      window.kind = WindowKind::kNow;
    } else if (window_name == "RANGE") {
      window.kind = WindowKind::kRange;
      PIPES_ASSIGN_OR_RETURN(window.range,
                             RequireIntAttr<Timestamp>(node, "range"));
    } else if (window_name == "RANGE_SLIDE") {
      window.kind = WindowKind::kRangeSlide;
      PIPES_ASSIGN_OR_RETURN(window.range,
                             RequireIntAttr<Timestamp>(node, "range"));
      PIPES_ASSIGN_OR_RETURN(window.slide,
                             RequireIntAttr<Timestamp>(node, "slide"));
    } else if (window_name == "ROWS") {
      window.kind = WindowKind::kRows;
      PIPES_ASSIGN_OR_RETURN(window.rows,
                             RequireIntAttr<std::size_t>(node, "rows"));
    } else if (window_name == "UNBOUNDED") {
      window.kind = WindowKind::kUnbounded;
    } else {
      return Status::ParseError("unknown window '" + window_name + "'");
    }
    Schema schema;
    for (const XmlNode& child : node.children) {
      if (child.tag != "out") continue;
      PIPES_ASSIGN_OR_RETURN(std::string name, RequireAttr(child, "name"));
      PIPES_ASSIGN_OR_RETURN(std::string type, RequireAttr(child, "type"));
      PIPES_ASSIGN_OR_RETURN(ValueType value_type, ParseValueType(type));
      schema.Append({name, value_type});
    }
    return ScanOp(std::move(stream), std::move(schema), window);
  }

  if (kind == "filter") {
    if (children.size() != 1) {
      return Status::ParseError("filter needs one child");
    }
    for (const XmlNode& child : node.children) {
      if (child.tag != "pred") continue;
      PIPES_ASSIGN_OR_RETURN(std::string text, RequireAttr(child, "text"));
      PIPES_ASSIGN_OR_RETURN(ExprPtr pred,
                             ReviveExpr(text, child_schema()));
      return FilterOp(children[0], std::move(pred));
    }
    return Status::ParseError("filter is missing <pred>");
  }

  if (kind == "project") {
    if (children.size() != 1) {
      return Status::ParseError("project needs one child");
    }
    std::vector<ExprPtr> exprs;
    std::vector<std::string> names;
    for (const XmlNode& child : node.children) {
      if (child.tag != "expr") continue;
      PIPES_ASSIGN_OR_RETURN(std::string text, RequireAttr(child, "text"));
      PIPES_ASSIGN_OR_RETURN(std::string name, RequireAttr(child, "name"));
      PIPES_ASSIGN_OR_RETURN(ExprPtr expr, ReviveExpr(text, child_schema()));
      exprs.push_back(std::move(expr));
      names.push_back(std::move(name));
    }
    return ProjectOp(children[0], std::move(exprs), std::move(names));
  }

  if (kind == "join") {
    if (children.size() != 2) {
      return Status::ParseError("join needs two children");
    }
    std::vector<std::pair<std::size_t, std::size_t>> keys;
    ExprPtr residual = nullptr;
    const Schema concat = children[0]->schema.Concat(children[1]->schema);
    for (const XmlNode& child : node.children) {
      if (child.tag == "key") {
        PIPES_ASSIGN_OR_RETURN(std::size_t l,
                               RequireIntAttr<std::size_t>(child, "left"));
        PIPES_ASSIGN_OR_RETURN(std::size_t r,
                               RequireIntAttr<std::size_t>(child, "right"));
        keys.emplace_back(l, r);
      } else if (child.tag == "pred") {
        PIPES_ASSIGN_OR_RETURN(std::string text, RequireAttr(child, "text"));
        PIPES_ASSIGN_OR_RETURN(residual, ReviveExpr(text, concat));
      }
    }
    return JoinOp(children[0], children[1], std::move(keys),
                  std::move(residual));
  }

  if (kind == "group-aggregate") {
    if (children.size() != 1) {
      return Status::ParseError("group-aggregate needs one child");
    }
    std::vector<std::size_t> group_fields;
    std::vector<AggSpec> aggs;
    for (const XmlNode& child : node.children) {
      if (child.tag == "group") {
        PIPES_ASSIGN_OR_RETURN(std::size_t field,
                               RequireIntAttr<std::size_t>(child, "field"));
        group_fields.push_back(field);
      } else if (child.tag == "agg") {
        AggSpec spec;
        PIPES_ASSIGN_OR_RETURN(std::string agg_kind,
                               RequireAttr(child, "kind"));
        PIPES_ASSIGN_OR_RETURN(spec.kind, ParseAggKind(agg_kind));
        PIPES_ASSIGN_OR_RETURN(spec.output_name,
                               RequireAttr(child, "name"));
        if (auto it = child.attrs.find("arg"); it != child.attrs.end()) {
          PIPES_ASSIGN_OR_RETURN(spec.arg,
                                 ReviveExpr(it->second, child_schema()));
        }
        aggs.push_back(std::move(spec));
      }
    }
    return GroupAggregateOp(children[0], std::move(group_fields),
                            std::move(aggs));
  }

  if (kind == "distinct") {
    if (children.size() != 1) {
      return Status::ParseError("distinct needs one child");
    }
    return DistinctOp(children[0]);
  }
  if (kind == "union") {
    if (children.size() != 2) {
      return Status::ParseError("union needs two children");
    }
    return UnionOp(children[0], children[1]);
  }
  if (kind == "istream") {
    if (children.size() != 1) {
      return Status::ParseError("istream needs one child");
    }
    return IStreamOp(children[0]);
  }
  if (kind == "dstream") {
    if (children.size() != 1) {
      return Status::ParseError("dstream needs one child");
    }
    return DStreamOp(children[0]);
  }
  return Status::ParseError("unknown op kind '" + kind + "'");
}

}  // namespace

std::string ToXml(const LogicalPlan& plan) {
  std::ostringstream out;
  out << "<plan>\n";
  WriteOp(plan, 1, out);
  out << "</plan>\n";
  return out.str();
}

Result<LogicalPlan> FromXml(const std::string& xml) {
  XmlReader reader(xml);
  PIPES_ASSIGN_OR_RETURN(XmlNode root, reader.ParseDocument());
  if (root.tag != "plan" || root.children.size() != 1) {
    return Status::ParseError("expected <plan> with exactly one <op>");
  }
  return BuildFromNode(root.children[0]);
}

}  // namespace pipes::optimizer
