#include "src/cql/parser.h"

#include <limits>
#include <utility>

#include "src/cql/lexer.h"

namespace pipes::cql {

namespace {

using optimizer::WindowKind;
using optimizer::WindowSpec;
using relational::BinaryOp;
using relational::UnaryOp;
using relational::Value;

bool IsAggName(const Token& token) {
  return token.Is("COUNT") || token.Is("SUM") || token.Is("AVG") ||
         token.Is("MIN") || token.Is("MAX") || token.Is("VARIANCE") ||
         token.Is("STDDEV");
}

/// Recursive-descent parser over the token vector.
class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<QueryAst> ParseQuery() {
    PIPES_ASSIGN_OR_RETURN(QueryAst query, ParseQueryBody());
    if (Peek().kind != TokenKind::kEnd) {
      return Error("unexpected trailing input");
    }
    return query;
  }

  Result<QueryAst> ParseQueryBody() {
    QueryAst query;
    // Each (sub)query collects its own JOIN ... ON conjuncts.
    std::vector<ExprAstPtr> saved_conditions;
    saved_conditions.swap(join_conditions_);
    PIPES_RETURN_IF_ERROR(ExpectKeyword("SELECT"));
    // Relation-to-stream mode (CQL's ISTREAM/DSTREAM/RSTREAM), accepted as
    // a SELECT modifier.
    if (Peek().Is("ISTREAM")) {
      Advance();
      query.stream_mode = StreamMode::kIStream;
    } else if (Peek().Is("DSTREAM")) {
      Advance();
      query.stream_mode = StreamMode::kDStream;
    } else if (Peek().Is("RSTREAM")) {
      Advance();
      query.stream_mode = StreamMode::kRStream;
    }
    if (Peek().Is("DISTINCT")) {
      Advance();
      query.distinct = true;
    }
    PIPES_RETURN_IF_ERROR(ParseSelectList(&query));
    PIPES_RETURN_IF_ERROR(ExpectKeyword("FROM"));
    PIPES_RETURN_IF_ERROR(ParseFromList(&query));
    if (Peek().Is("WHERE")) {
      Advance();
      PIPES_ASSIGN_OR_RETURN(query.where, ParseExpr());
    }
    // JOIN ... ON conditions desugar into WHERE conjuncts; the optimizer
    // extracts equi keys and pushes the rest down again.
    for (const ExprAstPtr& condition : join_conditions_) {
      query.where = query.where == nullptr
                        ? condition
                        : MakeBinaryAst(BinaryOp::kAnd, query.where,
                                        condition);
    }
    if (Peek().Is("GROUP")) {
      Advance();
      PIPES_RETURN_IF_ERROR(ExpectKeyword("BY"));
      for (;;) {
        PIPES_ASSIGN_OR_RETURN(std::string name, ParseQualifiedName());
        query.group_by.push_back(std::move(name));
        if (!Peek().IsSymbol(",")) break;
        Advance();
      }
      if (Peek().Is("HAVING")) {
        Advance();
        PIPES_ASSIGN_OR_RETURN(query.having, ParseExpr());
      }
    }
    join_conditions_ = std::move(saved_conditions);
    return query;
  }

  Result<ExprAstPtr> ParseStandaloneExpression() {
    PIPES_ASSIGN_OR_RETURN(ExprAstPtr expr, ParseExpr());
    if (Peek().kind != TokenKind::kEnd) {
      return Error("unexpected trailing input after expression");
    }
    return expr;
  }

 private:
  const Token& Peek(std::size_t ahead = 0) const {
    const std::size_t i = std::min(pos_ + ahead, tokens_.size() - 1);
    return tokens_[i];
  }
  const Token& Advance() { return tokens_[pos_++]; }

  Status Error(const std::string& message) const {
    return Status::ParseError(message + " at offset " +
                              std::to_string(Peek().position) + " (near '" +
                              Peek().text + "')");
  }

  Status ExpectKeyword(const char* keyword) {
    if (!Peek().Is(keyword)) {
      return Error(std::string("expected ") + keyword);
    }
    Advance();
    return Status::OK();
  }

  Status ExpectSymbol(const char* symbol) {
    if (!Peek().IsSymbol(symbol)) {
      return Error(std::string("expected '") + symbol + "'");
    }
    Advance();
    return Status::OK();
  }

  Status ParseSelectList(QueryAst* query) {
    if (Peek().IsSymbol("*")) {
      Advance();
      SelectItem item;
      item.star = true;
      query->select.push_back(std::move(item));
      return Status::OK();
    }
    for (;;) {
      SelectItem item;
      PIPES_ASSIGN_OR_RETURN(item.expr, ParseExpr());
      if (Peek().Is("AS")) {
        Advance();
        if (Peek().kind != TokenKind::kIdent) {
          return Error("expected alias after AS");
        }
        item.alias = Advance().text;
      }
      query->select.push_back(std::move(item));
      if (!Peek().IsSymbol(",")) break;
      Advance();
    }
    return Status::OK();
  }

  Status ParseFromList(QueryAst* query) {
    PIPES_RETURN_IF_ERROR(ParseStreamRef(query));
    for (;;) {
      if (Peek().IsSymbol(",")) {
        Advance();
        PIPES_RETURN_IF_ERROR(ParseStreamRef(query));
        continue;
      }
      if (Peek().Is("JOIN")) {
        Advance();
        PIPES_RETURN_IF_ERROR(ParseStreamRef(query));
        PIPES_RETURN_IF_ERROR(ExpectKeyword("ON"));
        PIPES_ASSIGN_OR_RETURN(ExprAstPtr condition, ParseExpr());
        join_conditions_.push_back(std::move(condition));
        continue;
      }
      break;
    }
    return Status::OK();
  }

  Status ParseStreamRef(QueryAst* query) {
    StreamRef ref;
    if (Peek().IsSymbol("(")) {
      // Derived table: ( SELECT ... ) AS alias. The alias is mandatory —
      // there is no stream name to fall back on.
      Advance();
      PIPES_ASSIGN_OR_RETURN(QueryAst sub, ParseQueryBody());
      PIPES_RETURN_IF_ERROR(ExpectSymbol(")"));
      ref.subquery = std::make_shared<QueryAst>(std::move(sub));
      ref.window.kind = WindowKind::kNow;
      if (Peek().IsSymbol("[")) {
        return Error("windows attach to streams inside the subquery, not to "
                     "the derived table");
      }
      if (Peek().Is("AS")) Advance();
      if (Peek().kind != TokenKind::kIdent || Peek().Is("WHERE") ||
          Peek().Is("GROUP") || Peek().Is("JOIN") || Peek().Is("ON")) {
        return Error("expected alias for derived table");
      }
      ref.alias = Advance().text;
      query->from.push_back(std::move(ref));
      return Status::OK();
    }
    if (Peek().kind != TokenKind::kIdent) {
      return Error("expected stream name");
    }
    ref.stream = Advance().text;
    ref.alias = ref.stream;
    ref.window.kind = WindowKind::kNow;
    if (Peek().IsSymbol("[")) {
      PIPES_ASSIGN_OR_RETURN(ref.window, ParseWindow());
    }
    if (Peek().Is("AS")) {
      Advance();
      if (Peek().kind != TokenKind::kIdent) {
        return Error("expected alias after AS");
      }
      ref.alias = Advance().text;
    } else if (Peek().kind == TokenKind::kIdent && !Peek().Is("WHERE") &&
               !Peek().Is("GROUP") && !Peek().Is("JOIN") &&
               !Peek().Is("ON")) {
      ref.alias = Advance().text;
    }
    query->from.push_back(std::move(ref));
    return Status::OK();
  }

  Result<WindowSpec> ParseWindow() {
    PIPES_RETURN_IF_ERROR(ExpectSymbol("["));
    WindowSpec window;
    if (Peek().Is("RANGE")) {
      Advance();
      window.kind = WindowKind::kRange;
      PIPES_ASSIGN_OR_RETURN(window.range, ParseDuration());
      if (Peek().Is("SLIDE")) {
        Advance();
        window.kind = WindowKind::kRangeSlide;
        PIPES_ASSIGN_OR_RETURN(window.slide, ParseDuration());
      }
    } else if (Peek().Is("ROWS")) {
      Advance();
      if (Peek().kind != TokenKind::kInt) {
        return Error("expected row count after ROWS");
      }
      window.kind = WindowKind::kRows;
      window.rows = static_cast<std::size_t>(Advance().int_value);
    } else if (Peek().Is("NOW")) {
      Advance();
      window.kind = WindowKind::kNow;
    } else if (Peek().Is("UNBOUNDED")) {
      Advance();
      window.kind = WindowKind::kUnbounded;
    } else {
      return Error("expected RANGE, ROWS, NOW or UNBOUNDED");
    }
    PIPES_RETURN_IF_ERROR(ExpectSymbol("]"));
    return window;
  }

  Result<Timestamp> ParseDuration() {
    if (Peek().kind != TokenKind::kInt) {
      return Error("expected duration value");
    }
    const std::int64_t value = Advance().int_value;
    Timestamp multiplier = 1;
    const Token& unit = Peek();
    if (unit.Is("MILLISECONDS") || unit.Is("MILLISECOND")) {
      multiplier = 1;
      Advance();
    } else if (unit.Is("SECONDS") || unit.Is("SECOND")) {
      multiplier = 1000;
      Advance();
    } else if (unit.Is("MINUTES") || unit.Is("MINUTE")) {
      multiplier = 60ll * 1000;
      Advance();
    } else if (unit.Is("HOURS") || unit.Is("HOUR")) {
      multiplier = 3600ll * 1000;
      Advance();
    } else {
      return Error("expected time unit");
    }
    if (value > std::numeric_limits<Timestamp>::max() / multiplier) {
      return Error("duration out of range");
    }
    return Timestamp{value * multiplier};
  }

  Result<std::string> ParseQualifiedName() {
    if (Peek().kind != TokenKind::kIdent) {
      return Error("expected name");
    }
    std::string name = Advance().text;
    while (Peek().IsSymbol(".")) {
      Advance();
      if (Peek().kind != TokenKind::kIdent) {
        return Error("expected name after '.'");
      }
      name += "." + Advance().text;
    }
    return name;
  }

  // expr := and_expr (OR and_expr)*
  Result<ExprAstPtr> ParseExpr() { return ParseOr(); }

  Result<ExprAstPtr> ParseOr() {
    PIPES_ASSIGN_OR_RETURN(ExprAstPtr left, ParseAnd());
    while (Peek().Is("OR")) {
      Advance();
      PIPES_ASSIGN_OR_RETURN(ExprAstPtr right, ParseAnd());
      left = MakeBinaryAst(BinaryOp::kOr, left, right);
    }
    return left;
  }

  Result<ExprAstPtr> ParseAnd() {
    PIPES_ASSIGN_OR_RETURN(ExprAstPtr left, ParseNot());
    while (Peek().Is("AND")) {
      Advance();
      PIPES_ASSIGN_OR_RETURN(ExprAstPtr right, ParseNot());
      left = MakeBinaryAst(BinaryOp::kAnd, left, right);
    }
    return left;
  }

  Result<ExprAstPtr> ParseNot() {
    if (Peek().Is("NOT")) {
      Advance();
      PIPES_ASSIGN_OR_RETURN(ExprAstPtr operand, ParseNot());
      auto node = std::make_shared<ExprAst>();
      node->kind = ExprAst::Kind::kUnary;
      node->unary_op = UnaryOp::kNot;
      node->children.push_back(std::move(operand));
      return ExprAstPtr(node);
    }
    return ParseComparison();
  }

  Result<ExprAstPtr> ParseComparison() {
    PIPES_ASSIGN_OR_RETURN(ExprAstPtr left, ParseAdditive());
    const Token& t = Peek();
    BinaryOp op;
    if (t.IsSymbol("=")) {
      op = BinaryOp::kEq;
    } else if (t.IsSymbol("<>")) {
      op = BinaryOp::kNe;
    } else if (t.IsSymbol("<=")) {
      op = BinaryOp::kLe;
    } else if (t.IsSymbol(">=")) {
      op = BinaryOp::kGe;
    } else if (t.IsSymbol("<")) {
      op = BinaryOp::kLt;
    } else if (t.IsSymbol(">")) {
      op = BinaryOp::kGt;
    } else {
      return left;
    }
    Advance();
    PIPES_ASSIGN_OR_RETURN(ExprAstPtr right, ParseAdditive());
    return MakeBinaryAst(op, left, right);
  }

  Result<ExprAstPtr> ParseAdditive() {
    PIPES_ASSIGN_OR_RETURN(ExprAstPtr left, ParseMultiplicative());
    for (;;) {
      BinaryOp op;
      if (Peek().IsSymbol("+")) {
        op = BinaryOp::kAdd;
      } else if (Peek().IsSymbol("-")) {
        op = BinaryOp::kSub;
      } else {
        return left;
      }
      Advance();
      PIPES_ASSIGN_OR_RETURN(ExprAstPtr right, ParseMultiplicative());
      left = MakeBinaryAst(op, left, right);
    }
  }

  Result<ExprAstPtr> ParseMultiplicative() {
    PIPES_ASSIGN_OR_RETURN(ExprAstPtr left, ParseUnary());
    for (;;) {
      BinaryOp op;
      if (Peek().IsSymbol("*")) {
        op = BinaryOp::kMul;
      } else if (Peek().IsSymbol("/")) {
        op = BinaryOp::kDiv;
      } else if (Peek().IsSymbol("%")) {
        op = BinaryOp::kMod;
      } else {
        return left;
      }
      Advance();
      PIPES_ASSIGN_OR_RETURN(ExprAstPtr right, ParseUnary());
      left = MakeBinaryAst(op, left, right);
    }
  }

  Result<ExprAstPtr> ParseUnary() {
    if (Peek().IsSymbol("-")) {
      Advance();
      PIPES_ASSIGN_OR_RETURN(ExprAstPtr operand, ParseUnary());
      auto node = std::make_shared<ExprAst>();
      node->kind = ExprAst::Kind::kUnary;
      node->unary_op = UnaryOp::kNeg;
      node->children.push_back(std::move(operand));
      return ExprAstPtr(node);
    }
    return ParsePrimary();
  }

  Result<ExprAstPtr> ParsePrimary() {
    const Token& t = Peek();
    auto node = std::make_shared<ExprAst>();
    switch (t.kind) {
      case TokenKind::kInt:
        node->kind = ExprAst::Kind::kLiteral;
        node->literal = Value(Advance().int_value);
        return ExprAstPtr(node);
      case TokenKind::kDouble:
        node->kind = ExprAst::Kind::kLiteral;
        node->literal = Value(Advance().double_value);
        return ExprAstPtr(node);
      case TokenKind::kString:
        node->kind = ExprAst::Kind::kLiteral;
        node->literal = Value(Advance().text);
        return ExprAstPtr(node);
      case TokenKind::kIdent: {
        if (t.Is("TRUE") || t.Is("FALSE")) {
          node->kind = ExprAst::Kind::kLiteral;
          node->literal = Value(Advance().Is("TRUE"));
          return ExprAstPtr(node);
        }
        if (IsAggName(t) && Peek(1).IsSymbol("(")) {
          node->kind = ExprAst::Kind::kAggCall;
          node->name = Advance().text;
          Advance();  // '('
          if (Peek().IsSymbol("*")) {
            Advance();
          } else {
            PIPES_ASSIGN_OR_RETURN(ExprAstPtr arg, ParseExpr());
            node->children.push_back(std::move(arg));
          }
          PIPES_RETURN_IF_ERROR(ExpectSymbol(")"));
          return ExprAstPtr(node);
        }
        node->kind = ExprAst::Kind::kName;
        PIPES_ASSIGN_OR_RETURN(node->name, ParseQualifiedName());
        return ExprAstPtr(node);
      }
      case TokenKind::kSymbol:
        if (t.IsSymbol("(")) {
          Advance();
          PIPES_ASSIGN_OR_RETURN(ExprAstPtr inner, ParseExpr());
          PIPES_RETURN_IF_ERROR(ExpectSymbol(")"));
          return inner;
        }
        break;
      case TokenKind::kEnd:
        break;
    }
    return Error("expected expression");
  }

  static ExprAstPtr MakeBinaryAst(BinaryOp op, ExprAstPtr left,
                                  ExprAstPtr right) {
    auto node = std::make_shared<ExprAst>();
    node->kind = ExprAst::Kind::kBinary;
    node->binary_op = op;
    node->children.push_back(std::move(left));
    node->children.push_back(std::move(right));
    return node;
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
  std::vector<ExprAstPtr> join_conditions_;
};

}  // namespace

Result<QueryAst> Parse(const std::string& query) {
  PIPES_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(query));
  Parser parser(std::move(tokens));
  return parser.ParseQuery();
}

Result<ExprAstPtr> ParseExpressionAst(const std::string& text) {
  PIPES_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  Parser parser(std::move(tokens));
  return parser.ParseStandaloneExpression();
}

}  // namespace pipes::cql
