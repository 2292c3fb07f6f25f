#include "src/testing/conformance.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <ostream>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include "src/algebra/aggregate.h"
#include "src/algebra/distinct.h"
#include "src/algebra/filter.h"
#include "src/algebra/join.h"
#include "src/algebra/map.h"
#include "src/algebra/parallel.h"
#include "src/algebra/relation_to_stream.h"
#include "src/algebra/union.h"
#include "src/core/generator_source.h"
#include "src/core/graph.h"
#include "src/core/sink.h"
#include "src/cql/analyzer.h"
#include "src/cql/catalog.h"
#include "src/engine/engine.h"
#include "src/optimizer/optimizer.h"
#include "src/optimizer/physical.h"
#include "src/optimizer/plan_manager.h"
#include "src/scheduler/executor.h"
#include "src/scheduler/strategy.h"

namespace pipes::testing::conformance {

namespace {

using optimizer::LogicalOp;
using optimizer::LogicalPlan;
using optimizer::WindowKind;
using relational::Schema;
using relational::Tuple;
using relational::Value;
using relational::ValueType;

// --- Corpus parsing ----------------------------------------------------------

std::string Trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

Result<ValueType> TypeFromName(const std::string& name) {
  if (name == "int") return ValueType::kInt;
  if (name == "double") return ValueType::kDouble;
  if (name == "bool") return ValueType::kBool;
  if (name == "string") return ValueType::kString;
  return Status::InvalidArgument("unknown corpus field type '" + name + "'");
}

/// Parses "(name:type, name:type, ...)".
Result<Schema> ParseSchemaSpec(const std::string& spec,
                               const std::string& where) {
  const std::string trimmed = Trim(spec);
  if (trimmed.size() < 2 || trimmed.front() != '(' || trimmed.back() != ')') {
    return Status::InvalidArgument(where +
                                   ": expected '(name:type, ...)', got '" +
                                   spec + "'");
  }
  Schema schema;
  std::stringstream body(trimmed.substr(1, trimmed.size() - 2));
  std::string part;
  while (std::getline(body, part, ',')) {
    part = Trim(part);
    const std::size_t colon = part.find(':');
    if (colon == std::string::npos || colon == 0) {
      return Status::InvalidArgument(where + ": bad field spec '" + part +
                                     "'");
    }
    PIPES_ASSIGN_OR_RETURN(ValueType type,
                           TypeFromName(Trim(part.substr(colon + 1))));
    schema.Append({Trim(part.substr(0, colon)), type});
  }
  if (schema.arity() == 0) {
    return Status::InvalidArgument(where + ": empty schema");
  }
  return schema;
}

/// Splits the value side of a row into tokens; single-quoted strings keep
/// their spaces (the quotes are stripped).
Result<std::vector<std::string>> TokenizeValues(const std::string& text,
                                                const std::string& where) {
  std::vector<std::string> tokens;
  std::size_t i = 0;
  while (i < text.size()) {
    if (std::isspace(static_cast<unsigned char>(text[i]))) {
      ++i;
      continue;
    }
    if (text[i] == '\'') {
      const std::size_t close = text.find('\'', i + 1);
      if (close == std::string::npos) {
        return Status::InvalidArgument(where + ": unterminated string");
      }
      tokens.push_back(text.substr(i + 1, close - i - 1));
      i = close + 1;
    } else {
      std::size_t j = i;
      while (j < text.size() &&
             !std::isspace(static_cast<unsigned char>(text[j]))) {
        ++j;
      }
      tokens.push_back(text.substr(i, j - i));
      i = j;
    }
  }
  return tokens;
}

Result<Value> ParseValueToken(const std::string& token, ValueType type,
                              bool quoted_string, const std::string& where) {
  if (!quoted_string && token == "null") return Value::Null();
  try {
    switch (type) {
      case ValueType::kInt:
        return Value(static_cast<std::int64_t>(std::stoll(token)));
      case ValueType::kDouble:
        return Value(std::stod(token));
      case ValueType::kBool:
        if (token == "true") return Value(true);
        if (token == "false") return Value(false);
        return Status::InvalidArgument(where + ": bad bool '" + token + "'");
      case ValueType::kString:
        return Value(token);
      case ValueType::kNull:
        break;
    }
  } catch (const std::exception&) {
    return Status::InvalidArgument(where + ": bad " +
                                   relational::ValueTypeName(type) + " '" +
                                   token + "'");
  }
  return Status::InvalidArgument(where + ": field of type null");
}

/// Parses "<start> <end> | <values>" against `schema`.
Result<TupleElement> ParseRow(const std::string& line, const Schema& schema,
                              const std::string& where) {
  const std::size_t bar = line.find('|');
  if (bar == std::string::npos) {
    return Status::InvalidArgument(where + ": row needs 'start end | values'");
  }
  std::stringstream times(line.substr(0, bar));
  std::string start_tok;
  std::string end_tok;
  std::string extra;
  if (!(times >> start_tok >> end_tok) || (times >> extra)) {
    return Status::InvalidArgument(where + ": expected exactly 'start end'");
  }
  Timestamp start = 0;
  Timestamp end = 0;
  try {
    start = std::stoll(start_tok);
    end = end_tok == "inf" ? kMaxTimestamp : std::stoll(end_tok);
  } catch (const std::exception&) {
    return Status::InvalidArgument(where + ": bad timestamp");
  }
  if (start >= end) {
    return Status::InvalidArgument(where + ": empty interval [" + start_tok +
                                   ", " + end_tok + ")");
  }
  const std::string value_text = line.substr(bar + 1);
  PIPES_ASSIGN_OR_RETURN(std::vector<std::string> tokens,
                         TokenizeValues(value_text, where));
  if (tokens.size() != schema.arity()) {
    return Status::InvalidArgument(
        where + ": " + std::to_string(tokens.size()) + " values for " +
        std::to_string(schema.arity()) + " fields");
  }
  std::vector<Value> values;
  values.reserve(tokens.size());
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    // Re-detect quoting: TokenizeValues stripped quotes, so a literal
    // "null" string must have been quoted in the source line.
    const bool quoted = value_text.find('\'' + tokens[i] + '\'') !=
                        std::string::npos;
    PIPES_ASSIGN_OR_RETURN(
        Value v,
        ParseValueToken(tokens[i], schema.field(i).type, quoted, where));
    values.push_back(std::move(v));
  }
  return TupleElement(Tuple(std::move(values)), start, end);
}

}  // namespace

Result<Corpus> ParseCorpus(const std::string& text, const std::string& file) {
  Corpus corpus;
  corpus.file = file;
  std::stringstream in(text);
  std::string raw;
  int line_no = 0;

  enum class Mode { kTop, kStreamRows, kQuery, kExpectRows };
  Mode mode = Mode::kTop;
  CorpusCase current_case;
  bool in_case = false;

  auto where = [&]() { return file + ":" + std::to_string(line_no); };

  auto finish_case = [&]() -> Status {
    if (!in_case) return Status::OK();
    if (current_case.query.empty()) {
      return Status::InvalidArgument(where() + ": case '" +
                                     current_case.name + "' has no query");
    }
    if (current_case.expected.rows.empty() &&
        current_case.expected.schema.arity() == 0) {
      return Status::InvalidArgument(where() + ": case '" +
                                     current_case.name + "' has no expect");
    }
    corpus.cases.push_back(std::move(current_case));
    current_case = {};
    in_case = false;
    return Status::OK();
  };

  while (std::getline(in, raw)) {
    ++line_no;
    const std::string line = Trim(raw);
    if (line.empty() || line[0] == '#') continue;

    if (mode == Mode::kQuery) {
      // The query runs until the `expect` header.
      if (line.rfind("expect", 0) == 0) {
        PIPES_ASSIGN_OR_RETURN(
            current_case.expected.schema,
            ParseSchemaSpec(line.substr(6), where()));
        mode = Mode::kExpectRows;
      } else {
        current_case.query += " " + line;
      }
      continue;
    }

    if (mode == Mode::kStreamRows) {
      if (line == "end") {
        mode = Mode::kTop;
        continue;
      }
      CorpusStream& s = corpus.streams.back();
      PIPES_ASSIGN_OR_RETURN(TupleElement row,
                             ParseRow(line, s.schema, where()));
      if (!s.rows.empty() && row.start() < s.rows.back().start()) {
        return Status::InvalidArgument(
            where() + ": stream rows must be ordered by start");
      }
      s.rows.push_back(std::move(row));
      continue;
    }

    if (mode == Mode::kExpectRows) {
      if (line == "end") {
        PIPES_RETURN_IF_ERROR(finish_case());
        mode = Mode::kTop;
        continue;
      }
      PIPES_ASSIGN_OR_RETURN(
          TupleElement row,
          ParseRow(line, current_case.expected.schema, where()));
      current_case.expected.rows.push_back(std::move(row));
      continue;
    }

    // Mode::kTop.
    std::stringstream header(line);
    std::string keyword;
    header >> keyword;
    if (keyword == "stream") {
      std::string name;
      header >> name;
      if (name.empty()) {
        return Status::InvalidArgument(where() + ": stream needs a name");
      }
      std::string rest;
      std::getline(header, rest);
      CorpusStream stream;
      stream.name = name;
      PIPES_ASSIGN_OR_RETURN(stream.schema, ParseSchemaSpec(rest, where()));
      corpus.streams.push_back(std::move(stream));
      mode = Mode::kStreamRows;
    } else if (keyword == "case") {
      PIPES_RETURN_IF_ERROR(finish_case());
      std::string name;
      header >> name;
      if (name.empty()) {
        return Status::InvalidArgument(where() + ": case needs a name");
      }
      in_case = true;
      current_case = {};
      current_case.name = name;
      current_case.file = file;
    } else if (keyword == "query") {
      if (!in_case) {
        return Status::InvalidArgument(where() + ": query outside a case");
      }
      std::string rest;
      std::getline(header, rest);
      current_case.query = Trim(rest);
      mode = Mode::kQuery;
    } else {
      return Status::InvalidArgument(where() + ": unknown directive '" +
                                     keyword + "'");
    }
  }
  if (mode != Mode::kTop) {
    return Status::InvalidArgument(file + ": unterminated block at EOF");
  }
  PIPES_RETURN_IF_ERROR(finish_case());
  return corpus;
}

Result<Corpus> LoadCorpusFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open corpus file '" + path + "'");
  std::stringstream buffer;
  buffer << in.rdbuf();
  return ParseCorpus(buffer.str(),
                     std::filesystem::path(path).filename().string());
}

Result<std::vector<Corpus>> LoadCorpusDir(const std::string& dir) {
  std::error_code ec;
  std::vector<std::string> paths;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.path().extension() == ".corpus") {
      paths.push_back(entry.path().string());
    }
  }
  if (ec) {
    return Status::NotFound("cannot list corpus dir '" + dir + "': " +
                            ec.message());
  }
  std::sort(paths.begin(), paths.end());
  std::vector<Corpus> corpora;
  for (const std::string& path : paths) {
    PIPES_ASSIGN_OR_RETURN(Corpus corpus, LoadCorpusFile(path));
    corpora.push_back(std::move(corpus));
  }
  if (corpora.empty()) {
    return Status::NotFound("no .corpus files under '" + dir + "'");
  }
  return corpora;
}

// --- Reference evaluation ----------------------------------------------------

namespace {

/// Mirrors SlideWindow::AlignUp.
Timestamp AlignUp(Timestamp t, Timestamp slide) {
  return ((t + slide - 1) / slide) * slide;
}

/// Window application over the raw rows, element-for-element identical to
/// src/algebra/window.h (rows are in arrival order, as CountWindow
/// requires).
std::vector<TupleElement> ApplyWindow(const std::vector<TupleElement>& rows,
                                      const optimizer::WindowSpec& window) {
  std::vector<TupleElement> out;
  switch (window.kind) {
    case WindowKind::kNow:
      return rows;  // no operator: declared intervals pass through
    case WindowKind::kRange:
      out.reserve(rows.size());
      for (const TupleElement& e : rows) {
        out.emplace_back(e.payload, e.start(), e.start() + window.range);
      }
      break;
    case WindowKind::kRangeSlide:
      for (const TupleElement& e : rows) {
        const Timestamp first = AlignUp(e.start(), window.slide);
        const Timestamp last =
            AlignUp(e.start() + window.range, window.slide);
        if (first < last) out.emplace_back(e.payload, first, last);
      }
      break;
    case WindowKind::kRows:
      // Element i expires when its n-th successor arrives; the last n live
      // forever.
      out.reserve(rows.size());
      for (std::size_t i = 0; i < rows.size(); ++i) {
        Timestamp end = kMaxTimestamp;
        if (i + window.rows < rows.size()) {
          end = std::max(rows[i + window.rows].start(), rows[i].start() + 1);
        }
        out.emplace_back(rows[i].payload, rows[i].start(), end);
      }
      break;
    case WindowKind::kUnbounded:
      out.reserve(rows.size());
      for (const TupleElement& e : rows) {
        out.emplace_back(e.payload, e.start(), kMaxTimestamp);
      }
      break;
  }
  return out;
}

Result<std::vector<TupleElement>> EvalNode(const LogicalPlan& plan,
                                           const Corpus& corpus) {
  switch (plan->kind) {
    case LogicalOp::Kind::kStreamScan: {
      for (const CorpusStream& s : corpus.streams) {
        if (s.name == plan->stream_name) {
          return ApplyWindow(s.rows, plan->window);
        }
      }
      return Status::NotFound("corpus has no stream '" + plan->stream_name +
                              "'");
    }

    case LogicalOp::Kind::kFilter: {
      PIPES_ASSIGN_OR_RETURN(std::vector<TupleElement> in,
                             EvalNode(plan->children[0], corpus));
      std::vector<TupleElement> out;
      for (TupleElement& e : in) {
        if (plan->predicate->Eval(e.payload).Truthy()) {
          out.push_back(std::move(e));
        }
      }
      return out;
    }

    case LogicalOp::Kind::kProject: {
      PIPES_ASSIGN_OR_RETURN(std::vector<TupleElement> in,
                             EvalNode(plan->children[0], corpus));
      std::vector<TupleElement> out;
      out.reserve(in.size());
      for (const TupleElement& e : in) {
        std::vector<Value> values;
        values.reserve(plan->exprs.size());
        for (const auto& expr : plan->exprs) {
          values.push_back(expr->Eval(e.payload));
        }
        out.emplace_back(Tuple(std::move(values)), e.interval);
      }
      return out;
    }

    case LogicalOp::Kind::kJoin: {
      PIPES_ASSIGN_OR_RETURN(std::vector<TupleElement> left,
                             EvalNode(plan->children[0], corpus));
      PIPES_ASSIGN_OR_RETURN(std::vector<TupleElement> right,
                             EvalNode(plan->children[1], corpus));
      std::vector<std::size_t> lk;
      std::vector<std::size_t> rk;
      for (const auto& [l, r] : plan->equi_keys) {
        lk.push_back(l);
        rk.push_back(r);
      }
      std::vector<TupleElement> out;
      for (const TupleElement& l : left) {
        for (const TupleElement& r : right) {
          if (!l.interval.Overlaps(r.interval)) continue;
          if (!lk.empty() &&
              !(l.payload.Project(lk) == r.payload.Project(rk))) {
            continue;
          }
          Tuple joined = l.payload.Concat(r.payload);
          if (plan->predicate != nullptr &&
              !plan->predicate->Eval(joined).Truthy()) {
            continue;
          }
          out.emplace_back(std::move(joined),
                           l.interval.Intersect(r.interval));
        }
      }
      return out;
    }

    case LogicalOp::Kind::kGroupAggregate: {
      PIPES_ASSIGN_OR_RETURN(std::vector<TupleElement> in,
                             EvalNode(plan->children[0], corpus));
      // Per group: segment time at that group's interval endpoints, fold
      // the covering rows (in arrival order) into TupleAggPolicy — the
      // same accumulation order and state the physical sweep line uses,
      // so float results are bit-identical.
      const optimizer::TupleAggPolicy policy(plan->aggs);
      std::map<Tuple, std::vector<const TupleElement*>> groups;
      for (const TupleElement& e : in) {
        groups[e.payload.Project(plan->group_fields)].push_back(&e);
      }
      std::vector<TupleElement> out;
      for (const auto& [key, rows] : groups) {
        std::set<Timestamp> boundary_set;
        for (const TupleElement* e : rows) {
          boundary_set.insert(e->start());
          boundary_set.insert(e->end());
        }
        std::vector<Timestamp> boundaries(boundary_set.begin(),
                                          boundary_set.end());
        for (std::size_t i = 0; i + 1 < boundaries.size(); ++i) {
          const Timestamp a = boundaries[i];
          const Timestamp b = boundaries[i + 1];
          optimizer::TupleAggPolicy::State state = policy.Init();
          bool any = false;
          for (const TupleElement* e : rows) {
            if (e->start() <= a && b <= e->end()) {
              policy.Add(state, e->payload);
              any = true;
            }
          }
          if (any) {
            out.emplace_back(key.Concat(policy.Result(state)), a, b);
          }
        }
      }
      return out;
    }

    case LogicalOp::Kind::kDistinct: {
      PIPES_ASSIGN_OR_RETURN(std::vector<TupleElement> in,
                             EvalNode(plan->children[0], corpus));
      // Per distinct payload: maximal coalesced validity intervals.
      std::map<Tuple, std::vector<TimeInterval>> by_payload;
      for (const TupleElement& e : in) {
        by_payload[e.payload].push_back(e.interval);
      }
      std::vector<TupleElement> out;
      for (auto& [payload, intervals] : by_payload) {
        std::sort(intervals.begin(), intervals.end(),
                  [](const TimeInterval& a, const TimeInterval& b) {
                    return a.start < b.start;
                  });
        TimeInterval current = intervals.front();
        for (std::size_t i = 1; i < intervals.size(); ++i) {
          if (intervals[i].start <= current.end) {
            current.end = std::max(current.end, intervals[i].end);
          } else {
            out.emplace_back(payload, current);
            current = intervals[i];
          }
        }
        out.emplace_back(payload, current);
      }
      return out;
    }

    case LogicalOp::Kind::kUnion: {
      PIPES_ASSIGN_OR_RETURN(std::vector<TupleElement> out,
                             EvalNode(plan->children[0], corpus));
      PIPES_ASSIGN_OR_RETURN(std::vector<TupleElement> right,
                             EvalNode(plan->children[1], corpus));
      out.insert(out.end(), right.begin(), right.end());
      return out;
    }

    case LogicalOp::Kind::kIStream: {
      PIPES_ASSIGN_OR_RETURN(std::vector<TupleElement> in,
                             EvalNode(plan->children[0], corpus));
      std::vector<TupleElement> out;
      out.reserve(in.size());
      for (const TupleElement& e : in) {
        out.push_back(TupleElement::Point(e.payload, e.start()));
      }
      return out;
    }

    case LogicalOp::Kind::kDStream: {
      PIPES_ASSIGN_OR_RETURN(std::vector<TupleElement> in,
                             EvalNode(plan->children[0], corpus));
      std::vector<TupleElement> out;
      for (const TupleElement& e : in) {
        if (e.end() == kMaxTimestamp) continue;  // never expires
        out.push_back(TupleElement::Point(e.payload, e.end()));
      }
      return out;
    }
  }
  return Status::Internal("unhandled logical operator kind");
}

}  // namespace

Result<IntervalTable> ReferenceEval(const LogicalPlan& plan,
                                    const Corpus& corpus) {
  PIPES_ASSIGN_OR_RETURN(std::vector<TupleElement> rows,
                         EvalNode(plan, corpus));
  IntervalTable table;
  table.schema = plan->schema;
  table.rows = std::move(rows);
  return table;
}

// --- Snapshot comparison -----------------------------------------------------

namespace {

constexpr double kRelTolerance = 1e-9;

bool ApproxValueEq(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return a.is_null() && b.is_null();
  if (a.is_numeric() && b.is_numeric()) {
    const double x = a.AsDouble();
    const double y = b.AsDouble();
    return std::abs(x - y) <=
           kRelTolerance * std::max({1.0, std::abs(x), std::abs(y)});
  }
  return a.type() == b.type() && a == b;
}

bool ApproxTupleEq(const Tuple& a, const Tuple& b) {
  if (a.arity() != b.arity()) return false;
  for (std::size_t i = 0; i < a.arity(); ++i) {
    if (!ApproxValueEq(a.field(i), b.field(i))) return false;
  }
  return true;
}

/// Payload multiset of `table` valid at instant `t`, sorted.
std::vector<Tuple> SnapshotAt(const IntervalTable& table, Timestamp t) {
  std::vector<Tuple> snapshot;
  for (const TupleElement& e : table.rows) {
    if (e.interval.Contains(t)) snapshot.push_back(e.payload);
  }
  std::sort(snapshot.begin(), snapshot.end());
  return snapshot;
}

/// Approximate multiset equality via greedy matching (robust when float
/// jitter perturbs the sort order of near-equal tuples).
bool ApproxMultisetEq(const std::vector<Tuple>& a,
                      const std::vector<Tuple>& b) {
  if (a.size() != b.size()) return false;
  std::vector<bool> used(b.size(), false);
  for (const Tuple& t : a) {
    bool matched = false;
    for (std::size_t i = 0; i < b.size(); ++i) {
      if (!used[i] && ApproxTupleEq(t, b[i])) {
        used[i] = true;
        matched = true;
        break;
      }
    }
    if (!matched) return false;
  }
  return true;
}

std::string RenderSnapshot(const std::vector<Tuple>& snapshot) {
  if (snapshot.empty()) return "{}";
  std::string out = "{";
  for (std::size_t i = 0; i < snapshot.size(); ++i) {
    if (i > 0) out += ", ";
    out += snapshot[i].ToString();
  }
  return out + "}";
}

bool ElementLess(const TupleElement& a, const TupleElement& b) {
  if (a.start() != b.start()) return a.start() < b.start();
  if (a.end() != b.end()) return a.end() < b.end();
  return a.payload < b.payload;
}

}  // namespace

IntervalTable Canonicalize(const IntervalTable& table) {
  // Per payload, a +1/-1 boundary sweep yields maximal
  // constant-multiplicity segments; multiplicity k renders as k rows.
  std::map<Tuple, std::map<Timestamp, int>> deltas;
  for (const TupleElement& e : table.rows) {
    ++deltas[e.payload][e.start()];
    --deltas[e.payload][e.end()];  // kMaxTimestamp is a fine boundary key
  }
  IntervalTable out;
  out.schema = table.schema;
  for (const auto& [payload, boundary] : deltas) {
    int level = 0;
    Timestamp previous = 0;
    for (const auto& [t, delta] : boundary) {
      if (delta == 0) continue;  // abutting end+start: multiplicity unchanged
      if (level > 0) {
        for (int k = 0; k < level; ++k) {
          out.rows.emplace_back(payload, previous, t);
        }
      }
      level += delta;
      previous = t;
    }
  }
  std::sort(out.rows.begin(), out.rows.end(), ElementLess);
  return out;
}

TableDiff SnapshotDiff(const IntervalTable& expected,
                       const IntervalTable& actual) {
  TableDiff diff;
  if (!expected.rows.empty() && !actual.rows.empty() &&
      expected.rows.front().payload.arity() !=
          actual.rows.front().payload.arity()) {
    diff.equivalent = false;
    diff.message =
        "arity mismatch: expected " +
        std::to_string(expected.rows.front().payload.arity()) + ", actual " +
        std::to_string(actual.rows.front().payload.arity());
    return diff;
  }
  // The snapshot function of either table only changes at its own interval
  // endpoints, so agreeing at the union of endpoints means agreeing
  // everywhere.
  std::set<Timestamp> instants;
  for (const IntervalTable* table : {&expected, &actual}) {
    for (const TupleElement& e : table->rows) {
      instants.insert(e.start());
      if (e.end() != kMaxTimestamp) instants.insert(e.end());
    }
  }
  for (const Timestamp t : instants) {
    const std::vector<Tuple> want = SnapshotAt(expected, t);
    const std::vector<Tuple> got = SnapshotAt(actual, t);
    if (!ApproxMultisetEq(want, got)) {
      diff.equivalent = false;
      diff.message = "snapshots differ at t=" + std::to_string(t) +
                     "\n  expected: " + RenderSnapshot(want) +
                     "\n  actual:   " + RenderSnapshot(got);
      return diff;
    }
  }
  return diff;
}

std::string RenderTable(const IntervalTable& table) {
  const IntervalTable canonical = Canonicalize(table);
  std::string out;
  for (const TupleElement& e : canonical.rows) {
    out += std::to_string(e.start()) + " " +
           (e.end() == kMaxTimestamp ? std::string("inf")
                                     : std::to_string(e.end())) +
           " | " + e.payload.ToString() + "\n";
  }
  return out;
}

// --- Execution arms ----------------------------------------------------------

namespace {

cql::Catalog MakeCatalog(const Corpus& corpus) {
  cql::Catalog catalog;
  for (const CorpusStream& s : corpus.streams) {
    catalog.RegisterStream(s.name, s.schema, nullptr, s.rate_hint);
  }
  return catalog;
}

std::vector<TupleElement> Collected(CollectorSink<Tuple>& sink) {
  return sink.elements();
}

Result<IntervalTable> RunEngineArm(const CorpusCase& c, const Corpus& corpus) {
  engine::Engine eng;
  for (const CorpusStream& s : corpus.streams) {
    auto& src = eng.graph().Add<VectorSource<Tuple>>(
        s.rows, "corpus(" + s.name + ")", /*batch_size=*/8);
    PIPES_RETURN_IF_ERROR(
        eng.BindStream(s.name, s.schema, src, s.rate_hint));
  }
  PIPES_ASSIGN_OR_RETURN(engine::QueryHandle handle, eng.Register(c.query));
  eng.RunToCompletion();
  IntervalTable table;
  table.schema = handle.schema();
  table.rows = handle.Poll();
  return table;
}

/// Shared scaffolding of the executor-driven arms: vector sources wired
/// through the catalog, a PlanManager-installed query, a collector sink.
Result<IntervalTable> RunManagedArm(const CorpusCase& c, const Corpus& corpus,
                                    std::size_t source_batch,
                                    std::size_t drive_batch) {
  QueryGraph graph;
  cql::Catalog catalog;
  for (const CorpusStream& s : corpus.streams) {
    auto& src = graph.Add<VectorSource<Tuple>>(
        s.rows, "corpus(" + s.name + ")", source_batch);
    catalog.RegisterStream(s.name, s.schema, &src, s.rate_hint);
  }
  optimizer::PlanManager manager(&graph, &catalog);
  PIPES_ASSIGN_OR_RETURN(optimizer::PlanManager::InstalledQuery installed,
                         manager.InstallQuery(c.query));
  auto& sink = graph.Add<CollectorSink<Tuple>>("conformance-sink");
  installed.output->AddSubscriber(sink.input());
  scheduler::RoundRobinStrategy strategy;
  scheduler::PipeExecutor(graph, strategy, drive_batch).RunToCompletion();
  IntervalTable table;
  table.schema = installed.schema;
  table.rows = Collected(sink);
  return table;
}

struct TupleIdentity {
  const Tuple& operator()(const Tuple& t) const { return t; }
};

/// (group key, agg results) -> flat output tuple, as in PhysicalBuilder.
struct PairConcat {
  Tuple operator()(const std::pair<Tuple, Tuple>& p) const {
    return p.first.Concat(p.second);
  }
};

/// Recursive physical materializer for the keyed-parallel arm: the same
/// lowering as PhysicalBuilder::BuildNode, except every key-partitionable
/// operator (grouped aggregate, distinct, hash equi-join) is replicated
/// across two keyed replicas via MakeKeyedParallel / MakeParallelHashJoin.
Result<Source<Tuple>*> ParallelBuild(QueryGraph& graph,
                                     const cql::Catalog& catalog,
                                     const LogicalPlan& plan) {
  using optimizer::ExprPredicate;
  using optimizer::ExprProjector;
  using optimizer::FieldsKey;
  using optimizer::TupleConcatCombine;
  constexpr std::size_t kReplicas = 2;

  switch (plan->kind) {
    case LogicalOp::Kind::kStreamScan: {
      PIPES_ASSIGN_OR_RETURN(const cql::Catalog::StreamInfo* info,
                             catalog.Lookup(plan->stream_name));
      if (info->source == nullptr) {
        return Status::FailedPrecondition("stream '" + plan->stream_name +
                                          "' has no physical source");
      }
      Source<Tuple>* source = info->source;
      switch (plan->window.kind) {
        case WindowKind::kNow:
          return source;
        case WindowKind::kRange: {
          auto& window = graph.Add<algebra::TimeWindow<Tuple>>(
              plan->window.range, "window(" + plan->stream_name + ")");
          source->AddSubscriber(window.input());
          return &window;
        }
        case WindowKind::kRangeSlide: {
          auto& window = graph.Add<algebra::SlideWindow<Tuple>>(
              plan->window.range, plan->window.slide,
              "slide-window(" + plan->stream_name + ")");
          source->AddSubscriber(window.input());
          return &window;
        }
        case WindowKind::kRows: {
          auto& window = graph.Add<algebra::CountWindow<Tuple>>(
              plan->window.rows, "rows-window(" + plan->stream_name + ")");
          source->AddSubscriber(window.input());
          return &window;
        }
        case WindowKind::kUnbounded: {
          auto& window = graph.Add<algebra::UnboundedWindow<Tuple>>(
              "unbounded-window(" + plan->stream_name + ")");
          source->AddSubscriber(window.input());
          return &window;
        }
      }
      return Status::Internal("unhandled window kind");
    }

    case LogicalOp::Kind::kFilter: {
      PIPES_ASSIGN_OR_RETURN(Source<Tuple>* child,
                             ParallelBuild(graph, catalog, plan->children[0]));
      auto& filter = graph.Add<algebra::Filter<Tuple, ExprPredicate>>(
          ExprPredicate{plan->predicate},
          "filter[" + plan->predicate->ToString() + "]");
      child->AddSubscriber(filter.input());
      return &filter;
    }

    case LogicalOp::Kind::kProject: {
      PIPES_ASSIGN_OR_RETURN(Source<Tuple>* child,
                             ParallelBuild(graph, catalog, plan->children[0]));
      auto& project = graph.Add<algebra::Map<Tuple, Tuple, ExprProjector>>(
          ExprProjector{plan->exprs}, "project");
      child->AddSubscriber(project.input());
      return &project;
    }

    case LogicalOp::Kind::kJoin: {
      PIPES_ASSIGN_OR_RETURN(Source<Tuple>* left,
                             ParallelBuild(graph, catalog, plan->children[0]));
      PIPES_ASSIGN_OR_RETURN(Source<Tuple>* right,
                             ParallelBuild(graph, catalog, plan->children[1]));
      if (plan->equi_keys.empty()) {
        auto join = algebra::MakeNestedLoopsJoin<Tuple, Tuple>(
            optimizer::ConcatPredicate{plan->predicate}, TupleConcatCombine{},
            plan->predicate == nullptr ? "cross-join" : "nl-join");
        auto& node = graph.Add(std::move(join));
        left->AddSubscriber(node.left());
        right->AddSubscriber(node.right());
        return &node;
      }
      FieldsKey left_key;
      FieldsKey right_key;
      for (const auto& [l, r] : plan->equi_keys) {
        left_key.fields.push_back(l);
        right_key.fields.push_back(r);
      }
      auto chain = algebra::MakeParallelHashJoin<Tuple, Tuple>(
          graph, kReplicas, left_key, right_key, TupleConcatCombine{},
          "parallel-hash-join");
      left->AddSubscriber(*chain.left);
      right->AddSubscriber(*chain.right);
      Source<Tuple>* out = chain.output;
      if (plan->predicate != nullptr) {
        auto& residual = graph.Add<algebra::Filter<Tuple, ExprPredicate>>(
            ExprPredicate{plan->predicate}, "join-residual");
        out->AddSubscriber(residual.input());
        out = &residual;
      }
      return out;
    }

    case LogicalOp::Kind::kGroupAggregate: {
      PIPES_ASSIGN_OR_RETURN(Source<Tuple>* child,
                             ParallelBuild(graph, catalog, plan->children[0]));
      using Grouped =
          algebra::GroupedAggregate<Tuple, optimizer::TupleAggPolicy,
                                    FieldsKey, TupleIdentity>;
      auto chain = algebra::MakeKeyedParallel<Grouped>(
          graph, kReplicas, FieldsKey{plan->group_fields},
          FieldsKey{plan->group_fields}, TupleIdentity{}, "group-aggregate",
          optimizer::TupleAggPolicy(plan->aggs));
      child->AddSubscriber(*chain.input);
      auto& flatten =
          graph.Add<algebra::Map<std::pair<Tuple, Tuple>, Tuple, PairConcat>>(
              PairConcat{}, "flatten-groups");
      chain.output->AddSubscriber(flatten.input());
      return &flatten;
    }

    case LogicalOp::Kind::kDistinct: {
      PIPES_ASSIGN_OR_RETURN(Source<Tuple>* child,
                             ParallelBuild(graph, catalog, plan->children[0]));
      auto chain = algebra::MakeKeyedParallel<algebra::Distinct<Tuple>>(
          graph, kReplicas, TupleIdentity{}, "distinct");
      child->AddSubscriber(*chain.input);
      return chain.output;
    }

    case LogicalOp::Kind::kUnion: {
      PIPES_ASSIGN_OR_RETURN(Source<Tuple>* left,
                             ParallelBuild(graph, catalog, plan->children[0]));
      PIPES_ASSIGN_OR_RETURN(Source<Tuple>* right,
                             ParallelBuild(graph, catalog, plan->children[1]));
      auto& unite = graph.Add<algebra::Union<Tuple>>("union");
      left->AddSubscriber(unite.left());
      right->AddSubscriber(unite.right());
      return &unite;
    }

    case LogicalOp::Kind::kIStream: {
      PIPES_ASSIGN_OR_RETURN(Source<Tuple>* child,
                             ParallelBuild(graph, catalog, plan->children[0]));
      auto& node = graph.Add<algebra::IStream<Tuple>>("istream");
      child->AddSubscriber(node.input());
      return &node;
    }

    case LogicalOp::Kind::kDStream: {
      PIPES_ASSIGN_OR_RETURN(Source<Tuple>* child,
                             ParallelBuild(graph, catalog, plan->children[0]));
      auto& node = graph.Add<algebra::DStream<Tuple>>("dstream");
      child->AddSubscriber(node.input());
      return &node;
    }
  }
  return Status::Internal("unhandled logical operator kind");
}

Result<IntervalTable> RunKeyedParallelArm(const CorpusCase& c,
                                          const Corpus& corpus) {
  QueryGraph graph;
  cql::Catalog catalog;
  for (const CorpusStream& s : corpus.streams) {
    auto& src = graph.Add<VectorSource<Tuple>>(
        s.rows, "corpus(" + s.name + ")", /*batch_size=*/4);
    catalog.RegisterStream(s.name, s.schema, &src, s.rate_hint);
  }
  PIPES_ASSIGN_OR_RETURN(cql::CompiledQuery compiled,
                         cql::Compile(c.query, catalog));
  // Optimize first: equi-key extraction is what turns the analyzer's cross
  // joins into hash joins MakeParallelHashJoin can replicate.
  const optimizer::Optimizer optimizer(&catalog);
  const LogicalPlan plan = optimizer.Optimize(compiled.plan).plan;
  PIPES_ASSIGN_OR_RETURN(Source<Tuple>* output,
                         ParallelBuild(graph, catalog, plan));
  auto& sink = graph.Add<CollectorSink<Tuple>>("conformance-sink");
  output->AddSubscriber(sink.input());
  scheduler::RoundRobinStrategy strategy;
  scheduler::PipeExecutor(graph, strategy, 8).RunToCompletion();
  IntervalTable table;
  table.schema = plan->schema;
  table.rows = Collected(sink);
  return table;
}

}  // namespace

const char* ArmName(Arm arm) {
  switch (arm) {
    case Arm::kReference:
      return "reference";
    case Arm::kEngine:
      return "engine";
    case Arm::kPerElement:
      return "per-element";
    case Arm::kColumnar:
      return "columnar";
    case Arm::kKeyedParallel:
      return "keyed-parallel";
  }
  return "?";
}

std::vector<Arm> AllArms() {
  return {Arm::kReference, Arm::kEngine, Arm::kPerElement, Arm::kColumnar,
          Arm::kKeyedParallel};
}

Result<IntervalTable> RunArm(Arm arm, const CorpusCase& c,
                             const Corpus& corpus) {
  switch (arm) {
    case Arm::kReference: {
      const cql::Catalog catalog = MakeCatalog(corpus);
      PIPES_ASSIGN_OR_RETURN(cql::CompiledQuery compiled,
                             cql::Compile(c.query, catalog));
      return ReferenceEval(compiled.plan, corpus);
    }
    case Arm::kEngine:
      return RunEngineArm(c, corpus);
    case Arm::kPerElement:
      return RunManagedArm(c, corpus, /*source_batch=*/1, /*drive_batch=*/1);
    case Arm::kColumnar:
      return RunManagedArm(c, corpus, /*source_batch=*/16,
                           /*drive_batch=*/64);
    case Arm::kKeyedParallel:
      return RunKeyedParallelArm(c, corpus);
  }
  return Status::Internal("unknown arm");
}

CaseResult RunCase(const CorpusCase& c, const Corpus& corpus,
                   const std::vector<Arm>& arms) {
  CaseResult result;
  result.name = c.name;
  result.file = c.file;
  for (const Arm arm : arms) {
    Result<IntervalTable> table = RunArm(arm, c, corpus);
    if (!table.ok()) {
      result.passed = false;
      result.failing_arm = ArmName(arm);
      result.message = table.status().ToString();
      result.expected_rendered = RenderTable(c.expected);
      return result;
    }
    const TableDiff diff = SnapshotDiff(c.expected, *table);
    if (!diff.equivalent) {
      result.passed = false;
      result.failing_arm = ArmName(arm);
      result.message = diff.message;
      result.expected_rendered = RenderTable(c.expected);
      result.actual_rendered = RenderTable(*table);
      return result;
    }
  }
  return result;
}

CorpusRunStats RunCorpora(const std::vector<Corpus>& corpora,
                          const std::vector<Arm>& arms, std::ostream* log) {
  CorpusRunStats stats;
  for (const Corpus& corpus : corpora) {
    for (const CorpusCase& c : corpus.cases) {
      CaseResult result = RunCase(c, corpus, arms);
      ++stats.cases_run;
      stats.arms_run += arms.size();
      if (log != nullptr) {
        *log << (result.passed ? "PASS" : "FAIL") << " " << corpus.file << "/"
             << c.name;
        if (!result.passed) *log << " [" << result.failing_arm << "]";
        *log << "\n";
      }
      if (!result.passed) {
        ++stats.cases_failed;
        stats.failures.push_back(std::move(result));
      }
    }
  }
  return stats;
}

}  // namespace pipes::testing::conformance
