#include "src/testing/conformance.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <ostream>
#include <set>
#include <sstream>
#include <system_error>
#include <utility>
#include <vector>

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

/// The whole of `token` as a `Number`; trailing characters, a leading '+'
/// and out-of-range values all fail.
template <typename Number>
bool ParseNumber(const std::string& token, Number* out) {
  const char* last = token.data() + token.size();
  const std::from_chars_result parsed =
      std::from_chars(token.data(), last, *out);
  return parsed.ec == std::errc() && parsed.ptr == last;
}

Result<Value> ParseValueToken(const std::string& token, ValueType type,
                              bool quoted_string, const std::string& where) {
  if (!quoted_string && token == "null") return Value::Null();
  const auto bad = [&]() {
    return Status::InvalidArgument(where + ": bad " +
                                   relational::ValueTypeName(type) + " '" +
                                   token + "'");
  };
  switch (type) {
    case ValueType::kInt: {
      std::int64_t v = 0;
      if (!ParseNumber(token, &v)) return bad();
      return Value(v);
    }
    case ValueType::kDouble: {
      double v = 0;
      if (!ParseNumber(token, &v)) return bad();
      return Value(v);
    }
    case ValueType::kBool:
      if (token == "true") return Value(true);
      if (token == "false") return Value(false);
      return bad();
    case ValueType::kString:
      return Value(token);
    case ValueType::kNull:
      break;
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
  Timestamp end = kMaxTimestamp;
  if (!ParseNumber(start_tok, &start) ||
      (end_tok != "inf" && !ParseNumber(end_tok, &end))) {
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

/// Mirrors SlideWindow::AlignUp: the smallest multiple of `slide` that is
/// >= t, saturating at kMaxTimestamp.
Timestamp AlignUp(Timestamp t, Timestamp slide) {
  if (t <= 0) return (t / slide) * slide;
  if (t > kMaxTimestamp - (slide - 1)) return kMaxTimestamp;
  return ((t + slide - 1) / slide) * slide;
}

/// ROWS-n expiry over one arrival-ordered sequence: element i expires when
/// its n-th successor arrives (at least one instant later); the last n live
/// forever.
std::vector<TupleElement> RowsWindow(const std::vector<TupleElement>& rows,
                                     std::size_t n) {
  std::vector<TupleElement> out;
  out.reserve(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    Timestamp end = kMaxTimestamp;
    if (i + n < rows.size()) {
      end = std::max(rows[i + n].start(), rows[i].start() + 1);
    }
    out.emplace_back(rows[i].payload, rows[i].start(), end);
  }
  return out;
}

/// Window application over the raw rows, element-for-element identical to
/// src/algebra/window.h (rows are in arrival order, as the ROWS windows
/// require).
std::vector<TupleElement> ApplyWindow(const std::vector<TupleElement>& rows,
                                      const optimizer::WindowSpec& window) {
  std::vector<TupleElement> out;
  switch (window.kind) {
    case WindowKind::kNow:
      return rows;  // no operator: declared intervals pass through
    case WindowKind::kRange:
      out.reserve(rows.size());
      for (const TupleElement& e : rows) {
        out.emplace_back(e.payload, e.start(),
                         SaturatingAdd(e.start(), window.range));
      }
      break;
    case WindowKind::kRangeSlide:
      for (const TupleElement& e : rows) {
        const Timestamp first = AlignUp(e.start(), window.slide);
        const Timestamp last =
            AlignUp(SaturatingAdd(e.start(), window.range), window.slide);
        if (first < last) out.emplace_back(e.payload, first, last);
      }
      break;
    case WindowKind::kRows:
      return RowsWindow(rows, window.rows);
    case WindowKind::kUnbounded:
      out.reserve(rows.size());
      for (const TupleElement& e : rows) {
        out.emplace_back(e.payload, e.start(), kMaxTimestamp);
      }
      break;
    case WindowKind::kPartitionedRows: {
      // ROWS-n within each partition, in arrival order.
      std::map<Tuple, std::vector<TupleElement>> partitions;
      for (const TupleElement& e : rows) {
        partitions[e.payload.Project(window.partition)].push_back(e);
      }
      for (const auto& [key, partition] : partitions) {
        const std::vector<TupleElement> w = RowsWindow(partition, window.rows);
        out.insert(out.end(), w.begin(), w.end());
      }
      break;
    }
  }
  return out;
}

/// Per payload, one row per elementary segment between the endpoints of
/// either side, repeated max(0, l - r) times (difference) or min(l, r)
/// times (intersect), where l and r count the left and right rows valid
/// on the segment.
std::vector<TupleElement> CoverageSweep(const std::vector<TupleElement>& left,
                                        const std::vector<TupleElement>& right,
                                        bool difference) {
  std::map<Tuple, std::map<Timestamp, std::pair<int, int>>> deltas;
  for (const TupleElement& e : left) {
    ++deltas[e.payload][e.start()].first;
    --deltas[e.payload][e.end()].first;
  }
  for (const TupleElement& e : right) {
    ++deltas[e.payload][e.start()].second;
    --deltas[e.payload][e.end()].second;
  }
  std::vector<TupleElement> out;
  for (const auto& [payload, boundaries] : deltas) {
    int l = 0;
    int r = 0;
    for (auto it = boundaries.begin(); it != boundaries.end(); ++it) {
      l += it->second.first;
      r += it->second.second;
      const auto next = std::next(it);
      if (next == boundaries.end()) break;
      const int copies = difference ? std::max(0, l - r) : std::min(l, r);
      for (int k = 0; k < copies; ++k) {
        out.emplace_back(payload, it->first, next->first);
      }
    }
  }
  return out;
}

/// Evaluates one plan node; shared subplans (the plan is a DAG) are
/// evaluated once through `memo`.
Result<const std::vector<TupleElement>*> EvalNode(
    const LogicalPlan& plan, const std::vector<CorpusStream>& streams,
    std::map<const LogicalOp*, std::vector<TupleElement>>* memo) {
  if (auto it = memo->find(plan.get()); it != memo->end()) {
    return &it->second;
  }
  std::vector<const std::vector<TupleElement>*> in;
  for (const LogicalPlan& child : plan->children) {
    PIPES_ASSIGN_OR_RETURN(const std::vector<TupleElement>* rows,
                           EvalNode(child, streams, memo));
    in.push_back(rows);
  }
  std::vector<TupleElement> out;
  switch (plan->kind) {
    case LogicalOp::Kind::kStreamScan: {
      const auto s = std::find_if(
          streams.begin(), streams.end(),
          [&](const CorpusStream& c) { return c.name == plan->stream_name; });
      if (s == streams.end()) {
        return Status::NotFound("no stream '" + plan->stream_name + "'");
      }
      out = ApplyWindow(s->rows, plan->window);
      break;
    }

    case LogicalOp::Kind::kFilter:
      for (const TupleElement& e : *in[0]) {
        if (plan->predicate->Eval(e.payload).Truthy()) out.push_back(e);
      }
      break;

    case LogicalOp::Kind::kProject:
      out.reserve(in[0]->size());
      for (const TupleElement& e : *in[0]) {
        std::vector<Value> values;
        values.reserve(plan->exprs.size());
        for (const auto& expr : plan->exprs) {
          values.push_back(expr->Eval(e.payload));
        }
        out.emplace_back(Tuple(std::move(values)), e.interval);
      }
      break;

    case LogicalOp::Kind::kJoin: {
      std::vector<std::size_t> lk;
      std::vector<std::size_t> rk;
      for (const auto& [l, r] : plan->equi_keys) {
        lk.push_back(l);
        rk.push_back(r);
      }
      // Right rows by key (one bucket when there are no equi keys).
      std::map<Tuple, std::vector<const TupleElement*>> by_key;
      for (const TupleElement& r : *in[1]) {
        by_key[r.payload.Project(rk)].push_back(&r);
      }
      for (const TupleElement& l : *in[0]) {
        const auto bucket = by_key.find(l.payload.Project(lk));
        if (bucket == by_key.end()) continue;
        for (const TupleElement* r : bucket->second) {
          if (!l.interval.Overlaps(r->interval)) continue;
          Tuple joined = l.payload.Concat(r->payload);
          if (plan->predicate != nullptr &&
              !plan->predicate->Eval(joined).Truthy()) {
            continue;
          }
          out.emplace_back(std::move(joined),
                           l.interval.Intersect(r->interval));
        }
      }
      break;
    }

    case LogicalOp::Kind::kGroupAggregate: {
      // Per group: segment time at that group's interval endpoints, fold
      // the covering rows (in arrival order) into TupleAggPolicy — the
      // same accumulation order and state the physical sweep line uses,
      // so float results are bit-identical.
      const optimizer::TupleAggPolicy policy(plan->aggs);
      std::map<Tuple, std::vector<const TupleElement*>> groups;
      for (const TupleElement& e : *in[0]) {
        groups[e.payload.Project(plan->group_fields)].push_back(&e);
      }
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
      break;
    }

    case LogicalOp::Kind::kDistinct: {
      // Per distinct payload: maximal coalesced validity intervals.
      std::map<Tuple, std::vector<TimeInterval>> by_payload;
      for (const TupleElement& e : *in[0]) {
        by_payload[e.payload].push_back(e.interval);
      }
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
      break;
    }

    case LogicalOp::Kind::kUnion:
      out = *in[0];
      out.insert(out.end(), in[1]->begin(), in[1]->end());
      break;

    case LogicalOp::Kind::kDifference:
    case LogicalOp::Kind::kIntersect:
      out = CoverageSweep(*in[0], *in[1],
                          plan->kind == LogicalOp::Kind::kDifference);
      break;

    case LogicalOp::Kind::kIStream:
      out.reserve(in[0]->size());
      for (const TupleElement& e : *in[0]) {
        out.push_back(TupleElement::Point(e.payload, e.start()));
      }
      break;

    case LogicalOp::Kind::kDStream:
      for (const TupleElement& e : *in[0]) {
        if (e.end() == kMaxTimestamp) continue;  // never expires
        out.push_back(TupleElement::Point(e.payload, e.end()));
      }
      break;
  }
  std::vector<TupleElement>& stored = (*memo)[plan.get()];
  stored = std::move(out);
  return &stored;
}

}  // namespace

Result<IntervalTable> ReferenceEval(const LogicalPlan& plan,
                                    const std::vector<CorpusStream>& streams) {
  std::map<const LogicalOp*, std::vector<TupleElement>> memo;
  PIPES_ASSIGN_OR_RETURN(const std::vector<TupleElement>* rows,
                         EvalNode(plan, streams, &memo));
  IntervalTable table;
  table.schema = plan->schema;
  table.rows = *rows;
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

/// Approximate multiset inclusion `part` <= `whole` via greedy matching
/// (robust when float jitter perturbs the sort order of near-equal
/// tuples); `equal` additionally requires equal sizes.
bool ApproxMultisetIncludes(const std::vector<Tuple>& whole,
                            const std::vector<Tuple>& part, bool equal) {
  if (part.size() > whole.size() || (equal && part.size() != whole.size())) {
    return false;
  }
  std::vector<bool> used(whole.size(), false);
  for (const Tuple& t : part) {
    bool matched = false;
    for (std::size_t i = 0; i < whole.size(); ++i) {
      if (!used[i] && ApproxTupleEq(t, whole[i])) {
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
                       const IntervalTable& actual, SnapRel rel) {
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
  // Exact pass: per payload, sweep the (actual - expected) multiplicity and
  // mark each segment where the relation fails. Every snapshot changes only
  // at an endpoint, so this checks every instant.
  std::map<Tuple, std::map<Timestamp, long>> deltas;
  for (const TupleElement& e : actual.rows) {
    ++deltas[e.payload][e.start()];
    --deltas[e.payload][e.end()];
  }
  for (const TupleElement& e : expected.rows) {
    --deltas[e.payload][e.start()];
    ++deltas[e.payload][e.end()];
  }
  std::map<Timestamp, long> failing;  // +1/-1 at failing segments' ends
  for (const auto& [payload, boundaries] : deltas) {
    long running = 0;
    for (auto it = boundaries.begin(); it != boundaries.end(); ++it) {
      running += it->second;
      const bool fails = rel == SnapRel::kEqual ? running != 0 : running > 0;
      if (fails && std::next(it) != boundaries.end()) {
        ++failing[it->first];
        --failing[std::next(it)->first];
      }
    }
  }
  if (failing.empty()) return diff;
  // Tolerant pass, only where the exact one failed: doubles compare with a
  // relative tolerance (corpus files hold rounded decimals), so the exact
  // pass may fail on jitter alone. Every endpoint inside a failing segment
  // is checked, since another payload's jitter can end there.
  for (const IntervalTable* table : {&expected, &actual}) {
    for (const TupleElement& e : table->rows) {
      failing.emplace(e.start(), 0);
      failing.emplace(e.end(), 0);
    }
  }
  long depth = 0;
  for (const auto& [t, d] : failing) {
    depth += d;
    if (depth == 0 || t == kMaxTimestamp) continue;
    const std::vector<Tuple> want = SnapshotAt(expected, t);
    const std::vector<Tuple> got = SnapshotAt(actual, t);
    if (ApproxMultisetIncludes(want, got, rel == SnapRel::kEqual)) continue;
    diff.equivalent = false;
    diff.message = "snapshots differ at t=" + std::to_string(t) +
                   (rel == SnapRel::kSubset ? " (subset required)" : "") +
                   "\n  expected: " + RenderSnapshot(want) +
                   "\n  actual:   " + RenderSnapshot(got);
    return diff;
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

/// The corpus streams as vector sources in `graph`, bound in `catalog`.
void BindCorpus(const Corpus& corpus, std::size_t source_batch,
                QueryGraph* graph, cql::Catalog* catalog) {
  for (const CorpusStream& s : corpus.streams) {
    auto& src = graph->Add<VectorSource<Tuple>>(
        s.rows, "corpus(" + s.name + ")", source_batch);
    catalog->RegisterStream(s.name, s.schema, &src, s.rate_hint);
  }
}

/// Shared scaffolding of the executor-driven arms: vector sources wired
/// through the catalog, a PlanManager-installed query, a collector sink.
Result<IntervalTable> RunManagedArm(const CorpusCase& c, const Corpus& corpus,
                                    std::size_t source_batch,
                                    std::size_t drive_batch) {
  QueryGraph graph;
  cql::Catalog catalog;
  BindCorpus(corpus, source_batch, &graph, &catalog);
  optimizer::PlanManager manager(&graph, &catalog);
  PIPES_ASSIGN_OR_RETURN(optimizer::PlanManager::InstalledQuery installed,
                         manager.InstallQuery(c.query));
  auto& sink = graph.Add<CollectorSink<Tuple>>("conformance-sink");
  installed.output->AddSubscriber(sink.input());
  scheduler::RoundRobinStrategy strategy;
  scheduler::PipeExecutor(graph, strategy, drive_batch).RunToCompletion();
  IntervalTable table;
  table.schema = installed.schema;
  table.rows = sink.elements();
  return table;
}

Result<IntervalTable> RunKeyedParallelArm(const CorpusCase& c,
                                          const Corpus& corpus) {
  QueryGraph graph;
  cql::Catalog catalog;
  BindCorpus(corpus, /*source_batch=*/4, &graph, &catalog);
  PIPES_ASSIGN_OR_RETURN(cql::CompiledQuery compiled,
                         cql::Compile(c.query, catalog));
  // Optimize first: equi-key extraction is what turns the analyzer's cross
  // joins into hash joins MakeParallelHashJoin can replicate.
  const optimizer::Optimizer optimizer(&catalog);
  const LogicalPlan plan = optimizer.Optimize(compiled.plan).plan;
  PIPES_ASSIGN_OR_RETURN(
      Source<Tuple>* output,
      optimizer::PhysicalBuilder(&graph, &catalog, {.replicas = 2})
          .Build(plan));
  auto& sink = graph.Add<CollectorSink<Tuple>>("conformance-sink");
  output->AddSubscriber(sink.input());
  scheduler::RoundRobinStrategy strategy;
  scheduler::PipeExecutor(graph, strategy, 8).RunToCompletion();
  IntervalTable table;
  table.schema = plan->schema;
  table.rows = sink.elements();
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
      return ReferenceEval(compiled.plan, corpus.streams);
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
