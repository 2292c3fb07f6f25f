#include "src/metadata/snapshot.h"

#include <algorithm>
#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <set>
#include <sstream>

namespace pipes::metadata {

namespace {

double Selectivity(std::uint64_t in, std::uint64_t out) {
  return in == 0 ? 0.0 : static_cast<double>(out) / static_cast<double>(in);
}

}  // namespace

double NodeSnapshot::PartitionSkew() const {
  if (partition_out.empty()) return 0.0;
  std::uint64_t total = 0;
  std::uint64_t max = 0;
  for (const std::uint64_t c : partition_out) {
    total += c;
    max = std::max(max, c);
  }
  if (total == 0) return 0.0;
  const double mean =
      static_cast<double>(total) / static_cast<double>(partition_out.size());
  return static_cast<double>(max) / mean;
}

const NodeSnapshot* MetricsSnapshot::FindNode(std::uint64_t id) const {
  for (const NodeSnapshot& n : nodes) {
    if (n.id == id) return &n;
  }
  return nullptr;
}

const NodeSnapshot* MetricsSnapshot::FindNode(const std::string& name) const {
  for (const NodeSnapshot& n : nodes) {
    if (n.name == name) return &n;
  }
  return nullptr;
}

MetricsSnapshot CaptureSnapshot(const QueryGraph& graph,
                                const CaptureOptions& options) {
  MetricsSnapshot snap;
  const std::vector<Node*> nodes = graph.nodes();
  snap.nodes.reserve(nodes.size());

  for (const Node* node : nodes) {
    NodeSnapshot ns;
    ns.id = node->id();
    ns.name = node->name();
    ns.active = node->is_active();
    ns.elements_in = node->elements_in();
    ns.elements_out = node->elements_out();
    ns.batches_in = node->batches_in();
    ns.batches_out = node->batches_out();
    ns.selectivity = Selectivity(ns.elements_in, ns.elements_out);
    ns.shed = node->ShedCount();
    ns.queue_size = node->queue_size();
    ns.memory_bytes = node->ApproxMemoryBytes();
    ns.subscribers = node->downstream().size();
    const Timestamp progress = node->progress();
    if (progress > kMinTimestamp) {
      ns.has_progress = true;
      ns.progress = progress;
      snap.high_watermark = std::max(snap.high_watermark, progress);
    }
    ns.service = node->service_histogram().Snapshot();
    ns.partition_out = node->PartitionCounts();
    ns.spilled_bytes = node->SpilledBytes();
    ns.spilled_partitions = node->SpilledPartitions();
    for (const std::string& gauge : node->metadata().GaugeNames()) {
      if (gauge.rfind("dataflow.", 0) != 0) continue;
      const std::optional<double> value = node->metadata().Gauge(gauge);
      if (value.has_value()) ns.gauges.emplace_back(gauge, *value);
    }
    if (options.profiler != nullptr) {
      const scheduler::NodeProfile profile = options.profiler->ForNode(*node);
      ns.sched_quanta = profile.quanta;
      ns.sched_units = profile.units;
      ns.sched_service_ns = profile.service_ns;
    }
    snap.nodes.push_back(std::move(ns));

    for (const Node* down : node->downstream()) {
      snap.edges.push_back(EdgeSnapshot{node->id(), down->id()});
    }
  }

  // Lag is relative to the most advanced node; kMaxTimestamp progress (a
  // drained port) pins the high watermark, which is intended: everything
  // still in flight trails end-of-stream.
  for (NodeSnapshot& ns : snap.nodes) {
    if (ns.has_progress) {
      ns.watermark_lag = snap.high_watermark - ns.progress;
    }
  }

  if (options.memory_manager != nullptr) {
    snap.memory.present = true;
    snap.memory.budget_bytes = options.memory_manager->budget();
    snap.memory.usage_bytes = options.memory_manager->TotalUsage();
    snap.memory.users = options.memory_manager->num_users();
    // Unlimited disk encodes as 0 (no budget) in the gauges.
    const std::size_t disk_budget = options.memory_manager->disk_budget();
    snap.memory.disk_budget_bytes =
        disk_budget == std::numeric_limits<std::size_t>::max() ? 0
                                                               : disk_budget;
    snap.memory.disk_usage_bytes = options.memory_manager->TotalDiskUsage();
    snap.memory.spill_users =
        options.memory_manager->num_spill_capable_users();
  }
  return snap;
}

// --- JSON emitter ----------------------------------------------------------

namespace {

void AppendEscaped(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void AppendU64(std::string& out, const char* key, std::uint64_t v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "\"%s\":%" PRIu64, key, v);
  out += buf;
}

void AppendI64(std::string& out, const char* key, std::int64_t v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "\"%s\":%" PRId64, key, v);
  out += buf;
}

void AppendDouble(std::string& out, const char* key, double v) {
  char buf[64];
  // %.17g round-trips every finite double exactly.
  std::snprintf(buf, sizeof(buf), "\"%s\":%.17g", key, v);
  out += buf;
}

void AppendBool(std::string& out, const char* key, bool v) {
  out += '"';
  out += key;
  out += v ? "\":true" : "\":false";
}

}  // namespace

static std::string FinishJson(std::string out,
                              const MetricsSnapshot& snapshot);

MetricsSnapshot FilterSnapshot(const MetricsSnapshot& snapshot,
                               const SnapshotOptions& options) {
  if (options.node_filter.empty()) return snapshot;
  const std::set<std::uint64_t> keep(options.node_filter.begin(),
                                     options.node_filter.end());
  MetricsSnapshot out;
  out.memory = snapshot.memory;
  out.high_watermark = kMinTimestamp;
  for (const NodeSnapshot& n : snapshot.nodes) {
    if (keep.count(n.id) == 0) continue;
    out.nodes.push_back(n);
    if (n.has_progress) {
      out.high_watermark = std::max(out.high_watermark, n.progress);
    }
  }
  for (const EdgeSnapshot& e : snapshot.edges) {
    if (keep.count(e.from) != 0 && keep.count(e.to) != 0) {
      out.edges.push_back(e);
    }
  }
  return out;
}

std::string ToJson(const MetricsSnapshot& snapshot,
                   const SnapshotOptions& options) {
  const MetricsSnapshot filtered = FilterSnapshot(snapshot, options);
  const MetricsSnapshot& snap =
      options.node_filter.empty() ? snapshot : filtered;
  std::string out;
  out.reserve(256 + snap.nodes.size() * 512);
  out += '{';
  if (!options.scope.empty()) {
    out += "\"scope\":";
    AppendEscaped(out, options.scope);
    out += ',';
  }
  AppendI64(out, "high_watermark", snap.high_watermark);
  out += ",\"nodes\":[";
  return FinishJson(std::move(out), snap);
}

/// The node/edge/memory tail of `ToJson`; `out`
/// arrives with the document open through `"nodes":[`.
static std::string FinishJson(std::string out,
                              const MetricsSnapshot& snapshot) {
  for (std::size_t i = 0; i < snapshot.nodes.size(); ++i) {
    const NodeSnapshot& n = snapshot.nodes[i];
    if (i > 0) out += ',';
    out += '{';
    AppendU64(out, "id", n.id);
    out += ",\"name\":";
    AppendEscaped(out, n.name);
    out += ',';
    AppendBool(out, "active", n.active);
    out += ',';
    AppendU64(out, "elements_in", n.elements_in);
    out += ',';
    AppendU64(out, "elements_out", n.elements_out);
    out += ',';
    AppendU64(out, "batches_in", n.batches_in);
    out += ',';
    AppendU64(out, "batches_out", n.batches_out);
    out += ',';
    AppendDouble(out, "selectivity", n.selectivity);
    out += ',';
    AppendU64(out, "shed", n.shed);
    out += ',';
    AppendU64(out, "queue_size", n.queue_size);
    out += ',';
    AppendU64(out, "memory_bytes", n.memory_bytes);
    out += ',';
    AppendU64(out, "subscribers", n.subscribers);
    out += ',';
    AppendBool(out, "has_progress", n.has_progress);
    out += ',';
    AppendI64(out, "progress", n.progress);
    out += ',';
    AppendI64(out, "watermark_lag", n.watermark_lag);
    out += ",\"service\":{";
    AppendU64(out, "count", n.service.count);
    out += ',';
    AppendU64(out, "sum_ns", n.service.sum_ns);
    out += ",\"buckets\":[";
    for (std::size_t b = 0; b < n.service.buckets.size(); ++b) {
      if (b > 0) out += ',';
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%" PRIu64, n.service.buckets[b]);
      out += buf;
    }
    out += "]},";
    AppendU64(out, "sched_quanta", n.sched_quanta);
    out += ',';
    AppendU64(out, "sched_units", n.sched_units);
    out += ',';
    AppendU64(out, "sched_service_ns", n.sched_service_ns);
    // Only splitter nodes carry partition counts; everyone else's document
    // is unchanged by the field's existence.
    if (!n.partition_out.empty()) {
      out += ",\"partition_out\":[";
      for (std::size_t p = 0; p < n.partition_out.size(); ++p) {
        if (p > 0) out += ',';
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%" PRIu64, n.partition_out[p]);
        out += buf;
      }
      out += ']';
    }
    // Spill metrics only appear once a node actually pages to disk, so
    // pre-spill documents stay byte-identical.
    if (n.spilled_bytes > 0 || n.spilled_partitions > 0) {
      out += ',';
      AppendU64(out, "spilled_bytes", n.spilled_bytes);
      out += ',';
      AppendU64(out, "spilled_partitions", n.spilled_partitions);
    }
    // Dataflow gauges only appear on decorated nodes (certificate stamps,
    // per-instance transfer-function overrides).
    if (!n.gauges.empty()) {
      out += ",\"gauges\":{";
      for (std::size_t g = 0; g < n.gauges.size(); ++g) {
        if (g > 0) out += ',';
        AppendEscaped(out, n.gauges[g].first);
        char buf[64];
        std::snprintf(buf, sizeof(buf), ":%.17g", n.gauges[g].second);
        out += buf;
      }
      out += '}';
    }
    out += '}';
  }
  out += "],\"edges\":[";
  for (std::size_t i = 0; i < snapshot.edges.size(); ++i) {
    if (i > 0) out += ',';
    out += '{';
    AppendU64(out, "from", snapshot.edges[i].from);
    out += ',';
    AppendU64(out, "to", snapshot.edges[i].to);
    out += '}';
  }
  out += ']';
  if (snapshot.memory.present) {
    out += ",\"memory\":{";
    AppendU64(out, "budget_bytes", snapshot.memory.budget_bytes);
    out += ',';
    AppendU64(out, "usage_bytes", snapshot.memory.usage_bytes);
    out += ',';
    AppendU64(out, "users", snapshot.memory.users);
    if (snapshot.memory.disk_budget_bytes > 0 ||
        snapshot.memory.disk_usage_bytes > 0 ||
        snapshot.memory.spill_users > 0) {
      out += ',';
      AppendU64(out, "disk_budget_bytes", snapshot.memory.disk_budget_bytes);
      out += ',';
      AppendU64(out, "disk_usage_bytes", snapshot.memory.disk_usage_bytes);
      out += ',';
      AppendU64(out, "spill_users", snapshot.memory.spill_users);
    }
    out += '}';
  }
  out += '}';
  return out;
}

// --- JSON parser (the subset ToJson emits) ---------------------------------

namespace {

/// Recursive-descent parser over the JSON subset the exporter produces:
/// objects, arrays, strings with the escapes AppendEscaped writes, numbers
/// (int64/uint64/double), true/false. Kept here (not a public utility) so
/// the exporter and parser evolve together.
class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  Result<MetricsSnapshot> Parse() {
    MetricsSnapshot snap;
    PIPES_RETURN_IF_ERROR(Expect('{'));
    bool first = true;
    while (true) {
      SkipWs();
      if (Peek() == '}') {
        ++pos_;
        break;
      }
      if (!first) PIPES_RETURN_IF_ERROR(Expect(','));
      first = false;
      std::string key;
      PIPES_RETURN_IF_ERROR(ParseString(&key));
      PIPES_RETURN_IF_ERROR(Expect(':'));
      if (key == "high_watermark") {
        PIPES_RETURN_IF_ERROR(ParseI64(&snap.high_watermark));
      } else if (key == "nodes") {
        PIPES_RETURN_IF_ERROR(
            ParseArray([&](JsonParser& p) -> Status {
              NodeSnapshot node;
              PIPES_RETURN_IF_ERROR(p.ParseNode(&node));
              snap.nodes.push_back(std::move(node));
              return Status::OK();
            }));
      } else if (key == "edges") {
        PIPES_RETURN_IF_ERROR(
            ParseArray([&](JsonParser& p) -> Status {
              EdgeSnapshot edge;
              PIPES_RETURN_IF_ERROR(p.ParseEdge(&edge));
              snap.edges.push_back(edge);
              return Status::OK();
            }));
      } else if (key == "memory") {
        snap.memory.present = true;
        PIPES_RETURN_IF_ERROR(ParseMemory(&snap.memory));
      } else if (key == "scope") {
        // Provenance label written by SnapshotOptions::scope; carries no
        // snapshot state, so round-trip parses accept and drop it.
        std::string scope;
        PIPES_RETURN_IF_ERROR(ParseString(&scope));
      } else {
        return Unexpected("unknown key '" + key + "'");
      }
    }
    SkipWs();
    if (pos_ != text_.size()) return Unexpected("trailing characters");
    return snap;
  }

 private:
  char Peek() { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  void SkipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  Status Unexpected(const std::string& what) {
    return Status::InvalidArgument("JSON parse error at offset " +
                                   std::to_string(pos_) + ": " + what);
  }

  Status Expect(char c) {
    SkipWs();
    if (Peek() != c) {
      return Unexpected(std::string("expected '") + c + "'");
    }
    ++pos_;
    return Status::OK();
  }

  Status ParseString(std::string* out) {
    SkipWs();
    if (Peek() != '"') return Unexpected("expected string");
    ++pos_;
    out->clear();
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) return Unexpected("bad escape");
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return Unexpected("bad \\u escape");
            c = static_cast<char>(
                std::strtoul(text_.substr(pos_, 4).c_str(), nullptr, 16));
            pos_ += 4;
            break;
          }
          default:
            return Unexpected("unsupported escape");
        }
      }
      out->push_back(c);
    }
    if (Peek() != '"') return Unexpected("unterminated string");
    ++pos_;
    return Status::OK();
  }

  /// Scans one number token; `*is_floating` reports whether it contained a
  /// fraction or exponent.
  Status ScanNumber(std::string* token, bool* is_floating) {
    SkipWs();
    token->clear();
    *is_floating = false;
    if (Peek() == '-') token->push_back(text_[pos_++]);
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c))) {
        token->push_back(c);
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        *is_floating = true;
        token->push_back(c);
        ++pos_;
      } else {
        break;
      }
    }
    if (token->empty()) return Unexpected("expected number");
    return Status::OK();
  }

  Status ParseU64(std::uint64_t* out) {
    std::string token;
    bool floating = false;
    PIPES_RETURN_IF_ERROR(ScanNumber(&token, &floating));
    if (floating) return Unexpected("expected integer");
    *out = std::strtoull(token.c_str(), nullptr, 10);
    return Status::OK();
  }

  Status ParseI64(std::int64_t* out) {
    std::string token;
    bool floating = false;
    PIPES_RETURN_IF_ERROR(ScanNumber(&token, &floating));
    if (floating) return Unexpected("expected integer");
    *out = std::strtoll(token.c_str(), nullptr, 10);
    return Status::OK();
  }

  Status ParseDouble(double* out) {
    std::string token;
    bool floating = false;
    PIPES_RETURN_IF_ERROR(ScanNumber(&token, &floating));
    *out = std::strtod(token.c_str(), nullptr);
    return Status::OK();
  }

  Status ParseBool(bool* out) {
    SkipWs();
    if (text_.compare(pos_, 4, "true") == 0) {
      *out = true;
      pos_ += 4;
      return Status::OK();
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      *out = false;
      pos_ += 5;
      return Status::OK();
    }
    return Unexpected("expected bool");
  }

  template <typename ElementFn>
  Status ParseArray(ElementFn&& element) {
    PIPES_RETURN_IF_ERROR(Expect('['));
    SkipWs();
    if (Peek() == ']') {
      ++pos_;
      return Status::OK();
    }
    while (true) {
      PIPES_RETURN_IF_ERROR(element(*this));
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      return Expect(']');
    }
  }

  /// Iterates "key": value pairs of one object, dispatching through `field`.
  template <typename FieldFn>
  Status ParseObject(FieldFn&& field) {
    PIPES_RETURN_IF_ERROR(Expect('{'));
    bool first = true;
    while (true) {
      SkipWs();
      if (Peek() == '}') {
        ++pos_;
        return Status::OK();
      }
      if (!first) PIPES_RETURN_IF_ERROR(Expect(','));
      first = false;
      std::string key;
      PIPES_RETURN_IF_ERROR(ParseString(&key));
      PIPES_RETURN_IF_ERROR(Expect(':'));
      PIPES_RETURN_IF_ERROR(field(key));
    }
  }

  Status ParseHistogram(obs::HistogramSnapshot* out) {
    return ParseObject([&](const std::string& key) -> Status {
      if (key == "count") return ParseU64(&out->count);
      if (key == "sum_ns") return ParseU64(&out->sum_ns);
      if (key == "buckets") {
        std::size_t i = 0;
        return ParseArray([&](JsonParser& p) -> Status {
          if (i >= out->buckets.size()) {
            return p.Unexpected("too many histogram buckets");
          }
          return p.ParseU64(&out->buckets[i++]);
        });
      }
      return Unexpected("unknown histogram key '" + key + "'");
    });
  }

  Status ParseNode(NodeSnapshot* out) {
    return ParseObject([&](const std::string& key) -> Status {
      if (key == "id") return ParseU64(&out->id);
      if (key == "name") return ParseString(&out->name);
      if (key == "active") return ParseBool(&out->active);
      if (key == "elements_in") return ParseU64(&out->elements_in);
      if (key == "elements_out") return ParseU64(&out->elements_out);
      if (key == "batches_in") return ParseU64(&out->batches_in);
      if (key == "batches_out") return ParseU64(&out->batches_out);
      if (key == "selectivity") return ParseDouble(&out->selectivity);
      if (key == "shed") return ParseU64(&out->shed);
      if (key == "queue_size") return ParseU64(&out->queue_size);
      if (key == "memory_bytes") return ParseU64(&out->memory_bytes);
      if (key == "subscribers") return ParseU64(&out->subscribers);
      if (key == "has_progress") return ParseBool(&out->has_progress);
      if (key == "progress") return ParseI64(&out->progress);
      if (key == "watermark_lag") return ParseI64(&out->watermark_lag);
      if (key == "service") return ParseHistogram(&out->service);
      if (key == "sched_quanta") return ParseU64(&out->sched_quanta);
      if (key == "sched_units") return ParseU64(&out->sched_units);
      if (key == "sched_service_ns") return ParseU64(&out->sched_service_ns);
      if (key == "partition_out") {
        return ParseArray([&](JsonParser& p) -> Status {
          std::uint64_t count = 0;
          PIPES_RETURN_IF_ERROR(p.ParseU64(&count));
          out->partition_out.push_back(count);
          return Status::OK();
        });
      }
      if (key == "spilled_bytes") return ParseU64(&out->spilled_bytes);
      if (key == "spilled_partitions") {
        return ParseU64(&out->spilled_partitions);
      }
      if (key == "gauges") {
        return ParseObject([&](const std::string& gauge) -> Status {
          double value = 0.0;
          PIPES_RETURN_IF_ERROR(ParseDouble(&value));
          out->gauges.emplace_back(gauge, value);
          return Status::OK();
        });
      }
      return Unexpected("unknown node key '" + key + "'");
    });
  }

  Status ParseEdge(EdgeSnapshot* out) {
    return ParseObject([&](const std::string& key) -> Status {
      if (key == "from") return ParseU64(&out->from);
      if (key == "to") return ParseU64(&out->to);
      return Unexpected("unknown edge key '" + key + "'");
    });
  }

  Status ParseMemory(MemoryGauges* out) {
    return ParseObject([&](const std::string& key) -> Status {
      if (key == "budget_bytes") return ParseU64(&out->budget_bytes);
      if (key == "usage_bytes") return ParseU64(&out->usage_bytes);
      if (key == "users") return ParseU64(&out->users);
      if (key == "disk_budget_bytes") {
        return ParseU64(&out->disk_budget_bytes);
      }
      if (key == "disk_usage_bytes") return ParseU64(&out->disk_usage_bytes);
      if (key == "spill_users") return ParseU64(&out->spill_users);
      return Unexpected("unknown memory key '" + key + "'");
    });
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

Result<MetricsSnapshot> SnapshotFromJson(const std::string& json) {
  return JsonParser(json).Parse();
}

// --- DOT overlay -----------------------------------------------------------

namespace {

std::string EscapeDotLabel(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::string HumanCount(std::uint64_t n) {
  char buf[32];
  if (n >= 10'000'000) {
    std::snprintf(buf, sizeof(buf), "%.1fM", static_cast<double>(n) / 1e6);
  } else if (n >= 10'000) {
    std::snprintf(buf, sizeof(buf), "%.1fk", static_cast<double>(n) / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%" PRIu64, n);
  }
  return buf;
}

}  // namespace

std::string ToDot(const MetricsSnapshot& snapshot,
                  const SnapshotOptions& options) {
  const MetricsSnapshot filtered = FilterSnapshot(snapshot, options);
  const MetricsSnapshot& snap =
      options.node_filter.empty() ? snapshot : filtered;
  std::ostringstream out;
  out << "digraph pipes_metrics {\n  rankdir=BT;\n"
      << "  node [shape=box, fontsize=10];\n  edge [fontsize=9];\n";
  if (!options.scope.empty()) {
    out << "  label=\"" << EscapeDotLabel(options.scope) << "\";\n";
  }
  for (const NodeSnapshot& n : snap.nodes) {
    out << "  n" << n.id << " [label=\"" << EscapeDotLabel(n.name);
    out << "\\nin " << HumanCount(n.elements_in) << " / out "
        << HumanCount(n.elements_out);
    if (n.queue_size > 0) out << "\\nqueue " << n.queue_size;
    if (n.memory_bytes > 0) {
      out << "\\nstate " << HumanCount(n.memory_bytes) << "B";
    }
    if (n.spilled_bytes > 0) {
      out << "\\nspill " << HumanCount(n.spilled_bytes) << "B ("
          << n.spilled_partitions << " runs)";
    }
    if (n.has_progress && n.watermark_lag > 0) {
      out << "\\nlag " << n.watermark_lag;
    }
    if (!n.partition_out.empty()) {
      char buf[48];
      std::snprintf(buf, sizeof(buf), "\\nskew %.2f (%zu parts)",
                    n.PartitionSkew(), n.partition_out.size());
      out << buf;
    }
    out << '"';
    if (n.active) out << ", peripheries=2";
    out << "];\n";
  }
  for (const EdgeSnapshot& e : snap.edges) {
    const NodeSnapshot* from = snap.FindNode(e.from);
    out << "  n" << e.from << " -> n" << e.to;
    if (from != nullptr) {
      out << " [label=\"";
      const NodeSnapshot* prev_from =
          options.previous != nullptr ? options.previous->FindNode(e.from)
                                      : nullptr;
      if (prev_from != nullptr && options.elapsed_seconds > 0) {
        const double rate =
            static_cast<double>(from->elements_out -
                                prev_from->elements_out) /
            options.elapsed_seconds;
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.0f el/s", rate);
        out << buf;
      } else {
        out << HumanCount(from->elements_out) << " el";
      }
      char buf[32];
      std::snprintf(buf, sizeof(buf), "\\nsel %.2f", from->selectivity);
      out << buf << "\"]";
    }
    out << ";\n";
  }
  out << "}\n";
  return out.str();
}

}  // namespace pipes::metadata
