#include "src/analysis/dataflow.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <deque>
#include <optional>
#include <sstream>
#include <string>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/core/descriptor.h"
#include "src/core/node.h"
#include "src/cql/catalog.h"
#include "src/optimizer/cost.h"
#include "src/relational/tuple.h"

namespace pipes::analysis {
namespace {

using Dataflow = NodeDescriptor::Dataflow;
using Kind = NodeDescriptor::Kind;

constexpr std::uint64_t kUnknownCount = Dataflow::kUnknownCount;
constexpr std::int64_t kUnknownTime = Dataflow::kUnknownTime;
constexpr std::uint64_t kUnknownBytes = NodeStateBound::kUnknownBytes;

/// Per-instance overrides of the declared transfer functions: metadata
/// gauges named "dataflow.<field>", stamped by plan lowering, the fuzz
/// materializer, and the engine. Gauge value -1 encodes unknown/unbounded.
constexpr const char kGaugeTotalElements[] = "dataflow.total_elements";
constexpr const char kGaugeRatePerUnit[] = "dataflow.rate_per_unit";
constexpr const char kGaugeBytesPerElement[] = "dataflow.bytes_per_element";
constexpr const char kGaugeFeedDisorder[] = "dataflow.feed_disorder";
constexpr const char kGaugeCapacityPerUnit[] = "dataflow.capacity_per_unit";
constexpr const char kGaugeRamBudget[] = "dataflow.ram_budget_bytes";
constexpr const char kGaugeDiskBudget[] = "dataflow.disk_budget_bytes";

// --- Saturating lattice arithmetic --------------------------------------------
// kUnknownCount / kUnknownTime / kUnknownBytes are absorbing top elements;
// overflow saturates into them (an astronomically large bound carries the
// same decision weight as "unbounded").

std::uint64_t AddCount(std::uint64_t a, std::uint64_t b) {
  if (a == kUnknownCount || b == kUnknownCount) return kUnknownCount;
  return (a > kUnknownCount - 1 - b) ? kUnknownCount : a + b;
}

std::uint64_t ScaleCount(std::uint64_t a, double factor) {
  if (a == kUnknownCount) return kUnknownCount;
  const double p = static_cast<double>(a) * factor;
  if (!(p < 1.0e19)) return kUnknownCount;
  return static_cast<std::uint64_t>(std::ceil(p));
}

std::uint64_t MulCount(std::uint64_t a, std::uint64_t b) {
  if (a == kUnknownCount || b == kUnknownCount) return kUnknownCount;
  const double p = static_cast<double>(a) * static_cast<double>(b);
  if (!(p < 1.0e19)) return kUnknownCount;
  return a * b;
}

std::int64_t AddTime(std::int64_t a, std::int64_t b) {
  if (a == kUnknownTime || b == kUnknownTime) return kUnknownTime;
  if (a > kUnknownTime - 1 - b) return kUnknownTime;
  return a + b;
}

std::uint64_t AddBytes(std::uint64_t a, std::uint64_t b) {
  if (a == kUnknownBytes || b == kUnknownBytes) return kUnknownBytes;
  return (a > kUnknownBytes - 1 - b) ? kUnknownBytes : a + b;
}

/// Elements retained per the rate contract: rate * (extent + lag + 1) time
/// units of live validity, unknown if any factor is.
std::uint64_t RetainedByRate(double rate, std::int64_t extent,
                             std::int64_t lag) {
  if (std::isinf(rate) || extent == kUnknownTime || lag == kUnknownTime) {
    return kUnknownCount;
  }
  const double window = static_cast<double>(extent) +
                        static_cast<double>(lag) + 1.0;
  const double p = rate * window;
  if (!(p < 1.0e19)) return kUnknownCount;
  return static_cast<std::uint64_t>(std::ceil(p));
}

// --- The working model --------------------------------------------------------
// Mirrors the analyzer's: descriptors plus deduplicated in-graph adjacency
// and a Kahn topological order.

struct NodeInfo {
  const Node* node = nullptr;
  NodeDescriptor desc;
  Dataflow eff;  ///< Declared transfer functions with gauge overrides folded in.
  std::vector<std::size_t> ups;
  std::vector<std::size_t> downs;
};

struct Model {
  std::vector<NodeInfo> info;
  bool has_cycle = false;
  std::vector<std::size_t> topo;
};

std::optional<double> ReadGauge(const Node* node, const char* name) {
  return node->metadata().Gauge(name);
}

Dataflow EffectiveDataflow(const Node* node, const NodeDescriptor& desc) {
  Dataflow d = desc.dataflow;
  if (auto v = ReadGauge(node, kGaugeTotalElements)) {
    d.total_elements =
        (*v < 0) ? kUnknownCount : static_cast<std::uint64_t>(*v);
  }
  if (auto v = ReadGauge(node, kGaugeRatePerUnit)) {
    d.rate_per_unit = (*v < 0) ? 0.0 : *v;  // 0 = undeclared = unbounded
  }
  if (auto v = ReadGauge(node, kGaugeFeedDisorder)) {
    d.feed_disorder = (*v < 0) ? kUnknownTime : static_cast<std::int64_t>(*v);
  }
  if (auto v = ReadGauge(node, kGaugeBytesPerElement)) {
    d.state_bytes_per_element =
        (*v < 0) ? 0 : static_cast<std::size_t>(*v);  // 0 = unknown
  }
  return d;
}

Model BuildModel(const QueryGraph& graph) {
  Model m;
  const std::vector<Node*> nodes = graph.nodes();
  std::unordered_map<const Node*, std::size_t> index;
  m.info.reserve(nodes.size());
  for (Node* node : nodes) {
    index.emplace(node, m.info.size());
    NodeInfo info;
    info.node = node;
    info.desc = node->Describe();
    info.eff = EffectiveDataflow(node, info.desc);
    m.info.push_back(std::move(info));
  }
  for (std::size_t i = 0; i < m.info.size(); ++i) {
    NodeInfo& info = m.info[i];
    std::unordered_set<const Node*> seen;
    for (const Node* up : info.node->upstream()) {
      if (!seen.insert(up).second) continue;
      auto it = index.find(up);
      if (it != index.end()) info.ups.push_back(it->second);
    }
    seen.clear();
    for (const Node* down : info.node->downstream()) {
      if (!seen.insert(down).second) continue;
      auto it = index.find(down);
      if (it != index.end()) info.downs.push_back(it->second);
    }
  }
  std::vector<std::size_t> indegree(m.info.size(), 0);
  for (const NodeInfo& info : m.info) {
    for (std::size_t down : info.downs) ++indegree[down];
  }
  std::deque<std::size_t> ready;
  for (std::size_t i = 0; i < m.info.size(); ++i) {
    if (indegree[i] == 0) ready.push_back(i);
  }
  while (!ready.empty()) {
    const std::size_t i = ready.front();
    ready.pop_front();
    m.topo.push_back(i);
    for (std::size_t down : m.info[i].downs) {
      if (--indegree[down] == 0) ready.push_back(down);
    }
  }
  m.has_cycle = m.topo.size() != m.info.size();
  return m;
}

// --- Transfer functions -------------------------------------------------------

EdgeFacts::Order WorstOrder(EdgeFacts::Order a, EdgeFacts::Order b) {
  if (a == EdgeFacts::Order::kBoundedDisorder ||
      b == EdgeFacts::Order::kBoundedDisorder) {
    return EdgeFacts::Order::kBoundedDisorder;
  }
  if (a == EdgeFacts::Order::kResegmented ||
      b == EdgeFacts::Order::kResegmented) {
    return EdgeFacts::Order::kResegmented;
  }
  return EdgeFacts::Order::kOrdered;
}

/// Facts a source's output edge carries, seeded from its declared feed
/// contract.
EdgeFacts SourceFacts(const NodeDescriptor& desc, const Dataflow& eff) {
  EdgeFacts f;
  f.max_elements = eff.total_elements;
  f.rate_max = eff.rate_per_unit > 0.0
                   ? eff.rate_per_unit
                   : std::numeric_limits<double>::infinity();
  f.watermark_advances = desc.emits_heartbeats;
  f.watermark_lag = std::max<std::int64_t>(eff.watermark_lag, 0);
  f.validity_extent = eff.validity_extent;
  if (desc.unbounded_validity) f.validity_extent = kUnknownTime;
  // A reordering stage (slack >= 0) enforces order by dropping late
  // arrivals; a plain source declaring raw-feed disorder passes it on.
  if (eff.reorder_slack < 0 && eff.feed_disorder > 0) {
    f.order = EdgeFacts::Order::kBoundedDisorder;
    f.disorder = eff.feed_disorder;
  }
  return f;
}

/// Join of the facts entering a node over all its deduplicated upstreams.
EdgeFacts MergeInputs(const std::vector<EdgeFacts>& ins, bool intersects) {
  EdgeFacts f;
  if (ins.empty()) return f;
  f = ins.front();
  for (std::size_t i = 1; i < ins.size(); ++i) {
    const EdgeFacts& in = ins[i];
    f.order = WorstOrder(f.order, in.order);
    f.disorder = std::max(f.disorder, in.disorder);
    f.watermark_advances = f.watermark_advances && in.watermark_advances;
    f.watermark_lag = std::max(f.watermark_lag, in.watermark_lag);
    f.max_elements = AddCount(f.max_elements, in.max_elements);
    f.rate_max = f.rate_max + in.rate_max;
    if (intersects) {
      f.validity_extent = std::min(f.validity_extent, in.validity_extent);
    } else if (f.validity_extent == kUnknownTime ||
               in.validity_extent == kUnknownTime) {
      f.validity_extent = kUnknownTime;
    } else {
      f.validity_extent = std::max(f.validity_extent, in.validity_extent);
    }
  }
  return f;
}

/// Forward transfer through one non-source node: merged input facts in,
/// output-edge facts out.
EdgeFacts OperatorFacts(const NodeDescriptor& desc, const Dataflow& eff,
                        const std::vector<EdgeFacts>& ins,
                        const EdgeFacts& merged) {
  EdgeFacts out = merged;

  // Cardinality and rate.
  if (eff.output_per_pair && ins.size() >= 2) {
    // |out| <= prod |in_i|; rate <= sum_i rate_i * prod_{j != i} pop_j
    // where pop_j = rate_j * (extent_j + lag_j + 1) bounds the live
    // population of input j any arrival can pair with.
    std::uint64_t count = 1;
    for (const EdgeFacts& in : ins) count = MulCount(count, in.max_elements);
    out.max_elements = count;
    std::vector<double> pop(ins.size());
    for (std::size_t i = 0; i < ins.size(); ++i) {
      const std::uint64_t p = RetainedByRate(
          ins[i].rate_max, ins[i].validity_extent, ins[i].watermark_lag);
      pop[i] = (p == kUnknownCount)
                   ? std::numeric_limits<double>::infinity()
                   : static_cast<double>(p);
    }
    double rate = 0.0;
    for (std::size_t i = 0; i < ins.size(); ++i) {
      double term = ins[i].rate_max;
      for (std::size_t j = 0; j < ins.size(); ++j) {
        if (j != i) term *= pop[j];
      }
      rate += term;
    }
    out.rate_max = rate;
  }
  out.max_elements = AddCount(ScaleCount(out.max_elements, eff.output_factor),
                              eff.output_fixed);
  out.rate_max = out.rate_max * eff.output_factor;

  // Validity extent.
  const bool restamps = desc.bounds_validity;
  if (eff.validity_extent != kUnknownTime) {
    out.validity_extent = eff.validity_extent;
  } else if (eff.extends_validity || desc.unbounded_validity) {
    out.validity_extent = kUnknownTime;
  } else if (eff.intersects_validity) {
    out.validity_extent = merged.validity_extent;  // merged with min above
  } else if (restamps) {
    out.validity_extent = kUnknownTime;  // re-stamped, no declared bound
  }

  // Ordering: blocking operators and re-stampers emit through ordered
  // staging (OrderedOutputBuffer / per-window flush) — output starts are
  // non-decreasing again, segment-stamped where validity was rewritten.
  if (desc.blocking || restamps) {
    out.order = restamps ? EdgeFacts::Order::kResegmented
                         : (merged.order == EdgeFacts::Order::kResegmented
                                ? EdgeFacts::Order::kResegmented
                                : EdgeFacts::Order::kOrdered);
    out.disorder = 0;
  }

  // Watermark lag: a blocking operator (or a re-stamper with no static
  // extent bound) can hold results back for up to the input's live extent
  // past the input watermark before its own output watermark follows.
  const bool unknown_restamp = restamps && eff.validity_extent == kUnknownTime;
  if (desc.blocking || unknown_restamp) {
    out.watermark_lag =
        AddTime(merged.watermark_lag, AddTime(merged.validity_extent, 1));
  }
  return out;
}

/// Peak-state bound from the facts entering the node.
NodeStateBound StateBound(const NodeDescriptor& desc, const Dataflow& eff,
                          const EdgeFacts& merged, bool any_input) {
  NodeStateBound b;
  b.transient = eff.transient_state;
  b.blocking = desc.blocking;
  if (b.transient) return b;

  const std::uint64_t fixed = eff.state_bytes_fixed;
  const std::uint64_t per = eff.state_bytes_per_element;
  if (per == 0) {
    // No per-element transfer function: sound only if the node declared a
    // constant bound or holds no watermark-purged state at all.
    if (desc.blocking && fixed == 0) {
      b.ram_bytes = kUnknownBytes;
    } else {
      b.ram_bytes = fixed;
    }
  } else if (!any_input) {
    b.ram_bytes = fixed;
  } else {
    // Retention: every retained element arrived, so cumulative input count
    // bounds it; the rate contract bounds the simultaneously-live window.
    const std::uint64_t by_count = merged.max_elements;
    const std::uint64_t by_rate = RetainedByRate(
        merged.rate_max, merged.validity_extent, merged.watermark_lag);
    const std::uint64_t retained = std::min(by_count, by_rate);
    if (retained == kUnknownCount) {
      b.ram_bytes = kUnknownBytes;
    } else {
      const double p = static_cast<double>(retained) *
                       static_cast<double>(per);
      b.ram_bytes = (p < 1.0e19)
                        ? AddBytes(fixed, retained * per)
                        : kUnknownBytes;
    }
  }
  // A spill-capable node may hold any retained element in either tier, so
  // the same bound appears in both columns.
  b.disk_bytes = desc.spill_capable ? b.ram_bytes : 0;
  return b;
}

struct Analysis {
  Model model;
  std::vector<EdgeFacts> out;     ///< per node index
  std::vector<EdgeFacts> merged;  ///< merged input facts per node index
  DataflowResult result;
};

Analysis Run(const QueryGraph& graph) {
  Analysis a;
  a.model = BuildModel(graph);
  Model& m = a.model;
  a.out.resize(m.info.size());
  a.merged.resize(m.info.size());
  a.result.has_cycle = m.has_cycle;

  // Worst-case defaults for nodes a cycle keeps out of the topo order.
  for (EdgeFacts& f : a.out) {
    f.max_elements = kUnknownCount;
    f.rate_max = std::numeric_limits<double>::infinity();
    f.validity_extent = kUnknownTime;
    f.watermark_lag = kUnknownTime;
    f.watermark_advances = false;
  }
  a.merged = a.out;

  for (std::size_t i : m.topo) {
    const NodeInfo& info = m.info[i];
    if (info.ups.empty()) {
      a.out[i] = SourceFacts(info.desc, info.eff);
      a.merged[i] = a.out[i];
      continue;
    }
    std::vector<EdgeFacts> ins;
    ins.reserve(info.ups.size());
    for (std::size_t up : info.ups) ins.push_back(a.out[up]);
    a.merged[i] = MergeInputs(ins, info.eff.intersects_validity);
    a.out[i] = (info.desc.kind == Kind::kSink)
                   ? a.merged[i]
                   : OperatorFacts(info.desc, info.eff, ins, a.merged[i]);
  }

  StateCertificate& cert = a.result.certificate;
  a.result.nodes.reserve(m.info.size());
  const std::vector<std::size_t>* order = &m.topo;
  std::vector<std::size_t> all;
  if (m.has_cycle) {
    all.resize(m.info.size());
    for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
    order = &all;
    cert.progress_ok = false;
  }
  for (std::size_t i : *order) {
    const NodeInfo& info = m.info[i];
    NodeFacts nf;
    nf.node = info.node;
    nf.node_id = info.node->id();
    nf.name = info.node->name();
    nf.op = info.desc.op;
    nf.kind = info.desc.kind;
    nf.out = a.out[i];
    nf.state = StateBound(info.desc, info.eff, a.merged[i], !info.ups.empty());
    if (m.has_cycle && info.desc.blocking) {
      nf.state.ram_bytes = kUnknownBytes;
      if (info.desc.spill_capable) nf.state.disk_bytes = kUnknownBytes;
    }
    if (!nf.state.transient) {
      cert.ram_bytes = AddBytes(cert.ram_bytes, nf.state.ram_bytes);
      cert.disk_bytes = AddBytes(cert.disk_bytes, nf.state.disk_bytes);
    }
    if (!nf.out.watermark_advances) cert.progress_ok = false;
    cert.disorder_bound = std::max(
        cert.disorder_bound, std::max(nf.out.watermark_lag, nf.out.disorder));
    a.result.nodes.push_back(std::move(nf));
  }
  return a;
}

std::string FormatCount(std::uint64_t v) {
  return v == kUnknownCount ? "unbounded" : std::to_string(v);
}

std::string FormatTime(std::int64_t v) {
  return v == kUnknownTime ? "unbounded" : std::to_string(v);
}

std::string FormatBytes(std::uint64_t v) {
  return v == kUnknownBytes ? "unbounded" : std::to_string(v);
}

std::string FormatRate(double v) {
  if (std::isinf(v)) return "unbounded";
  std::ostringstream out;
  out << v;
  return out.str();
}

/// JSON numeric encoding: -1 for the unknown/unbounded sentinels — a JSON
/// document must never contain inf or a 2^64-magnitude sentinel.
std::string JsonCount(std::uint64_t v) {
  return v == kUnknownCount ? "-1" : std::to_string(v);
}

std::string JsonTime(std::int64_t v) {
  return v == kUnknownTime ? "-1" : std::to_string(v);
}

std::string JsonBytes(std::uint64_t v) {
  return v == kUnknownBytes ? "-1" : std::to_string(v);
}

std::string JsonRate(double v) {
  if (std::isinf(v) || std::isnan(v)) return "-1";
  std::ostringstream out;
  out << v;
  return out.str();
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
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
  return out;
}

void SortDiagnostics(std::vector<Diagnostic>& diags) {
  std::sort(diags.begin(), diags.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              return std::tie(a.rule_id, a.severity, a.node, a.path,
                              a.message, a.fixit) <
                     std::tie(b.rule_id, b.severity, b.node, b.path,
                              b.message, b.fixit);
            });
}

Diagnostic MakeDiag(const char* rule_id, Severity severity, const Node* node,
                    std::string message, std::string fixit) {
  Diagnostic d;
  d.rule_id = rule_id;
  d.severity = severity;
  if (node != nullptr) {
    d.node_id = node->id();
    d.node = node->name();
  }
  d.message = std::move(message);
  d.fixit = std::move(fixit);
  return d;
}

}  // namespace

const char* OrderName(EdgeFacts::Order order) {
  switch (order) {
    case EdgeFacts::Order::kOrdered:
      return "ordered";
    case EdgeFacts::Order::kBoundedDisorder:
      return "bounded-disorder";
    case EdgeFacts::Order::kResegmented:
      return "resegmented";
  }
  return "ordered";
}

DataflowResult AnalyzeDataflow(const QueryGraph& graph) {
  return Run(graph).result;
}

std::vector<Diagnostic> DataflowDiagnostics(const QueryGraph& graph) {
  std::vector<Diagnostic> diags;
  const Analysis a = Run(graph);
  const Model& m = a.model;
  if (m.has_cycle) return diags;  // P001 owns cyclic graphs

  for (std::size_t i = 0; i < m.info.size(); ++i) {
    const NodeInfo& info = m.info[i];
    const NodeStateBound bound =
        StateBound(info.desc, info.eff, a.merged[i], !info.ups.empty());

    // P021: blocking state with no static bound and no lossless spill
    // tier — under sustained input the node grows until the memory
    // manager sheds (losing results) or the process dies.
    if (info.desc.blocking && !info.desc.spill_capable && !bound.transient &&
        bound.ram_bytes == kUnknownBytes) {
      const bool no_transfer = info.eff.state_bytes_per_element == 0 &&
                               info.eff.state_bytes_fixed == 0;
      diags.push_back(MakeDiag(
          "P021", Severity::kWarning, info.node,
          no_transfer
              ? "blocking operator declares no state transfer function: the "
                "static state bound is unbounded and no spill tier exists"
              : "no static state bound: the feed's cardinality, rate, and "
                "validity extent leave retained state unbounded, and no "
                "spill tier exists",
          no_transfer
              ? "declare state_bytes_per_element in Describe() (or a "
                "dataflow.bytes_per_element gauge), or build the operator "
                "with a spillable SweepArea"
              : "declare a source feed contract (total elements or rate + "
                "bounded validity extent), or build the operator with a "
                "spillable SweepArea"));
    }

    // P022: a single-input blocking operator whose only input's watermark
    // provably never advances — state is never purged and results are
    // withheld until end-of-stream. (Fan-ins starved on one input are
    // P014's error.)
    if (info.desc.blocking && info.ups.size() == 1 &&
        !a.out[info.ups.front()].watermark_advances) {
      const NodeInfo& up = m.info[info.ups.front()];
      diags.push_back(MakeDiag(
          "P022", Severity::kWarning, info.node,
          "provable watermark starvation: the only input (via '" +
              up.node->name() +
              "') never advances its watermark, so blocked state is never "
              "purged and no result is released before end-of-stream",
          "feed the operator from a source that emits heartbeats (or "
          "declare emits_heartbeats on the source once it does)"));
    }

    // P023: a source whose declared raw-feed disorder exceeds the
    // reordering slack in front of it — late elements beyond the slack
    // are silently dropped.
    if (info.ups.empty() && info.eff.feed_disorder > 0) {
      const std::int64_t slack =
          std::max<std::int64_t>(info.eff.reorder_slack, 0);
      if (info.eff.feed_disorder == kUnknownTime ||
          info.eff.feed_disorder > slack) {
        diags.push_back(MakeDiag(
            "P023", Severity::kWarning, info.node,
            "declared feed disorder " + FormatTime(info.eff.feed_disorder) +
                " exceeds the reordering slack " + std::to_string(slack) +
                ": elements arriving later than the slack are silently "
                "dropped",
            "raise the ReorderingSource slack to at least the feed's "
            "disorder bound (latency trades against completeness)"));
      }
    }

    // P024: a Partition whose declared per-replica capacity cannot absorb
    // the certified input rate — the stage is underprovisioned.
    if (info.desc.kind == Kind::kPartition) {
      if (auto cap = ReadGauge(info.node, kGaugeCapacityPerUnit);
          cap && *cap > 0) {
        const double in_rate = a.merged[i].rate_max;
        const std::size_t fan_out = std::max<std::size_t>(info.desc.fan_out, 1);
        const double capacity = *cap * static_cast<double>(fan_out);
        if (!(in_rate <= capacity)) {
          const std::string need =
              std::isinf(in_rate)
                  ? "an unbounded input rate"
                  : "input rate " + FormatRate(in_rate) + "/unit";
          const std::size_t want =
              std::isinf(in_rate)
                  ? 0
                  : static_cast<std::size_t>(std::ceil(in_rate / *cap));
          diags.push_back(MakeDiag(
              "P024", Severity::kWarning, info.node,
              "partition underprovisioned: " + need + " exceeds " +
                  std::to_string(fan_out) + " replica(s) x " +
                  FormatRate(*cap) + "/unit declared capacity",
              want > 0
                  ? "raise the partition count to at least " +
                        std::to_string(want) +
                        " (or raise dataflow.capacity_per_unit if the "
                        "declared capacity is stale)"
                  : "declare a source feed contract so the input rate is "
                    "bounded, then size the partition count from it"));
        }
      }
    }

    // P025: a declared budget gauge the whole-plan certificate exceeds.
    const StateCertificate& cert = a.result.certificate;
    if (auto ram = ReadGauge(info.node, kGaugeRamBudget); ram && *ram >= 0) {
      const auto budget = static_cast<std::uint64_t>(*ram);
      if (cert.ram_bytes == kUnknownBytes || cert.ram_bytes > budget) {
        diags.push_back(MakeDiag(
            "P025", Severity::kWarning, info.node,
            "certified peak RAM " + FormatBytes(cert.ram_bytes) +
                " exceeds the declared budget of " + std::to_string(budget) +
                " bytes",
            "shrink windows/slack, spill to disk, or raise the declared "
            "dataflow.ram_budget_bytes"));
      }
    }
    if (auto disk = ReadGauge(info.node, kGaugeDiskBudget);
        disk && *disk >= 0) {
      const auto budget = static_cast<std::uint64_t>(*disk);
      if (cert.disk_bytes == kUnknownBytes || cert.disk_bytes > budget) {
        diags.push_back(MakeDiag(
            "P025", Severity::kWarning, info.node,
            "certified peak disk " + FormatBytes(cert.disk_bytes) +
                " exceeds the declared budget of " + std::to_string(budget) +
                " bytes",
            "shrink windows/slack or raise the declared "
            "dataflow.disk_budget_bytes"));
      }
    }
  }
  SortDiagnostics(diags);
  return diags;
}

Result<DataflowResult> AnalyzeDataflowPlan(const optimizer::LogicalPlan& plan,
                                           const cql::Catalog* catalog) {
  if (plan == nullptr) {
    return Status::InvalidArgument("AnalyzeDataflowPlan: null plan");
  }
  QueryGraph graph;
  PIPES_ASSIGN_OR_RETURN(const auto sources, MaterializePlan(plan, &graph));
  for (const auto& [name, source] : sources) {
    // The scratch source stands in for an unbounded registered stream: its
    // empty backing vector must not masquerade as a finite feed. Seed the
    // rate contract from the catalog hint (elements/second -> per ms).
    double hint = 1000.0;
    if (catalog != nullptr) {
      if (auto looked = catalog->Lookup(name); looked.ok()) {
        hint = (*looked)->rate_hint;
      }
    }
    source->metadata().SetGauge(kGaugeTotalElements, -1);
    source->metadata().SetGauge(kGaugeRatePerUnit, hint / 1000.0);
  }

  DataflowResult result = AnalyzeDataflow(graph);

  // Cross-check against the optimizer's cost model: its *expected* root
  // output rate must not exceed the certified upper bound (both in
  // elements per second; facts use the ms time unit).
  const optimizer::CostEstimate estimate =
      optimizer::CostModel(catalog).Estimate(plan);
  result.has_cost_check = true;
  result.cost_model_rate_eps = estimate.output_rate;
  result.certified_rate_eps = std::numeric_limits<double>::infinity();
  for (const NodeFacts& nf : result.nodes) {
    if (nf.kind == Kind::kSink) {
      result.certified_rate_eps = nf.out.rate_max * 1000.0;
      break;
    }
  }
  result.rate_consistent =
      std::isinf(result.certified_rate_eps) ||
      result.cost_model_rate_eps <= result.certified_rate_eps;
  return result;
}

std::string ToJson(const DataflowResult& result) {
  std::ostringstream out;
  const StateCertificate& c = result.certificate;
  out << "{\n  \"schema_version\": " << kLintJsonSchemaVersion << ",\n"
      << "  \"has_cycle\": " << (result.has_cycle ? "true" : "false") << ",\n"
      << "  \"certificate\": {\"ram_bytes\": " << JsonBytes(c.ram_bytes)
      << ", \"disk_bytes\": " << JsonBytes(c.disk_bytes)
      << ", \"progress_ok\": " << (c.progress_ok ? "true" : "false")
      << ", \"disorder_bound\": " << JsonTime(c.disorder_bound) << "},\n";
  if (result.has_cost_check) {
    out << "  \"cost_check\": {\"cost_model_rate_eps\": "
        << JsonRate(result.cost_model_rate_eps)
        << ", \"certified_rate_eps\": " << JsonRate(result.certified_rate_eps)
        << ", \"rate_consistent\": "
        << (result.rate_consistent ? "true" : "false") << "},\n";
  }
  out << "  \"nodes\": [";
  for (std::size_t i = 0; i < result.nodes.size(); ++i) {
    const NodeFacts& n = result.nodes[i];
    if (i > 0) out << ",";
    out << "\n    {\"name\": \"" << JsonEscape(n.name) << "\", "
        << "\"op\": \"" << JsonEscape(n.op) << "\", "
        << "\"kind\": \"" << NodeKindName(n.kind) << "\", "
        << "\"order\": \"" << OrderName(n.out.order) << "\", "
        << "\"disorder\": " << JsonTime(n.out.disorder) << ", "
        << "\"watermark_advances\": "
        << (n.out.watermark_advances ? "true" : "false") << ", "
        << "\"watermark_lag\": " << JsonTime(n.out.watermark_lag) << ", "
        << "\"max_elements\": " << JsonCount(n.out.max_elements) << ", "
        << "\"rate_max\": " << JsonRate(n.out.rate_max) << ", "
        << "\"validity_extent\": " << JsonTime(n.out.validity_extent) << ", "
        << "\"ram_bytes\": " << JsonBytes(n.state.ram_bytes) << ", "
        << "\"disk_bytes\": " << JsonBytes(n.state.disk_bytes) << ", "
        << "\"transient\": " << (n.state.transient ? "true" : "false") << "}";
  }
  out << (result.nodes.empty() ? "]\n}" : "\n  ]\n}");
  return out.str();
}

Result<int> ParseLintJsonSchemaVersion(const std::string& json) {
  const std::string key = "\"schema_version\"";
  const std::size_t at = json.find(key);
  if (at == std::string::npos) {
    return Status::InvalidArgument(
        "document has no schema_version field (predates schema version " +
        std::to_string(kLintJsonSchemaVersion) + ")");
  }
  std::size_t pos = at + key.size();
  while (pos < json.size() &&
         (json[pos] == ':' || json[pos] == ' ' || json[pos] == '\t' ||
          json[pos] == '\n' || json[pos] == '\r')) {
    ++pos;
  }
  std::size_t end = pos;
  while (end < json.size() &&
         std::isdigit(static_cast<unsigned char>(json[end]))) {
    ++end;
  }
  if (end == pos) {
    return Status::InvalidArgument("schema_version is not an integer");
  }
  return std::stoi(json.substr(pos, end - pos));
}

std::string ToDot(const DataflowResult& result) {
  std::unordered_map<const Node*, std::size_t> index;
  for (std::size_t i = 0; i < result.nodes.size(); ++i) {
    index.emplace(result.nodes[i].node, i);
  }
  std::ostringstream out;
  out << "digraph dataflow {\n  rankdir=BT;\n  node [shape=box];\n";
  for (std::size_t i = 0; i < result.nodes.size(); ++i) {
    const NodeFacts& n = result.nodes[i];
    out << "  n" << i << " [label=\"" << JsonEscape(n.name) << "\\n" << n.op;
    if (!n.state.transient) {
      out << "\\nram<=" << FormatBytes(n.state.ram_bytes);
      if (n.state.disk_bytes != 0) {
        out << " disk<=" << FormatBytes(n.state.disk_bytes);
      }
    }
    out << "\"];\n";
  }
  for (std::size_t i = 0; i < result.nodes.size(); ++i) {
    const NodeFacts& n = result.nodes[i];
    if (n.node == nullptr) continue;
    std::unordered_set<const Node*> seen;
    for (const Node* down : n.node->downstream()) {
      if (!seen.insert(down).second) continue;
      auto it = index.find(down);
      if (it == index.end()) continue;
      out << "  n" << i << " -> n" << it->second << " [label=\""
          << OrderName(n.out.order) << "\\nrate<=" << FormatRate(n.out.rate_max)
          << " n<=" << FormatCount(n.out.max_elements) << "\\nextent<="
          << FormatTime(n.out.validity_extent) << " lag<="
          << FormatTime(n.out.watermark_lag) << "\"];\n";
    }
  }
  out << "}\n";
  return out.str();
}

std::string ToText(const DataflowResult& result) {
  std::ostringstream out;
  const StateCertificate& c = result.certificate;
  out << "certificate: ram<=" << FormatBytes(c.ram_bytes) << " disk<="
      << FormatBytes(c.disk_bytes)
      << " progress=" << (c.progress_ok ? "ok" : "STARVED") << " disorder<="
      << FormatTime(c.disorder_bound) << "\n";
  if (result.has_cost_check) {
    out << "cost-check: model=" << FormatRate(result.cost_model_rate_eps)
        << " eps, certified<=" << FormatRate(result.certified_rate_eps)
        << " eps, " << (result.rate_consistent ? "consistent" : "INCONSISTENT")
        << "\n";
  }
  if (result.has_cycle) out << "warning: graph has a cycle (facts partial)\n";
  for (const NodeFacts& n : result.nodes) {
    out << "  " << n.name << " [" << n.op << "] " << OrderName(n.out.order);
    if (n.out.order == EdgeFacts::Order::kBoundedDisorder) {
      out << "(" << FormatTime(n.out.disorder) << ")";
    }
    out << " adv=" << (n.out.watermark_advances ? "y" : "N") << " lag<="
        << FormatTime(n.out.watermark_lag) << " rate<="
        << FormatRate(n.out.rate_max) << " n<=" << FormatCount(n.out.max_elements)
        << " extent<=" << FormatTime(n.out.validity_extent);
    if (n.state.transient) {
      out << " state=transient";
    } else {
      out << " ram<=" << FormatBytes(n.state.ram_bytes);
      if (n.state.disk_bytes != 0) {
        out << " disk<=" << FormatBytes(n.state.disk_bytes);
      }
    }
    out << "\n";
  }
  return out.str();
}

}  // namespace pipes::analysis
