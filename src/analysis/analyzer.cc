#include "src/analysis/analyzer.h"

#include <algorithm>

#include "src/analysis/dataflow.h"
#include <cstdio>
#include <deque>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/core/descriptor.h"
#include "src/core/generator_source.h"
#include "src/core/sink.h"
#include "src/cql/catalog.h"
#include "src/optimizer/physical.h"
#include "src/optimizer/plan_xml.h"
#include "src/relational/tuple.h"

namespace pipes::analysis {
namespace {

using Kind = NodeDescriptor::Kind;

/// Metadata gauge-name conventions carrying lint annotations: a gauge named
/// `lint.deprecated:<hint>` or `lint.footgun:<note>` attached to a node is
/// reported by P015/P016 — the hook for plan builders and wrappers to flag
/// API-level hazards the descriptor itself cannot know.
constexpr const char kDeprecatedGaugePrefix[] = "lint.deprecated:";
constexpr const char kFootgunGaugePrefix[] = "lint.footgun:";
/// Stamped by `engine::Engine` on every registered query's output node;
/// the suffix is the owning tenant (see P019).
constexpr const char kEngineOutputGaugePrefix[] = "engine.registered_output:";

/// The analyzer's working copy of the graph: descriptors plus deduplicated
/// in-graph adjacency (multi-edges collapse; edges to nodes outside the
/// graph are split off as foreign).
struct NodeInfo {
  const Node* node = nullptr;
  NodeDescriptor desc;
  std::vector<std::size_t> ups;    // deduped, in-graph upstream indices
  std::vector<std::size_t> downs;  // deduped, in-graph downstream indices
  std::vector<const Node*> foreign;  // edge endpoints not owned by the graph
};

struct GraphModel {
  std::vector<NodeInfo> info;
  std::unordered_map<const Node*, std::size_t> index;
  bool has_cycle = false;
  /// Indices in topological (upstream-before-downstream) order; only the
  /// processed prefix is meaningful when `has_cycle`.
  std::vector<std::size_t> topo;
  /// Nodes left unprocessed by the topological sort — members of (or
  /// downstream of) a cycle.
  std::vector<std::size_t> cycle_residue;
};

GraphModel BuildModel(const QueryGraph& graph) {
  GraphModel m;
  const std::vector<Node*> nodes = graph.nodes();
  m.info.reserve(nodes.size());
  for (Node* node : nodes) {
    m.index.emplace(node, m.info.size());
    NodeInfo info;
    info.node = node;
    info.desc = node->Describe();
    m.info.push_back(std::move(info));
  }
  for (std::size_t i = 0; i < m.info.size(); ++i) {
    NodeInfo& info = m.info[i];
    std::unordered_set<const Node*> seen;
    for (const Node* up : info.node->upstream()) {
      if (!seen.insert(up).second) continue;
      auto it = m.index.find(up);
      if (it == m.index.end()) {
        info.foreign.push_back(up);
      } else {
        info.ups.push_back(it->second);
      }
    }
    seen.clear();
    for (const Node* down : info.node->downstream()) {
      if (!seen.insert(down).second) continue;
      auto it = m.index.find(down);
      if (it == m.index.end()) {
        info.foreign.push_back(down);
      } else {
        info.downs.push_back(it->second);
      }
    }
  }
  // Kahn's algorithm over the deduplicated edges.
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
  if (m.topo.size() != m.info.size()) {
    m.has_cycle = true;
    for (std::size_t i = 0; i < m.info.size(); ++i) {
      if (indegree[i] > 0) m.cycle_residue.push_back(i);
    }
  }
  return m;
}

/// Diagnostic accumulator with the shared emit shape.
class Linter {
 public:
  void Emit(const char* rule_id, Severity severity, const Node* node,
            std::string path, std::string message, std::string fixit) {
    Diagnostic d;
    d.rule_id = rule_id;
    d.severity = severity;
    if (node != nullptr) {
      d.node_id = node->id();
      d.node = node->name();
    }
    d.path = std::move(path);
    d.message = std::move(message);
    d.fixit = std::move(fixit);
    diags_.push_back(std::move(d));
  }

  /// Adopts an externally built diagnostic (the dataflow rules).
  void Add(Diagnostic d) { diags_.push_back(std::move(d)); }

  std::vector<Diagnostic> Take() {
    // Sort key == the Diagnostic equality tuple (operator==), so equal
    // diagnostic sets always order identically — the plan-XML parity
    // contract compares whole sorted vectors.
    std::sort(diags_.begin(), diags_.end(),
              [](const Diagnostic& a, const Diagnostic& b) {
                return std::tie(a.rule_id, a.severity, a.node, a.path,
                                a.message, a.fixit) <
                       std::tie(b.rule_id, b.severity, b.node, b.path,
                                b.message, b.fixit);
              });
    return std::move(diags_);
  }

 private:
  std::vector<Diagnostic> diags_;
};

// --- Structural rules ---------------------------------------------------------

void CheckCycle(const GraphModel& m, Linter& lint) {  // P001
  if (!m.has_cycle) return;
  std::vector<std::string> names;
  for (std::size_t i : m.cycle_residue) names.push_back(m.info[i].node->name());
  std::sort(names.begin(), names.end());
  std::string list;
  for (const std::string& n : names) {
    if (!list.empty()) list += ", ";
    list += n;
  }
  lint.Emit("P001", Severity::kError, m.info[m.cycle_residue.front()].node, "",
            "subscription edges form a cycle through {" + list +
                "}; delivery would cycle forever",
            "break the cycle: streams flow source -> operators -> sink");
}

void CheckForeignEdges(const GraphModel& m, Linter& lint) {  // P002
  for (const NodeInfo& info : m.info) {
    std::unordered_set<const Node*> reported;
    for (const Node* foreign : info.foreign) {
      if (!reported.insert(foreign).second) continue;
      lint.Emit("P002", Severity::kError, info.node, "",
                "edge to '" + foreign->name() +
                    "', which this graph does not own; its lifetime is not "
                    "tied to the graph",
                "Add the node to the graph (QueryGraph::Add) or unsubscribe "
                "before it is destroyed");
    }
  }
}

void CheckDanglingInputs(const GraphModel& m, Linter& lint) {  // P003
  for (const NodeInfo& info : m.info) {
    for (std::size_t p = 0; p < info.desc.port_upstreams.size(); ++p) {
      if (info.desc.port_upstreams[p] != 0) continue;
      lint.Emit("P003", Severity::kError, info.node, "",
                "input port " + std::to_string(p) +
                    " has no upstream: the port never receives elements or "
                    "end-of-stream, so the node (and everything merging its "
                    "progress) stalls forever",
                "subscribe a source to the port, or remove the node");
    }
  }
}

void CheckUnsubscribedOutputs(const GraphModel& m, Linter& lint) {  // P004
  for (const NodeInfo& info : m.info) {
    const Kind kind = info.desc.kind;
    if (kind == Kind::kSink || kind == Kind::kOpaque) continue;
    if (kind == Kind::kPartition) {
      for (std::size_t i = 0; i < info.desc.output_subscribers.size(); ++i) {
        if (!info.desc.output_subscribers[i].empty()) continue;
        lint.Emit("P004", Severity::kWarning, info.node, "",
                  "partition output " + std::to_string(i) +
                      " has no subscribers: every element hash-routed to it "
                      "is silently dropped",
                  "subscribe a replica chain to each partition output");
      }
      continue;
    }
    if (info.downs.empty() && info.foreign.empty()) {
      lint.Emit("P004", Severity::kWarning, info.node, "",
                "output has no subscribers: all produced elements are "
                "silently dropped",
                "subscribe a downstream operator or sink, or remove the node");
    }
  }
}

void CheckSinkReachability(const GraphModel& m, Linter& lint) {  // P005
  // Reverse reachability from sinks along upstream edges (cycle-safe).
  std::vector<char> reaches(m.info.size(), 0);
  std::deque<std::size_t> frontier;
  for (std::size_t i = 0; i < m.info.size(); ++i) {
    if (m.info[i].desc.kind == Kind::kSink) {
      reaches[i] = 1;
      frontier.push_back(i);
    }
  }
  while (!frontier.empty()) {
    const std::size_t i = frontier.front();
    frontier.pop_front();
    for (std::size_t up : m.info[i].ups) {
      if (!reaches[up]) {
        reaches[up] = 1;
        frontier.push_back(up);
      }
    }
  }
  for (std::size_t i = 0; i < m.info.size(); ++i) {
    const NodeInfo& info = m.info[i];
    if (info.desc.kind != Kind::kSource || reaches[i]) continue;
    if (info.downs.empty() && info.foreign.empty()) continue;  // P004's case
    lint.Emit("P005", Severity::kWarning, info.node, "",
              "no sink is reachable from this source: the subscribed "
              "operators compute results nobody consumes",
              "subscribe a sink to the query output, or remove the subtree");
  }
}

// --- Contract rules -----------------------------------------------------------

void CheckUnboundedBlocking(const GraphModel& m, Linter& lint) {  // P006
  if (m.has_cycle) return;  // needs topological propagation
  // unbounded[i]: some element leaving node i may be valid forever.
  // origin[i]: the node that introduced the unbounded validity.
  std::vector<char> unbounded(m.info.size(), 0);
  std::vector<std::size_t> origin(m.info.size(), 0);
  for (std::size_t i : m.topo) {
    const NodeInfo& info = m.info[i];
    if (info.desc.unbounded_validity) {
      unbounded[i] = 1;
      origin[i] = i;
      continue;
    }
    if (info.desc.bounds_validity) continue;  // re-bounds whatever comes in
    for (std::size_t up : info.ups) {
      if (unbounded[up]) {
        unbounded[i] = 1;
        origin[i] = origin[up];
        break;
      }
    }
  }
  for (std::size_t i = 0; i < m.info.size(); ++i) {
    const NodeInfo& info = m.info[i];
    if (!info.desc.blocking) continue;
    for (std::size_t up : info.ups) {
      if (!unbounded[up]) continue;
      const Node* source_of = m.info[origin[up]].node;
      lint.Emit("P006", Severity::kWarning, info.node,
                source_of->name() + " -> " + info.node->name(),
                "stateful operator consumes elements that may be valid "
                "forever (introduced by '" +
                    source_of->name() +
                    "'): its state never purges and grows without bound",
                "insert a time/count window (or IStream) between '" +
                    source_of->name() + "' and '" + info.node->name() +
                    "', or attach the memory manager");
      break;  // one finding per blocking node
    }
  }
}

/// First non-buffer nodes reachable downstream of `start` (buffers are
/// transparent decoupling stages inside a replica chain).
std::vector<std::size_t> ThroughBuffers(const GraphModel& m,
                                        std::size_t start) {
  std::vector<std::size_t> out;
  std::unordered_set<std::size_t> visited;
  std::deque<std::size_t> frontier{start};
  while (!frontier.empty()) {
    const std::size_t i = frontier.front();
    frontier.pop_front();
    if (!visited.insert(i).second) continue;
    if (m.info[i].desc.kind == Kind::kBuffer) {
      for (std::size_t down : m.info[i].downs) frontier.push_back(down);
    } else {
      out.push_back(i);
    }
  }
  return out;
}

/// The replica-stage operators fed by partition `p`: for each keyed output,
/// the first non-buffer node downstream of each subscriber.
std::vector<std::size_t> ReplicaOperators(const GraphModel& m,
                                          const NodeInfo& p) {
  std::vector<std::size_t> ops;
  std::unordered_set<std::size_t> seen;
  for (const auto& subscribers : p.desc.output_subscribers) {
    for (const Node* sub : subscribers) {
      auto it = m.index.find(sub);
      if (it == m.index.end()) continue;  // foreign: P002's case
      const Kind kind = m.info[it->second].desc.kind;
      const auto targets = kind == Kind::kBuffer
                               ? ThroughBuffers(m, it->second)
                               : std::vector<std::size_t>{it->second};
      for (std::size_t t : targets) {
        if (seen.insert(t).second) ops.push_back(t);
      }
    }
  }
  return ops;
}

void CheckPartitionStages(const GraphModel& m, Linter& lint) {  // P007-P009
  for (std::size_t i = 0; i < m.info.size(); ++i) {
    const NodeInfo& p = m.info[i];
    if (p.desc.kind != Kind::kPartition) continue;

    // Nearest merges downstream (not expanding past a merge or sink).
    std::vector<std::size_t> merges;
    std::unordered_set<std::size_t> visited{i};
    std::deque<std::size_t> frontier(p.downs.begin(), p.downs.end());
    while (!frontier.empty()) {
      const std::size_t j = frontier.front();
      frontier.pop_front();
      if (!visited.insert(j).second) continue;
      const Kind kind = m.info[j].desc.kind;
      if (kind == Kind::kMerge) {
        merges.push_back(j);
        continue;
      }
      if (kind == Kind::kSink) continue;
      for (std::size_t down : m.info[j].downs) frontier.push_back(down);
    }

    if (merges.empty()) {  // P007
      lint.Emit("P007", Severity::kWarning, p.node, "",
                "partition has no downstream Merge: replica outputs are "
                "never recombined, so consumers see " +
                    std::to_string(p.desc.fan_out) +
                    " interleaved per-key streams instead of one globally "
                    "ordered stream",
                "subscribe each replica's output into a Merge with fan_in " +
                    std::to_string(p.desc.fan_out));
    }
    for (std::size_t j : merges) {  // P008
      const NodeInfo& merge = m.info[j];
      if (merge.desc.fan_in == p.desc.fan_out) continue;
      lint.Emit("P008", Severity::kError, merge.node,
                p.node->name() + " -> " + merge.node->name(),
                "merge fan-in " + std::to_string(merge.desc.fan_in) +
                    " does not match partition fan-out " +
                    std::to_string(p.desc.fan_out) +
                    ": unconnected merge ports never report progress, so the "
                    "merge withholds results forever",
                "construct the Merge with fan_in " +
                    std::to_string(p.desc.fan_out) +
                    " (one port per replica)");
    }
    if (p.desc.fan_out >= 2) {  // P009
      for (std::size_t j : ReplicaOperators(m, p)) {
        const NodeInfo& op = m.info[j];
        // Stateless (non-blocking) operators are safe to replicate: each
        // element is processed alone, so the key split cannot be observed.
        if (op.desc.kind != Kind::kOperator || op.desc.key_partitionable ||
            !op.desc.blocking) {
          continue;
        }
        lint.Emit(
            "P009", Severity::kError, op.node,
            p.node->name() + " -> " + op.node->name(),
            "operator '" + op.desc.op +
                "' is replicated per key but its state does not decompose "
                "by key: each replica sees only its key subset and computes "
                "wrong results",
            "replicate only key-partitionable operators (grouped "
            "aggregate, distinct, partitioned window, hash equi-join) — "
            "see docs/operators.md");
      }
    }
  }
}

void CheckStalledInputs(const GraphModel& m, Linter& lint) {  // P014
  if (m.has_cycle) return;
  // advances[i]: the node's output watermark can move before end-of-stream.
  std::vector<char> advances(m.info.size(), 1);
  for (std::size_t i : m.topo) {
    const NodeInfo& info = m.info[i];
    if (info.desc.kind == Kind::kSource) {
      advances[i] = info.desc.emits_heartbeats ? 1 : 0;
      continue;
    }
    // Merged progress is the min over inputs: one dead input stalls all.
    for (std::size_t up : info.ups) {
      if (!advances[up]) {
        advances[i] = 0;
        break;
      }
    }
  }
  for (std::size_t i = 0; i < m.info.size(); ++i) {
    const NodeInfo& info = m.info[i];
    if (info.desc.kind == Kind::kSource || info.ups.size() < 2) continue;
    const bool any_live = std::any_of(
        info.ups.begin(), info.ups.end(),
        [&](std::size_t up) { return advances[up] != 0; });
    if (!any_live) continue;  // reported at the dead source's own fan-in
    for (std::size_t up : info.ups) {
      if (advances[up]) continue;
      lint.Emit("P014", Severity::kError, info.node,
                m.info[up].node->name() + " -> " + info.node->name(),
                "fan-in merges progress from '" + m.info[up].node->name() +
                    "', whose watermark can never advance (no heartbeating "
                    "source upstream): the merged watermark stays at the "
                    "minimum and results are withheld until end-of-stream",
                "enable heartbeats on the silent source, or detach it");
    }
  }
}

void CheckOrphanedTenantOutputs(const GraphModel& m, Linter& lint) {
  // P019. The engine stamps every registered query's output node with an
  // `engine.registered_output:<tenant>` gauge and subscribes its result
  // sink to it. An output still carrying the gauge but with no downstream
  // is an orphaned tenant subgraph: the engine's sink detached (or direct
  // graph surgery cut it off) without the registration being cancelled, so
  // the operators keep consuming memory and scheduler time while every
  // result is silently dropped and the tenant's handle stays "running".
  for (const NodeInfo& info : m.info) {
    for (const std::string& gauge : info.node->metadata().GaugeNames()) {
      if (gauge.rfind(kEngineOutputGaugePrefix, 0) != 0) continue;
      if (!info.downs.empty()) continue;
      const std::string tenant =
          gauge.substr(sizeof(kEngineOutputGaugePrefix) - 1);
      lint.Emit("P019", Severity::kError, info.node, "",
                "registered query output of tenant '" + tenant +
                    "' has no subscribers: the engine's result sink is "
                    "gone but the query was never cancelled, so its "
                    "operators run on with every result dropped",
                "cancel the query through Engine::Cancel (which removes "
                "the unshared suffix), or re-subscribe the result sink "
                "instead of detaching it by hand");
    }
  }
}

void CheckMetadataAnnotations(const GraphModel& m, Linter& lint) {
  for (const NodeInfo& info : m.info) {
    if (!info.desc.deprecated.empty()) {  // P015
      lint.Emit("P015", Severity::kWarning, info.node, "",
                "built through a deprecated API: " + info.desc.deprecated,
                info.desc.deprecated);
    }
    for (const std::string& note : info.desc.notes) {  // P016
      lint.Emit("P016", Severity::kNote, info.node, "", note, "");
    }
    for (const std::string& gauge : info.node->metadata().GaugeNames()) {
      if (gauge.rfind(kDeprecatedGaugePrefix, 0) == 0) {  // P015
        const std::string hint =
            gauge.substr(sizeof(kDeprecatedGaugePrefix) - 1);
        lint.Emit("P015", Severity::kWarning, info.node, "",
                  "built through a deprecated API: " + hint, hint);
      } else if (gauge.rfind(kFootgunGaugePrefix, 0) == 0) {  // P016
        lint.Emit("P016", Severity::kNote, info.node, "",
                  gauge.substr(sizeof(kFootgunGaugePrefix) - 1), "");
      }
    }
  }
}

void CheckSheddingWithSpillTier(const GraphModel& m, Linter& lint) {
  // P020. A spill-capable operator can page state to disk losslessly
  // (docs/memory.md), so enabling load shedding on it trades recall for
  // nothing the spill tier does not already provide — every shed element
  // is a join result silently lost that a spilled run would have kept.
  for (const NodeInfo& info : m.info) {
    if (!info.desc.spill_capable || !info.desc.shedding_enabled) continue;
    lint.Emit("P020", Severity::kWarning, info.node, "",
              "load shedding is enabled on a spill-capable operator: under "
              "memory pressure it will drop state (losing results) even "
              "though it could page to disk losslessly",
              "leave the shed policy at ShedPolicy::kNone (the spillable "
              "default) unless disk is scarcer than recall; bound disk with "
              "MemoryManager::set_disk_budget instead");
  }
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

}  // namespace

const char* SeverityName(Severity severity) {
  switch (severity) {
    case Severity::kError:
      return "error";
    case Severity::kWarning:
      return "warning";
    case Severity::kNote:
      return "note";
  }
  return "note";
}

bool operator==(const Diagnostic& a, const Diagnostic& b) {
  // node_id is process-unique and deliberately excluded: equivalent graphs
  // built independently (in-memory vs. from plan XML) must compare equal.
  return std::tie(a.rule_id, a.severity, a.node, a.path, a.message,
                  a.fixit) == std::tie(b.rule_id, b.severity, b.node, b.path,
                                       b.message, b.fixit);
}

const std::vector<RuleInfo>& RuleCatalog() {
  static const std::vector<RuleInfo> kCatalog = {
      {"P001", Severity::kError,
       "subscription edges form a cycle (delivery would cycle forever)"},
      {"P002", Severity::kError,
       "edge to a node the graph does not own (lifetime hazard)"},
      {"P003", Severity::kError,
       "input port with no upstream (node stalls forever)"},
      {"P004", Severity::kWarning,
       "output (or partition output) with no subscribers (results dropped)"},
      {"P005", Severity::kWarning,
       "no sink reachable from a subscribed source (results unconsumed)"},
      {"P006", Severity::kWarning,
       "blocking operator downstream of unbounded validity with no window "
       "(state never purges)"},
      {"P007", Severity::kWarning,
       "Partition without a downstream Merge (replica outputs never "
       "recombined)"},
      {"P008", Severity::kError,
       "Merge fan-in differs from Partition fan-out (results withheld "
       "forever)"},
      {"P009", Severity::kError,
       "non-key-partitionable operator replicated per key (wrong results)"},
      {"P010", Severity::kError,
       "merge-side active node assigned off worker 0 (data race: Merge is "
       "single-threaded by construction)"},
      {"P011", Severity::kError,
       "one replica's input buffers split across workers (data race on "
       "replica state)"},
      {"P012", Severity::kWarning,
       "replica chains share a worker while another worker is idle (lost "
       "parallelism)"},
      {"P014", Severity::kError,
       "fan-in merging progress from an input that can never advance "
       "(results withheld until end-of-stream)"},
      {"P015", Severity::kWarning, "deprecated API recorded on the node"},
      {"P016", Severity::kNote, "foot-gun API use recorded on the node"},
      {"P017", Severity::kError,
       "assignment shape invalid (length or worker index out of range)"},
      {"P019", Severity::kError,
       "registered query output with no subscribers (orphaned tenant "
       "subgraph: results dropped, resources still consumed)"},
      {"P020", Severity::kWarning,
       "load shedding enabled on a spill-capable operator (recall traded "
       "away where a lossless disk tier exists)"},
      {"P021", Severity::kWarning,
       "blocking state with no static bound and no spill tier (grows until "
       "shedding or death)"},
      {"P022", Severity::kWarning,
       "provable watermark starvation: a blocking operator's only input "
       "never advances (state never purges, results withheld)"},
      {"P023", Severity::kWarning,
       "declared feed disorder exceeds the reordering slack (late elements "
       "silently dropped)"},
      {"P024", Severity::kWarning,
       "partition underprovisioned for the certified input rate (replicas "
       "cannot keep up)"},
      {"P025", Severity::kWarning,
       "state certificate exceeds the declared memory budget (admission "
       "would be rejected)"},
  };
  return kCatalog;
}

std::vector<Diagnostic> Lint(const QueryGraph& graph) {
  const GraphModel m = BuildModel(graph);
  Linter lint;
  CheckCycle(m, lint);
  CheckForeignEdges(m, lint);
  CheckDanglingInputs(m, lint);
  CheckUnsubscribedOutputs(m, lint);
  CheckSinkReachability(m, lint);
  CheckUnboundedBlocking(m, lint);
  CheckPartitionStages(m, lint);
  CheckStalledInputs(m, lint);
  CheckOrphanedTenantOutputs(m, lint);
  CheckSheddingWithSpillTier(m, lint);
  CheckMetadataAnnotations(m, lint);
  for (Diagnostic& d : DataflowDiagnostics(graph)) {  // P021-P025
    lint.Add(std::move(d));
  }
  return lint.Take();
}

std::vector<Diagnostic> LintAssignment(const QueryGraph& graph,
                                       const std::vector<int>& assignment,
                                       int num_workers) {
  const GraphModel m = BuildModel(graph);
  Linter lint;
  const std::vector<Node*> active = graph.ActiveNodes();

  bool shape_ok = true;
  if (assignment.size() != active.size()) {  // P017
    shape_ok = false;
    lint.Emit("P017", Severity::kError, nullptr, "",
              "assignment has " + std::to_string(assignment.size()) +
                  " entries for " + std::to_string(active.size()) +
                  " active nodes (ThreadScheduler pairs them positionally in "
                  "ActiveNodes() order)",
              "build the assignment with scheduler::MakeAssignment");
  }
  for (std::size_t i = 0; i < assignment.size() && i < active.size(); ++i) {
    if (assignment[i] >= 0 && assignment[i] < num_workers) continue;
    shape_ok = false;
    lint.Emit("P017", Severity::kError, active[i], "",
              "assigned worker " + std::to_string(assignment[i]) +
                  " outside [0, " + std::to_string(num_workers) + ")",
              "use worker indices below num_workers");
  }
  if (!shape_ok) return lint.Take();

  std::unordered_map<const Node*, int> worker_of;
  for (std::size_t i = 0; i < active.size(); ++i) {
    worker_of.emplace(active[i], assignment[i]);
  }
  const auto worker = [&](const Node* n) {
    auto it = worker_of.find(n);
    return it == worker_of.end() ? 0 : it->second;
  };

  for (std::size_t i = 0; i < m.info.size(); ++i) {
    const NodeInfo& info = m.info[i];
    if (info.desc.kind == Kind::kMerge) {  // P010
      for (std::size_t up : info.ups) {
        const Node* up_node = m.info[up].node;
        if (!up_node->is_active() || worker(up_node) == 0) continue;
        lint.Emit("P010", Severity::kError, up_node,
                  up_node->name() + " -> " + info.node->name(),
                  "feeds merge '" + info.node->name() + "' from worker " +
                      std::to_string(worker(up_node)) +
                      ": Merge is passive shared state, single-threaded by "
                      "construction on worker 0 — draining it from another "
                      "worker races with worker 0",
                  "pin merge-side buffers to worker 0 "
                  "(ParallelTopology::PinnedAssignment does)");
      }
    }
    if (info.desc.kind != Kind::kPartition) continue;

    // Replica chains of this stage: P011 within a replica, P012 across.
    std::vector<int> replica_workers;
    for (std::size_t op_idx : ReplicaOperators(m, info)) {
      const NodeInfo& op = m.info[op_idx];
      if (op.desc.kind == Kind::kMerge || op.desc.kind == Kind::kSink) {
        continue;  // unreplicated direct wiring; nothing to pin
      }
      std::vector<int> workers;
      for (std::size_t up : op.ups) {
        const Node* up_node = m.info[up].node;
        if (up_node->is_active() && m.info[up].desc.kind == Kind::kBuffer) {
          workers.push_back(worker(up_node));
        }
      }
      if (workers.empty()) continue;
      const bool split = std::any_of(
          workers.begin(), workers.end(),
          [&](int w) { return w != workers.front(); });
      if (split) {  // P011
        lint.Emit("P011", Severity::kError, op.node,
                  info.node->name() + " -> " + op.node->name(),
                  "this replica's input buffers are assigned to different "
                  "workers: the replica operator is passive state driven by "
                  "whichever worker drains a buffer, so two workers would "
                  "mutate it concurrently",
                  "assign all of one replica's input buffers to one worker "
                  "(ParallelTopology::PinnedAssignment does)");
      } else {
        replica_workers.push_back(workers.front());
      }
    }
    if (num_workers > 1 && !replica_workers.empty()) {  // P012
      std::unordered_set<int> used(replica_workers.begin(),
                                   replica_workers.end());
      const std::size_t expect = std::min<std::size_t>(
          replica_workers.size(), static_cast<std::size_t>(num_workers) - 1);
      if (used.size() < expect) {
        lint.Emit("P012", Severity::kWarning, info.node, "",
                  std::to_string(replica_workers.size()) +
                      " replica chains share " + std::to_string(used.size()) +
                      " worker(s) while " + std::to_string(num_workers) +
                      " are available: parallelism is lost to an idle worker",
                  "spread replicas over distinct workers "
                  "(ParallelTopology::PinnedAssignment pins replica r to "
                  "worker 1 + r % (num_workers - 1))");
      }
    }
  }
  return lint.Take();
}

Result<std::map<std::string, Node*>> MaterializePlan(
    const optimizer::LogicalPlan& plan, QueryGraph* graph) {
  // Collect the distinct scanned streams (name -> schema).
  std::map<std::string, relational::Schema> scans;
  {
    std::vector<const optimizer::LogicalOp*> stack{plan.get()};
    std::unordered_set<const optimizer::LogicalOp*> visited;
    while (!stack.empty()) {
      const optimizer::LogicalOp* op = stack.back();
      stack.pop_back();
      if (!visited.insert(op).second) continue;
      if (op->kind == optimizer::LogicalOp::Kind::kStreamScan) {
        scans.emplace(op->stream_name, op->schema);
      }
      for (const auto& child : op->children) stack.push_back(child.get());
    }
  }
  std::map<std::string, Node*> sources;
  cql::Catalog catalog;
  for (const auto& [name, schema] : scans) {
    auto& source = graph->Add<VectorSource<relational::Tuple>>(
        std::vector<StreamElement<relational::Tuple>>{}, name);
    PIPES_RETURN_IF_ERROR(catalog.RegisterStream(name, schema, &source));
    sources.emplace(name, &source);
  }
  optimizer::PhysicalBuilder builder(graph, &catalog);
  PIPES_ASSIGN_OR_RETURN(Source<relational::Tuple>* output,
                         builder.Build(plan));
  auto& sink = graph->Add<CollectorSink<relational::Tuple>>("plan-output");
  output->AddSubscriber(sink.input());
  return sources;
}

Result<std::vector<Diagnostic>> LintPlan(const optimizer::LogicalPlan& plan) {
  if (plan == nullptr) {
    return Status::InvalidArgument("LintPlan: null plan");
  }
  QueryGraph graph;
  PIPES_RETURN_IF_ERROR(MaterializePlan(plan, &graph).status());
  return Lint(graph);
}

Result<std::vector<Diagnostic>> LintPlanXml(const std::string& xml) {
  PIPES_ASSIGN_OR_RETURN(optimizer::LogicalPlan plan,
                         optimizer::FromXml(xml));
  return LintPlan(plan);
}

Severity MaxSeverity(const std::vector<Diagnostic>& diagnostics) {
  Severity max = Severity::kNote;
  for (const Diagnostic& d : diagnostics) {
    if (d.severity > max) max = d.severity;
  }
  return max;
}

std::string ToJson(const std::vector<Diagnostic>& diagnostics) {
  std::ostringstream out;
  out << "[";
  for (std::size_t i = 0; i < diagnostics.size(); ++i) {
    const Diagnostic& d = diagnostics[i];
    if (i > 0) out << ",";
    out << "\n  {\"rule\": \"" << JsonEscape(d.rule_id) << "\", "
        << "\"severity\": \"" << SeverityName(d.severity) << "\", "
        << "\"node\": \"" << JsonEscape(d.node) << "\", "
        << "\"node_id\": " << d.node_id << ", "
        << "\"path\": \"" << JsonEscape(d.path) << "\", "
        << "\"message\": \"" << JsonEscape(d.message) << "\", "
        << "\"fixit\": \"" << JsonEscape(d.fixit) << "\"}";
  }
  out << (diagnostics.empty() ? "]" : "\n]");
  return out.str();
}

std::string ToText(const std::vector<Diagnostic>& diagnostics) {
  std::ostringstream out;
  for (const Diagnostic& d : diagnostics) {
    out << SeverityName(d.severity) << " [" << d.rule_id << "]";
    if (!d.node.empty()) out << " " << d.node;
    out << ": " << d.message;
    if (!d.path.empty()) out << " (" << d.path << ")";
    if (!d.fixit.empty()) out << "\n    fix: " << d.fixit;
    out << "\n";
  }
  return out.str();
}

}  // namespace pipes::analysis
