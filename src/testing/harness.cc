#include "src/testing/harness.h"

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <sstream>
#include <utility>

#include "src/algebra/reorder.h"
#include "src/analysis/dataflow.h"
#include "src/common/random.h"
#include "src/core/generator_source.h"
#include "src/core/pipe.h"
#include "src/engine/engine.h"
#include "src/memory/memory_manager.h"
#include "src/metadata/snapshot.h"
#include "src/optimizer/optimizer.h"
#include "src/optimizer/physical.h"
#include "src/optimizer/rules.h"
#include "src/scheduler/executor.h"
#include "src/scheduler/fusion.h"
#include "src/scheduler/strategy.h"
#include "src/testing/conformance.h"

namespace pipes::testing {

namespace {

using conformance::CorpusStream;
using conformance::IntervalTable;
using conformance::SnapRel;
using optimizer::LogicalOp;
using optimizer::LogicalPlan;
using relational::Tuple;
using scheduler::PipeExecutor;
using scheduler::Strategy;

std::uint64_t SplitMix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

std::unique_ptr<Strategy> MakeStrategy(int id, std::uint64_t seed) {
  switch (id % 6) {
    case 0:
      return std::make_unique<scheduler::RoundRobinStrategy>();
    case 1:
      return std::make_unique<scheduler::FifoStrategy>();
    case 2:
      return std::make_unique<scheduler::LongestQueueStrategy>();
    case 3:
      return std::make_unique<scheduler::ChainStrategy>();
    case 4:
      return std::make_unique<scheduler::RateBasedStrategy>();
    default:
      return std::make_unique<scheduler::RandomStrategy>(seed);
  }
}

bool FaultEnabled(const std::string& mix, const char* fault) {
  if (mix == "none" || mix.empty()) return false;
  if (mix == "all") return true;
  return mix.find(fault) != std::string::npos;
}

/// All distinct nodes of `plan`, parents before children.
std::vector<const LogicalOp*> PlanNodes(const LogicalPlan& plan) {
  std::vector<const LogicalOp*> out;
  std::vector<const LogicalOp*> stack = {plan.get()};
  while (!stack.empty()) {
    const LogicalOp* op = stack.back();
    stack.pop_back();
    if (std::find(out.begin(), out.end(), op) != out.end()) continue;
    out.push_back(op);
    for (auto it = op->children.rbegin(); it != op->children.rend(); ++it) {
      stack.push_back(it->get());
    }
  }
  return out;
}

/// Whether some operator of `plan` satisfies `pred`.
bool Any(const LogicalPlan& plan,
         const std::function<bool(const LogicalOp&)>& pred) {
  const std::vector<const LogicalOp*> nodes = PlanNodes(plan);
  return std::any_of(nodes.begin(), nodes.end(),
                     [&](const LogicalOp* op) { return pred(*op); });
}

/// Removing input can only remove output, snapshot by snapshot: not so for
/// aggregates, ROWS windows or differences, which can turn loss into
/// different (not fewer) results.
bool Monotone(const LogicalPlan& plan) {
  return !Any(plan, [](const LogicalOp& op) {
    return op.window.kind == optimizer::WindowKind::kRows ||
           op.window.kind == optimizer::WindowKind::kPartitionedRows ||
           op.kind == LogicalOp::Kind::kGroupAggregate ||
           op.kind == LogicalOp::Kind::kDifference;
  });
}

/// Operators `PhysicalBuilder` replicates when asked for replicas.
bool Partitionable(const LogicalPlan& plan) {
  return Any(plan, [](const LogicalOp& op) {
    return (op.kind == LogicalOp::Kind::kJoin && !op.equi_keys.empty()) ||
           op.kind == LogicalOp::Kind::kGroupAggregate ||
           op.kind == LogicalOp::Kind::kDistinct ||
           op.window.kind == optimizer::WindowKind::kPartitionedRows;
  });
}

/// Identity pipe with a deliberate, deterministic bug. Sits between the
/// plan's output and the oracle sink; the self-check asserts every kind is
/// caught by some oracle.
class CanaryPipe : public UnaryPipe<Tuple, Tuple> {
 public:
  explicit CanaryPipe(CanaryKind kind)
      : UnaryPipe<Tuple, Tuple>(std::string("canary-") +
                                CanaryKindName(kind)),
        kind_(kind) {}

  NodeDescriptor Describe() const override {
    NodeDescriptor d = UnaryPipe<Tuple, Tuple>::Describe();
    d.op = "canary";
    return d;
  }

 protected:
  void PortRun(int /*port_id*/, const ColumnarRun<Tuple>& run) override {
    for (std::size_t i = 0; i < run.size(); ++i) Relay(run.ElementAt(i));
  }

  void PortProgress(int port_id, Timestamp watermark) override {
    if (kind_ == CanaryKind::kHeartbeatOvershoot) {
      // Falsely promise that the next 7 ticks are element-free (saturated:
      // end-of-stream already promises everything).
      this->TransferHeartbeat(SaturatingAdd(watermark, 7));
      return;
    }
    UnaryPipe<Tuple, Tuple>::PortProgress(port_id, watermark);
  }

 private:
  /// Forwards one row, applying the canary's bug to every k-th.
  void Relay(const Elem& e) {
    ++n_;
    switch (kind_) {
      case CanaryKind::kDropElement:
        if (n_ % 17 == 0) return;
        break;
      case CanaryKind::kDuplicateElement:
        if (n_ % 13 == 0) this->Transfer(e);
        break;
      case CanaryKind::kCorruptPayload:
        if (n_ % 19 == 0) {
          std::vector<relational::Value> values = e.payload.values();
          values[0] = relational::Value(values[0].AsInt() + 1);
          this->Transfer(Elem(Tuple(std::move(values)), e.interval));
          return;
        }
        break;
      case CanaryKind::kWidenInterval:
        if (n_ % 11 == 0 && e.end() != kMaxTimestamp) {
          this->Transfer(Elem(e.payload, TimeInterval(e.start(), e.end() + 5)));
          return;
        }
        break;
      case CanaryKind::kStaleReplay:
        if (n_ % 31 == 0 && stale_.has_value()) {
          this->Transfer(Elem(*stale_, TimeInterval(e.start(), e.start() + 1)));
        }
        stale_ = e.payload;
        break;
      case CanaryKind::kHeartbeatOvershoot:
      case CanaryKind::kNone:
        break;
    }
    this->Transfer(e);
  }

  CanaryKind kind_;
  std::uint64_t n_ = 0;
  std::optional<Tuple> stale_;
};

/// Source that stays silent (no elements, no heartbeats, no done) until
/// opened — starves downstream watermarks for as long as the harness wants.
class GatedVectorSource : public VectorSource<Tuple> {
 public:
  using VectorSource<Tuple>::VectorSource;

  void Open() { open_ = true; }

  bool HasWork() const override {
    return open_ && VectorSource<Tuple>::HasWork();
  }
  std::size_t DoWork(std::size_t max_units) override {
    return open_ ? VectorSource<Tuple>::DoWork(max_units) : 0;
  }

  NodeDescriptor Describe() const override {
    NodeDescriptor d = VectorSource<Tuple>::Describe();
    d.op = "gated-source";
    // While closed the source provably advances no watermark (lint P022).
    d.emits_heartbeats = open_;
    return d;
  }

 private:
  bool open_ = false;
};

/// How one arm realizes the case physically and drives it.
struct Arm {
  std::string name{};
  /// Batch size of the vector sources (1 = per-element runs).
  std::size_t source_batch = 1;
  /// Feed raw (disordered) inputs through `ReorderingSource` with slack =
  /// the stream profile's disorder bound.
  bool reorder = false;
  /// Stream whose source stays gated until the rest drains (-1 = none).
  int gated_stream = -1;
  /// Splice a `Buffer` into each built edge with this probability, drawn
  /// from a Random seeded with `buffer_seed`; `buffer_capacity` > 0 bounds
  /// them (the overflow fault: the oldest elements are shed).
  std::uint64_t buffer_seed = 0;
  double buffer_prob = 0.0;
  std::size_t buffer_capacity = 0;
  /// The physical forms `PhysicalBuilder` gives the plan's operators.
  optimizer::PhysicalOptions physical{};
  int strategy_id = 0;
  std::uint64_t strategy_seed = 0;
  std::size_t batch_size = 1;
  bool snapshots = false;
  /// Register the joins with a MemoryManager and squeeze its budget
  /// mid-run.
  bool squeeze_memory = false;
  /// Shedding arms: when anything was shed, the comparison downgrades.
  bool lossy = false;
};

/// One arm's physical graph: the case's streams bound as catalog sources,
/// the plan lowered, the canary and the oracle sink hung off its output,
/// seeded buffers spliced into the built edges.
struct Bound {
  QueryGraph graph;
  cql::Catalog catalog;
  std::vector<Node*> sources;  // by stream index
  std::vector<GatedVectorSource*> gates;
  OracleSink* sink = nullptr;

  std::uint64_t TotalShed() const {
    std::uint64_t total = 0;
    for (const Node* node : graph.nodes()) total += node->ShedCount();
    return total;
  }
};

Result<std::unique_ptr<Bound>> Bind(const FuzzCase& c, const LogicalPlan& plan,
                                    const Arm& arm, CanaryKind canary) {
  auto b = std::make_unique<Bound>();
  for (std::size_t s = 0; s < c.inputs.size(); ++s) {
    const std::string name = StreamName(s);
    const Stream& raw = c.inputs[s];
    const Timestamp disorder = c.profiles[s].disorder;
    Source<Tuple>* source = nullptr;
    if (static_cast<int>(s) == arm.gated_stream) {
      auto& gated = b->graph.Add<GatedVectorSource>(SortByStart(raw), name);
      b->gates.push_back(&gated);
      source = &gated;
    } else if (arm.reorder && disorder > 0) {
      // Replays the raw stream through the reordering adapter; slack = the
      // disorder bound, so nothing is dropped and the emitted order equals
      // SortByStart's.
      auto generator = [raw, pos = std::size_t{0}]() mutable
          -> std::optional<Elem> {
        if (pos >= raw.size()) return std::nullopt;
        return raw[pos++];
      };
      auto& reorder = b->graph.Add<algebra::ReorderingSource<Tuple>>(
          std::move(generator), disorder, name);
      // The generator hides the feed from Describe(), so declare its total
      // and disorder as dataflow gauges for the static analysis.
      reorder.metadata().SetGauge("dataflow.total_elements",
                                  static_cast<double>(raw.size()));
      reorder.metadata().SetGauge("dataflow.feed_disorder",
                                  static_cast<double>(disorder));
      source = &reorder;
    } else {
      source = &b->graph.Add<VectorSource<Tuple>>(SortByStart(raw), name,
                                                  arm.source_batch);
    }
    b->sources.push_back(source);
    PIPES_RETURN_IF_ERROR(
        b->catalog.RegisterStream(name, StreamSchema(), source));
  }

  optimizer::PhysicalBuilder builder(&b->graph, &b->catalog, arm.physical);
  PIPES_ASSIGN_OR_RETURN(Source<Tuple>* tail, builder.Build(plan));
  if (canary != CanaryKind::kNone) {
    auto& pipe = b->graph.Add<CanaryPipe>(canary);
    tail->AddSubscriber(pipe.input());
    tail = &pipe;
  }
  b->sink = &b->graph.Add<OracleSink>();
  tail->AddSubscriber(b->sink->input());

  if (arm.buffer_prob > 0.0) {
    Random rng(arm.buffer_seed);
    int index = 0;
    for (Node* node : b->graph.nodes()) {
      auto* source = dynamic_cast<Source<Tuple>*>(node);
      if (source == nullptr) continue;
      for (InputPort<Tuple>* port : source->subscribed_ports()) {
        if (!rng.Bernoulli(arm.buffer_prob)) continue;
        PIPES_RETURN_IF_ERROR(
            scheduler::SpliceBuffer(b->graph, *source, *port,
                                    "fuzz-buffer-" + std::to_string(index++),
                                    arm.buffer_capacity)
                .status());
      }
    }
  }
  return b;
}

struct DriveResult {
  std::vector<Failure> failures;
  bool finished = false;
  /// Per-node peak observed state (RAM / spilled bytes), sampled on a
  /// prime stride plus once after the drain. Only filled when the caller
  /// asked for bound tracking (the static-certificate oracle).
  std::map<std::uint64_t, std::uint64_t> peak_ram;
  std::map<std::uint64_t, std::uint64_t> peak_disk;
};

/// Samples every node's RAM and spilled bytes into `r`'s peaks. Sampling
/// can only under-observe the true peak, which keeps the bound check sound
/// — it may miss a violation, never invent one.
void SamplePeaks(const QueryGraph& graph, DriveResult* r) {
  for (const Node* node : graph.nodes()) {
    std::uint64_t& ram = r->peak_ram[node->id()];
    ram = std::max<std::uint64_t>(ram, node->ApproxMemoryBytes());
    std::uint64_t& disk = r->peak_disk[node->id()];
    disk = std::max<std::uint64_t>(disk, node->SpilledBytes());
  }
}

/// Steps `b`'s graph to completion on a `PipeExecutor`, opening gated
/// sources once the rest of the graph has drained, optionally squeezing
/// the memory budget and capturing metrics snapshots mid-run. Virtual time
/// only — step count is the clock. The executor unlinks (delivering any
/// leftover supply) before the caller inspects the graph.
DriveResult DriveGraph(Bound& b, Strategy& strategy, std::size_t batch_size,
                       std::uint64_t max_iterations, bool check_snapshots,
                       memory::MemoryManager* manager, std::uint64_t squeeze_at,
                       std::size_t squeeze_budget, bool track_bounds) {
  PipeExecutor sched(b.graph, strategy, batch_size);
  DriveResult r;
  bool gates_open = b.gates.empty();
  bool squeezed = manager == nullptr;
  std::uint64_t iterations = 0;
  metadata::MetricsSnapshot prev;
  bool have_prev = false;
  // Prime strides so captures land on varying graph states.
  const std::uint64_t snap_every = 97;
  const std::uint64_t bound_every = 7;

  while (iterations < max_iterations) {
    if (!sched.Step()) {
      if (!gates_open) {
        for (GatedVectorSource* g : b.gates) g->Open();
        gates_open = true;
        continue;
      }
      break;
    }
    ++iterations;
    if (track_bounds && iterations % bound_every == 0) SamplePeaks(b.graph, &r);
    if (!squeezed && iterations >= squeeze_at) {
      manager->set_budget(squeeze_budget);
      squeezed = true;
    }
    if (check_snapshots && iterations % snap_every == 0) {
      metadata::MetricsSnapshot snap = metadata::CaptureSnapshot(b.graph);
      if (have_prev) {
        if (snap.high_watermark < prev.high_watermark) {
          std::ostringstream out;
          out << "high watermark regressed from " << prev.high_watermark
              << " to " << snap.high_watermark << " between captures";
          r.failures.push_back(Failure{"snapshot-monotone", out.str()});
        }
        for (const metadata::NodeSnapshot& n : snap.nodes) {
          const metadata::NodeSnapshot* p = prev.FindNode(n.id);
          if (p == nullptr) continue;
          if (n.elements_in < p->elements_in ||
              n.elements_out < p->elements_out || n.shed < p->shed) {
            r.failures.push_back(Failure{
                "snapshot-monotone",
                n.name + ": cumulative counters decreased between captures"});
          }
        }
      }
      prev = std::move(snap);
      have_prev = true;
    }
  }
  if (track_bounds) SamplePeaks(b.graph, &r);
  r.finished = b.graph.Finished();
  if (!r.finished) {
    r.failures.push_back(Failure{
        "livelock", "graph not drained after " + std::to_string(iterations) +
                        " scheduling decisions"});
  }
  if (check_snapshots) {
    // Final capture must JSON round-trip exactly (including shed counters).
    metadata::MetricsSnapshot snap = metadata::CaptureSnapshot(b.graph);
    auto parsed = metadata::SnapshotFromJson(metadata::ToJson(snap));
    if (!parsed.ok()) {
      r.failures.push_back(
          Failure{"snapshot-roundtrip", parsed.status().message()});
    } else if (!(parsed.value() == snap)) {
      r.failures.push_back(Failure{
          "snapshot-roundtrip", "parsed snapshot differs from captured one"});
    }
  }
  return r;
}

/// The differential oracle: `rows` against the reference table.
void Compare(const IntervalTable& expected, std::vector<Elem> rows,
             SnapRel rel, std::vector<Failure>* failures) {
  IntervalTable actual;
  actual.schema = expected.schema;
  actual.rows = std::move(rows);
  const conformance::TableDiff diff =
      conformance::SnapshotDiff(expected, actual, rel);
  if (!diff.equivalent) {
    failures->push_back(Failure{"differential", diff.message});
  }
}

/// Everything checked after a drained run: sink invariant violations,
/// per-node conservation, source completeness, and (unless `rel` is empty:
/// a lossy run of a non-monotone plan) the differential comparison.
void CheckRun(const Bound& b, const FuzzCase& c, const IntervalTable& expected,
              std::optional<SnapRel> rel, std::vector<Failure>* failures) {
  for (const Failure& f : b.sink->violations()) failures->push_back(f);
  for (const Node* node : b.graph.nodes()) {
    std::optional<std::string> bad = CheckConservation(
        RuleFor(node->Describe()), node->elements_in(), node->elements_out(),
        node->ShedCount(), node->queue_size(), node->name());
    if (bad.has_value()) failures->push_back(Failure{"conservation", *bad});
  }
  for (std::size_t s = 0; s < b.sources.size(); ++s) {
    const Node* source = b.sources[s];
    const std::uint64_t fed = source->elements_out() + source->ShedCount();
    if (fed != c.inputs[s].size()) {
      std::ostringstream out;
      out << source->name() << ": emitted " << source->elements_out()
          << " + shed " << source->ShedCount() << " != stream size "
          << c.inputs[s].size();
      failures->push_back(Failure{"conservation", out.str()});
    }
  }
  if (b.sink->elements_in() != b.sink->collected().size()) {
    failures->push_back(
        Failure{"conservation", "sink counter disagrees with collected size"});
  }
  if (rel.has_value()) Compare(expected, b.sink->collected(), *rel, failures);
}

/// The static-vs-runtime differential oracle: on a drained, non-shedding
/// run, no node's observed peak RAM (or spilled bytes) may exceed the
/// bound the dataflow abstract interpretation certified for it before the
/// run. Transient nodes (buffers, staging) and nodes with no static bound
/// are outside the certificate and skipped.
void CheckStateBounds(const analysis::DataflowResult& certified,
                      const DriveResult& drive,
                      std::vector<Failure>* failures) {
  for (const analysis::NodeFacts& nf : certified.nodes) {
    if (nf.state.transient) continue;
    const auto check = [&](const std::map<std::uint64_t, std::uint64_t>& peaks,
                           std::uint64_t bound, const char* what) {
      const auto it = peaks.find(nf.node_id);
      const std::uint64_t peak = it == peaks.end() ? 0 : it->second;
      if (bound == analysis::NodeStateBound::kUnknownBytes || peak <= bound) {
        return;
      }
      std::ostringstream out;
      out << nf.name << ": observed peak " << what << " " << peak
          << " B exceeds static certificate bound " << bound << " B";
      failures->push_back(Failure{"state-bound", out.str()});
    };
    check(drive.peak_ram, nf.state.ram_bytes, "RAM");
    check(drive.peak_disk, nf.state.disk_bytes, "spill");
  }
}

/// A random walk down from the root of `plan`: the co-registered query that
/// guarantees shared subplans.
LogicalPlan RandomSubplan(LogicalPlan plan, Random& rng) {
  while (!plan->children.empty()) {
    plan = plan->children[rng.NextBounded(plan->children.size())];
    if (rng.Bernoulli(0.5)) break;
  }
  return plan;
}

/// The engine arm: the case's streams bound into an `Engine`, 1-3 other
/// generated queries registered first (one of them a subplan of the case,
/// so sharing is exercised), then the case's plan through
/// `Engine::Register(LogicalPlan)`. Every query's results must match its
/// reference; the state-bound oracle checks the whole shared graph.
std::vector<Failure> RunEngineArm(const FuzzCase& c,
                                  const std::vector<CorpusStream>& streams,
                                  const IntervalTable& expected,
                                  const HarnessOptions& options, Random& rng,
                                  std::uint64_t max_iterations) {
  std::vector<Failure> failures;
  engine::EngineOptions engine_options;
  engine_options.certify_admission = true;
  engine::Engine eng(engine_options);
  for (const CorpusStream& s : streams) {
    auto& source = eng.graph().Add<VectorSource<Tuple>>(s.rows, s.name, 8);
    const Status bound = eng.BindStream(s.name, s.schema, source);
    if (!bound.ok()) return {Failure{"engine-register", bound.ToString()}};
  }
  std::vector<LogicalPlan> plans;
  const std::uint64_t others = 1 + rng.NextBounded(3);
  for (std::uint64_t i = 0; i < others; ++i) {
    plans.push_back(i == 0 ? RandomSubplan(c.plan, rng)
                           : GeneratePlan(rng, options.gen, c.profiles));
  }
  plans.push_back(c.plan);
  std::vector<engine::QueryHandle> handles;
  for (const LogicalPlan& plan : plans) {
    Result<engine::QueryHandle> handle = eng.Register(plan);
    if (!handle.ok()) {
      return {Failure{"engine-register", handle.status().ToString() +
                                             " registering\n" +
                                             plan->ToString()}};
    }
    handles.push_back(*handle);
  }
  const analysis::DataflowResult certified =
      analysis::AnalyzeDataflow(eng.graph());
  DriveResult drive;
  std::uint64_t steps = 0;
  while (steps < max_iterations) {
    const std::uint64_t taken = eng.Pump(7);
    if (taken == 0) break;
    steps += taken;
    SamplePeaks(eng.graph(), &drive);
  }
  SamplePeaks(eng.graph(), &drive);
  if (!eng.graph().Finished()) {
    return {Failure{"livelock", "engine graph not drained after " +
                                    std::to_string(steps) + " steps"}};
  }
  for (std::size_t i = 0; i < plans.size(); ++i) {
    std::vector<Elem> rows = handles[i].Poll();
    if (!std::is_sorted(rows.begin(), rows.end(),
                        [](const Elem& a, const Elem& b) {
                          return a.start() < b.start();
                        })) {
      failures.push_back(Failure{"order", "engine result out of order"});
    }
    // The co-registered plans come from the generator and always evaluate.
    const bool own = i + 1 == plans.size();
    const IntervalTable co_expected =
        own ? IntervalTable{} : *conformance::ReferenceEval(plans[i], streams);
    const std::size_t before = failures.size();
    Compare(own ? expected : co_expected, std::move(rows), SnapRel::kEqual,
            &failures);
    if (!own && failures.size() > before) {
      failures.back().detail +=
          "\nin co-registered query:\n" + plans[i]->ToString();
    }
  }
  CheckStateBounds(certified, drive, &failures);
  return failures;
}

}  // namespace

std::string CaseResult::Summary() const {
  if (ok()) return "";
  std::ostringstream out;
  out << "arm=" << failing_arm << " oracle=" << failures.front().oracle << ": "
      << failures.front().detail;
  return out.str();
}

std::uint64_t CaseSeed(std::uint64_t base_seed, std::uint64_t index) {
  return SplitMix64(base_seed ^ SplitMix64(index));
}

FuzzCase MakeCase(std::uint64_t case_seed, const GenOptions& gen) {
  Random rng(case_seed);
  GeneratedCase gc = GenerateCase(rng, gen);
  FuzzCase c{gc.plan, {}, gc.profiles};
  for (const StreamProfile& profile : gc.profiles) {
    c.inputs.push_back(GenerateStream(rng, profile));
  }
  return c;
}

std::size_t PlanSize(const LogicalPlan& plan) {
  return PlanNodes(plan).size();
}

CaseResult RunCaseOn(const FuzzCase& c, std::uint64_t schedule_seed,
                     const HarnessOptions& options) {
  CaseResult result;
  result.case_seed = schedule_seed;
  const auto fail = [&](std::string arm, std::vector<Failure> failures) {
    result.failing_arm = std::move(arm);
    result.failures = std::move(failures);
    return result;
  };

  std::vector<CorpusStream> streams;
  std::uint64_t total_elements = 0;
  for (std::size_t s = 0; s < c.inputs.size(); ++s) {
    streams.push_back(
        CorpusStream{StreamName(s), StreamSchema(), SortByStart(c.inputs[s])});
    total_elements += c.inputs[s].size();
  }
  const Result<IntervalTable> expected =
      conformance::ReferenceEval(c.plan, streams);
  if (!expected.ok()) {
    return fail("reference",
                {Failure{"reference", expected.status().ToString()}});
  }
  const std::uint64_t max_iterations = 200000 + 500 * total_elements;
  Random rng(SplitMix64(schedule_seed ^ 0xA5A5A5A5A5A5A5A5ULL));

  // Designated initializers evaluate in declaration order, which fixes the
  // order of the rng draws.
  std::vector<Arm> arms = {{.name = "naive",
                            .snapshots = options.check_snapshots}};
  for (std::size_t batch : {std::size_t{4}, std::size_t{32}}) {
    // FIFO pushes trains through in arrival order.
    arms.push_back({.name = "batched-" + std::to_string(batch),
                    .source_batch = batch,
                    .buffer_seed = rng.Next(),
                    .buffer_prob = 0.3,
                    .strategy_id = 1,
                    .batch_size = batch});
  }
  const std::size_t quanta[] = {1, 8, 64};
  for (int v = 0; v < options.schedule_variants; ++v) {
    arms.push_back({.name = "schedule-" + std::to_string(v),
                    .source_batch = rng.Bernoulli(0.5) ? 1u : 8u,
                    .buffer_seed = rng.Next(),
                    .buffer_prob = 0.4,
                    .strategy_id = static_cast<int>(rng.NextBounded(6)),
                    .strategy_seed = rng.Next(),
                    .batch_size = quanta[rng.NextBounded(3)]});
  }
  // Columnar runs of 32 under a random strategy (the FIFO-driven batched
  // arms above never reorder trains).
  arms.push_back({.name = "columnar-32",
                  .source_batch = 32,
                  .buffer_seed = rng.Next(),
                  .buffer_prob = 0.3,
                  .strategy_id = static_cast<int>(rng.NextBounded(6)),
                  .strategy_seed = rng.Next(),
                  .batch_size = 32});
  if (std::any_of(c.profiles.begin(), c.profiles.end(),
                  [](const StreamProfile& p) { return p.disorder > 0; })) {
    arms.push_back({.name = "reorder", .reorder = true, .batch_size = 16});
  }
  if (options.check_parallel && Partitionable(c.plan)) {
    arms.push_back({.name = "parallel",
                    .physical = {.replicas = 2 + rng.NextBounded(2)},
                    .batch_size = 8});
  }
  if (FaultEnabled(options.fault_mix, "overflow")) {
    // Longest-queue maximizes pressure variation.
    arms.push_back({.name = "fault-overflow",
                    .buffer_seed = rng.Next(),
                    .buffer_prob = 0.5,
                    .buffer_capacity = 4 + rng.NextBounded(13),
                    .strategy_id = 2,
                    .batch_size = 16,
                    .lossy = true});
  }
  if (FaultEnabled(options.fault_mix, "memory") &&
      Any(c.plan, [](const LogicalOp& op) {
        return op.kind == LogicalOp::Kind::kJoin;
      })) {
    arms.push_back({.name = "fault-memory",
                    .batch_size = 4,
                    .squeeze_memory = true,
                    .lossy = true});
    // The spill arm: the same mid-run budget squeeze, but the equi-joins
    // carry spillable SweepAreas, so pressure resolves to disk runs instead
    // of shedding and the strict comparison still applies (not lossy).
    arms.push_back({.name = "fault-spill",
                    .physical = {.spillable_joins = true},
                    .batch_size = 4,
                    .squeeze_memory = true});
  }
  if (FaultEnabled(options.fault_mix, "stall")) {
    arms.push_back({.name = "fault-stall",
                    .gated_stream = static_cast<int>(c.inputs.size()) - 1,
                    .batch_size = 8});
  }

  const auto run_arm = [&](const Arm& arm, const LogicalPlan& plan,
                           const IntervalTable& want) {
    Result<std::unique_ptr<Bound>> bound = Bind(c, plan, arm, options.canary);
    if (!bound.ok()) {
      return std::vector<Failure>{Failure{"build", bound.status().ToString()}};
    }
    Bound& b = **bound;
    // The certificate oracle applies to arms that promise losslessness:
    // the abstract interpretation runs over the physical graph BEFORE any
    // element flows, and the observed per-node peaks must stay under its
    // bounds (skipped post-hoc if the arm shed anything after all).
    const bool bound_oracle = !arm.lossy && options.canary == CanaryKind::kNone;
    std::optional<analysis::DataflowResult> certified;
    if (bound_oracle) certified = analysis::AnalyzeDataflow(b.graph);

    std::unique_ptr<memory::MemoryManager> manager;
    std::uint64_t squeeze_at = 0;
    std::size_t squeeze_budget = 0;
    if (arm.squeeze_memory) {
      manager = std::make_unique<memory::MemoryManager>(
          std::size_t{64} << 20, std::make_unique<memory::UniformStrategy>());
      for (Node* node : b.graph.nodes()) {
        auto* user = dynamic_cast<memory::MemoryUser*>(node);
        // A lossless arm squeezes only the joins that page state to disk
        // instead of shedding it.
        if (user != nullptr &&
            (arm.lossy || node->Describe().op == "spill-hash-join")) {
          (void)manager->Register(*user);
        }
      }
      squeeze_at = 1 + rng.NextBounded(std::max<std::uint64_t>(
                           total_elements / 2, 1));
      squeeze_budget = 512 + rng.NextBounded(4096);
    }
    std::unique_ptr<Strategy> strategy =
        MakeStrategy(arm.strategy_id, arm.strategy_seed);
    DriveResult drive =
        DriveGraph(b, *strategy, arm.batch_size, max_iterations,
                   arm.snapshots, manager.get(), squeeze_at, squeeze_budget,
                   bound_oracle);
    std::vector<Failure> failures = std::move(drive.failures);
    if (!drive.finished) return failures;
    std::optional<SnapRel> rel = SnapRel::kEqual;
    if (arm.lossy && b.TotalShed() > 0) {
      // Loss is only a sub-multiset relation when every operator maps
      // smaller inputs to smaller snapshots; difference/aggregates can
      // amplify loss, so only invariants remain checkable there.
      rel = Monotone(plan) ? std::optional(SnapRel::kSubset) : std::nullopt;
    }
    CheckRun(b, c, want, rel, &failures);
    if (certified.has_value() && b.TotalShed() == 0) {
      CheckStateBounds(*certified, drive, &failures);
    }
    return failures;
  };

  for (const Arm& arm : arms) {
    result.arms.push_back(arm.name);
    std::vector<Failure> failures = run_arm(arm, c.plan, *expected);
    if (!failures.empty()) return fail(arm.name, std::move(failures));
  }

  if (options.check_rewrites) {
    // Optimize arm: the optimized plan must be snapshot-equivalent to the
    // original at the reference level, and must run to the same result.
    result.arms.push_back("optimize");
    const LogicalPlan optimized = optimizer::Optimizer().Optimize(c.plan).plan;
    Result<IntervalTable> optimized_expected =
        conformance::ReferenceEval(optimized, streams);
    if (!optimized_expected.ok()) {
      return fail("optimize",
                  {Failure{"reference",
                           optimized_expected.status().ToString()}});
    }
    const conformance::TableDiff unsound =
        conformance::SnapshotDiff(*expected, *optimized_expected);
    if (!unsound.equivalent) {
      return fail("optimize",
                  {Failure{"rewrite", unsound.message + "\noptimized plan:\n" +
                                          optimized->ToString()}});
    }
    std::vector<Failure> failures = run_arm(
        {.buffer_seed = rng.Next(), .buffer_prob = 0.3, .batch_size = 8},
        optimized, *expected);
    if (!failures.empty()) return fail("optimize", std::move(failures));

    result.arms.push_back("engine");
    failures = RunEngineArm(c, streams, *expected, options, rng,
                            max_iterations);
    if (!failures.empty()) return fail("engine", std::move(failures));
  }
  return result;
}

CaseResult RunCase(std::uint64_t case_seed, const HarnessOptions& options) {
  return RunCaseOn(MakeCase(case_seed, options.gen), case_seed, options);
}

FuzzStats RunFuzz(std::uint64_t base_seed, std::uint64_t num_cases,
                  const HarnessOptions& options, std::ostream* log) {
  FuzzStats stats;
  for (std::uint64_t i = 0; i < num_cases; ++i) {
    const std::uint64_t seed = CaseSeed(base_seed, i);
    const FuzzCase c = MakeCase(seed, options.gen);
    CaseResult r = RunCaseOn(c, seed, options);
    ++stats.cases_run;
    stats.arms_run += r.arms.size();
    for (const std::string& arm : r.arms) ++stats.arms_by_name[arm];
    if (!r.ok()) {
      ++stats.failed_cases;
      stats.first_failure = r;
      if (log != nullptr) {
        *log << "FAIL case " << i << " seed " << seed << ": " << r.Summary()
             << "\nplan:\n"
             << c.plan->ToString();
      }
      return stats;
    }
    if (log != nullptr && (i + 1) % 500 == 0) {
      *log << "  " << (i + 1) << "/" << num_cases << " cases ok ("
           << stats.arms_run << " arms)\n";
    }
  }
  return stats;
}

namespace {

/// `plan` with every occurrence of `target` replaced by `replacement`.
LogicalPlan Replace(const LogicalPlan& plan, const LogicalOp* target,
                    const LogicalPlan& replacement) {
  if (plan.get() == target) return replacement;
  std::vector<LogicalPlan> children;
  bool changed = false;
  for (const LogicalPlan& child : plan->children) {
    children.push_back(Replace(child, target, replacement));
    changed |= children.back() != child;
  }
  return changed ? optimizer::CloneWithChildren(*plan, std::move(children))
                 : plan;
}

}  // namespace

ShrinkResult Shrink(const FuzzCase& fuzz_case, std::uint64_t schedule_seed,
                    const HarnessOptions& options, int max_reruns) {
  ShrinkResult best;
  best.shrunk = fuzz_case;
  best.result = RunCaseOn(fuzz_case, schedule_seed, options);
  best.reruns = 1;
  if (best.result.ok()) return best;  // nothing to shrink

  auto still_fails = [&](const FuzzCase& candidate) {
    if (best.reruns >= max_reruns) return false;
    ++best.reruns;
    CaseResult r = RunCaseOn(candidate, schedule_seed, options);
    if (r.ok()) return false;
    best.shrunk = candidate;
    best.result = std::move(r);
    return true;
  };

  // Phase 1: greedy operator bypassing — an operator is replaced by one of
  // its children of the same arity — until no single bypass keeps the
  // failure.
  bool improved = true;
  while (improved && best.reruns < max_reruns) {
    improved = false;
    const LogicalPlan plan = best.shrunk.plan;
    for (const LogicalOp* op : PlanNodes(plan)) {
      for (const LogicalPlan& child : op->children) {
        if (child->schema.arity() != op->schema.arity()) continue;
        FuzzCase candidate = best.shrunk;
        candidate.plan = Replace(plan, op, child);
        if (still_fails(candidate)) {
          improved = true;
          break;
        }
      }
      if (improved) break;
    }
  }

  // Phase 2: ddmin on each input stream (drop contiguous chunks, halving
  // the chunk size).
  for (std::size_t s = 0;
       s < best.shrunk.inputs.size() && best.reruns < max_reruns; ++s) {
    std::size_t chunk = (best.shrunk.inputs[s].size() + 1) / 2;
    while (chunk >= 1 && best.reruns < max_reruns) {
      bool removed = false;
      for (std::size_t at = 0; at < best.shrunk.inputs[s].size();) {
        FuzzCase candidate = best.shrunk;
        Stream& stream = candidate.inputs[s];
        const std::size_t take = std::min(chunk, stream.size() - at);
        stream.erase(stream.begin() + static_cast<std::ptrdiff_t>(at),
                     stream.begin() + static_cast<std::ptrdiff_t>(at + take));
        if (still_fails(candidate)) {
          removed = true;  // `at` now points past the removed chunk
        } else {
          at += chunk;
        }
        if (best.reruns >= max_reruns) break;
      }
      if (chunk == 1 && !removed) break;
      chunk = std::max<std::size_t>(chunk / 2, 1);
      if (chunk == 1 && !removed && best.shrunk.inputs[s].empty()) break;
    }
  }
  return best;
}

bool SelfCheck(std::uint64_t seed, std::ostream* log) {
  // Control: clean cases must pass, or detections below mean nothing.
  HarnessOptions clean;
  clean.fault_mix = "none";
  clean.check_rewrites = false;
  clean.schedule_variants = 1;
  for (std::uint64_t i = 0; i < 3; ++i) {
    CaseResult r = RunCase(CaseSeed(seed, i), clean);
    if (!r.ok()) {
      if (log != nullptr) {
        *log << "self-check: clean control case failed: " << r.Summary()
             << "\n";
      }
      return false;
    }
  }

  bool all_caught = true;
  for (int k = 1; k < kNumCanaryKinds; ++k) {
    const auto kind = static_cast<CanaryKind>(k);
#ifndef NDEBUG
    if (kind == CanaryKind::kHeartbeatOvershoot) {
      // The overshooting canary's own next Transfer breaks the start-order
      // PIPES_DCHECK, which aborts before any oracle runs.
      if (log != nullptr) {
        *log << "self-check canary " << CanaryKindName(kind)
             << ": left to the start-order PIPES_DCHECK (debug build)\n";
      }
      continue;
    }
#endif
    HarnessOptions options = clean;
    options.canary = kind;
    bool caught = false;
    std::uint64_t attempts = 0;
    for (; attempts < 25 && !caught; ++attempts) {
      const std::uint64_t case_seed =
          CaseSeed(seed ^ (0x100 + static_cast<std::uint64_t>(kind)),
                   attempts);
      caught = !RunCase(case_seed, options).ok();
    }
    if (log != nullptr) {
      *log << "self-check canary " << CanaryKindName(kind) << ": "
           << (caught ? "caught" : "MISSED") << " (after " << attempts
           << " case(s))\n";
    }
    all_caught &= caught;
  }
  return all_caught;
}

}  // namespace pipes::testing
