#include "src/analysis/fixtures.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/algebra/aggregate.h"
#include "src/algebra/distinct.h"
#include "src/algebra/filter.h"
#include "src/algebra/parallel.h"
#include "src/algebra/union.h"
#include "src/algebra/window.h"
#include "src/core/buffer.h"
#include "src/core/generator_source.h"
#include "src/core/parallel.h"
#include "src/core/sink.h"
#include "src/workloads/espbench_queries.h"
#include "src/workloads/nexmark_queries.h"
#include "src/workloads/traffic_queries.h"

namespace pipes::analysis {
namespace {

struct Identity {
  int operator()(const int& v) const { return v; }
};
struct AlwaysTrue {
  bool operator()(const int&) const { return true; }
};
struct AsDouble {
  double operator()(const int& v) const { return static_cast<double>(v); }
};
struct CombineSum {
  int operator()(const int& l, const int& r) const { return l + r; }
};

/// A source that never heartbeats (e.g. a raw network tap with no progress
/// protocol) — the P014 subject.
class SilentSource : public VectorSource<int> {
 public:
  explicit SilentSource(std::string name = "silent")
      : VectorSource<int>({}, std::move(name)) {}

  NodeDescriptor Describe() const override {
    NodeDescriptor d = VectorSource<int>::Describe();
    d.op = "silent-source";
    d.emits_heartbeats = false;
    return d;
  }
};

std::shared_ptr<QueryGraph> NewGraph() {
  return std::make_shared<QueryGraph>();
}

int ActiveIndexOf(const QueryGraph& graph, const Node* node) {
  const std::vector<Node*> active = graph.ActiveNodes();
  const auto it = std::find(active.begin(), active.end(), node);
  PIPES_CHECK(it != active.end());
  return static_cast<int>(it - active.begin());
}

// --- One builder per rule ----------------------------------------------------

LintSubject BuildCycle() {  // P001
  LintSubject s;
  s.graph = NewGraph();
  auto& a = s.graph->Add<BasicBuffer<int>>("loop-a");
  auto& b = s.graph->Add<BasicBuffer<int>>("loop-b");
  a.AddSubscriber(b.input());
  b.AddSubscriber(a.input());
  return s;
}

LintSubject BuildForeignEdge() {  // P002
  LintSubject s;
  s.graph = NewGraph();
  auto foreign = std::make_shared<CountingSink<int>>("foreign-sink");
  auto& src = s.graph->Add<VectorSource<int>>(
      std::vector<StreamElement<int>>{}, "src");
  src.AddSubscriber(foreign->input());
  s.keepalive = foreign;
  return s;
}

LintSubject BuildDanglingInput() {  // P003
  LintSubject s;
  s.graph = NewGraph();
  auto& filter = s.graph->Add<algebra::Filter<int, AlwaysTrue>>(
      AlwaysTrue{}, "orphan-filter");
  auto& sink = s.graph->Add<CountingSink<int>>("sink");
  filter.AddSubscriber(sink.input());
  return s;
}

LintSubject BuildUnsubscribedOutput() {  // P004
  LintSubject s;
  s.graph = NewGraph();
  auto& src = s.graph->Add<VectorSource<int>>(
      std::vector<StreamElement<int>>{}, "src");
  auto& dead = s.graph->Add<algebra::Filter<int, AlwaysTrue>>(AlwaysTrue{},
                                                              "dead-end");
  auto& sink = s.graph->Add<CountingSink<int>>("sink");
  src.AddSubscriber(dead.input());
  src.AddSubscriber(sink.input());
  return s;
}

LintSubject BuildSinkUnreachable() {  // P005
  LintSubject s;
  s.graph = NewGraph();
  auto& src = s.graph->Add<VectorSource<int>>(
      std::vector<StreamElement<int>>{}, "src");
  auto& filter =
      s.graph->Add<algebra::Filter<int, AlwaysTrue>>(AlwaysTrue{}, "f");
  src.AddSubscriber(filter.input());
  return s;
}

LintSubject BuildUnboundedBlocking() {  // P006
  LintSubject s;
  s.graph = NewGraph();
  auto& src = s.graph->Add<VectorSource<int>>(
      std::vector<StreamElement<int>>{}, "src");
  auto& window =
      s.graph->Add<algebra::UnboundedWindow<int>>("unbounded-window");
  auto& agg = s.graph->Add<
      algebra::TemporalAggregate<int, algebra::MaxAgg<double>, AsDouble>>(
      AsDouble{}, "aggregate");
  auto& sink = s.graph->Add<CountingSink<double>>("sink");
  src.AddSubscriber(window.input());
  window.AddSubscriber(agg.input());
  agg.AddSubscriber(sink.input());
  return s;
}

LintSubject BuildPartitionUnmerged() {  // P007
  LintSubject s;
  s.graph = NewGraph();
  auto& src = s.graph->Add<VectorSource<int>>(
      std::vector<StreamElement<int>>{}, "src");
  auto& split = s.graph->Add<Partition<int, Identity>>(2, Identity{},
                                                       "partition");
  src.AddSubscriber(split.input());
  for (std::size_t i = 0; i < 2; ++i) {
    auto& buf = s.graph->Add<BasicBuffer<int>>("buf-" + std::to_string(i));
    auto& sink =
        s.graph->Add<CountingSink<int>>("sink-" + std::to_string(i));
    split.AddSubscriber(i, buf.input());
    buf.AddSubscriber(sink.input());
  }
  return s;
}

LintSubject BuildMergeFaninMismatch() {  // P008
  LintSubject s;
  s.graph = NewGraph();
  auto& src = s.graph->Add<VectorSource<int>>(
      std::vector<StreamElement<int>>{}, "src");
  auto& split = s.graph->Add<Partition<int, Identity>>(3, Identity{},
                                                       "partition");
  auto& merge = s.graph->Add<Merge<int>>(2, "merge");
  auto& sink = s.graph->Add<CountingSink<int>>("sink");
  src.AddSubscriber(split.input());
  for (std::size_t i = 0; i < 3; ++i) {
    auto& buf = s.graph->Add<BasicBuffer<int>>("buf-" + std::to_string(i));
    split.AddSubscriber(i, buf.input());
    if (i < 2) {
      buf.AddSubscriber(merge.input(i));
    } else {
      auto& spill = s.graph->Add<CountingSink<int>>("spill");
      buf.AddSubscriber(spill.input());
    }
  }
  merge.AddSubscriber(sink.input());
  return s;
}

LintSubject BuildNonpartitionableReplica() {  // P009
  LintSubject s;
  s.graph = NewGraph();
  auto& src = s.graph->Add<VectorSource<int>>(
      std::vector<StreamElement<int>>{}, "src");
  auto& split = s.graph->Add<Partition<int, Identity>>(2, Identity{},
                                                       "partition");
  auto& merge = s.graph->Add<Merge<double>>(2, "merge");
  auto& sink = s.graph->Add<CountingSink<double>>("sink");
  src.AddSubscriber(split.input());
  for (std::size_t i = 0; i < 2; ++i) {
    // A *scalar* aggregate: its single sweep-line spans all keys, so a
    // keyed split computes per-partition maxima, not the global one.
    auto& buf = s.graph->Add<BasicBuffer<int>>("buf-" + std::to_string(i));
    auto& agg = s.graph->Add<
        algebra::TemporalAggregate<int, algebra::MaxAgg<double>, AsDouble>>(
        AsDouble{}, "agg-" + std::to_string(i));
    split.AddSubscriber(i, buf.input());
    buf.AddSubscriber(agg.input());
    agg.AddSubscriber(merge.input(i));
  }
  merge.AddSubscriber(sink.input());
  return s;
}

/// A correctly built replicated Distinct stage: the base for the
/// assignment fixtures, which then perturb the pinned assignment.
LintSubject BuildParallelDistinct(int num_workers) {
  LintSubject s;
  s.graph = NewGraph();
  auto& src = s.graph->Add<VectorSource<int>>(
      std::vector<StreamElement<int>>{}, "src");
  auto chain =
      algebra::MakeKeyedParallel<algebra::Distinct<int>>(*s.graph, 2,
                                                         Identity{});
  auto& sink = s.graph->Add<CountingSink<int>>("sink");
  src.AddSubscriber(*chain.input);
  chain.output->AddSubscriber(sink.input());
  s.assignment = chain.PinnedAssignment(*s.graph, num_workers);
  s.num_workers = num_workers;
  // Stash the handles the perturbing builders need.
  s.keepalive = std::make_shared<algebra::ParallelChain<int, int>>(chain);
  return s;
}

LintSubject BuildMergeOffWorkerZero() {  // P010
  LintSubject s = BuildParallelDistinct(3);
  const auto& chain =
      *std::static_pointer_cast<algebra::ParallelChain<int, int>>(
          s.keepalive);
  s.assignment[ActiveIndexOf(*s.graph, chain.replica_outputs[0])] = 1;
  return s;
}

LintSubject BuildReplicaSplit() {  // P011
  LintSubject s;
  s.graph = NewGraph();
  auto& left = s.graph->Add<VectorSource<int>>(
      std::vector<StreamElement<int>>{}, "left-src");
  auto& right = s.graph->Add<VectorSource<int>>(
      std::vector<StreamElement<int>>{}, "right-src");
  auto chain = algebra::MakeParallelHashJoin<int, int>(
      *s.graph, 2, Identity{}, Identity{}, CombineSum{});
  auto& sink = s.graph->Add<CountingSink<int>>("sink");
  left.AddSubscriber(*chain.left);
  right.AddSubscriber(*chain.right);
  chain.output->AddSubscriber(sink.input());
  s.num_workers = 3;
  s.assignment = chain.PinnedAssignment(*s.graph, s.num_workers);
  // Split replica 0's two input buffers across workers 1 and 2.
  s.assignment[ActiveIndexOf(*s.graph, chain.replica_inputs[0][0])] = 1;
  s.assignment[ActiveIndexOf(*s.graph, chain.replica_inputs[0][1])] = 2;
  return s;
}

LintSubject BuildReplicaCollision() {  // P012
  LintSubject s = BuildParallelDistinct(3);
  const auto& chain =
      *std::static_pointer_cast<algebra::ParallelChain<int, int>>(
          s.keepalive);
  // Pile both replicas onto worker 1; worker 2 idles.
  for (const auto& buffers : chain.replica_inputs) {
    for (const Node* buffer : buffers) {
      s.assignment[ActiveIndexOf(*s.graph, buffer)] = 1;
    }
  }
  return s;
}

LintSubject BuildStalledInput() {  // P014
  LintSubject s;
  s.graph = NewGraph();
  auto& silent = s.graph->Add<SilentSource>("silent");
  auto& live = s.graph->Add<VectorSource<int>>(
      std::vector<StreamElement<int>>{}, "live");
  auto& merge = s.graph->Add<algebra::Union<int>>("union");
  auto& sink = s.graph->Add<CountingSink<int>>("sink");
  silent.AddSubscriber(merge.left());
  live.AddSubscriber(merge.right());
  merge.AddSubscriber(sink.input());
  return s;
}

LintSubject BuildDeprecatedApi() {  // P015
  LintSubject s;
  s.graph = NewGraph();
  auto& src = s.graph->Add<VectorSource<int>>(
      std::vector<StreamElement<int>>{}, "src");
  auto& sink = s.graph->Add<CountingSink<int>>("sink");
  src.AddSubscriber(sink.input());
  src.metadata().SetGauge(
      "lint.deprecated:built via a legacy wrapper; use the fluent builder",
      1.0);
  return s;
}

LintSubject BuildFootgunBuffer() {  // P016
  LintSubject s;
  s.graph = NewGraph();
  auto& src = s.graph->Add<VectorSource<int>>(
      std::vector<StreamElement<int>>{}, "src");
  auto& buf =
      s.graph->Add<BasicBuffer<int>>("lossy-buffer", /*capacity=*/8);
  auto& sink = s.graph->Add<CountingSink<int>>("sink");
  src.AddSubscriber(buf.input());
  buf.AddSubscriber(sink.input());
  return s;
}

LintSubject BuildOrphanedTenantOutput() {  // P019
  LintSubject s;
  s.graph = NewGraph();
  auto& src = s.graph->Add<VectorSource<int>>(
      std::vector<StreamElement<int>>{}, "trades-scan");
  auto& out = s.graph->Add<algebra::Filter<int, AlwaysTrue>>(AlwaysTrue{},
                                                             "acme-output");
  src.AddSubscriber(out.input());
  // The engine stamps registered outputs with this gauge and keeps its
  // result sink subscribed; detaching the sink without cancelling leaves
  // exactly this shape behind.
  out.metadata().SetGauge("engine.registered_output:acme", 1.0);
  return s;
}

LintSubject BuildSheddingSpillableJoin() {  // P020
  LintSubject s;
  s.graph = NewGraph();
  auto& left = s.graph->Add<VectorSource<int>>(
      std::vector<StreamElement<int>>{}, "left");
  auto& right = s.graph->Add<VectorSource<int>>(
      std::vector<StreamElement<int>>{}, "right");
  auto& join = s.graph->Add(algebra::MakeSpillableHashJoin<int, int>(
      Identity{}, Identity{}, CombineSum{}, "spilly-join"));
  auto& sink = s.graph->Add<CountingSink<int>>("sink");
  left.AddSubscriber(join.left());
  right.AddSubscriber(join.right());
  join.AddSubscriber(sink.input());
  // The spillable default is ShedPolicy::kNone; opting back into shedding
  // on an operator that can page losslessly is the P020 subject.
  join.set_shed_policy(algebra::ShedPolicy::kEvictFromLargerArea);
  return s;
}

LintSubject BuildUnboundedStateNoSpill() {  // P021
  LintSubject s;
  s.graph = NewGraph();
  auto& src = s.graph->Add<VectorSource<int>>(
      std::vector<StreamElement<int>>{}, "src");
  // The backing vector is a stand-in: declare the feed unbounded (no total,
  // no rate), as a live network tap would be.
  src.metadata().SetGauge("dataflow.total_elements", -1);
  auto& distinct = s.graph->Add<algebra::Distinct<int>>("leaky-distinct");
  auto& sink = s.graph->Add<CountingSink<int>>("sink");
  src.AddSubscriber(distinct.input());
  distinct.AddSubscriber(sink.input());
  return s;
}

LintSubject BuildWatermarkStarvedBlocking() {  // P022
  LintSubject s;
  s.graph = NewGraph();
  auto& silent = s.graph->Add<SilentSource>("silent");
  auto& distinct = s.graph->Add<algebra::Distinct<int>>("starved-distinct");
  auto& sink = s.graph->Add<CountingSink<int>>("sink");
  silent.AddSubscriber(distinct.input());
  distinct.AddSubscriber(sink.input());
  return s;
}

LintSubject BuildDisorderExceedsSlack() {  // P023
  LintSubject s;
  s.graph = NewGraph();
  auto& src = s.graph->Add<VectorSource<int>>(
      std::vector<StreamElement<int>>{}, "jittery-src");
  // The feed arrives up to 50 units late, with no reordering stage (slack
  // 0) in front of it: elements later than the slack would be dropped.
  src.metadata().SetGauge("dataflow.feed_disorder", 50);
  auto& sink = s.graph->Add<CountingSink<int>>("sink");
  src.AddSubscriber(sink.input());
  return s;
}

LintSubject BuildPartitionUnderprovisioned() {  // P024
  LintSubject s;
  s.graph = NewGraph();
  auto& src = s.graph->Add<VectorSource<int>>(
      std::vector<StreamElement<int>>{}, "src");
  src.metadata().SetGauge("dataflow.rate_per_unit", 100.0);
  auto& split = s.graph->Add<Partition<int, Identity>>(2, Identity{},
                                                       "partition");
  auto& merge = s.graph->Add<Merge<int>>(2, "merge");
  auto& sink = s.graph->Add<CountingSink<int>>("sink");
  src.AddSubscriber(split.input());
  for (std::size_t i = 0; i < 2; ++i) {
    auto& buf = s.graph->Add<BasicBuffer<int>>("buf-" + std::to_string(i));
    split.AddSubscriber(i, buf.input());
    buf.AddSubscriber(merge.input(i));
  }
  merge.AddSubscriber(sink.input());
  // Each replica keeps up with 10 elements/unit; 2 x 10 < the certified
  // input rate of 100/unit.
  split.metadata().SetGauge("dataflow.capacity_per_unit", 10.0);
  return s;
}

LintSubject BuildBudgetExceeded() {  // P025
  LintSubject s;
  s.graph = NewGraph();
  auto& src = s.graph->Add<VectorSource<int>>(
      std::vector<StreamElement<int>>{}, "src");
  auto& agg = s.graph->Add<
      algebra::TemporalAggregate<int, algebra::MaxAgg<double>, AsDouble>>(
      AsDouble{}, "agg");
  auto& sink = s.graph->Add<CountingSink<double>>("sink");
  src.AddSubscriber(agg.input());
  agg.AddSubscriber(sink.input());
  // The aggregate's constant sweep-line overhead alone exceeds a declared
  // 16-byte budget — the admission gate would reject this plan.
  src.metadata().SetGauge("dataflow.ram_budget_bytes", 16.0);
  return s;
}

LintSubject BuildAssignmentShape() {  // P017
  LintSubject s;
  s.graph = NewGraph();
  auto& src = s.graph->Add<VectorSource<int>>(
      std::vector<StreamElement<int>>{}, "src");
  auto& sink = s.graph->Add<CountingSink<int>>("sink");
  src.AddSubscriber(sink.input());
  s.assignment = {0, 0, 0};  // one active node, three entries
  s.num_workers = 1;
  return s;
}

}  // namespace

std::vector<Diagnostic> LintSubject::LintAll() const {
  std::vector<Diagnostic> diags = Lint(*graph);
  if (num_workers > 0) {
    std::vector<Diagnostic> extra =
        LintAssignment(*graph, assignment, num_workers);
    diags.insert(diags.end(), extra.begin(), extra.end());
  }
  // Same key as Linter::Take() and Diagnostic equality: merged graph+
  // assignment diagnostics order exactly as a single lint pass would.
  std::sort(diags.begin(), diags.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              return std::tie(a.rule_id, a.severity, a.node, a.path,
                              a.message, a.fixit) <
                     std::tie(b.rule_id, b.severity, b.node, b.path,
                              b.message, b.fixit);
            });
  return diags;
}

const std::vector<LintFixture>& BrokenGraphFixtures() {
  static const std::vector<LintFixture> kFixtures = {
      {"cycle", "P001", Severity::kError, "loop-a", "", BuildCycle},
      {"foreign-edge", "P002", Severity::kError, "src", "",
       BuildForeignEdge},
      {"dangling-input", "P003", Severity::kError, "orphan-filter", "",
       BuildDanglingInput},
      {"unsubscribed-output", "P004", Severity::kWarning, "dead-end", "",
       BuildUnsubscribedOutput},
      {"sink-unreachable", "P005", Severity::kWarning, "src", "",
       BuildSinkUnreachable},
      {"unbounded-blocking", "P006", Severity::kWarning, "aggregate",
       "unbounded-window -> aggregate", BuildUnboundedBlocking},
      {"partition-unmerged", "P007", Severity::kWarning, "partition", "",
       BuildPartitionUnmerged},
      {"merge-fanin-mismatch", "P008", Severity::kError, "merge",
       "partition -> merge", BuildMergeFaninMismatch},
      {"nonpartitionable-replica", "P009", Severity::kError, "agg-0",
       "partition -> agg-0", BuildNonpartitionableReplica},
      {"merge-off-worker-zero", "P010", Severity::kError, "replica-out-0",
       "replica-out-0 -> merge", BuildMergeOffWorkerZero},
      {"replica-split", "P011", Severity::kError, "hash-join-0",
       "hash-join-partition-l -> hash-join-0", BuildReplicaSplit},
      {"replica-collision", "P012", Severity::kWarning, "partition", "",
       BuildReplicaCollision},
      {"stalled-input", "P014", Severity::kError, "union",
       "silent -> union", BuildStalledInput},
      {"deprecated-api", "P015", Severity::kWarning, "src", "",
       BuildDeprecatedApi},
      {"footgun-buffer", "P016", Severity::kNote, "lossy-buffer", "",
       BuildFootgunBuffer},
      {"assignment-shape", "P017", Severity::kError, "", "",
       BuildAssignmentShape},
      {"orphaned-tenant-output", "P019", Severity::kError, "acme-output", "",
       BuildOrphanedTenantOutput},
      {"shed-with-spill", "P020", Severity::kWarning, "spilly-join", "",
       BuildSheddingSpillableJoin},
      {"unbounded-state-no-spill", "P021", Severity::kWarning,
       "leaky-distinct", "", BuildUnboundedStateNoSpill},
      {"watermark-starved-blocking", "P022", Severity::kWarning,
       "starved-distinct", "", BuildWatermarkStarvedBlocking},
      {"disorder-exceeds-slack", "P023", Severity::kWarning, "jittery-src",
       "", BuildDisorderExceedsSlack},
      {"partition-underprovisioned", "P024", Severity::kWarning, "partition",
       "", BuildPartitionUnderprovisioned},
      {"budget-exceeded", "P025", Severity::kWarning, "src", "",
       BuildBudgetExceeded},
  };
  return kFixtures;
}

std::string CheckFixture(const LintFixture& fixture) {
  const LintSubject subject = fixture.build();
  const std::vector<Diagnostic> diags = subject.LintAll();
  for (const Diagnostic& d : diags) {
    if (d.rule_id == fixture.rule_id && d.severity == fixture.severity &&
        d.node == fixture.node && d.path == fixture.path) {
      if (d.message.empty()) {
        return "fixture '" + fixture.name + "': " + fixture.rule_id +
               " fired with an empty message";
      }
      return "";
    }
  }
  std::ostringstream out;
  out << "fixture '" << fixture.name << "': expected " << fixture.rule_id
      << " (" << SeverityName(fixture.severity) << ") on node '"
      << fixture.node << "'";
  if (!fixture.path.empty()) out << " path '" << fixture.path << "'";
  out << "; got " << diags.size() << " diagnostic(s):\n" << ToText(diags);
  return out.str();
}

LintSubject BuildTrafficLintGraph() {
  LintSubject s;
  s.graph = NewGraph();
  auto& readings =
      workloads::AddTrafficSource(*s.graph, workloads::TrafficOptions{},
                                  /*batch_size=*/8);
  auto& hov = workloads::BuildHovAverageSpeedQuery(*s.graph, readings,
                                                   /*range=*/3600,
                                                   /*slide=*/300);
  auto& hov_sink = s.graph->Add<
      CountingSink<std::pair<std::int32_t, double>>>("hov-sink");
  hov.AddSubscriber(hov_sink.input());

  auto& alarms = workloads::BuildCongestionQuery(
      *s.graph, readings, /*direction=*/0, /*avg_window=*/300,
      /*avg_slide=*/60, /*speed_threshold=*/40.0, /*min_duration=*/900);
  auto& alarm_sink =
      s.graph->Add<CountingSink<workloads::Sustained<std::int32_t>>>(
          "alarm-sink");
  alarms.AddSubscriber(alarm_sink.input());
  return s;
}

LintSubject BuildNexmarkLintGraph() {
  LintSubject s;
  s.graph = NewGraph();
  auto& events = workloads::AddNexmarkSource(
      *s.graph, workloads::NexmarkOptions{}, /*batch_size=*/8);
  auto& bids = workloads::BuildBidStream(*s.graph, events);

  auto& highest = workloads::BuildHighestBidQuery(*s.graph, bids,
                                                  /*period=*/60000);
  auto& highest_sink = s.graph->Add<CountingSink<double>>("highest-sink");
  highest.AddSubscriber(highest_sink.input());

  // The replicated flavour of the per-auction statistics, with the pinned
  // assignment — the clean counterpart of the P010–P012 fixtures.
  auto chain = algebra::MakeKeyedParallel<workloads::BidsPerAuction>(
      *s.graph, 2, workloads::AuctionOfBid{}, workloads::AuctionOfBid{},
      workloads::PriceOf{});
  auto& stats_sink =
      s.graph->Add<CountingSink<workloads::BidsPerAuction::Output>>(
          "stats-sink");
  bids.AddSubscriber(*chain.input);
  chain.output->AddSubscriber(stats_sink.input());
  s.num_workers = 3;
  s.assignment = chain.PinnedAssignment(*s.graph, s.num_workers);
  return s;
}

LintSubject BuildEspbenchLintGraph() {
  LintSubject s;
  s.graph = NewGraph();
  workloads::EspbenchOptions options;
  options.duration_ms = 30'000;
  options.disorder_slack_ms = 40;
  options.burst_period_ms = 5'000;
  options.overloads = {{/*begin=*/5'000, /*end=*/15'000, /*machine=*/3,
                        /*power_factor=*/2.0}};
  auto& events = workloads::AddReorderedEspbenchSource(*s.graph, options);

  auto& alerts = workloads::BuildPowerThresholdAlertQuery(
      *s.graph, events, /*threshold_w=*/1'300.0, /*min_duration=*/2'000);
  auto& alert_sink =
      s.graph->Add<CountingSink<workloads::Sustained<std::int64_t>>>(
          "alert-sink");
  alerts.AddSubscriber(alert_sink.input());

  auto& power = workloads::BuildMachinePowerQuery(*s.graph, events,
                                                  /*range=*/1'000,
                                                  /*slide=*/500);
  auto& power_sink = s.graph->Add<
      CountingSink<std::pair<std::int64_t, double>>>("power-sink");
  power.AddSubscriber(power_sink.input());

  auto& orders = workloads::AddOrderDimensionSource(
      *s.graph, workloads::GenerateOrders(options));
  auto& enriched =
      workloads::BuildOrderEnrichmentJoin(*s.graph, events, orders);
  auto& enriched_sink =
      s.graph->Add<CountingSink<workloads::EventWithOrder>>("enriched-sink");
  enriched.AddSubscriber(enriched_sink.input());
  return s;
}

}  // namespace pipes::analysis
