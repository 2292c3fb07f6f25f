// Tests for the ESPBench enterprise workload: generator determinism, the
// burst / disorder / late-data knobs (including the slack property the
// dataflow disorder annotations rely on), the ERP dimensions, the typed
// query fragments, and the CQL/Engine integration.

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/generator_source.h"
#include "src/core/graph.h"
#include "src/core/sink.h"
#include "src/engine/engine.h"
#include "src/scheduler/scheduler.h"
#include "src/workloads/espbench_cql.h"
#include "src/workloads/espbench_queries.h"

namespace pipes::workloads {
namespace {

void Drain(QueryGraph& graph) {
  scheduler::RoundRobinStrategy strategy;
  scheduler::PipeExecutor driver(graph, strategy, 512);
  driver.RunToCompletion();
}

std::vector<MachineEvent> DrainGenerator(const EspbenchOptions& options) {
  EspbenchGenerator generator(options);
  std::vector<MachineEvent> events;
  while (auto e = generator.Next()) events.push_back(*e);
  return events;
}

EspbenchOptions SmallOptions() {
  EspbenchOptions options;
  options.num_machines = 6;
  options.sensors_per_machine = 2;
  options.duration_ms = 10'000;
  options.mean_interarrival_ms = 4.0;
  return options;
}

// --- Generator ---------------------------------------------------------------

TEST(EspbenchGenerator, DeterministicPerSeedAndCoversMachines) {
  const EspbenchOptions options = SmallOptions();
  const std::vector<MachineEvent> a = DrainGenerator(options);
  const std::vector<MachineEvent> b = DrainGenerator(options);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);

  EspbenchOptions other = options;
  other.seed = 7;
  EXPECT_NE(a, DrainGenerator(other));

  std::set<std::int64_t> machines;
  std::set<std::int32_t> sensors;
  for (const MachineEvent& e : a) {
    EXPECT_GE(e.timestamp, 0);
    EXPECT_LT(e.timestamp, options.duration_ms);
    EXPECT_GE(e.power_w, 0.0);
    machines.insert(e.machine);
    sensors.insert(e.sensor);
  }
  EXPECT_EQ(machines.size(), 6u);
  EXPECT_EQ(sensors.size(), 2u);
}

TEST(EspbenchGenerator, OrderedWhenDisorderKnobsAreZero) {
  const std::vector<MachineEvent> events = DrainGenerator(SmallOptions());
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].timestamp, events[i].timestamp);
  }
}

TEST(EspbenchGenerator, BurstKnobRaisesInBurstRate) {
  EspbenchOptions options = SmallOptions();
  options.duration_ms = 40'000;
  options.burst_period_ms = 10'000;
  options.burst_duty = 0.2;
  options.burst_intensity = 5.0;
  const std::vector<MachineEvent> events = DrainGenerator(options);
  ASSERT_FALSE(events.empty());
  std::size_t in_burst = 0;
  for (const MachineEvent& e : events) {
    if (e.timestamp % options.burst_period_ms < 2'000) ++in_burst;
  }
  const std::size_t off_burst = events.size() - in_burst;
  // The burst phase is 20% of the time at 5x the rate: its event density
  // (count / phase length) must clearly exceed the off-phase density.
  const double burst_density = static_cast<double>(in_burst) / 0.2;
  const double off_density = static_cast<double>(off_burst) / 0.8;
  EXPECT_GT(burst_density, 2.0 * off_density);
}

// The late-data property the PR 9 dataflow certificates rely on: for ANY
// seed and declared disorder bound, a delivered timestamp regresses from
// the running maximum by at most the bound — so a ReorderingSource with
// exactly that slack restores order without dropping anything.
TEST(EspbenchGenerator, DisorderRespectsDeclaredSlackForAnySeed) {
  for (const std::uint64_t seed : {1ull, 17ull, 42ull, 9001ull}) {
    for (const Timestamp slack : {Timestamp{1}, Timestamp{25}, Timestamp{200}}) {
      EspbenchOptions options = SmallOptions();
      options.seed = seed;
      options.disorder_slack_ms = slack;
      options.disorder_fraction = 0.5;
      Timestamp max_seen = 0;
      bool disordered = false;
      for (const MachineEvent& e : DrainGenerator(options)) {
        EXPECT_GE(e.timestamp, max_seen - slack)
            << "seed " << seed << " slack " << slack;
        if (e.timestamp < max_seen) disordered = true;
        max_seen = std::max(max_seen, e.timestamp);
      }
      // A 1 ms slack cannot produce a visible inversion (gaps are >= 1 ms
      // and equal arrivals release FIFO); beyond that, disorder must show.
      if (slack > 1) {
        EXPECT_TRUE(disordered) << "knobs set but feed came out ordered";
      }
    }
  }
}

TEST(EspbenchGenerator, ReorderingSourceRestoresOrderWithoutDrops) {
  EspbenchOptions options = SmallOptions();
  options.disorder_slack_ms = 50;
  options.disorder_fraction = 0.5;
  QueryGraph graph;
  auto& source = AddReorderedEspbenchSource(graph, options);
  std::vector<Timestamp> starts;
  auto& sink = graph.Add<CallbackSink<MachineEvent>>(
      [&](const StreamElement<MachineEvent>& e) {
        starts.push_back(e.start());
      });
  source.AddSubscriber(sink.input());
  Drain(graph);

  ASSERT_FALSE(starts.empty());
  EXPECT_TRUE(std::is_sorted(starts.begin(), starts.end()));
  EXPECT_EQ(source.dropped_count(), 0u)
      << "in-slack disorder must never be dropped";
  EXPECT_EQ(starts.size(), DrainGenerator(options).size());
}

TEST(EspbenchGenerator, BeyondSlackStragglersAreDroppedAndCounted) {
  EspbenchOptions options = SmallOptions();
  options.disorder_slack_ms = 20;
  options.disorder_fraction = 0.3;
  options.late_fraction = 0.05;
  options.late_extra_ms = 100;
  QueryGraph graph;
  auto& source = AddReorderedEspbenchSource(graph, options);
  std::vector<Timestamp> starts;
  auto& sink = graph.Add<CallbackSink<MachineEvent>>(
      [&](const StreamElement<MachineEvent>& e) {
        starts.push_back(e.start());
      });
  source.AddSubscriber(sink.input());
  Drain(graph);

  EspbenchGenerator reference(options);
  while (reference.Next()) {
  }
  ASSERT_GT(reference.late_injected(), 0u);
  EXPECT_GT(source.dropped_count(), 0u);
  EXPECT_LE(source.dropped_count(), reference.late_injected())
      << "only injected stragglers may be dropped";
  EXPECT_TRUE(std::is_sorted(starts.begin(), starts.end()));
}

// Pins the Dataflow annotations the certificates consume: the reordered
// source declares its slack as both reorder bound and watermark lag, plus
// the raw feed's cardinality / rate / validity contract.
TEST(EspbenchGenerator, ReorderedSourceDeclaresDisorderAnnotations) {
  EspbenchOptions options = SmallOptions();
  options.disorder_slack_ms = 40;
  QueryGraph graph;
  auto& source = AddReorderedEspbenchSource(graph, options);
  const NodeDescriptor d = source.Describe();
  EXPECT_EQ(d.dataflow.reorder_slack, 40);
  EXPECT_EQ(d.dataflow.watermark_lag, 40);
  EXPECT_EQ(d.dataflow.total_elements,
            static_cast<std::uint64_t>(options.duration_ms));
  EXPECT_GT(d.dataflow.rate_per_unit, 0.0);
  EXPECT_EQ(d.dataflow.validity_extent, 1);
  EXPECT_TRUE(d.emits_heartbeats);
}

TEST(EspbenchGenerator, OrderedSourceRejectsDisorderKnobs) {
  EspbenchOptions options = SmallOptions();
  options.disorder_slack_ms = 10;
  QueryGraph graph;
  EXPECT_DEATH(AddEspbenchSource(graph, options), "Reordered");
}

// --- ERP dimensions ----------------------------------------------------------

TEST(EspbenchDimensions, MachinesAreDeterministicAndRatedAboveBase) {
  const EspbenchOptions options = SmallOptions();
  const std::vector<MachineInfo> a = GenerateMachines(options);
  EXPECT_EQ(a, GenerateMachines(options));
  ASSERT_EQ(a.size(), 6u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, static_cast<std::int64_t>(i));
    EXPECT_GE(a[i].rated_power_w, options.base_power_w * 1.15);
    EXPECT_LE(a[i].rated_power_w, options.base_power_w * 1.5);
    EXPECT_FALSE(a[i].type.empty());
  }
}

TEST(EspbenchDimensions, OrdersAreSortedByStartAndInsideTheRun) {
  const EspbenchOptions options = SmallOptions();
  const std::vector<ProductionOrder> orders = GenerateOrders(options);
  ASSERT_EQ(orders.size(), 30u);
  for (std::size_t i = 0; i < orders.size(); ++i) {
    if (i > 0) {
      EXPECT_GE(orders[i].start, orders[i - 1].start);
    }
    EXPECT_LT(orders[i].start, orders[i].due);
    EXPECT_GE(orders[i].machine, 0);
    EXPECT_LT(orders[i].machine, options.num_machines);
  }
}

// --- Typed query fragments ---------------------------------------------------

TEST(EspbenchQueries, ThresholdAlertFiresOnlyForOverloadedMachine) {
  EspbenchOptions options = SmallOptions();
  options.duration_ms = 30'000;
  options.overloads = {{/*begin=*/5'000, /*end=*/20'000, /*machine=*/2,
                        /*power_factor=*/2.0}};
  QueryGraph graph;
  auto& events = AddEspbenchSource(graph, options);
  // Normal draw tops out near base * 0.9 plus noise; rated capacity starts
  // at base * 1.15, so 1.3 * base separates overload from noise.
  auto& alerts = BuildPowerThresholdAlertQuery(
      graph, events, /*threshold_w=*/1.3 * options.base_power_w,
      /*min_duration=*/2'000);
  auto& sink = graph.Add<CollectorSink<Sustained<std::int64_t>>>();
  alerts.AddSubscriber(sink.input());
  Drain(graph);

  ASSERT_FALSE(sink.elements().empty());
  for (const auto& e : sink.elements()) {
    EXPECT_EQ(e.payload.key, 2);
    // Window segments can lead/trail the episode by up to one window.
    EXPECT_GE(e.payload.since, 5'000 - 1'000);
    EXPECT_LE(e.payload.since + e.payload.duration, 20'000 + 1'000);
  }
}

TEST(EspbenchQueries, OrderEnrichmentJoinMatchesActiveOrdersOnly) {
  const EspbenchOptions options = SmallOptions();
  const std::vector<ProductionOrder> orders = GenerateOrders(options);
  QueryGraph graph;
  auto& events = AddEspbenchSource(graph, options);
  auto& order_source = AddOrderDimensionSource(graph, orders);
  auto& joined = BuildOrderEnrichmentJoin(graph, events, order_source);
  auto& sink = graph.Add<CollectorSink<EventWithOrder>>();
  joined.AddSubscriber(sink.input());
  Drain(graph);

  ASSERT_FALSE(sink.elements().empty());
  for (const auto& e : sink.elements()) {
    EXPECT_EQ(e.payload.event.machine, e.payload.order.machine);
    // Interval semantics: the order was scheduled at event time.
    EXPECT_GE(e.payload.event.timestamp, e.payload.order.start);
    EXPECT_LT(e.payload.event.timestamp,
              std::max(e.payload.order.due, e.payload.order.start + 1));
  }
}

TEST(EspbenchQueries, MachinePowerAveragesSitInTheDrawRange) {
  const EspbenchOptions options = SmallOptions();
  QueryGraph graph;
  auto& events = AddEspbenchSource(graph, options);
  auto& power = BuildMachinePowerQuery(graph, events, /*range=*/1'000,
                                       /*slide=*/500);
  auto& sink = graph.Add<CollectorSink<std::pair<std::int64_t, double>>>();
  power.AddSubscriber(sink.input());
  Drain(graph);

  ASSERT_FALSE(sink.elements().empty());
  for (const auto& e : sink.elements()) {
    EXPECT_EQ(e.start() % 500, 0) << "slide-aligned windows";
    EXPECT_GT(e.payload.second, 0.3 * options.base_power_w);
    EXPECT_LT(e.payload.second, 1.3 * options.base_power_w);
  }
}

TEST(EspbenchQueries, OverCapacityKeepsOnlyEventsAboveRatedPower) {
  EspbenchOptions options = SmallOptions();
  options.duration_ms = 30'000;
  options.overloads = {{/*begin=*/0, /*end=*/30'000, /*machine=*/1,
                        /*power_factor=*/2.5}};
  QueryGraph graph;
  auto& events = AddEspbenchSource(graph, options);
  auto& machines = AddMachineDimensionSource(graph, GenerateMachines(options));
  auto& over = BuildOverCapacityQuery(graph, events, machines);
  auto& sink = graph.Add<CollectorSink<EventWithMachine>>();
  over.AddSubscriber(sink.input());
  Drain(graph);

  ASSERT_FALSE(sink.elements().empty());
  std::set<std::int64_t> flagged;
  for (const auto& e : sink.elements()) {
    EXPECT_GT(e.payload.event.power_w, e.payload.machine.rated_power_w);
    EXPECT_EQ(e.payload.event.machine, e.payload.machine.id);
    flagged.insert(e.payload.event.machine);
  }
  EXPECT_TRUE(flagged.count(1)) << "the permanently overloaded machine";
}

TEST(EspbenchQueries, LateDataAuditCountsMatchManualBucketsWhenOrdered) {
  const EspbenchOptions options = SmallOptions();
  QueryGraph graph;
  auto& events = AddEspbenchSource(graph, options);
  auto& audit = BuildLateDataAuditQuery(graph, events, /*period=*/1'000);
  auto& sink =
      graph.Add<CollectorSink<std::pair<std::int64_t, std::uint64_t>>>();
  std::map<std::pair<Timestamp, std::int64_t>, std::uint64_t> manual;
  auto& manual_sink = graph.Add<CallbackSink<MachineEvent>>(
      [&](const StreamElement<MachineEvent>& e) {
        // The tumbling segment holding t starts at AlignUp(t) (window.h).
        const Timestamp bucket = ((e.start() + 999) / 1'000) * 1'000;
        ++manual[{bucket, e.payload.machine}];
      });
  audit.AddSubscriber(sink.input());
  events.AddSubscriber(manual_sink.input());
  Drain(graph);

  ASSERT_FALSE(sink.elements().empty());
  for (const auto& e : sink.elements()) {
    auto it = manual.find({e.start(), e.payload.first});
    if (e.start() % 1'000 == 0 && it != manual.end()) {
      EXPECT_EQ(e.payload.second, it->second)
          << "machine " << e.payload.first << " at " << e.start();
    }
  }
}

// --- CQL / Engine integration ------------------------------------------------

TEST(EspbenchCql, CatalogQueriesRegisterAndProduceResults) {
  EspbenchOptions options = SmallOptions();
  options.disorder_slack_ms = 30;  // the relational rows are pre-reordered
  engine::Engine engine{engine::EngineOptions{}};
  ASSERT_TRUE(BindEspbenchStreams(engine, options).ok());

  std::vector<engine::QueryHandle> handles;
  for (const EspbenchCqlQuery& q : EspbenchCqlCatalog()) {
    Result<engine::QueryHandle> handle = engine.Register(q.text);
    ASSERT_TRUE(handle.ok()) << q.name << ": " << handle.status().ToString();
    handles.push_back(std::move(*handle));
  }
  engine.RunToCompletion();

  const std::vector<EspbenchCqlQuery>& catalog = EspbenchCqlCatalog();
  bool any_results = false;
  for (std::size_t i = 0; i < handles.size(); ++i) {
    const auto results = handles[i].Poll();
    if (!results.empty()) any_results = true;
    // Output shape: machine-power and late-data-audit emit (key, agg).
    if (catalog[i].name == "machine-power" ||
        catalog[i].name == "late-data-audit") {
      ASSERT_FALSE(results.empty()) << catalog[i].name;
      EXPECT_EQ(results.front().payload.arity(), 2u) << catalog[i].name;
    }
    if (catalog[i].name == "order-enrichment") {
      for (const auto& e : results) {
        EXPECT_EQ(e.payload.arity(), 3u);
      }
    }
  }
  EXPECT_TRUE(any_results);
}

TEST(EspbenchCql, EventRowsAreOrderedAndMatchTheSchema) {
  EspbenchOptions options = SmallOptions();
  options.disorder_slack_ms = 25;
  options.disorder_fraction = 0.5;
  const auto rows = EspbenchEventRows(options);
  ASSERT_FALSE(rows.empty());
  const relational::Schema schema = EspbenchEventSchema();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (i > 0) {
      EXPECT_LE(rows[i - 1].start(), rows[i].start());
    }
    ASSERT_EQ(rows[i].payload.arity(), schema.arity());
  }
}

}  // namespace
}  // namespace pipes::workloads
