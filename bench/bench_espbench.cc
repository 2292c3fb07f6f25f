// E12 — The ESPBench-style enterprise scenario end to end.
//
// Enterprise stream processing: machine telemetry (power/temperature
// sensors) joined against ERP dimension relations (machine master data,
// production orders), with windowed power aggregation and sustained
// overload alerting. Two harnesses:
//
//   * BM_EspbenchCqlPipeline — the declarative face: `Engine` binds the
//     telemetry stream and both dimensions, registers the full CQL catalog
//     (workloads::EspbenchCqlCatalog), and drains to completion. Measures
//     end-to-end event throughput through compile -> optimize -> share ->
//     execute; counters verify the enrichment joins and audit counts
//     actually produce rows.
//
//   * BM_EspbenchTypedDisordered — the typed-fragment face over a
//     *disordered* feed: the reordering adapter restores start order (slack
//     = the generator's declared bound), then the sustained threshold
//     alert, over-capacity enrichment, and order enrichment run as
//     hand-wired plan fragments. Measures the reorder + multi-query cost;
//     a counter verifies the injected overload episode raises alarms.

#include <cstdint>
#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "src/common/macros.h"
#include "src/core/graph.h"
#include "src/core/sink.h"
#include "src/engine/engine.h"
#include "src/scheduler/scheduler.h"
#include "src/workloads/espbench.h"
#include "src/workloads/espbench_cql.h"
#include "src/workloads/espbench_queries.h"

namespace {

using namespace pipes;  // NOLINT
using relational::Tuple;
using workloads::EspbenchOptions;
using workloads::OverloadEpisode;

EspbenchOptions BenchOptions() {
  EspbenchOptions options;
  options.num_machines = 12;
  options.sensors_per_machine = 3;
  options.duration_ms = 60'000;
  options.mean_interarrival_ms = 2.0;
  OverloadEpisode episode;
  episode.begin = 20'000;
  episode.end = 45'000;
  episode.machine = 3;
  options.overloads = {episode};
  return options;
}

void BM_EspbenchCqlPipeline(benchmark::State& state) {
  std::uint64_t events = 0;
  std::uint64_t enriched = 0;
  std::uint64_t audit_rows = 0;
  for (auto _ : state) {
    engine::Engine engine{engine::EngineOptions{}};
    EspbenchOptions options = BenchOptions();
    Status bound = workloads::BindEspbenchStreams(engine, options);
    PIPES_CHECK_MSG(bound.ok(), bound.ToString().c_str());

    std::vector<engine::QueryHandle> handles;
    for (const workloads::EspbenchCqlQuery& q :
         workloads::EspbenchCqlCatalog()) {
      auto handle = engine.Register(q.text);
      PIPES_CHECK_MSG(handle.ok(), handle.status().ToString().c_str());
      handles.push_back(std::move(*handle));
    }
    engine.RunToCompletion();

    events = workloads::EspbenchEventRows(options).size();
    enriched = handles[1].Poll().size();    // order enrichment join
    audit_rows = handles[4].Poll().size();  // late-data audit counts
    benchmark::DoNotOptimize(enriched);
  }
  state.counters["events"] = benchmark::Counter(static_cast<double>(events));
  state.counters["enriched_rows"] =
      benchmark::Counter(static_cast<double>(enriched));
  state.counters["audit_rows"] =
      benchmark::Counter(static_cast<double>(audit_rows));
  state.SetItemsProcessed(state.iterations() * events);
}

void BM_EspbenchTypedDisordered(benchmark::State& state) {
  std::uint64_t events = 0;
  std::uint64_t alarms = 0;
  std::uint64_t dropped = 0;
  for (auto _ : state) {
    EspbenchOptions options = BenchOptions();
    options.disorder_slack_ms = 40;
    options.disorder_fraction = 0.25;
    options.late_fraction = 0.01;

    QueryGraph graph;
    auto& source = workloads::AddReorderedEspbenchSource(graph, options);
    auto& event_count = graph.Add<CountingSink<workloads::MachineEvent>>();
    source.AddSubscriber(event_count.input());

    auto& alerts = workloads::BuildPowerThresholdAlertQuery(
        graph, source, /*threshold_w=*/1'300.0, /*min_duration=*/5'000);
    auto& alert_count =
        graph.Add<CountingSink<workloads::Sustained<std::int64_t>>>();
    alerts.AddSubscriber(alert_count.input());

    auto& machines = workloads::AddMachineDimensionSource(
        graph, workloads::GenerateMachines(options));
    auto& over = workloads::BuildOverCapacityQuery(graph, source, machines);
    auto& over_count = graph.Add<CountingSink<workloads::EventWithMachine>>();
    over.AddSubscriber(over_count.input());

    auto& orders = workloads::AddOrderDimensionSource(
        graph, workloads::GenerateOrders(options));
    auto& joined = workloads::BuildOrderEnrichmentJoin(graph, source, orders);
    auto& join_count = graph.Add<CountingSink<workloads::EventWithOrder>>();
    joined.AddSubscriber(join_count.input());

    scheduler::RoundRobinStrategy strategy;
    scheduler::PipeExecutor driver(graph, strategy, 1024);
    driver.RunToCompletion();

    events = event_count.count();
    alarms = alert_count.count();
    dropped = source.dropped_count();
    // The injected overload episode (25 s on machine 3) must raise at
    // least one sustained alarm or the scenario is broken.
    PIPES_CHECK(alarms >= 1);
    benchmark::DoNotOptimize(alarms);
  }
  state.counters["events"] = benchmark::Counter(static_cast<double>(events));
  state.counters["overload_alarms"] =
      benchmark::Counter(static_cast<double>(alarms));
  state.counters["dropped_stragglers"] =
      benchmark::Counter(static_cast<double>(dropped));
  state.SetItemsProcessed(state.iterations() * events);
}

}  // namespace

BENCHMARK(BM_EspbenchCqlPipeline);
BENCHMARK(BM_EspbenchTypedDisordered);
