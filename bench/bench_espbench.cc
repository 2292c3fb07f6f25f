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
//   * BM_EspbenchCqlWriterPump — the same catalog fed through three
//     `StreamWriter`s by the benchmark thread while a second thread loops
//     on `Engine::Pump`: the ingest handoff between a producer and the
//     pump. The feed follows perfbench's espbench-enrich feeder: dimension
//     rows are pushed when they become due, and both dimensions are
//     heartbeated whenever event time advances.
//
//   * BM_EspbenchTypedDisordered — the typed-fragment face over a
//     *disordered* feed: the reordering adapter restores start order (slack
//     = the generator's declared bound), then the sustained threshold
//     alert, over-capacity enrichment, and order enrichment run as
//     hand-wired plan fragments. Measures the reorder + multi-query cost;
//     a counter verifies the injected overload episode raises alarms.

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
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

void BM_EspbenchCqlWriterPump(benchmark::State& state) {
  const EspbenchOptions options = BenchOptions();
  const std::vector<StreamElement<Tuple>> events =
      workloads::EspbenchEventRows(options);
  // Indexed like the writers below, minus the events stream.
  const std::vector<std::vector<StreamElement<Tuple>>> dimensions = {
      workloads::EspbenchMachineRows(workloads::GenerateMachines(options)),
      workloads::EspbenchOrderRows(workloads::GenerateOrders(options))};
  const auto check = [](const Status& status) {
    PIPES_CHECK_MSG(status.ok(), status.ToString().c_str());
  };
  std::uint64_t enriched = 0;
  for (auto _ : state) {
    engine::Engine engine{engine::EngineOptions{}};
    std::vector<engine::StreamWriter> writers;
    for (auto& [name, schema] :
         {std::pair{"events", workloads::EspbenchEventSchema()},
          std::pair{"machines", workloads::EspbenchMachineSchema()},
          std::pair{"orders", workloads::EspbenchOrderSchema()}}) {
      auto writer = engine.AddStream(name, schema);
      check(writer.status());
      writers.push_back(*writer);
    }
    std::vector<engine::QueryHandle> handles;
    for (const workloads::EspbenchCqlQuery& q :
         workloads::EspbenchCqlCatalog()) {
      auto handle = engine.Register(q.text);
      check(handle.status());
      handles.push_back(std::move(*handle));
    }

    std::atomic<bool> fed{false};
    std::thread pump([&] {
      for (;;) {
        const bool closed = fed.load(std::memory_order_acquire);
        if (engine.Pump() > 0) continue;
        if (closed) return;
        std::this_thread::yield();
      }
    });
    std::vector<std::size_t> next(dimensions.size(), 0);
    Timestamp heartbeat = kMinTimestamp;
    for (const StreamElement<Tuple>& event : events) {
      const Timestamp t = event.start();
      for (std::size_t d = 0; d < dimensions.size(); ++d) {
        while (next[d] < dimensions[d].size() &&
               dimensions[d][next[d]].start() <= t) {
          check(writers[d + 1].Push(dimensions[d][next[d]++]));
        }
      }
      if (t > heartbeat) {
        for (std::size_t d = 1; d < writers.size(); ++d) {
          check(writers[d].Heartbeat(t));
        }
        heartbeat = t;
      }
      check(writers[0].Push(event));
    }
    for (std::size_t d = 0; d < dimensions.size(); ++d) {
      while (next[d] < dimensions[d].size()) {
        check(writers[d + 1].Push(dimensions[d][next[d]++]));
      }
    }
    for (engine::StreamWriter& writer : writers) check(writer.Close());
    fed.store(true, std::memory_order_release);
    pump.join();

    enriched = handles[1].Poll().size();  // order enrichment join
    benchmark::DoNotOptimize(enriched);
  }
  state.counters["events"] =
      benchmark::Counter(static_cast<double>(events.size()));
  state.counters["enriched_rows"] =
      benchmark::Counter(static_cast<double>(enriched));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(events.size()));
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
BENCHMARK(BM_EspbenchCqlWriterPump)->UseRealTime();
BENCHMARK(BM_EspbenchTypedDisordered);
