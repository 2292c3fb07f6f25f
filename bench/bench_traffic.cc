// E8 — The traffic-management demo scenario end to end.
//
// Paper demo: continuous queries over FSP-style loop-detector streams —
// hourly HOV speed averages and sustained sub-threshold segment speeds
// (congestion/incident indicator).
//
// Harness: the full CQL pipeline (compile -> optimize -> instantiate ->
// execute) over a generated day of traffic, measuring end-to-end reading
// throughput; a counter verifies the incident is detected (alert segments
// at the incident detector during the incident window).

#include <optional>

#include <benchmark/benchmark.h>

#include "src/core/generator_source.h"
#include "src/core/graph.h"
#include "src/core/sink.h"
#include "src/cql/catalog.h"
#include "src/optimizer/plan_manager.h"
#include "src/scheduler/scheduler.h"
#include "src/workloads/traffic.h"

namespace {

using namespace pipes;  // NOLINT
using relational::Schema;
using relational::Tuple;
using relational::Value;
using relational::ValueType;
using workloads::TrafficGenerator;
using workloads::TrafficIncident;
using workloads::TrafficOptions;
using workloads::TrafficReading;

Schema TrafficSchema() {
  return Schema({{"detector", ValueType::kInt},
                 {"lane", ValueType::kInt},
                 {"direction", ValueType::kInt},
                 {"speed", ValueType::kDouble}});
}

TrafficOptions BenchOptions() {
  TrafficOptions options;
  options.num_detectors = 8;
  options.num_lanes = 3;
  options.duration_ms = 2ll * 3600 * 1000;  // two hours
  options.base_rate_per_s = 0.1;
  TrafficIncident incident;
  incident.begin = 1800'000;
  incident.end = 3600'000;
  incident.detector = 5;
  incident.direction = 0;
  incident.speed_factor = 0.25;
  options.incidents = {incident};
  return options;
}

void BM_TrafficQueries(benchmark::State& state) {
  std::uint64_t readings = 0;
  std::uint64_t alerts = 0;
  for (auto _ : state) {
    TrafficGenerator generator(BenchOptions());
    QueryGraph graph;
    std::uint64_t produced = 0;
    auto& source = graph.Add<FunctionSource<Tuple>>(
        [&]() -> std::optional<StreamElement<Tuple>> {
          auto r = generator.Next();
          if (!r.has_value()) return std::nullopt;
          ++produced;
          return StreamElement<Tuple>::Point(
              Tuple{Value(static_cast<std::int64_t>(r->detector)),
                    Value(static_cast<std::int64_t>(r->lane)),
                    Value(static_cast<std::int64_t>(r->direction)),
                    Value(r->speed_kmh)},
              r->timestamp);
        },
        "traffic");
    cql::Catalog catalog;
    PIPES_CHECK(
        catalog.RegisterStream("traffic", TrafficSchema(), &source, 50.0)
            .ok());
    optimizer::PlanManager manager(&graph, &catalog);

    auto q1 = manager.InstallQuery(
        "SELECT direction, AVG(speed) AS avg_speed FROM traffic "
        "[RANGE 1 HOURS SLIDE 15 MINUTES] WHERE lane = 0 GROUP BY "
        "direction");
    PIPES_CHECK_MSG(q1.ok(), q1.status().ToString().c_str());
    auto& q1_sink = graph.Add<CountingSink<Tuple>>();
    q1->output->AddSubscriber(q1_sink.input());

    auto q2 = manager.InstallQuery(
        "SELECT detector, AVG(speed) AS avg_speed FROM traffic "
        "[RANGE 15 MINUTES SLIDE 5 MINUTES] WHERE direction = 0 GROUP BY "
        "detector");
    PIPES_CHECK_MSG(q2.ok(), q2.status().ToString().c_str());
    std::uint64_t alert_count = 0;
    auto& q2_sink = graph.Add<CallbackSink<Tuple>>(
        [&alert_count](const StreamElement<Tuple>& e) {
          if (e.payload.field(1).AsDouble() < 40.0) ++alert_count;
        });
    q2->output->AddSubscriber(q2_sink.input());

    scheduler::RoundRobinStrategy strategy;
    scheduler::PipeExecutor driver(graph, strategy, 1024);
    driver.RunToCompletion();

    readings = produced;
    alerts = alert_count;
    benchmark::DoNotOptimize(alerts);
  }
  state.counters["readings"] =
      benchmark::Counter(static_cast<double>(readings));
  state.counters["congestion_alerts"] =
      benchmark::Counter(static_cast<double>(alerts));
  state.SetItemsProcessed(state.iterations() * readings);
}

}  // namespace

BENCHMARK(BM_TrafficQueries);
