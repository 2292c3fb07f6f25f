// espbench-enrich: ESPBench telemetry plus the `machines` and `orders`
// dimensions through three inlets, with the five-query ESPBench CQL
// catalog registered once. The join/window/aggregate-heavy, ingest-heavy
// regime: few sinks, under one result row per event. See README.md.

#include <string>
#include <utility>
#include <vector>

#include "engine_rig.h"
#include "harness.h"
#include "src/workloads/espbench.h"
#include "src/workloads/espbench_cql.h"

namespace perfbench {

namespace {

using pipes::Timestamp;

constexpr double kOpenLoopRate = 10'000;  // events/s, well under saturation
// Saturation events per second of --seconds: a few seconds of saturation
// on a 4-core Xeon VM, within the memory the pre-generated rows take
// (about 270 MB at --seconds 40).
constexpr double kSaturationEventsPerSecond = 15'000;

}  // namespace

int RunEspbenchEnrich(const Args& args, Report& report) {
  namespace wl = pipes::workloads;
  Workload w;
  w.name = "espbench-enrich";
  w.open_rate = args.tiny ? 5'000 : kOpenLoopRate;
  w.open_events = static_cast<std::size_t>(
      w.open_rate * (args.tiny ? 0.1 : 0.6 * args.seconds));
  w.saturation_events = static_cast<std::size_t>(
      args.tiny ? 3'000 : kSaturationEventsPerSecond * args.seconds);
  if (args.tiny) w.setups = 2;
  w.build = BuildInProcess;

  wl::EspbenchOptions options;
  options.seed = args.seed;
  // The generator's clock advances by at least 1 ms per event, so this
  // mean yields about one event per millisecond of event time.
  options.mean_interarrival_ms = 0.5;
  const std::size_t total = w.open_events + w.saturation_events;
  options.duration_ms =
      static_cast<Timestamp>(static_cast<double>(total) * 1.25) + 2'000;
  // Recurring overload episodes: without them threshold-alert and
  // over-capacity return no rows.
  for (Timestamp t = 1'000; t < options.duration_ms; t += 5'000) {
    options.overloads.push_back(
        {t, t + 1'000, (t / 5'000) % options.num_machines, 2.0});
  }
  w.streams.push_back(
      {"events", wl::EspbenchEventSchema(), wl::EspbenchEventRows(options)});
  w.streams.push_back({"machines", wl::EspbenchMachineSchema(),
                       wl::EspbenchMachineRows(wl::GenerateMachines(options))});
  w.streams.push_back({"orders", wl::EspbenchOrderSchema(),
                       wl::EspbenchOrderRows(wl::GenerateOrders(options))});

  for (const auto& q : wl::EspbenchCqlCatalog()) {
    QuerySpec spec;
    spec.name = q.name;
    spec.tenant = "espbench";
    spec.text = q.text;
    // Filters and stream-relation joins: each result starts at its event.
    spec.latency_tagged = q.name == "threshold-alert" ||
                          q.name == "order-enrichment" ||
                          q.name == "over-capacity";
    w.queries.push_back(spec);
  }
  // How fast a query comes online on this graph: catalog queries
  // registered and cancelled by a probe tenant while the stream runs, at
  // 100 pairs/s (at 333 pairs/s the executor rebuilds swamped this
  // workload's latency).
  w.churn = w.queries;
  for (QuerySpec& spec : w.churn) spec.tenant = "probe";
  w.churn_pairs = args.tiny ? 10 : static_cast<int>(100 * 0.6 * args.seconds);
  return RunWorkload(args, std::move(w), report);
}

}  // namespace perfbench
