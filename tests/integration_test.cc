// Full-prototype integration test: the paper's thesis is that PIPES'
// building blocks assemble into a working DSMS prototype. This test builds
// one — catalog + CQL plan manager + scheduler + memory manager + metadata
// monitor + historical archive — runs two application domains (traffic and
// auctions) concurrently on one graph, exercises dynamic query install /
// uninstall mid-run, and checks that every component held up its contract.

#include <optional>
#include <sstream>

#include <gtest/gtest.h>

#include "src/pipes.h"

namespace pipes {
namespace {

using relational::Schema;
using relational::Tuple;
using relational::Value;
using relational::ValueType;
using workloads::NexmarkEvent;
using workloads::NexmarkGenerator;
using workloads::NexmarkKind;
using workloads::NexmarkOptions;
using workloads::TrafficGenerator;
using workloads::TrafficOptions;
using workloads::TrafficReading;

TEST(Integration, PrototypeDsmsEndToEnd) {
  QueryGraph graph;

  // --- Sources: two application domains -----------------------------------
  TrafficOptions traffic_options;
  traffic_options.num_detectors = 4;
  traffic_options.num_lanes = 2;
  traffic_options.duration_ms = 1'800'000;  // 30 minutes
  traffic_options.base_rate_per_s = 0.2;
  auto traffic_gen = std::make_shared<TrafficGenerator>(traffic_options);
  auto& traffic = graph.Add<FunctionSource<Tuple>>(
      [traffic_gen]() -> std::optional<StreamElement<Tuple>> {
        auto r = traffic_gen->Next();
        if (!r.has_value()) return std::nullopt;
        return StreamElement<Tuple>::Point(
            Tuple{Value(static_cast<std::int64_t>(r->detector)),
                  Value(static_cast<std::int64_t>(r->lane)),
                  Value(r->speed_kmh)},
            r->timestamp);
      },
      "traffic");

  NexmarkOptions nexmark_options;
  nexmark_options.num_events = 20'000;
  nexmark_options.mean_interarrival_ms = 90.0;  // also ~30 minutes
  auto nexmark_gen = std::make_shared<NexmarkGenerator>(nexmark_options);
  auto& events = graph.Add<FunctionSource<NexmarkEvent>>(
      [nexmark_gen]() -> std::optional<StreamElement<NexmarkEvent>> {
        auto e = nexmark_gen->Next();
        if (!e.has_value()) return std::nullopt;
        const Timestamp t = e->time;
        return StreamElement<NexmarkEvent>::Point(std::move(*e), t);
      },
      "nexmark-events");
  auto& bids = workloads::BuildBidStream(graph, events);
  auto to_tuple = [](const workloads::Bid& b) {
    return Tuple{Value(b.auction), Value(b.price)};
  };
  auto& bid_tuples =
      graph.Add<algebra::Map<workloads::Bid, Tuple, decltype(to_tuple)>>(
          to_tuple, "bid-tuples");
  bids.AddSubscriber(bid_tuples.input());

  cql::Catalog catalog;
  ASSERT_TRUE(catalog
                  .RegisterStream("traffic",
                                  Schema({{"detector", ValueType::kInt},
                                          {"lane", ValueType::kInt},
                                          {"speed", ValueType::kDouble}}),
                                  &traffic, /*rate_hint=*/20.0)
                  .ok());
  ASSERT_TRUE(catalog
                  .RegisterStream("bids",
                                  Schema({{"auction", ValueType::kInt},
                                          {"price", ValueType::kDouble}}),
                                  &bid_tuples, /*rate_hint=*/10.0)
                  .ok());

  // --- Continuous queries via the plan manager ----------------------------
  optimizer::PlanManager manager(&graph, &catalog);
  auto traffic_query = manager.InstallQuery(
      "SELECT detector, AVG(speed) AS avg_speed FROM traffic "
      "[RANGE 5 MINUTES SLIDE 1 MINUTES] GROUP BY detector");
  ASSERT_TRUE(traffic_query.ok()) << traffic_query.status().ToString();
  auto bid_query = manager.InstallQuery(
      "SELECT MAX(price) AS high FROM bids [RANGE 5 MINUTES SLIDE 5 "
      "MINUTES]");
  ASSERT_TRUE(bid_query.ok()) << bid_query.status().ToString();
  // A short-lived query, uninstalled mid-run.
  auto temporary = manager.InstallQuery(
      "SELECT detector, AVG(speed) AS avg_speed FROM traffic "
      "[RANGE 5 MINUTES SLIDE 1 MINUTES] GROUP BY detector");
  ASSERT_TRUE(temporary.ok());
  EXPECT_EQ(temporary->operators_created, 0u);  // fully shared

  auto& traffic_sink = graph.Add<CollectorSink<Tuple>>("traffic-results");
  auto& bid_sink = graph.Add<CollectorSink<Tuple>>("bid-results");
  traffic_query->output->AddSubscriber(traffic_sink.input());
  bid_query->output->AddSubscriber(bid_sink.input());

  // Historical archive on the bid results (demand-driven access later).
  auto& archive = graph.Add<cursors::StreamArchive<Tuple>>("bid-archive");
  bid_query->output->AddSubscriber(archive.input());

  // --- Runtime components --------------------------------------------------
  memory::MemoryManager memory_manager(
      1 << 20, std::make_unique<memory::ProportionalStrategy>());
  metadata::Monitor monitor;
  monitor.Watch(traffic, {metadata::MetricKind::kOutputRate});
  monitor.Watch(bid_tuples, {metadata::MetricKind::kOutputRate,
                             metadata::MetricKind::kSelectivity});

  scheduler::ChainStrategy strategy;
  scheduler::PipeExecutor driver(graph, strategy, 512);
  int steps = 0;
  bool uninstalled = false;
  while (driver.Step()) {
    ++steps;
    if (steps % 8 == 0) {
      monitor.Sample();
      memory_manager.Redistribute();
    }
    if (!uninstalled && steps > 20) {
      ASSERT_TRUE(manager.UninstallQuery(temporary->query_id).ok());
      uninstalled = true;
    }
  }
  EXPECT_TRUE(uninstalled);
  EXPECT_TRUE(graph.Finished());
  ASSERT_TRUE(graph.Validate().ok());

  // --- Results: both domains produced sensible output ----------------------
  ASSERT_FALSE(traffic_sink.elements().empty());
  for (const auto& e : traffic_sink.elements()) {
    const double avg = e.payload.field(1).AsDouble();
    EXPECT_GT(avg, 10.0);
    EXPECT_LT(avg, 200.0);
  }
  ASSERT_FALSE(bid_sink.elements().empty());
  // Surviving queries kept their subscriptions through the uninstall.
  EXPECT_EQ(manager.installed_queries(), 2u);

  // --- Metadata was collected ----------------------------------------------
  EXPECT_GT(monitor.samples_taken(), 0u);
  std::ostringstream csv;
  monitor.WriteCsv(csv);
  EXPECT_NE(csv.str().find("output_rate"), std::string::npos);

  // --- Historical queries over the archived results -------------------------
  EXPECT_EQ(archive.size(), bid_sink.elements().size());
  auto historic = archive.SnapshotAt(10 * 60 * 1000);  // minute 10
  const auto snapshot = cursors::Collect(*historic);
  ASSERT_EQ(snapshot.size(), 1u);  // one scalar MAX per instant
  EXPECT_GT(snapshot[0].field(0).AsDouble(), 0.0);
}

}  // namespace
}  // namespace pipes
