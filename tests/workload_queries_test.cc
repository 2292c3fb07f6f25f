// Tests for the workload query libraries: the traffic continuous queries
// (including the sustained-condition incident detector) and the NEXMark
// query fragments.

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/generator_source.h"
#include "src/core/graph.h"
#include "src/core/sink.h"
#include "src/scheduler/scheduler.h"
#include "src/workloads/nexmark_queries.h"
#include "src/workloads/traffic_queries.h"

namespace pipes::workloads {
namespace {

void Drain(QueryGraph& graph) {
  scheduler::RoundRobinStrategy strategy;
  scheduler::PipeExecutor driver(graph, strategy, 512);
  driver.RunToCompletion();
}

// --- SustainedConditionDetector ------------------------------------------------

struct KeyOfPair {
  int operator()(const std::pair<int, double>& p) const { return p.first; }
};
struct BelowTen {
  bool operator()(const std::pair<int, double>& p) const {
    return p.second < 10.0;
  }
};
using PairDetector =
    SustainedConditionDetector<std::pair<int, double>, KeyOfPair, BelowTen>;

std::vector<StreamElement<std::pair<int, double>>> Segments(
    std::initializer_list<std::tuple<int, double, Timestamp, Timestamp>>
        rows) {
  std::vector<StreamElement<std::pair<int, double>>> out;
  for (const auto& [key, value, start, end] : rows) {
    out.push_back(StreamElement<std::pair<int, double>>(
        std::make_pair(key, value), start, end));
  }
  return out;
}

TEST(SustainedCondition, FiresOncePerLongEnoughRun) {
  // Run size 1 hands the detector's run kernel one row at a time; run size
  // 6 hands it the whole input as one run.
  for (std::size_t run_size : {1u, 6u}) {
    SCOPED_TRACE("run_size=" + std::to_string(run_size));
    QueryGraph graph;
    // Key 1: below threshold on [0,30) contiguously -> alarm at >= 20.
    // Key 2: below only [0,10), gap, below [20,30) -> never 20 long.
    auto& source = graph.Add<VectorSource<std::pair<int, double>>>(
        Segments({
            {1, 5.0, 0, 10},
            {2, 5.0, 0, 10},
            {1, 7.0, 10, 20},
            {2, 50.0, 10, 20},  // condition broken for key 2
            {1, 6.0, 20, 30},
            {2, 5.0, 20, 30},
        }),
        "source", run_size);
    auto& detector = graph.Add<PairDetector>(KeyOfPair{}, BelowTen{},
                                             /*min_duration=*/20);
    auto& sink = graph.Add<CollectorSink<Sustained<int>>>();
    source.AddSubscriber(detector.input());
    detector.AddSubscriber(sink.input());
    Drain(graph);

    ASSERT_EQ(sink.elements().size(), 1u);
    EXPECT_EQ(sink.elements()[0].payload.key, 1);
    EXPECT_EQ(sink.elements()[0].payload.since, 0);
    EXPECT_GE(sink.elements()[0].payload.duration, 20);
  }
}

TEST(SustainedCondition, GapResetsRunAndNewRunCanFire) {
  QueryGraph graph;
  auto& source = graph.Add<VectorSource<std::pair<int, double>>>(Segments({
      {1, 5.0, 0, 10},
      {1, 5.0, 30, 45},  // gap: new run
      {1, 5.0, 45, 60},  // run [30,60) reaches 25 >= 20
  }));
  auto& detector = graph.Add<PairDetector>(KeyOfPair{}, BelowTen{}, 20);
  auto& sink = graph.Add<CollectorSink<Sustained<int>>>();
  source.AddSubscriber(detector.input());
  detector.AddSubscriber(sink.input());
  Drain(graph);

  ASSERT_EQ(sink.elements().size(), 1u);
  EXPECT_EQ(sink.elements()[0].payload.since, 30);
}

// --- Traffic query fragments ----------------------------------------------------

class TrafficQueriesTest : public ::testing::Test {
 protected:
  Source<TrafficReading>& MakeSource(QueryGraph& graph,
                                     TrafficOptions options) {
    auto generator = std::make_shared<TrafficGenerator>(std::move(options));
    return graph.Add<FunctionSource<TrafficReading>>(
        [generator]() -> std::optional<StreamElement<TrafficReading>> {
          auto reading = generator->Next();
          if (!reading.has_value()) return std::nullopt;
          return StreamElement<TrafficReading>::Point(*reading,
                                                      reading->timestamp);
        },
        "traffic");
  }

  TrafficOptions SmallOptions() {
    TrafficOptions options;
    options.num_detectors = 6;
    options.num_lanes = 3;
    options.duration_ms = 3600'000;  // one hour
    options.base_rate_per_s = 0.1;
    return options;
  }
};

TEST_F(TrafficQueriesTest, HovAverageGroupsByDirection) {
  QueryGraph graph;
  auto& source = MakeSource(graph, SmallOptions());
  auto& query = BuildHovAverageSpeedQuery(graph, source,
                                          /*range=*/600'000,
                                          /*slide=*/300'000);
  auto& sink = graph.Add<CollectorSink<std::pair<std::int32_t, double>>>();
  query.AddSubscriber(sink.input());
  Drain(graph);

  ASSERT_FALSE(sink.elements().empty());
  std::set<std::int32_t> directions;
  for (const auto& e : sink.elements()) {
    directions.insert(e.payload.first);
    // HOV speeds: base 100 + bonus 12 modulated by congestion and noise.
    EXPECT_GT(e.payload.second, 40.0);
    EXPECT_LT(e.payload.second, 180.0);
  }
  EXPECT_EQ(directions, (std::set<std::int32_t>{0, 1}));
}

TEST_F(TrafficQueriesTest, CongestionQueryFindsInjectedIncidentOnly) {
  TrafficOptions options = SmallOptions();
  TrafficIncident incident;
  incident.begin = 600'000;
  incident.end = 1'800'000;  // 20 minutes of jam
  incident.detector = 4;
  incident.direction = 0;
  incident.speed_factor = 0.2;
  incident.upstream_reach = 1;
  options.incidents = {incident};

  QueryGraph graph;
  auto& source = MakeSource(graph, options);
  auto& query = BuildCongestionQuery(graph, source, /*direction=*/0,
                                     /*avg_window=*/300'000,
                                     /*avg_slide=*/60'000,
                                     /*speed_threshold=*/40.0,
                                     /*min_duration=*/600'000);
  auto& sink = graph.Add<CollectorSink<Sustained<std::int32_t>>>();
  query.AddSubscriber(sink.input());
  Drain(graph);

  ASSERT_FALSE(sink.elements().empty());
  for (const auto& e : sink.elements()) {
    // Alarms only at the incident's detectors (4 and its neighbor 3) and
    // roughly within the incident window.
    EXPECT_GE(e.payload.key, 3);
    EXPECT_LE(e.payload.key, 4);
    EXPECT_GE(e.payload.since, incident.begin - 300'000);
    EXPECT_LE(e.payload.since + e.payload.duration,
              incident.end + 600'000);
  }
}

// --- NEXMark query fragments ------------------------------------------------------

Source<NexmarkEvent>& MakeNexmarkSource(QueryGraph& graph,
                                        std::size_t num_events) {
  NexmarkOptions options;
  options.num_events = num_events;
  auto generator = std::make_shared<NexmarkGenerator>(options);
  return graph.Add<FunctionSource<NexmarkEvent>>(
      [generator]() -> std::optional<StreamElement<NexmarkEvent>> {
        auto event = generator->Next();
        if (!event.has_value()) return std::nullopt;
        const Timestamp t = event->time;
        return StreamElement<NexmarkEvent>::Point(std::move(*event), t);
      },
      "nexmark");
}

TEST(NexmarkQueries, SplitStreamsPartitionTheEvents) {
  QueryGraph graph;
  auto& events = MakeNexmarkSource(graph, 1000);
  auto& bids = BuildBidStream(graph, events);
  auto& auctions = BuildAuctionStream(graph, events);
  auto& persons = BuildPersonStream(graph, events);
  auto& bid_sink = graph.Add<CountingSink<Bid>>();
  auto& auction_sink = graph.Add<CountingSink<Auction>>();
  auto& person_sink = graph.Add<CountingSink<Person>>();
  bids.AddSubscriber(bid_sink.input());
  auctions.AddSubscriber(auction_sink.input());
  persons.AddSubscriber(person_sink.input());
  Drain(graph);

  EXPECT_EQ(bid_sink.count() + auction_sink.count() + person_sink.count(),
            1000u);
  EXPECT_EQ(person_sink.count(), 20u);    // 1 in 50
  EXPECT_EQ(auction_sink.count(), 60u);   // 3 in 50
}

TEST(NexmarkQueries, CurrencyConversionScalesPrices) {
  QueryGraph graph;
  auto& events = MakeNexmarkSource(graph, 500);
  auto& bids = BuildBidStream(graph, events);
  auto& euros = BuildCurrencyConversion(graph, bids, 0.5);
  std::vector<double> original;
  std::vector<double> converted;
  auto& bid_sink = graph.Add<CallbackSink<Bid>>(
      [&](const StreamElement<Bid>& e) {
        original.push_back(e.payload.price);
      });
  auto& euro_sink = graph.Add<CallbackSink<Bid>>(
      [&](const StreamElement<Bid>& e) {
        converted.push_back(e.payload.price);
      });
  bids.AddSubscriber(bid_sink.input());
  euros.AddSubscriber(euro_sink.input());
  Drain(graph);

  ASSERT_EQ(original.size(), converted.size());
  ASSERT_FALSE(original.empty());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_DOUBLE_EQ(converted[i], original[i] * 0.5);
  }
}

TEST(NexmarkQueries, HighestBidTumblesAndNeverDecreasesWithinWindow) {
  QueryGraph graph;
  auto& events = MakeNexmarkSource(graph, 5000);
  auto& bids = BuildBidStream(graph, events);
  auto& highest = BuildHighestBidQuery(graph, bids, /*period=*/10'000);
  auto& sink = graph.Add<CollectorSink<double>>();
  highest.AddSubscriber(sink.input());
  Drain(graph);

  ASSERT_FALSE(sink.elements().empty());
  for (const auto& e : sink.elements()) {
    // Tumbling windows: results live on period-aligned segments.
    EXPECT_EQ(e.start() % 10'000, 0);
    EXPECT_GT(e.payload, 0.0);
  }
}

TEST(NexmarkQueries, BidsPerAuctionCountsMatchManualCount) {
  QueryGraph graph;
  auto& events = MakeNexmarkSource(graph, 2000);
  auto& bids = BuildBidStream(graph, events);
  auto& counts = BuildBidsPerAuctionQuery(graph, bids, /*range=*/20'000,
                                          /*slide=*/20'000);
  auto& count_sink =
      graph.Add<CollectorSink<std::pair<std::int64_t, std::uint64_t>>>();
  std::map<std::pair<Timestamp, std::int64_t>, std::uint64_t> manual;
  auto& manual_sink = graph.Add<CallbackSink<Bid>>(
      [&](const StreamElement<Bid>& e) {
        // Tumbling bucket of this bid (aligned like the slide window).
        const Timestamp bucket = ((e.start() / 20'000) + 1) * 20'000;
        ++manual[{bucket, e.payload.auction}];
      });
  counts.AddSubscriber(count_sink.input());
  bids.AddSubscriber(manual_sink.input());
  Drain(graph);

  ASSERT_FALSE(count_sink.elements().empty());
  for (const auto& e : count_sink.elements()) {
    const auto key = std::make_pair(e.start(), e.payload.first);
    auto it = manual.find(key);
    // Every reported count matches the manual tumbling-bucket count.
    if (e.start() % 20'000 == 0 && it != manual.end()) {
      EXPECT_EQ(e.payload.second, it->second)
          << "auction " << e.payload.first << " at " << e.start();
    }
  }
}

TEST(NexmarkQueries, OpenAuctionJoinMatchesOnlyOpenAuctions) {
  QueryGraph graph;
  // Auction 1 open [0, 100); auction 2 open [50, 200).
  Auction a1;
  a1.id = 1;
  a1.open_time = 0;
  a1.expires = 100;
  Auction a2;
  a2.id = 2;
  a2.open_time = 50;
  a2.expires = 200;
  AuctionValidity validity;
  std::vector<StreamElement<Auction>> auctions = {
      StreamElement<Auction>(a1, validity(a1)),
      StreamElement<Auction>(a2, validity(a2))};
  auto& auction_source = graph.Add<VectorSource<Auction>>(auctions);

  auto make_bid = [](std::int64_t auction, Timestamp t) {
    Bid b;
    b.auction = auction;
    b.time = t;
    b.price = 10;
    return StreamElement<Bid>::Point(b, t);
  };
  std::vector<StreamElement<Bid>> bids = {
      make_bid(1, 10),    // auction 1 open -> match
      make_bid(2, 20),    // auction 2 not open yet -> no match
      make_bid(1, 150),   // auction 1 already closed -> no match
      make_bid(2, 150),   // auction 2 open -> match
  };
  auto& bid_source = graph.Add<VectorSource<Bid>>(bids);

  auto& join = BuildOpenAuctionJoin(graph, bid_source, auction_source);
  auto& sink = graph.Add<CollectorSink<BidWithAuction>>();
  join.AddSubscriber(sink.input());
  Drain(graph);

  ASSERT_EQ(sink.elements().size(), 2u);
  EXPECT_EQ(sink.elements()[0].payload.bid.time, 10);
  EXPECT_EQ(sink.elements()[0].payload.auction.id, 1);
  EXPECT_EQ(sink.elements()[1].payload.bid.time, 150);
  EXPECT_EQ(sink.elements()[1].payload.auction.id, 2);
}

TEST(NexmarkQueries, BidSelectionKeepsOnlyMatchingAuctions) {
  QueryGraph graph;
  auto& events = MakeNexmarkSource(graph, 1000);
  auto& bids = BuildBidStream(graph, events);
  auto& selected = BuildBidSelection(graph, bids, /*modulus=*/2);
  auto& sink = graph.Add<CallbackSink<Bid>>(
      [](const StreamElement<Bid>& e) {
        EXPECT_EQ(e.payload.auction % 2, 0);
      });
  selected.AddSubscriber(sink.input());
  Drain(graph);
}

// --- Output-shape contract for every registered query ----------------------
//
// Each workload query must (a) produce output at all on a default-ish feed
// and (b) keep the start-order invariant — its output watermark is
// monotone. A shape regression (wrong operator wiring, a stage dropping
// everything, disordered emission) fails loudly here.

/// Subscribes to `out`, records element starts, and asserts monotone
/// starts and non-emptiness after the drain.
template <typename T>
class ShapeProbe {
 public:
  ShapeProbe(QueryGraph& graph, Source<T>& out, std::string label)
      : label_(std::move(label)) {
    auto& sink = graph.Add<CallbackSink<T>>(
        [this](const StreamElement<T>& e) { starts_.push_back(e.start()); });
    out.AddSubscriber(sink.input());
  }

  void Check(bool expect_output = true) const {
    if (expect_output) {
      EXPECT_FALSE(starts_.empty()) << label_ << ": no output";
    }
    EXPECT_TRUE(std::is_sorted(starts_.begin(), starts_.end()))
        << label_ << ": output watermark regressed";
  }

 private:
  std::string label_;
  std::vector<Timestamp> starts_;
};

TEST(WorkloadShapes, EveryTrafficQueryEmitsMonotoneOutput) {
  // Column counts are part of the compiled shape: pin them so a silent
  // output-type change is a conscious one.
  static_assert(std::tuple_size_v<HovAverageSpeed::Output> == 2);
  static_assert(std::tuple_size_v<SegmentAverageSpeed::Output> == 2);

  TrafficOptions options;
  options.num_detectors = 6;
  options.num_lanes = 3;
  options.duration_ms = 3600'000;
  options.base_rate_per_s = 0.1;
  TrafficIncident incident;
  incident.begin = 600'000;
  incident.end = 1'800'000;
  incident.detector = 4;
  incident.speed_factor = 0.2;
  options.incidents = {incident};

  QueryGraph graph;
  auto& readings = AddTrafficSource(graph, options);
  ShapeProbe<TrafficReading> source_probe(graph, readings, "traffic-source");
  ShapeProbe<std::pair<std::int32_t, double>> hov_probe(
      graph, BuildHovAverageSpeedQuery(graph, readings, 600'000, 300'000),
      "hov-average");
  ShapeProbe<std::pair<std::int32_t, double>> segment_probe(
      graph,
      BuildSegmentAverageSpeedQuery(graph, readings, /*direction=*/0,
                                    300'000, 60'000),
      "segment-average");
  ShapeProbe<Sustained<std::int32_t>> congestion_probe(
      graph,
      BuildCongestionQuery(graph, readings, /*direction=*/0, 300'000,
                           60'000, /*speed_threshold=*/40.0,
                           /*min_duration=*/600'000),
      "congestion");
  Drain(graph);

  source_probe.Check();
  hov_probe.Check();
  segment_probe.Check();
  congestion_probe.Check();
}

TEST(WorkloadShapes, EveryNexmarkQueryEmitsMonotoneOutput) {
  static_assert(std::tuple_size_v<BidsPerAuction::Output> == 2);

  QueryGraph graph;
  auto& events = MakeNexmarkSource(graph, 5000);
  ShapeProbe<NexmarkEvent> source_probe(graph, events, "nexmark-source");
  auto& bids = BuildBidStream(graph, events);
  ShapeProbe<Bid> bid_probe(graph, bids, "bid-stream");
  ShapeProbe<Auction> auction_probe(graph, BuildAuctionStream(graph, events),
                                    "auction-stream");
  ShapeProbe<Person> person_probe(graph, BuildPersonStream(graph, events),
                                  "person-stream");
  ShapeProbe<Bid> currency_probe(
      graph, BuildCurrencyConversion(graph, bids, 0.9), "currency");
  ShapeProbe<Bid> selection_probe(graph, BuildBidSelection(graph, bids, 2),
                                  "bid-selection");
  ShapeProbe<double> highest_probe(
      graph, BuildHighestBidQuery(graph, bids, 10'000), "highest-bid");
  ShapeProbe<std::pair<std::int64_t, std::uint64_t>> counts_probe(
      graph, BuildBidsPerAuctionQuery(graph, bids, 20'000, 20'000),
      "bids-per-auction");
  // The open-auction join needs [open, expires) validity on its build
  // side; replay the same generator's auctions with that validity.
  NexmarkOptions gen_options;
  gen_options.num_events = 5000;
  NexmarkGenerator generator(gen_options);
  AuctionValidity validity;
  std::vector<StreamElement<Auction>> open_auctions;
  while (auto e = generator.Next()) {
    if (e->kind == NexmarkKind::kAuction) {
      open_auctions.push_back(
          StreamElement<Auction>(e->auction, validity(e->auction)));
    }
  }
  auto& auction_source = graph.Add<VectorSource<Auction>>(
      std::move(open_auctions), "open-auctions");
  ShapeProbe<BidWithAuction> join_probe(
      graph, BuildOpenAuctionJoin(graph, bids, auction_source),
      "open-auction-join");
  Drain(graph);

  source_probe.Check();
  bid_probe.Check();
  auction_probe.Check();
  person_probe.Check();
  currency_probe.Check();
  selection_probe.Check();
  highest_probe.Check();
  counts_probe.Check();
  join_probe.Check();
}

}  // namespace
}  // namespace pipes::workloads
