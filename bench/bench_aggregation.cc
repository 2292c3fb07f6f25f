// E7 — Temporal aggregation and stream-rate reduction.
//
// Paper claim: the temporal algebra is CQL-conformant and "includes special
// mechanisms that substantially reduce stream rates" — in particular, the
// slide-aligned window keeps a downstream aggregate's output rate at the
// slide granularity, and coalescing merges equal adjacent results.
//
// Harness: NEXMark bids aggregated as "highest bid per auction over RANGE
// w" with varying SLIDE; counters report output cardinality. The paper's
// showcase query — "return every 10 minutes the highest bid of the recent
// 10 minutes" — is the RANGE 10m / SLIDE 10m point.
//
// Expected shape: throughput roughly constant; output count shrinks by the
// slide ratio (rate reduction); coalescing removes repeated values.

#include <benchmark/benchmark.h>

#include "src/algebra/aggregate.h"
#include "src/algebra/coalesce.h"
#include "src/algebra/window.h"
#include "src/core/generator_source.h"
#include "src/core/graph.h"
#include "src/core/sink.h"
#include "src/scheduler/scheduler.h"
#include "src/workloads/nexmark.h"

namespace {

using namespace pipes;  // NOLINT
using workloads::NexmarkEvent;
using workloads::NexmarkGenerator;
using workloads::NexmarkKind;
using workloads::NexmarkOptions;

struct BidRecord {
  std::int64_t auction;
  double price;
};

std::vector<StreamElement<BidRecord>> MakeBids() {
  NexmarkOptions options;
  options.num_events = 50'000;
  options.mean_interarrival_ms = 20.0;
  NexmarkGenerator generator(options);
  std::vector<StreamElement<BidRecord>> bids;
  while (auto event = generator.Next()) {
    if (event->kind != NexmarkKind::kBid) continue;
    bids.push_back(StreamElement<BidRecord>::Point(
        BidRecord{event->bid.auction, event->bid.price}, event->time));
  }
  return bids;
}

const std::vector<StreamElement<BidRecord>>& Bids() {
  static const auto kBids = MakeBids();
  return kBids;
}

void RunGraph(QueryGraph& graph) {
  scheduler::RoundRobinStrategy strategy;
  scheduler::PipeExecutor driver(graph, strategy, 256);
  driver.RunToCompletion();
}

void BM_HighestBid(benchmark::State& state) {
  const Timestamp range = 10ll * 60 * 1000;  // 10 minutes
  const Timestamp slide = state.range(0) * 1000;
  const bool coalesce = state.range(1) != 0;

  std::uint64_t outputs = 0;
  for (auto _ : state) {
    QueryGraph graph;
    auto& source = graph.Add<VectorSource<BidRecord>>(Bids());
    auto& window =
        graph.Add<algebra::SlideWindow<BidRecord>>(range, slide);
    auto key = [](const BidRecord& b) { return b.auction; };
    auto value = [](const BidRecord& b) { return b.price; };
    auto& agg = graph.Add<algebra::GroupedAggregate<
        BidRecord, algebra::MaxAgg<double>, decltype(key), decltype(value)>>(
        key, value);
    source.AddSubscriber(window.input());
    window.AddSubscriber(agg.input());

    std::uint64_t count = 0;
    if (coalesce) {
      auto& merge = graph.Add<
          algebra::Coalesce<std::pair<std::int64_t, double>>>();
      auto& sink =
          graph.Add<CountingSink<std::pair<std::int64_t, double>>>();
      agg.AddSubscriber(merge.input());
      merge.AddSubscriber(sink.input());
      RunGraph(graph);
      count = sink.count();
    } else {
      auto& sink =
          graph.Add<CountingSink<std::pair<std::int64_t, double>>>();
      agg.AddSubscriber(sink.input());
      RunGraph(graph);
      count = sink.count();
    }
    outputs = count;
    benchmark::DoNotOptimize(outputs);
  }
  state.counters["outputs"] =
      benchmark::Counter(static_cast<double>(outputs));
  state.SetItemsProcessed(state.iterations() * Bids().size());
}

}  // namespace

// Args: {slide seconds, coalesce?}. RANGE fixed at 10 minutes.
BENCHMARK(BM_HighestBid)
    ->Args({10, 0})
    ->Args({60, 0})
    ->Args({600, 0})
    ->Args({600, 1});
