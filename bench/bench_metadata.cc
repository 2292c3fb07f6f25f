// E10 — Secondary-metadata overhead.
//
// Paper claim: nodes can be decorated with the desired metadata
// information (rates, selectivity, averages, variances, ...) and the
// composition can change at runtime — implying the estimators are cheap
// enough to run alongside the query.
//
// Harness: a filter chain of depth 8 with k of its nodes decorated with
// the full metric set, sampled once per scheduling step. Series: items/sec
// vs number of decorated nodes (0 = baseline).
//
// Expected shape: near-flat — decoration costs a few percent.

#include <benchmark/benchmark.h>

#include "src/algebra/map.h"
#include "src/core/generator_source.h"
#include "src/core/graph.h"
#include "src/core/sink.h"
#include "src/metadata/monitor.h"
#include "src/scheduler/scheduler.h"

namespace {

using namespace pipes;  // NOLINT

constexpr int kElements = 100'000;
constexpr int kDepth = 8;

struct AddOne {
  int operator()(int v) const { return v + 1; }
};

void BM_MetadataDecoration(benchmark::State& state) {
  const int decorated = static_cast<int>(state.range(0));
  std::vector<StreamElement<int>> input;
  input.reserve(kElements);
  for (int i = 0; i < kElements; ++i) {
    input.push_back(StreamElement<int>::Point(i, i));
  }

  for (auto _ : state) {
    QueryGraph graph;
    auto& source = graph.Add<VectorSource<int>>(input);
    Source<int>* upstream = &source;
    std::vector<Node*> chain;
    for (int d = 0; d < kDepth; ++d) {
      auto& map = graph.Add<algebra::Map<int, int, AddOne>>(AddOne{});
      upstream->AddSubscriber(map.input());
      upstream = &map;
      chain.push_back(&map);
    }
    auto& sink = graph.Add<CountingSink<int>>();
    upstream->AddSubscriber(sink.input());

    metadata::Monitor monitor;
    for (int d = 0; d < decorated; ++d) {
      monitor.Watch(*chain[static_cast<std::size_t>(d)],
                    {metadata::MetricKind::kInputRate,
                     metadata::MetricKind::kOutputRate,
                     metadata::MetricKind::kSelectivity,
                     metadata::MetricKind::kQueueSize,
                     metadata::MetricKind::kSubscriberCount});
    }

    scheduler::RoundRobinStrategy strategy;
    scheduler::PipeExecutor driver(graph, strategy, 256);
    while (driver.Step()) {
      monitor.Sample();
    }
    benchmark::DoNotOptimize(sink.count());
  }
  state.SetItemsProcessed(state.iterations() * kElements);
}

}  // namespace

BENCHMARK(BM_MetadataDecoration)->Arg(0)->Arg(2)->Arg(4)->Arg(8);
