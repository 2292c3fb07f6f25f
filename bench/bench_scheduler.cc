// E2 — Scheduling strategies compared within one uniform framework.
//
// Paper claim: the 3-layer scheduling framework is "powerful enough to
// compare most of the recent scheduling techniques in stream processing
// within a uniform framework".
//
// Harness: three query chains with very different selectivities share one
// scheduler; each strategy drains the same bursty workload. Reported
// counters: peak total queue memory (Chain's objective) and mean queue
// occupancy; wall time covers total overhead.
//
// Expected shape: Chain minimizes peak/mean queue occupancy; longest-queue
// and round-robin sit in between; FIFO (drain sources first) is worst on
// memory.

#include <memory>

#include <benchmark/benchmark.h>

#include "src/algebra/filter.h"
#include "src/core/buffer.h"
#include "src/core/generator_source.h"
#include "src/core/graph.h"
#include "src/core/sink.h"
#include "src/scheduler/scheduler.h"

namespace {

using namespace pipes;  // NOLINT

constexpr int kElementsPerChain = 30'000;

struct ChainSpec {
  int modulus;  // filter keeps 1 in `modulus`
};

void RunWithStrategy(benchmark::State& state,
                     scheduler::Strategy& strategy) {
  const ChainSpec chains[] = {{1}, {10}, {1000}};
  std::size_t peak = 0;
  double mean_queue = 0;
  for (auto _ : state) {
    QueryGraph graph;
    for (const ChainSpec& spec : chains) {
      std::vector<StreamElement<int>> input;
      input.reserve(kElementsPerChain);
      for (int i = 0; i < kElementsPerChain; ++i) {
        input.push_back(StreamElement<int>::Point(i, i));
      }
      auto& source = graph.Add<VectorSource<int>>(std::move(input));
      auto& buffer = graph.Add<Buffer<int>>();
      const int modulus = spec.modulus;
      auto pred = [modulus](int v) { return v % modulus == 0; };
      auto& filter =
          graph.Add<algebra::Filter<int, decltype(pred)>>(pred);
      auto& sink = graph.Add<CountingSink<int>>();
      source.AddSubscriber(buffer.input());
      buffer.AddSubscriber(filter.input());
      filter.AddSubscriber(sink.input());
    }
    scheduler::PipeExecutor driver(graph, strategy, /*batch_size=*/64);
    const scheduler::RunStats stats = driver.RunToCompletion();
    peak = std::max(peak, stats.peak_total_queue);
    mean_queue = static_cast<double>(stats.accumulated_queue) /
                 static_cast<double>(stats.polls);
  }
  state.counters["peak_queue"] =
      benchmark::Counter(static_cast<double>(peak));
  state.counters["mean_queue"] = benchmark::Counter(mean_queue);
  state.SetItemsProcessed(state.iterations() * kElementsPerChain * 3);
}

void BM_Scheduler(benchmark::State& state) {
  std::unique_ptr<scheduler::Strategy> strategy;
  switch (state.range(0)) {
    case 0:
      strategy = std::make_unique<scheduler::FifoStrategy>();
      break;
    case 1:
      strategy = std::make_unique<scheduler::RoundRobinStrategy>();
      break;
    case 2:
      strategy = std::make_unique<scheduler::LongestQueueStrategy>();
      break;
    case 3:
      strategy = std::make_unique<scheduler::ChainStrategy>();
      break;
    case 4:
      strategy = std::make_unique<scheduler::RateBasedStrategy>();
      break;
    default:
      strategy = std::make_unique<scheduler::RandomStrategy>(42);
      break;
  }
  state.SetLabel(strategy->name());
  RunWithStrategy(state, *strategy);
}

}  // namespace

BENCHMARK(BM_Scheduler)->DenseRange(0, 5, 1);
