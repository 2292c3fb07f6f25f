// Ablation — the sweep-line temporal aggregation algorithm.
//
// DESIGN.md calls out the interval sweep-line as the central algorithmic
// choice behind non-blocking, snapshot-equivalent aggregation. This
// ablation replaces it with the naive alternative: archive the input and
// recompute the aggregate from scratch at every interval boundary
// (materializing executor — the reference semantics used by the tests).
//
// Expected shape: the sweep-line processes each element once per covered
// segment (near-linear); the recompute baseline is quadratic-ish in the
// number of live elements per segment and falls behind sharply as the
// window (overlap) grows.

#include <map>

#include <benchmark/benchmark.h>

#include "src/algebra/aggregate.h"
#include "src/common/random.h"
#include "src/core/generator_source.h"
#include "src/core/graph.h"
#include "src/core/sink.h"
#include "src/scheduler/scheduler.h"

namespace {

using namespace pipes;  // NOLINT

constexpr int kElements = 5'000;

std::vector<StreamElement<int>> MakeInput(Timestamp window) {
  Random rng(21);
  std::vector<StreamElement<int>> input;
  input.reserve(kElements);
  for (int i = 0; i < kElements; ++i) {
    input.push_back(StreamElement<int>(
        static_cast<int>(rng.NextBounded(100)), i, i + window));
  }
  return input;
}

void BM_SweepLineAggregate(benchmark::State& state) {
  const auto input = MakeInput(state.range(0));
  std::uint64_t outputs = 0;
  for (auto _ : state) {
    QueryGraph graph;
    auto& source = graph.Add<VectorSource<int>>(input);
    auto value = [](int v) { return v; };
    auto& agg =
        graph.Add<algebra::TemporalAggregate<int, algebra::SumAgg<int>,
                                             decltype(value)>>(value);
    auto& sink = graph.Add<CountingSink<int>>();
    source.AddSubscriber(agg.input());
    agg.AddSubscriber(sink.input());
    scheduler::RoundRobinStrategy strategy;
    scheduler::PipeExecutor driver(graph, strategy, 256);
    driver.RunToCompletion();
    outputs = sink.count();
    benchmark::DoNotOptimize(outputs);
  }
  state.counters["outputs"] =
      benchmark::Counter(static_cast<double>(outputs));
  state.SetItemsProcessed(state.iterations() * kElements);
}

/// Naive baseline: keep all elements; at every boundary, rescan everything
/// live to recompute the aggregate of the segment starting there.
void BM_RecomputeAggregate(benchmark::State& state) {
  const auto input = MakeInput(state.range(0));
  std::uint64_t outputs = 0;
  for (auto _ : state) {
    // Boundaries in order; segment [b_i, b_{i+1}).
    std::map<Timestamp, int> boundaries;  // boundary -> unused
    for (const auto& e : input) {
      boundaries[e.start()] = 0;
      boundaries[e.end()] = 0;
    }
    std::uint64_t produced = 0;
    std::int64_t checksum = 0;
    for (auto it = boundaries.begin(); std::next(it) != boundaries.end();
         ++it) {
      const Timestamp seg_start = it->first;
      int sum = 0;
      bool any = false;
      for (const auto& e : input) {  // full rescan per segment
        if (e.start() <= seg_start && seg_start < e.end()) {
          sum += e.payload;
          any = true;
        }
      }
      if (any) {
        ++produced;
        checksum += sum;
      }
    }
    outputs = produced;
    benchmark::DoNotOptimize(checksum);
  }
  state.counters["outputs"] =
      benchmark::Counter(static_cast<double>(outputs));
  state.SetItemsProcessed(state.iterations() * kElements);
}

}  // namespace

// Window (overlap degree) sweep.
BENCHMARK(BM_SweepLineAggregate)->Arg(10)->Arg(100)->Arg(1000);
BENCHMARK(BM_RecomputeAggregate)->Arg(10)->Arg(100)->Arg(1000);
