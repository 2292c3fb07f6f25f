// E3 — The SweepArea join framework with exchangeable SweepAreas.
//
// Paper claim: the generalized ripple join parameterized by exchangeable
// status-aware SweepAreas supports different join types efficiently; XXL's
// library design makes the implementations directly comparable.
//
// Harness: symmetric window equi-join over zipf-keyed integer streams.
// Variants: hash SweepArea vs list SweepArea (same equi-join predicate) vs
// tree SweepArea (band join), swept over window sizes.
//
// Expected shape: hash >> list for equi-joins and the gap widens with the
// window (state) size; the tree SweepArea beats the list for band joins.

#include <benchmark/benchmark.h>

#include "src/algebra/join.h"
#include "src/common/random.h"
#include "src/core/generator_source.h"
#include "src/core/graph.h"
#include "src/core/sink.h"
#include "src/scheduler/scheduler.h"

namespace {

using namespace pipes;  // NOLINT

constexpr int kElements = 20'000;
constexpr int kKeyDomain = 10'000;

std::vector<StreamElement<int>> ZipfStream(std::uint64_t seed,
                                           Timestamp window) {
  Random rng(seed);
  ZipfDistribution zipf(kKeyDomain, 0.8);
  std::vector<StreamElement<int>> input;
  input.reserve(kElements);
  for (int i = 0; i < kElements; ++i) {
    input.push_back(StreamElement<int>(
        static_cast<int>(zipf.Sample(rng)), i, i + window));
  }
  return input;
}

template <typename JoinPtr>
void RunJoin(benchmark::State& state, Timestamp window, JoinPtr (*make)()) {
  const auto left = ZipfStream(1, window);
  const auto right = ZipfStream(2, window);
  std::uint64_t results = 0;
  for (auto _ : state) {
    QueryGraph graph;
    auto& l = graph.Add<VectorSource<int>>(left);
    auto& r = graph.Add<VectorSource<int>>(right);
    auto& join = graph.Add(make());
    auto& sink = graph.Add<CountingSink<int>>();
    l.AddSubscriber(join.left());
    r.AddSubscriber(join.right());
    join.AddSubscriber(sink.input());
    scheduler::RoundRobinStrategy strategy;
    scheduler::PipeExecutor driver(graph, strategy, 64);
    driver.RunToCompletion();
    results = sink.count();
    benchmark::DoNotOptimize(results);
  }
  state.counters["results"] =
      benchmark::Counter(static_cast<double>(results));
  state.SetItemsProcessed(state.iterations() * kElements * 2);
}

int Identity(int v) { return v; }
int Combine(int a, int b) { return a * 1000 + b; }

auto MakeHash() {
  return algebra::MakeHashJoin<int, int>(Identity, Identity, Combine,
                                         "hash");
}

auto MakeList() {
  auto pred = [](int a, int b) { return a == b; };
  return algebra::MakeNestedLoopsJoin<int, int>(pred, Combine, "list");
}

auto MakeTreeBand() {
  return algebra::MakeBandJoin<int, int>(Identity, Identity, /*band=*/1,
                                         Combine, "tree-band");
}

auto MakeListBand() {
  auto pred = [](int a, int b) { return a - 1 <= b && b <= a + 1; };
  return algebra::MakeNestedLoopsJoin<int, int>(pred, Combine, "list-band");
}

void BM_HashSweepAreaEquiJoin(benchmark::State& state) {
  RunJoin(state, state.range(0), +[]() { return MakeHash(); });
}

void BM_ListSweepAreaEquiJoin(benchmark::State& state) {
  RunJoin(state, state.range(0), +[]() { return MakeList(); });
}

void BM_TreeSweepAreaBandJoin(benchmark::State& state) {
  RunJoin(state, state.range(0), +[]() { return MakeTreeBand(); });
}

void BM_ListSweepAreaBandJoin(benchmark::State& state) {
  RunJoin(state, state.range(0), +[]() { return MakeListBand(); });
}

}  // namespace

// Window sizes: 100, 400, 1600 time units of state.
BENCHMARK(BM_HashSweepAreaEquiJoin)->Arg(100)->Arg(400)->Arg(1600);
BENCHMARK(BM_ListSweepAreaEquiJoin)->Arg(100)->Arg(400)->Arg(1600);
BENCHMARK(BM_TreeSweepAreaBandJoin)->Arg(100)->Arg(400)->Arg(1600);
BENCHMARK(BM_ListSweepAreaBandJoin)->Arg(100)->Arg(400)->Arg(1600);
