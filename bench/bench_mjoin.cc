// E4 — Multi-way joins (MJoin) vs. binary join trees.
//
// Paper claim: the join framework covers multi-way joins over streaming
// sources (Viglas et al.), which avoid materializing intermediate results
// between binary joins.
//
// Harness: n-way equi-join (n = 3, 4, 5) of window streams, executed
// (a) by one MultiwayJoin operator and (b) by a cascade of binary hash
// joins (for n = 3). Counters report result cardinality and retained state.
//
// Expected shape: comparable throughput at n = 3 with less retained state
// for the MJoin (no intermediate results); MJoin scales to n = 4, 5 where
// a cascade would materialize growing intermediates.

#include <benchmark/benchmark.h>

#include "src/algebra/join.h"
#include "src/common/random.h"
#include "src/core/generator_source.h"
#include "src/core/graph.h"
#include "src/core/sink.h"
#include "src/scheduler/scheduler.h"
#include "src/sweeparea/multiway_join.h"

namespace {

using namespace pipes;  // NOLINT

constexpr int kElements = 10'000;
constexpr int kKeyDomain = 500;
constexpr Timestamp kWindow = 200;

std::vector<StreamElement<int>> KeyStream(std::uint64_t seed) {
  Random rng(seed);
  std::vector<StreamElement<int>> input;
  input.reserve(kElements);
  for (int i = 0; i < kElements; ++i) {
    input.push_back(StreamElement<int>(
        static_cast<int>(rng.NextBounded(kKeyDomain)), i, i + kWindow));
  }
  return input;
}

int Key(int v) { return v; }

void BM_MultiwayJoin(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<std::vector<StreamElement<int>>> inputs;
  for (std::size_t i = 0; i < n; ++i) inputs.push_back(KeyStream(i + 1));

  std::uint64_t results = 0;
  std::size_t retained = 0;
  for (auto _ : state) {
    QueryGraph graph;
    auto& join = graph.Add<sweeparea::MultiwayJoin<int, decltype(&Key)>>(
        n, &Key);
    for (std::size_t i = 0; i < n; ++i) {
      auto& source = graph.Add<VectorSource<int>>(inputs[i]);
      source.AddSubscriber(join.input(i));
    }
    auto& sink = graph.Add<CountingSink<std::vector<int>>>();
    join.AddSubscriber(sink.input());
    scheduler::RoundRobinStrategy strategy;
    scheduler::PipeExecutor driver(graph, strategy, 64);
    driver.RunToCompletion();
    results = sink.count();
    retained = join.state_size();
    benchmark::DoNotOptimize(results);
  }
  state.counters["results"] =
      benchmark::Counter(static_cast<double>(results));
  state.counters["final_state"] =
      benchmark::Counter(static_cast<double>(retained));
  state.SetItemsProcessed(state.iterations() * kElements * n);
}

// Binary cascade for the 3-way case: (A |x| B) |x| C with pair payloads.
void BM_BinaryCascade3Way(benchmark::State& state) {
  const auto a = KeyStream(1);
  const auto b = KeyStream(2);
  const auto c = KeyStream(3);

  std::uint64_t results = 0;
  for (auto _ : state) {
    QueryGraph graph;
    auto& sa = graph.Add<VectorSource<int>>(a);
    auto& sb = graph.Add<VectorSource<int>>(b);
    auto& sc = graph.Add<VectorSource<int>>(c);
    auto pair_combine = [](int l, int r) { return std::make_pair(l, r); };
    auto& join_ab = graph.Add(algebra::MakeHashJoin<int, int>(
        &Key, &Key, pair_combine, "ab"));
    auto pair_key = [](const std::pair<int, int>& p) { return p.first; };
    auto triple_combine = [](const std::pair<int, int>& p, int r) {
      return std::make_pair(p, r);
    };
    auto& join_abc = graph.Add(
        algebra::MakeHashJoin<std::pair<int, int>, int>(
            pair_key, &Key, triple_combine, "abc"));
    auto& sink =
        graph.Add<CountingSink<std::pair<std::pair<int, int>, int>>>();
    sa.AddSubscriber(join_ab.left());
    sb.AddSubscriber(join_ab.right());
    join_ab.AddSubscriber(join_abc.left());
    sc.AddSubscriber(join_abc.right());
    join_abc.AddSubscriber(sink.input());
    scheduler::RoundRobinStrategy strategy;
    scheduler::PipeExecutor driver(graph, strategy, 64);
    driver.RunToCompletion();
    results = sink.count();
    benchmark::DoNotOptimize(results);
  }
  state.counters["results"] =
      benchmark::Counter(static_cast<double>(results));
  state.SetItemsProcessed(state.iterations() * kElements * 3);
}

}  // namespace

BENCHMARK(BM_MultiwayJoin)->Arg(3)->Arg(4)->Arg(5);
BENCHMARK(BM_BinaryCascade3Way);
