// E6 — Adaptive memory management and load shedding.
//
// Paper claim: operators subscribe to a memory manager that assigns and
// redistributes the budget at runtime; when an operator hits its limit it
// sheds state with a load-shedding strategy, trading accuracy for bounded
// memory (approximate query answers).
//
// Harness: a windowed self-join whose exact state needs ~window elements
// per side, run under shrinking memory budgets. Counters: peak state bytes,
// shed elements, and recall = results under the budget / exact results.
//
// Expected shape: throughput holds or improves as the budget shrinks while
// recall degrades gracefully; memory stays below the budget.

#include <benchmark/benchmark.h>

#include "src/algebra/join.h"
#include "src/common/random.h"
#include "src/core/generator_source.h"
#include "src/core/graph.h"
#include "src/core/sink.h"
#include "src/memory/memory_manager.h"
#include "src/scheduler/scheduler.h"

namespace {

using namespace pipes;  // NOLINT

constexpr int kElements = 20'000;
constexpr int kKeyDomain = 100;
constexpr Timestamp kWindow = 2000;

std::vector<StreamElement<int>> MakeStream(std::uint64_t seed) {
  Random rng(seed);
  std::vector<StreamElement<int>> input;
  input.reserve(kElements);
  for (int i = 0; i < kElements; ++i) {
    input.push_back(StreamElement<int>(
        static_cast<int>(rng.NextBounded(kKeyDomain)), i, i + kWindow));
  }
  return input;
}

int Identity(int v) { return v; }
int Combine(int a, int b) { return a * 1000 + b; }

std::uint64_t RunOnce(std::size_t budget_bytes, std::size_t* peak_bytes,
                      std::uint64_t* shed) {
  QueryGraph graph;
  auto& l = graph.Add<VectorSource<int>>(MakeStream(1));
  auto& r = graph.Add<VectorSource<int>>(MakeStream(2));
  auto& join = graph.Add(
      algebra::MakeHashJoin<int, int>(Identity, Identity, Combine));
  auto& sink = graph.Add<CountingSink<int>>();
  l.AddSubscriber(join.left());
  r.AddSubscriber(join.right());
  join.AddSubscriber(sink.input());

  memory::MemoryManager manager(budget_bytes,
                                std::make_unique<memory::UniformStrategy>());
  // MinMemoryBytes default is 1 KiB; the budget drives the assignment.
  PIPES_CHECK(manager.Register(join).ok());

  scheduler::RoundRobinStrategy strategy;
  scheduler::PipeExecutor driver(graph, strategy, 64);
  std::size_t peak = 0;
  while (driver.Step()) {
    peak = std::max(peak, join.MemoryUsage());
  }
  if (peak_bytes != nullptr) *peak_bytes = peak;
  if (shed != nullptr) *shed = join.shed_count();
  return sink.count();
}

std::uint64_t ExactResultCount() {
  static const std::uint64_t kExact =
      RunOnce(std::size_t{1} << 40, nullptr, nullptr);
  return kExact;
}

void BM_LoadShedding(benchmark::State& state) {
  const auto budget = static_cast<std::size_t>(state.range(0)) * 1024;
  const std::uint64_t exact = ExactResultCount();
  std::uint64_t results = 0;
  std::size_t peak = 0;
  std::uint64_t shed = 0;
  for (auto _ : state) {
    results = RunOnce(budget, &peak, &shed);
    benchmark::DoNotOptimize(results);
  }
  state.counters["recall_pct"] = benchmark::Counter(
      100.0 * static_cast<double>(results) / static_cast<double>(exact));
  state.counters["peak_state_kb"] =
      benchmark::Counter(static_cast<double>(peak) / 1024.0);
  state.counters["shed_elements"] =
      benchmark::Counter(static_cast<double>(shed));
  state.SetItemsProcessed(state.iterations() * kElements * 2);
}

// Budgets in KiB: effectively-unbounded, then 256K, 64K, 16K.
BENCHMARK(BM_LoadShedding)
    ->Arg(1 << 20)
    ->Arg(256)
    ->Arg(64)
    ->Arg(16);

}  // namespace
