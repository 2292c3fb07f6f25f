// E11 — Lossless spill-to-disk state tier (docs/memory.md).
//
// Claim under test: a windowed equi-join whose SweepArea state exceeds the
// RAM budget by 10x-100x sustains throughput by paging cold partitions to
// disk as sorted runs — at 100% recall, unlike load shedding (E6) which
// buys the same bound by dropping results.
//
// Harness: the E6 windowed self-join shape, but on the spillable join and
// swept across budgets of ~1x, ~1/10x and ~1/100x of peak exact state.
// Counters: recall (must stay 100), peak RAM vs the budget, peak disk, and
// run count. Every iteration (smoke included) hard-fails on recall loss or
// any shed element: losing results here is a correctness bug, not a
// performance data point.
//
// Expected shape: items/s degrades gently as the budget shrinks (sequential
// run I/O plus deferred-probe merges), recall_pct pins at 100, and
// peak_ram_kb tracks the budget while peak_disk_kb absorbs the rest.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "src/algebra/join.h"
#include "src/common/macros.h"
#include "src/common/random.h"
#include "src/core/generator_source.h"
#include "src/core/graph.h"
#include "src/core/sink.h"
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

struct SpillRunStats {
  std::uint64_t results = 0;
  std::size_t peak_ram = 0;
  std::size_t peak_disk = 0;
  std::uint64_t peak_runs = 0;
  std::uint64_t shed = 0;
};

SpillRunStats RunOnce(std::size_t budget_bytes) {
  QueryGraph graph;
  auto& l = graph.Add<VectorSource<int>>(MakeStream(1));
  auto& r = graph.Add<VectorSource<int>>(MakeStream(2));
  auto& join = graph.Add(
      algebra::MakeSpillableHashJoin<int, int>(Identity, Identity, Combine));
  auto& sink = graph.Add<CountingSink<int>>();
  l.AddSubscriber(join.left());
  r.AddSubscriber(join.right());
  join.AddSubscriber(sink.input());
  join.SetMemoryLimit(budget_bytes);

  scheduler::RoundRobinStrategy strategy;
  scheduler::PipeExecutor driver(graph, strategy, 64);
  SpillRunStats stats;
  while (driver.Step()) {
    stats.peak_ram = std::max(stats.peak_ram, join.MemoryUsage());
    stats.peak_disk = std::max<std::size_t>(stats.peak_disk, join.DiskUsage());
    stats.peak_runs =
        std::max<std::uint64_t>(stats.peak_runs, join.SpilledPartitions());
  }
  stats.results = sink.count();
  stats.shed = join.ShedCount();
  return stats;
}

std::uint64_t ExactResultCount() {
  static const std::uint64_t kExact =
      RunOnce(std::size_t{1} << 40).results;
  return kExact;
}

// Peak exact state is ~2 * window elements * ~56 B/element per side; the
// sweep expresses budgets as fractions of that measured-once figure.
std::size_t PeakExactStateBytes() {
  static const std::size_t kPeak = RunOnce(std::size_t{1} << 40).peak_ram;
  return kPeak;
}

void BM_SpillJoin(benchmark::State& state) {
  const auto state_over_budget = static_cast<std::size_t>(state.range(0));
  const std::size_t budget =
      std::max<std::size_t>(PeakExactStateBytes() / state_over_budget, 4096);
  const std::uint64_t exact = ExactResultCount();
  SpillRunStats stats;
  for (auto _ : state) {
    stats = RunOnce(budget);
    benchmark::DoNotOptimize(stats.results);
    PIPES_CHECK(stats.results == exact);  // the spill tier is lossless
    PIPES_CHECK(stats.shed == 0);
  }
  state.counters["recall_pct"] = benchmark::Counter(
      100.0 * static_cast<double>(stats.results) / static_cast<double>(exact));
  state.counters["budget_kb"] =
      benchmark::Counter(static_cast<double>(budget) / 1024.0);
  state.counters["peak_ram_kb"] =
      benchmark::Counter(static_cast<double>(stats.peak_ram) / 1024.0);
  state.counters["peak_disk_kb"] =
      benchmark::Counter(static_cast<double>(stats.peak_disk) / 1024.0);
  state.counters["peak_runs"] =
      benchmark::Counter(static_cast<double>(stats.peak_runs));
  state.counters["shed_elements"] =
      benchmark::Counter(static_cast<double>(stats.shed));
  state.SetItemsProcessed(state.iterations() * kElements * 2);
}

// State-to-budget ratios: 1x (all resident), 10x and 100x (disk-backed).
BENCHMARK(BM_SpillJoin)->Arg(1)->Arg(10)->Arg(100);

}  // namespace
