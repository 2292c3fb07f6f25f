// B2 — Observability overhead.
//
// The metrics layer promises to be cheap enough to leave on in production:
// relaxed-atomic counters, a sampled (1-in-16) latency histogram behind a
// runtime flag, and a trace ring whose off-cost is one relaxed load. This
// bench replicates the B1 filter -> map -> union -> buffer chain and runs
// it in three modes — observability off, metrics on, metrics + tracing on —
// so the elements/sec deltas ARE the overhead. The acceptance budget is
// <3% for metrics-on vs off. A fourth bench times CaptureSnapshot itself.
//
// This binary has its own main (unlike the other benches): `--smoke` runs
// each mode once, prints the throughput ratio, and exits non-zero if the
// chain miscounts — cheap enough for CI. Anything else falls through to the
// normal google-benchmark driver.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "src/algebra/filter.h"
#include "src/algebra/map.h"
#include "src/algebra/union.h"
#include "src/core/buffer.h"
#include "src/core/generator_source.h"
#include "src/core/graph.h"
#include "src/core/metrics.h"
#include "src/core/sink.h"
#include "src/core/trace.h"
#include "src/metadata/snapshot.h"
#include "src/scheduler/scheduler.h"

namespace {

using namespace pipes;  // NOLINT

constexpr int kElements = 100'000;

std::vector<StreamElement<int>> MakeInput() {
  std::vector<StreamElement<int>> input;
  input.reserve(kElements);
  for (int i = 0; i < kElements; ++i) {
    input.push_back(StreamElement<int>::Point(i, i));
  }
  return input;
}

struct KeepMost {
  bool operator()(int v) const { return v % 8 != 0; }
};
struct AddOne {
  int operator()(int v) const { return v + 1; }
};

/// Builds and drains one B1 chain; returns the sink count.
std::uint64_t RunChain(const std::vector<StreamElement<int>>& left,
                       const std::vector<StreamElement<int>>& right,
                       std::size_t batch) {
  QueryGraph graph;
  auto& sa = graph.Add<VectorSource<int>>(left, "left", batch);
  auto& sb = graph.Add<VectorSource<int>>(right, "right", batch);
  auto& filter = graph.Add<algebra::Filter<int, KeepMost>>(KeepMost{});
  auto& map = graph.Add<algebra::Map<int, int, AddOne>>(AddOne{});
  auto& u = graph.Add<algebra::Union<int>>();
  auto& buffer = graph.Add<Buffer<int>>();
  auto& sink = graph.Add<CountingSink<int>>();
  sa.AddSubscriber(filter.input());
  filter.AddSubscriber(map.input());
  map.AddSubscriber(u.left());
  sb.AddSubscriber(u.right());
  u.AddSubscriber(buffer.input());
  buffer.AddSubscriber(sink.input());

  scheduler::RoundRobinStrategy strategy;
  scheduler::PipeExecutor driver(graph, strategy, /*batch_size=*/1024);
  driver.RunToCompletion();
  return sink.count();
}

enum class Mode { kOff, kMetrics, kMetricsAndTrace };

void ApplyMode(Mode mode) {
  obs::SetMetricsEnabled(mode != Mode::kOff);
  trace::SetEnabled(mode == Mode::kMetricsAndTrace);
  trace::GlobalRing().Clear();
}

void BM_Chain(benchmark::State& state, Mode mode) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  const auto left = MakeInput();
  const auto right = MakeInput();
  ApplyMode(mode);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunChain(left, right, batch));
  }
  ApplyMode(Mode::kOff);
  state.SetItemsProcessed(state.iterations() * 2 * kElements);
}

void BM_ChainObservabilityOff(benchmark::State& state) {
  BM_Chain(state, Mode::kOff);
}
void BM_ChainMetricsOn(benchmark::State& state) {
  BM_Chain(state, Mode::kMetrics);
}
void BM_ChainMetricsAndTraceOn(benchmark::State& state) {
  BM_Chain(state, Mode::kMetricsAndTrace);
}

// Cost of reading the counters: capture a snapshot of a drained 7-node
// graph (the walker itself, not the workload).
void BM_CaptureSnapshot(benchmark::State& state) {
  const auto left = MakeInput();
  const auto right = MakeInput();
  QueryGraph graph;
  auto& sa = graph.Add<VectorSource<int>>(left, "left", 64);
  auto& filter = graph.Add<algebra::Filter<int, KeepMost>>(KeepMost{});
  auto& sink = graph.Add<CountingSink<int>>();
  sa.AddSubscriber(filter.input());
  filter.AddSubscriber(sink.input());
  scheduler::RoundRobinStrategy strategy;
  scheduler::PipeExecutor driver(graph, strategy, 1024);
  driver.RunToCompletion();
  for (auto _ : state) {
    benchmark::DoNotOptimize(metadata::CaptureSnapshot(graph));
  }
}

// --- --smoke mode -----------------------------------------------------------

/// Drains the chain `reps` times under `mode`, returns elements/sec.
double MeasureMode(Mode mode, int reps,
                   const std::vector<StreamElement<int>>& left,
                   const std::vector<StreamElement<int>>& right) {
  ApplyMode(mode);
  constexpr std::uint64_t kExpected =
      // Left input loses every 8th element to the filter; right passes raw.
      static_cast<std::uint64_t>(kElements - kElements / 8) + kElements;
  const std::int64_t t0 = obs::SteadyNowNs();
  for (int r = 0; r < reps; ++r) {
    if (RunChain(left, right, /*batch=*/64) != kExpected) {
      std::fprintf(stderr, "smoke: wrong sink count under mode %d\n",
                   static_cast<int>(mode));
      std::exit(1);
    }
  }
  const std::int64_t t1 = obs::SteadyNowNs();
  ApplyMode(Mode::kOff);
  return static_cast<double>(reps) * 2 * kElements /
         (static_cast<double>(t1 - t0) / 1e9);
}

int RunSmoke() {
  const auto left = MakeInput();
  const auto right = MakeInput();
  // Warm up allocators and caches once.
  MeasureMode(Mode::kOff, 1, left, right);
  const int reps = 5;
  const double off = MeasureMode(Mode::kOff, reps, left, right);
  const double metrics = MeasureMode(Mode::kMetrics, reps, left, right);
  const double traced = MeasureMode(Mode::kMetricsAndTrace, reps, left, right);
  std::printf("observability smoke (%d reps of 200k elements):\n", reps);
  std::printf("  off            %12.0f el/s\n", off);
  std::printf("  metrics        %12.0f el/s  (%.1f%% of off)\n", metrics,
              100.0 * metrics / off);
  std::printf("  metrics+trace  %12.0f el/s  (%.1f%% of off)\n", traced,
              100.0 * traced / off);
  // Smoke asserts correctness, not the <3% budget: single-run timings in a
  // noisy CI container are not stable enough to gate on.
  return 0;
}

}  // namespace

BENCHMARK(BM_ChainObservabilityOff)->Arg(1)->Arg(64)->Arg(512);
BENCHMARK(BM_ChainMetricsOn)->Arg(1)->Arg(64)->Arg(512);
BENCHMARK(BM_ChainMetricsAndTraceOn)->Arg(1)->Arg(64)->Arg(512);
BENCHMARK(BM_CaptureSnapshot);

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) return RunSmoke();
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
