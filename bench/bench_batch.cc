// B1 — Run transfer path.
//
// The queue-less pub-sub core pays one virtual call, one subscription loop,
// and one watermark merge per delivered run. The run path
// (`TransferRun`/`ReceiveRun`/`PortRun`) amortizes all three over a
// columnar run of elements. This bench sweeps the source batch size over
// {1, 8, 64, 512}; batch = 1 delivers runs of 1, larger batches quantify
// the amortization. Every harness but the cross-thread one runs on
// the `PipeExecutor`.
//
// Run with `--benchmark_format=json` for machine-readable output; the
// `items_per_second` counter is elements/sec through the chain.
//
// Harnesses:
//  * filter -> map -> union -> buffer over 100k-element int streams (the
//    operators with columnar kernels plus the buffer's train drain);
//  * one filter -> map query over 200k points in runs of 64, twice: as
//    typed `int` operators, and as CQL through `Engine` with an `OnResult`
//    callback (the relational row path every CQL query takes; ROADMAP
//    item 3 asks it to come within 3x of the typed chain);
//  * the traffic workload: generator source -> HOV filter -> time window,
//    one simulated hour of loop-detector readings;
//  * the same int chain across a ConcurrentBuffer under the
//    ThreadScheduler (per-train instead of per-element locking).

#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "src/algebra/filter.h"
#include "src/algebra/map.h"
#include "src/algebra/union.h"
#include "src/algebra/window.h"
#include "src/common/macros.h"
#include "src/core/buffer.h"
#include "src/core/generator_source.h"
#include "src/core/graph.h"
#include "src/core/sink.h"
#include "src/engine/engine.h"
#include "src/relational/schema.h"
#include "src/relational/tuple.h"
#include "src/scheduler/executor.h"
#include "src/scheduler/scheduler.h"
#include "src/workloads/traffic_queries.h"

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

// One simulated hour of loop-detector readings through the HOV filter and
// a one-minute window, emitted by the generator in `batch`-sized runs.
void BM_TrafficWorkload(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  std::uint64_t elements = 0;
  for (auto _ : state) {
    workloads::TrafficOptions options;
    options.duration_ms = 3600'000;
    QueryGraph graph;
    auto& source = workloads::AddTrafficSource(graph, options, batch);
    auto& hov = graph.Add<
        algebra::Filter<workloads::TrafficReading, workloads::HovLaneOnly>>(
        workloads::HovLaneOnly{});
    auto& window =
        graph.Add<algebra::TimeWindow<workloads::TrafficReading>>(60'000);
    auto& sink = graph.Add<CountingSink<workloads::TrafficReading>>();
    source.AddSubscriber(hov.input());
    hov.AddSubscriber(window.input());
    window.AddSubscriber(sink.input());

    scheduler::RoundRobinStrategy strategy;
    scheduler::PipeExecutor driver(graph, strategy, /*batch_size=*/1024);
    driver.RunToCompletion();
    benchmark::DoNotOptimize(sink.count());
    elements += source.elements_out();
  }
  state.SetItemsProcessed(elements);
}

// filter -> map -> union -> buffer, both union inputs fed with the same
// batch size; 2 * kElements elements flow into the union. Transfers stage
// columnar runs on pipe edges and the executor's work queue delivers them
// iteratively, so the chain pays per-run (not per-element) virtual dispatch
// and watermark merging end to end.
void BM_ExecutorFilterMapUnionBufferChain(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  const auto left = MakeInput();
  const auto right = MakeInput();
  for (auto _ : state) {
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
    scheduler::PipeExecutor executor(graph, strategy, /*batch_size=*/1024);
    executor.RunToCompletion();
    benchmark::DoNotOptimize(sink.count());
  }
  state.SetItemsProcessed(state.iterations() * 2 * kElements);
}

constexpr int kChainPoints = 200'000;
constexpr std::size_t kChainRun = 64;
constexpr std::uint64_t kChainResults = kChainPoints / 8 * 7;  // KeepMost drops 1/8

// source -> filter -> map -> sink over `int`, the source emitting runs of
// 64 points.
void BM_TypedFilterMapChain(benchmark::State& state) {
  std::vector<StreamElement<int>> input;
  input.reserve(kChainPoints);
  for (int i = 0; i < kChainPoints; ++i) {
    input.push_back(StreamElement<int>::Point(i, i));
  }
  for (auto _ : state) {
    QueryGraph graph;
    auto& source = graph.Add<VectorSource<int>>(input, "points", kChainRun);
    auto& filter = graph.Add<algebra::Filter<int, KeepMost>>(KeepMost{});
    auto& map = graph.Add<algebra::Map<int, int, AddOne>>(AddOne{});
    auto& sink = graph.Add<CountingSink<int>>();
    source.AddSubscriber(filter.input());
    filter.AddSubscriber(map.input());
    map.AddSubscriber(sink.input());

    scheduler::RoundRobinStrategy strategy;
    scheduler::PipeExecutor executor(graph, strategy, /*batch_size=*/1024);
    executor.RunToCompletion();
    benchmark::DoNotOptimize(sink.count());
    PIPES_CHECK(sink.count() == kChainResults);
  }
  state.SetItemsProcessed(state.iterations() * kChainPoints);
}

// The same query as CQL: one-field rows pushed through a `StreamWriter`, a
// pump every 64 pushes, results counted by an `OnResult` callback.
void BM_CqlFilterMapChain(benchmark::State& state) {
  const relational::Schema schema({{"v", relational::ValueType::kInt}});
  for (auto _ : state) {
    engine::Engine engine;
    auto writer = engine.AddStream("points", schema);
    PIPES_CHECK(writer.ok());
    auto handle = engine.Register("SELECT v + 1 FROM points WHERE v % 8 <> 0");
    PIPES_CHECK(handle.ok());
    std::uint64_t results = 0;
    PIPES_CHECK(handle->OnResult([&results](const auto&) { ++results; }).ok());
    for (int i = 0; i < kChainPoints; ++i) {
      PIPES_CHECK(writer
                      ->Push(relational::Tuple{relational::Value(
                                 static_cast<std::int64_t>(i))},
                             i)
                      .ok());
      if ((i + 1) % kChainRun == 0) engine.Pump();
    }
    PIPES_CHECK(writer->Close().ok());
    engine.RunToCompletion();
    benchmark::DoNotOptimize(results);
    PIPES_CHECK(results == kChainResults);
  }
  state.SetItemsProcessed(state.iterations() * kChainPoints);
}

// Cross-thread edge: source and sink halves on different workers, the
// ConcurrentBuffer between them drained train-at-a-time. Batching cuts
// lock acquisitions from per-element to per-train on both sides.
void BM_ConcurrentBufferEdge(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  const auto input = MakeInput();
  for (auto _ : state) {
    QueryGraph graph;
    auto& source = graph.Add<VectorSource<int>>(input, "source", batch);
    auto& buffer = graph.Add<ConcurrentBuffer<int>>();
    auto& map = graph.Add<algebra::Map<int, int, AddOne>>(AddOne{});
    auto& sink = graph.Add<CountingSink<int>>();
    source.AddSubscriber(buffer.input());
    buffer.AddSubscriber(map.input());
    map.AddSubscriber(sink.input());

    scheduler::ThreadScheduler driver(
        graph, /*num_threads=*/2,
        [] { return std::make_unique<scheduler::RoundRobinStrategy>(); },
        /*assignment=*/{}, /*batch_size=*/1024);
    driver.RunToCompletion();
    benchmark::DoNotOptimize(sink.count());
  }
  state.SetItemsProcessed(state.iterations() * kElements);
}

}  // namespace

BENCHMARK(BM_ExecutorFilterMapUnionBufferChain)
    ->Arg(1)
    ->Arg(8)
    ->Arg(64)
    ->Arg(512);
BENCHMARK(BM_TrafficWorkload)->Arg(1)->Arg(8)->Arg(64)->Arg(512);
BENCHMARK(BM_TypedFilterMapChain);
BENCHMARK(BM_CqlFilterMapChain);
// Wall-clock timing: the work happens on the scheduler's worker threads,
// so the bench thread's CPU time would misstate throughput.
BENCHMARK(BM_ConcurrentBufferEdge)
    ->Arg(1)
    ->Arg(8)
    ->Arg(64)
    ->Arg(512)
    ->UseRealTime();
