// E1 — Queue-less publish-subscribe connections.
//
// Paper claim: connecting operators directly through the publish-subscribe
// architecture needs no inter-operator queues and yields a "substantial
// overhead reduction".
//
// Harness: an operator chain of depth d (map -> map -> ...) over 100k
// elements, connected (a) directly and (b) with a Buffer on every edge
// (drained by the scheduler, as queue-based engines do). Series: items/sec
// vs chain depth for both variants.

#include <benchmark/benchmark.h>

#include "src/algebra/map.h"
#include "src/core/buffer.h"
#include "src/core/generator_source.h"
#include "src/core/graph.h"
#include "src/core/sink.h"
#include "src/scheduler/executor.h"
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

struct AddOne {
  int operator()(int v) const { return v + 1; }
};

void BM_DirectChain(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  const auto input = MakeInput();
  for (auto _ : state) {
    QueryGraph graph;
    auto& source = graph.Add<VectorSource<int>>(input);
    Source<int>* upstream = &source;
    for (int d = 0; d < depth; ++d) {
      auto& map = graph.Add<algebra::Map<int, int, AddOne>>(AddOne{});
      upstream->AddSubscriber(map.input());
      upstream = &map;
    }
    auto& sink = graph.Add<CountingSink<int>>();
    upstream->AddSubscriber(sink.input());

    scheduler::RoundRobinStrategy strategy;
    scheduler::PipeExecutor driver(graph, strategy, 256);
    driver.RunToCompletion();
    benchmark::DoNotOptimize(sink.count());
  }
  state.SetItemsProcessed(state.iterations() * kElements);
}

void BM_QueuedChain(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  const auto input = MakeInput();
  for (auto _ : state) {
    QueryGraph graph;
    auto& source = graph.Add<VectorSource<int>>(input);
    Source<int>* upstream = &source;
    for (int d = 0; d < depth; ++d) {
      auto& buffer = graph.Add<Buffer<int>>();
      upstream->AddSubscriber(buffer.input());
      auto& map = graph.Add<algebra::Map<int, int, AddOne>>(AddOne{});
      buffer.AddSubscriber(map.input());
      upstream = &map;
    }
    auto& sink = graph.Add<CountingSink<int>>();
    upstream->AddSubscriber(sink.input());

    scheduler::RoundRobinStrategy strategy;
    scheduler::PipeExecutor driver(graph, strategy, 256);
    driver.RunToCompletion();
    benchmark::DoNotOptimize(sink.count());
  }
  state.SetItemsProcessed(state.iterations() * kElements);
}

// Thread-safe queues on every edge (what a thread-per-operator engine pays
// even on one thread).
void BM_ConcurrentQueuedChain(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  const auto input = MakeInput();
  for (auto _ : state) {
    QueryGraph graph;
    auto& source = graph.Add<VectorSource<int>>(input);
    Source<int>* upstream = &source;
    for (int d = 0; d < depth; ++d) {
      auto& buffer = graph.Add<ConcurrentBuffer<int>>();
      upstream->AddSubscriber(buffer.input());
      auto& map = graph.Add<algebra::Map<int, int, AddOne>>(AddOne{});
      buffer.AddSubscriber(map.input());
      upstream = &map;
    }
    auto& sink = graph.Add<CountingSink<int>>();
    upstream->AddSubscriber(sink.input());

    scheduler::RoundRobinStrategy strategy;
    scheduler::PipeExecutor driver(graph, strategy, 256);
    driver.RunToCompletion();
    benchmark::DoNotOptimize(sink.count());
  }
  state.SetItemsProcessed(state.iterations() * kElements);
}

// Direct chain with the source emitting `TransferRun` runs: batch = 1 is
// the per-element pub-sub path measured above, batch = 64 amortizes the
// per-element virtual call + watermark merge — the before/after number for
// the paper's overhead-reduction claim in one binary.
void BM_DirectChainBatched(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  const auto batch = static_cast<std::size_t>(state.range(1));
  const auto input = MakeInput();
  for (auto _ : state) {
    QueryGraph graph;
    auto& source = graph.Add<VectorSource<int>>(input, "source", batch);
    Source<int>* upstream = &source;
    for (int d = 0; d < depth; ++d) {
      auto& map = graph.Add<algebra::Map<int, int, AddOne>>(AddOne{});
      upstream->AddSubscriber(map.input());
      upstream = &map;
    }
    auto& sink = graph.Add<CountingSink<int>>();
    upstream->AddSubscriber(sink.input());

    scheduler::RoundRobinStrategy strategy;
    scheduler::PipeExecutor driver(graph, strategy, 256);
    driver.RunToCompletion();
    benchmark::DoNotOptimize(sink.count());
  }
  state.SetItemsProcessed(state.iterations() * kElements);
}

// The direct chain at batch 64, depth swept to 64: each edge stages
// columnar runs that the executor's work queue delivers iteratively, so the
// cost of one element crossing one edge must stay flat as the chain grows
// (no per-depth recursion penalty, bounded stack at any depth). The
// `hops_per_second` counter is elements × depth / sec — the flat number;
// `items_per_second` stays end-to-end elements/sec like the other series.
void BM_ExecutorChain(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  const auto batch = static_cast<std::size_t>(state.range(1));
  const auto input = MakeInput();
  for (auto _ : state) {
    QueryGraph graph;
    auto& source = graph.Add<VectorSource<int>>(input, "source", batch);
    Source<int>* upstream = &source;
    for (int d = 0; d < depth; ++d) {
      auto& map = graph.Add<algebra::Map<int, int, AddOne>>(AddOne{});
      upstream->AddSubscriber(map.input());
      upstream = &map;
    }
    auto& sink = graph.Add<CountingSink<int>>();
    upstream->AddSubscriber(sink.input());

    scheduler::RoundRobinStrategy strategy;
    scheduler::PipeExecutor executor(graph, strategy, 256);
    executor.RunToCompletion();
    benchmark::DoNotOptimize(sink.count());
  }
  state.SetItemsProcessed(state.iterations() * kElements);
  state.counters["hops_per_second"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * kElements * depth,
      benchmark::Counter::kIsRate);
}

}  // namespace

BENCHMARK(BM_DirectChain)->Arg(1)->Arg(2)->Arg(4)->Arg(8);
BENCHMARK(BM_QueuedChain)->Arg(1)->Arg(2)->Arg(4)->Arg(8);
BENCHMARK(BM_ConcurrentQueuedChain)->Arg(1)->Arg(2)->Arg(4)->Arg(8);
BENCHMARK(BM_DirectChainBatched)
    ->Args({1, 1})
    ->Args({1, 64})
    ->Args({4, 1})
    ->Args({4, 64})
    ->Args({8, 1})
    ->Args({8, 64});
BENCHMARK(BM_ExecutorChain)
    ->Args({4, 64})
    ->Args({8, 64})
    ->Args({16, 64})
    ->Args({32, 64})
    ->Args({64, 64});
