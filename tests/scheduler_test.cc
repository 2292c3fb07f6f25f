// Tests for the 3-layer scheduling framework: strategies (layer 2), the
// deterministic driver, virtual-node fusion semantics (layer 1: buffers are
// the only scheduling boundaries), and the thread scheduler (layer 3).

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "src/algebra/filter.h"
#include "src/algebra/union.h"
#include "src/core/buffer.h"
#include "src/core/generator_source.h"
#include "src/core/graph.h"
#include "src/core/sink.h"
#include "src/scheduler/fusion.h"
#include "src/scheduler/scheduler.h"
#include "src/scheduler/strategy.h"

namespace pipes::scheduler {
namespace {

/// Delivers what hand-driven DoWork calls staged: an executor links every
/// pipe on construction and drains them on destruction.
void DeliverStaged(QueryGraph& graph) {
  RoundRobinStrategy strategy;
  PipeExecutor executor(graph, strategy);
}

std::vector<StreamElement<int>> Ints(int n) {
  std::vector<StreamElement<int>> elements;
  for (int i = 0; i < n; ++i) {
    elements.push_back(StreamElement<int>::Point(i, i));
  }
  return elements;
}

TEST(Strategies, RoundRobinCycles) {
  QueryGraph graph;
  auto& a = graph.Add<VectorSource<int>>(Ints(100), "a");
  auto& b = graph.Add<VectorSource<int>>(Ints(100), "b");
  std::vector<Node*> candidates = {&a, &b};
  RoundRobinStrategy strategy;
  const std::size_t first = strategy.Select(candidates);
  const std::size_t second = strategy.Select(candidates);
  const std::size_t third = strategy.Select(candidates);
  EXPECT_NE(first, second);
  EXPECT_EQ(first, third);
}

TEST(Strategies, FifoPrefersOldestNode) {
  QueryGraph graph;
  auto& a = graph.Add<VectorSource<int>>(Ints(10), "a");
  auto& b = graph.Add<VectorSource<int>>(Ints(10), "b");
  std::vector<Node*> candidates = {&b, &a};
  FifoStrategy strategy;
  EXPECT_EQ(candidates[strategy.Select(candidates)], &a);
}

TEST(Strategies, LongestQueuePicksFullestBuffer) {
  QueryGraph graph;
  auto& source = graph.Add<VectorSource<int>>(Ints(10));
  auto& small = graph.Add<Buffer<int>>("small");
  auto& big = graph.Add<Buffer<int>>("big");
  source.AddSubscriber(small.input());
  source.AddSubscriber(big.input());
  source.DoWork(10);
  DeliverStaged(graph);
  small.DoWork(8);  // drain most of the small buffer

  std::vector<Node*> candidates = {&small, &big};
  LongestQueueStrategy strategy;
  EXPECT_EQ(candidates[strategy.Select(candidates)], &big);
}

TEST(Strategies, ChainPrefersSelectiveDownstreamChains) {
  QueryGraph graph;
  // Buffer A feeds a highly selective filter (sheds memory fast); buffer B
  // feeds a pass-through chain.
  auto& source_a = graph.Add<VectorSource<int>>(Ints(1000), "sa");
  auto& source_b = graph.Add<VectorSource<int>>(Ints(1000), "sb");
  auto& buffer_a = graph.Add<Buffer<int>>("ba");
  auto& buffer_b = graph.Add<Buffer<int>>("bb");
  auto selective = [](int v) { return v % 100 == 0; };
  auto& filter_a =
      graph.Add<algebra::Filter<int, decltype(selective)>>(selective, "fa");
  auto pass = [](int) { return true; };
  auto& filter_b =
      graph.Add<algebra::Filter<int, decltype(pass)>>(pass, "fb");
  auto& sink_a = graph.Add<CountingSink<int>>("ka");
  auto& sink_b = graph.Add<CountingSink<int>>("kb");
  source_a.AddSubscriber(buffer_a.input());
  source_b.AddSubscriber(buffer_b.input());
  buffer_a.AddSubscriber(filter_a.input());
  buffer_b.AddSubscriber(filter_b.input());
  filter_a.AddSubscriber(sink_a.input());
  filter_b.AddSubscriber(sink_b.input());

  // Warm up: push some elements through so selectivities are observable.
  source_a.DoWork(200);
  source_b.DoWork(200);
  DeliverStaged(graph);
  buffer_a.DoWork(100);
  buffer_b.DoWork(100);
  DeliverStaged(graph);

  EXPECT_GT(ChainStrategy::Priority(buffer_a),
            ChainStrategy::Priority(buffer_b));
  std::vector<Node*> candidates = {&buffer_b, &buffer_a};
  ChainStrategy strategy;
  EXPECT_EQ(candidates[strategy.Select(candidates)], &buffer_a);
}

TEST(Strategies, RateBasedPrefersProductiveChains) {
  QueryGraph graph;
  auto& source_a = graph.Add<VectorSource<int>>(Ints(1000), "sa");
  auto& source_b = graph.Add<VectorSource<int>>(Ints(1000), "sb");
  auto& buffer_a = graph.Add<Buffer<int>>("ba");
  auto& buffer_b = graph.Add<Buffer<int>>("bb");
  auto selective = [](int v) { return v % 100 == 0; };
  auto& filter_a =
      graph.Add<algebra::Filter<int, decltype(selective)>>(selective, "fa");
  auto pass = [](int) { return true; };
  auto& filter_b = graph.Add<algebra::Filter<int, decltype(pass)>>(pass, "fb");
  auto& sink_a = graph.Add<CountingSink<int>>("ka");
  auto& sink_b = graph.Add<CountingSink<int>>("kb");
  source_a.AddSubscriber(buffer_a.input());
  source_b.AddSubscriber(buffer_b.input());
  buffer_a.AddSubscriber(filter_a.input());
  buffer_b.AddSubscriber(filter_b.input());
  filter_a.AddSubscriber(sink_a.input());
  filter_b.AddSubscriber(sink_b.input());

  source_a.DoWork(200);
  source_b.DoWork(200);
  DeliverStaged(graph);
  buffer_a.DoWork(100);
  buffer_b.DoWork(100);
  DeliverStaged(graph);

  // The pass-through chain delivers more results per unit of work.
  EXPECT_GT(RateBasedStrategy::Priority(buffer_b),
            RateBasedStrategy::Priority(buffer_a));
}

TEST(Strategies, RandomIsDeterministicPerSeed) {
  QueryGraph graph;
  auto& a = graph.Add<VectorSource<int>>(Ints(10), "a");
  auto& b = graph.Add<VectorSource<int>>(Ints(10), "b");
  std::vector<Node*> candidates = {&a, &b};
  RandomStrategy s1(123), s2(123);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(s1.Select(candidates), s2.Select(candidates));
  }
}

TEST(Scheduler, AllStrategiesDrainTheSameGraphToTheSameResult) {
  auto build_and_run = [](Strategy& strategy) {
    QueryGraph graph;
    auto& source = graph.Add<VectorSource<int>>(Ints(500));
    auto& buffer = graph.Add<Buffer<int>>();
    auto pred = [](int v) { return v % 3 == 0; };
    auto& filter = graph.Add<algebra::Filter<int, decltype(pred)>>(pred);
    auto& sink = graph.Add<CountingSink<int>>();
    source.AddSubscriber(buffer.input());
    buffer.AddSubscriber(filter.input());
    filter.AddSubscriber(sink.input());
    PipeExecutor driver(graph, strategy, /*batch_size=*/17);
    driver.RunToCompletion();
    EXPECT_TRUE(graph.Finished());
    return sink.count();
  };

  RoundRobinStrategy rr;
  FifoStrategy fifo;
  LongestQueueStrategy lq;
  ChainStrategy chain;
  RateBasedStrategy rate;
  RandomStrategy random(5);
  const auto expected = build_and_run(rr);
  EXPECT_EQ(expected, 167u);
  EXPECT_EQ(build_and_run(fifo), expected);
  EXPECT_EQ(build_and_run(lq), expected);
  EXPECT_EQ(build_and_run(chain), expected);
  EXPECT_EQ(build_and_run(rate), expected);
  EXPECT_EQ(build_and_run(random), expected);
}

TEST(Scheduler, CollectsQueueStatistics) {
  QueryGraph graph;
  auto& source = graph.Add<VectorSource<int>>(Ints(100));
  auto& buffer = graph.Add<Buffer<int>>();
  auto& sink = graph.Add<CountingSink<int>>();
  source.AddSubscriber(buffer.input());
  buffer.AddSubscriber(sink.input());

  // FIFO drives the source fully before draining the buffer -> the queue
  // peak approaches the input size.
  FifoStrategy strategy;
  PipeExecutor driver(graph, strategy, /*batch_size=*/1000);
  const RunStats stats = driver.RunToCompletion();
  EXPECT_GT(stats.peak_total_queue, 90u);
  EXPECT_GT(stats.iterations, 0u);
  EXPECT_GT(stats.units, 0u);
}

TEST(Scheduler, StepReturnsFalseWhenNoWork) {
  QueryGraph graph;
  auto& source = graph.Add<VectorSource<int>>(Ints(1));
  auto& sink = graph.Add<CountingSink<int>>();
  source.AddSubscriber(sink.input());
  RoundRobinStrategy strategy;
  PipeExecutor driver(graph, strategy);
  EXPECT_TRUE(driver.Step());  // Polls the source: stages element + done.
  EXPECT_TRUE(driver.Step());  // Delivers them.
  EXPECT_FALSE(driver.Step());
  EXPECT_TRUE(graph.Finished());
}

TEST(Fusion, SpliceBufferSplitsAVirtualNode) {
  QueryGraph graph;
  auto& source = graph.Add<VectorSource<int>>(Ints(50));
  auto pred = [](int v) { return v % 2 == 0; };
  auto& filter = graph.Add<algebra::Filter<int, decltype(pred)>>(pred);
  auto& sink = graph.Add<CountingSink<int>>();
  source.AddSubscriber(filter.input());
  filter.AddSubscriber(sink.input());
  ASSERT_EQ(graph.ActiveNodes().size(), 1u);  // one fused virtual node

  auto spliced = SpliceBuffer<int>(graph, source, filter.input());
  ASSERT_TRUE(spliced.ok());
  EXPECT_EQ(graph.ActiveNodes().size(), 2u);  // boundary created
  EXPECT_TRUE(graph.Validate().ok());

  RoundRobinStrategy strategy;
  PipeExecutor(graph, strategy).RunToCompletion();
  EXPECT_EQ(sink.count(), 25u);

  // Splicing a non-existent edge reports NotFound.
  auto again = SpliceBuffer<int>(graph, source, filter.input());
  EXPECT_EQ(again.status().code(), StatusCode::kNotFound);
}

TEST(Fusion, SpliceConcurrentBufferForThreadEdges) {
  QueryGraph graph;
  auto& source = graph.Add<VectorSource<int>>(Ints(100));
  auto& sink = graph.Add<CountingSink<int>>();
  source.AddSubscriber(sink.input());
  auto spliced = SpliceConcurrentBuffer<int>(graph, source, sink.input());
  ASSERT_TRUE(spliced.ok());

  ThreadScheduler scheduler(
      graph, /*num_threads=*/2,
      []() { return std::make_unique<RoundRobinStrategy>(); });
  scheduler.RunToCompletion();
  EXPECT_EQ(sink.count(), 100u);
}

TEST(ThreadScheduler, DrainsDisjointChainsAcrossThreads) {
  QueryGraph graph;
  constexpr int kChains = 4;
  constexpr int kPerChain = 2000;
  std::vector<CountingSink<int>*> sinks;
  for (int c = 0; c < kChains; ++c) {
    auto& source = graph.Add<VectorSource<int>>(Ints(kPerChain));
    auto& buffer = graph.Add<ConcurrentBuffer<int>>();
    auto& sink = graph.Add<CountingSink<int>>();
    source.AddSubscriber(buffer.input());
    buffer.AddSubscriber(sink.input());
    sinks.push_back(&sink);
  }

  // Keep each chain's source and buffer on the same worker: active nodes
  // are ordered [src0, buf0, src1, buf1, ...] per graph insertion order.
  std::vector<int> assignment;
  for (int c = 0; c < kChains; ++c) {
    assignment.push_back(c % 2);
    assignment.push_back(c % 2);
  }
  ThreadScheduler scheduler(
      graph, /*num_threads=*/2,
      []() { return std::make_unique<RoundRobinStrategy>(); }, assignment);
  const RunStats stats = scheduler.RunToCompletion();

  EXPECT_TRUE(graph.Finished());
  EXPECT_GT(stats.units, 0u);
  for (auto* sink : sinks) {
    EXPECT_EQ(sink->count(), static_cast<std::uint64_t>(kPerChain));
    EXPECT_TRUE(sink->done());
  }
}

// Each worker is a PipeExecutor over its own nodes; an operator fed by two
// workers' sources with no ConcurrentBuffer between them would run on both
// threads at once, so the scheduler refuses the graph before starting.
TEST(ThreadScheduler, RefusesOperatorReachableFromTwoWorkers) {
  QueryGraph graph;
  auto& a = graph.Add<VectorSource<int>>(Ints(10), "a");
  auto& b = graph.Add<VectorSource<int>>(Ints(10), "b");
  auto& u = graph.Add<algebra::Union<int>>("shared-union");
  auto& sink = graph.Add<CountingSink<int>>();
  a.AddSubscriber(u.left());
  b.AddSubscriber(u.right());
  u.AddSubscriber(sink.input());

  ThreadScheduler scheduler(
      graph, /*num_threads=*/2,
      []() { return std::make_unique<RoundRobinStrategy>(); },
      /*assignment=*/{0, 1});
  EXPECT_DEATH(scheduler.RunToCompletion(),
               "'shared-union' is reachable from workers 0 and 1");
}

}  // namespace
}  // namespace pipes::scheduler
