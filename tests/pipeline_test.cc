// Tests for the fluent pipeline-construction API (src/core/pipeline.h) and
// the subscription/graph API it is sugar over: `Source::AddSubscriber`,
// `InputPort::SubscribeTo`, and the unified `QueryGraph::Add` overload set.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/algebra/aggregate.h"
#include "src/algebra/filter.h"
#include "src/algebra/map.h"
#include "src/algebra/union.h"
#include "src/algebra/window.h"
#include "src/core/generator_source.h"
#include "src/core/graph.h"
#include "src/core/pipeline.h"
#include "src/core/sink.h"
#include "src/scheduler/scheduler.h"

namespace pipes {
namespace {

std::vector<StreamElement<int>> MakeInput(int n) {
  std::vector<StreamElement<int>> input;
  input.reserve(n);
  for (int i = 0; i < n; ++i) {
    input.push_back(StreamElement<int>::Point(i, i));
  }
  return input;
}

struct KeepOdd {
  bool operator()(int v) const { return v % 2 != 0; }
};
struct Double {
  int operator()(int v) const { return 2 * v; }
};

void Drain(QueryGraph& graph) {
  scheduler::RoundRobinStrategy strategy;
  scheduler::PipeExecutor driver(graph, strategy);
  driver.RunToCompletion();
}

TEST(PipelineTest, ChainMatchesManualConstruction) {
  // Manual construction, the reference.
  QueryGraph manual;
  {
    auto& source = manual.Add<VectorSource<int>>(MakeInput(500), "src", 16);
    auto& filter = manual.Add<algebra::Filter<int, KeepOdd>>(KeepOdd{});
    auto& map = manual.Add<algebra::Map<int, int, Double>>(Double{});
    auto& window = manual.Add<algebra::TimeWindow<int>>(50);
    auto& sink = manual.Add<CollectorSink<int>>();
    source.AddSubscriber(filter.input());
    filter.AddSubscriber(map.input());
    map.AddSubscriber(window.input());
    window.AddSubscriber(sink.input());
  }
  Drain(manual);
  const auto* manual_sink =
      dynamic_cast<CollectorSink<int>*>(manual.nodes().back());
  ASSERT_NE(manual_sink, nullptr);

  // Same query through the DSL.
  QueryGraph fluent;
  auto& sink = dsl::From(fluent,
                         std::make_unique<VectorSource<int>>(MakeInput(500),
                                                             "src", 16))
             | dsl::Filter(KeepOdd{})
             | dsl::Map(Double{})
             | dsl::TimeWindow(50)
             | dsl::Into(std::make_unique<CollectorSink<int>>());
  EXPECT_EQ(fluent.nodes().size(), 5u);
  Drain(fluent);

  EXPECT_EQ(sink.elements(), manual_sink->elements());
  EXPECT_FALSE(sink.elements().empty());
}

TEST(PipelineTest, MapDeducesOutputType) {
  QueryGraph graph;
  auto& sink =
      dsl::From(graph, std::make_unique<VectorSource<int>>(MakeInput(10)))
      | dsl::Map([](int v) { return v * 0.5; })  // int -> double
      | dsl::Into(std::make_unique<CollectorSink<double>>());
  Drain(graph);
  ASSERT_EQ(sink.elements().size(), 10u);
  EXPECT_DOUBLE_EQ(sink.elements()[3].payload, 1.5);
}

TEST(PipelineTest, AverageAggregates) {
  QueryGraph graph;
  auto& sink =
      dsl::From(graph, std::make_unique<VectorSource<int>>(MakeInput(100)))
      | dsl::TimeWindow(10)
      | dsl::Average([](int v) { return static_cast<double>(v); })
      | dsl::Into(std::make_unique<CollectorSink<double>>());
  Drain(graph);
  ASSERT_FALSE(sink.elements().empty());
  // Temporal aggregation: at instant 9 the window [i, i+10) of elements
  // 0..9 is alive, so the result valid at 9 is their average.
  bool found = false;
  for (const StreamElement<double>& e : sink.elements()) {
    if (e.start() <= 9 && 9 < e.end()) {
      EXPECT_DOUBLE_EQ(e.payload, 4.5);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(PipelineTest, FanOutFromSharedStage) {
  QueryGraph graph;
  auto stage =
      dsl::From(graph, std::make_unique<VectorSource<int>>(MakeInput(100)))
      | dsl::Filter(KeepOdd{}, "shared");
  auto& raw = stage | dsl::Into(std::make_unique<CollectorSink<int>>());
  auto& doubled = stage | dsl::Map(Double{})
                        | dsl::Into(std::make_unique<CollectorSink<int>>());
  Drain(graph);
  EXPECT_EQ(raw.elements().size(), 50u);
  EXPECT_EQ(doubled.elements().size(), 50u);
  EXPECT_EQ(doubled.elements()[0].payload, 2 * raw.elements()[0].payload);
}

TEST(PipelineTest, IntoPortWiresManualOperators) {
  // A union built manually, both inputs fed by DSL chains.
  QueryGraph graph;
  auto& u = graph.Add<algebra::Union<int>>();
  dsl::From(graph, std::make_unique<VectorSource<int>>(MakeInput(10), "a"))
      | dsl::Into(u.left());
  dsl::From(graph, std::make_unique<VectorSource<int>>(MakeInput(10), "b"))
      | dsl::Into(u.right());
  auto& sink = dsl::From(graph, u)
             | dsl::Into(std::make_unique<CollectorSink<int>>());
  Drain(graph);
  EXPECT_EQ(sink.elements().size(), 20u);
}

TEST(PipelineTest, DetachInsertsSchedulableBuffer) {
  QueryGraph graph;
  auto& sink =
      dsl::From(graph, std::make_unique<VectorSource<int>>(MakeInput(50)))
      | dsl::Detach("boundary")
      | dsl::Into(std::make_unique<CollectorSink<int>>());
  bool found_buffer = false;
  for (const Node* node : graph.nodes()) {
    if (node->name() == "boundary") {
      EXPECT_TRUE(node->is_active());
      found_buffer = true;
    }
  }
  EXPECT_TRUE(found_buffer);
  Drain(graph);
  EXPECT_EQ(sink.elements().size(), 50u);
}

// --- The subscription API the DSL is sugar over ----------------------------

TEST(SubscriptionApiTest, SubscribeToMirrorsAddSubscriber) {
  QueryGraph graph;
  auto& source = graph.Add<VectorSource<int>>(MakeInput(5), "src");
  auto& sink = graph.Add<CollectorSink<int>>();
  // The port-side spelling: subscribe this input to that source.
  sink.input().SubscribeTo(source);
  ASSERT_EQ(source.downstream().size(), 1u);
  EXPECT_EQ(source.downstream()[0], &sink);
  Drain(graph);
  EXPECT_EQ(sink.elements().size(), 5u);
}

TEST(GraphApiTest, AddAcceptsConstructedNodes) {
  QueryGraph graph;
  // Emplace form.
  auto& a = graph.Add<VectorSource<int>>(MakeInput(3), "emplaced");
  // unique_ptr form (one overload set, no separate AddNode).
  auto& b = graph.Add(std::make_unique<CollectorSink<int>>("owned"));
  a.AddSubscriber(b.input());
  EXPECT_TRUE(graph.Contains(a));
  EXPECT_TRUE(graph.Contains(b));
  EXPECT_EQ(graph.nodes().size(), 2u);

  Drain(graph);
  EXPECT_EQ(b.elements().size(), 3u);

  // Remove destroys: detach the subscription first, then Remove.
  ASSERT_TRUE(a.UnsubscribeFrom(b.input()).ok());
  ASSERT_TRUE(graph.Remove(b).ok());
  ASSERT_EQ(graph.nodes().size(), 1u);
  EXPECT_EQ(graph.nodes()[0]->name(), "emplaced");
}

}  // namespace
}  // namespace pipes
