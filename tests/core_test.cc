// Tests for the publish-subscribe core: sources, ports, pipes, buffers,
// generator sources, graph management, and the watermark/done protocol.

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/algebra/filter.h"
#include "src/algebra/map.h"
#include "src/algebra/union.h"
#include "src/core/buffer.h"
#include "src/core/columnar.h"
#include "src/core/generator_source.h"
#include "src/core/graph.h"
#include "src/core/ordered_buffer.h"
#include "src/core/sink.h"
#include "src/scheduler/scheduler.h"
#include "src/scheduler/strategy.h"

namespace pipes {
namespace {

using algebra::Filter;
using algebra::Map;

std::vector<StreamElement<int>> IntPoints(std::initializer_list<int> values) {
  return VectorSource<int>::Points(std::vector<int>(values));
}

void Drain(QueryGraph& graph) {
  scheduler::RoundRobinStrategy strategy;
  scheduler::PipeExecutor driver(graph, strategy);
  driver.RunToCompletion();
}

/// Delivers what hand-driven DoWork calls staged: an executor links every
/// pipe on construction and drains them on destruction.
void DeliverStaged(QueryGraph& graph) {
  scheduler::RoundRobinStrategy strategy;
  scheduler::PipeExecutor executor(graph, strategy);
}

// Appending many runs to one result vector stays linear: the destination
// grows geometrically instead of being resized to fit each run exactly.
TEST(ColumnarRun, MaterializeToGrowsGeometrically) {
  ColumnarRun<int> run;
  for (int i = 0; i < 64; ++i) run.Append(i, i, i + 1);
  std::vector<StreamElement<int>> out;
  std::size_t reallocations = 0;
  for (int r = 0; r < 3125; ++r) {
    const std::size_t capacity = out.capacity();
    run.MaterializeTo(out);
    if (out.capacity() != capacity) ++reallocations;
  }
  EXPECT_EQ(out.size(), 3125u * 64u);
  EXPECT_EQ(out.back(), run.ElementAt(63));
  EXPECT_LE(reallocations, 40u);
}

TEST(Core, SourceDeliversDirectlyToSubscribedSink) {
  QueryGraph graph;
  auto& source = graph.Add<VectorSource<int>>(IntPoints({1, 2, 3}));
  auto& sink = graph.Add<CollectorSink<int>>();
  source.AddSubscriber(sink.input());

  Drain(graph);

  ASSERT_EQ(sink.elements().size(), 3u);
  EXPECT_EQ(sink.elements()[0].payload, 1);
  EXPECT_EQ(sink.elements()[0].interval, TimeInterval(0, 1));
  EXPECT_EQ(sink.elements()[2].payload, 3);
  EXPECT_TRUE(sink.done());
}

TEST(Core, MultipleSubscribersEachReceiveEveryElement) {
  QueryGraph graph;
  auto& source = graph.Add<VectorSource<int>>(IntPoints({4, 5}));
  auto& a = graph.Add<CollectorSink<int>>("a");
  auto& b = graph.Add<CollectorSink<int>>("b");
  source.AddSubscriber(a.input());
  source.AddSubscriber(b.input());

  Drain(graph);

  EXPECT_EQ(a.elements().size(), 2u);
  EXPECT_EQ(b.elements().size(), 2u);
  EXPECT_EQ(source.num_subscribers(), 2u);
}

TEST(Core, UnsubscribeStopsDelivery) {
  QueryGraph graph;
  auto& source = graph.Add<VectorSource<int>>(IntPoints({1, 2, 3, 4}));
  auto& sink = graph.Add<CollectorSink<int>>();
  source.AddSubscriber(sink.input());

  scheduler::RoundRobinStrategy strategy;
  scheduler::PipeExecutor driver(graph, strategy, /*batch_size=*/2);
  driver.Step();  // Stages two elements.
  driver.Step();  // Delivers them.
  ASSERT_EQ(sink.elements().size(), 2u);
  ASSERT_TRUE(source.UnsubscribeFrom(sink.input()).ok());
  driver.RunToCompletion();

  EXPECT_EQ(sink.elements().size(), 2u);
  EXPECT_TRUE(source.downstream().empty());
  EXPECT_TRUE(sink.upstream().empty());
}

TEST(Core, UnsubscribeOfUnknownPortFails) {
  QueryGraph graph;
  auto& source = graph.Add<VectorSource<int>>(IntPoints({1}));
  auto& sink = graph.Add<CollectorSink<int>>();
  EXPECT_EQ(source.UnsubscribeFrom(sink.input()).code(),
            StatusCode::kNotFound);
}

TEST(Core, PipeChainsDrainWithoutNestedDelivery) {
  QueryGraph graph;
  auto& source = graph.Add<VectorSource<int>>(IntPoints({1, 2, 3, 4, 5, 6}));
  auto even = [](int x) { return x % 2 == 0; };
  auto& filter = graph.Add<Filter<int, decltype(even)>>(even);
  auto doubled = [](int x) { return x * 2; };
  auto& map = graph.Add<Map<int, int, decltype(doubled)>>(doubled);
  auto& sink = graph.Add<CollectorSink<int>>();
  source.AddSubscriber(filter.input());
  filter.AddSubscriber(map.input());
  map.AddSubscriber(sink.input());

  scheduler::RoundRobinStrategy strategy;
  scheduler::PipeExecutor driver(graph, strategy);
  driver.RunToCompletion();
  // Each hop is its own pipe delivery: no delivery runs inside another.
  EXPECT_EQ(driver.max_deliver_nesting(), 1u);

  ASSERT_EQ(sink.elements().size(), 3u);
  EXPECT_EQ(sink.elements()[0].payload, 4);
  EXPECT_EQ(sink.elements()[1].payload, 8);
  EXPECT_EQ(sink.elements()[2].payload, 12);
  // The filter saw 6, passed 3.
  EXPECT_EQ(filter.elements_in(), 6u);
  EXPECT_EQ(filter.elements_out(), 3u);
}

TEST(Core, BufferDecouplesAndPreservesOrderAndDone) {
  QueryGraph graph;
  auto& source = graph.Add<VectorSource<int>>(IntPoints({7, 8, 9}));
  auto& buffer = graph.Add<Buffer<int>>();
  auto& sink = graph.Add<CollectorSink<int>>();
  source.AddSubscriber(buffer.input());
  buffer.AddSubscriber(sink.input());

  // Drive only the source: elements park in the buffer.
  while (source.HasWork()) source.DoWork(1);
  DeliverStaged(graph);
  EXPECT_GE(buffer.queue_size(), 3u);
  EXPECT_TRUE(sink.elements().empty());

  while (buffer.HasWork()) buffer.DoWork(1);
  DeliverStaged(graph);
  ASSERT_EQ(sink.elements().size(), 3u);
  EXPECT_EQ(sink.elements()[2].payload, 9);
  EXPECT_TRUE(sink.done());
  EXPECT_TRUE(buffer.IsFinished());
}

TEST(Core, BufferCoalescesConsecutiveHeartbeats) {
  QueryGraph graph;
  auto& buffer = graph.Add<Buffer<int>>();
  // A source that emits only heartbeats (no elements) must not grow the
  // queue unboundedly.
  class HeartbeatSource : public Source<int> {
   public:
    HeartbeatSource() : Source<int>("hb") {}
    void Emit(Timestamp t) { TransferHeartbeat(t); }
  };
  auto& source = graph.Add<HeartbeatSource>();
  source.AddSubscriber(buffer.input());

  for (Timestamp t = 1; t <= 100; ++t) source.Emit(t);
  DeliverStaged(graph);
  EXPECT_EQ(buffer.queue_size(), 1u);
}

TEST(Core, BoundedBufferShedsOldestElements) {
  QueryGraph graph;
  auto& source = graph.Add<VectorSource<int>>(IntPoints({1, 2, 3, 4, 5}));
  auto& buffer = graph.Add<Buffer<int>>("bounded", /*capacity=*/2);
  auto& sink = graph.Add<CollectorSink<int>>();
  source.AddSubscriber(buffer.input());
  buffer.AddSubscriber(sink.input());

  // Burst: the source outruns the buffer; only the 2 newest elements
  // survive, and control signals (done) are never dropped.
  while (source.HasWork()) source.DoWork(10);
  DeliverStaged(graph);
  EXPECT_EQ(buffer.dropped_count(), 3u);
  while (buffer.HasWork()) buffer.DoWork(10);
  DeliverStaged(graph);
  ASSERT_EQ(sink.elements().size(), 2u);
  EXPECT_EQ(sink.elements()[0].payload, 4);
  EXPECT_EQ(sink.elements()[1].payload, 5);
  EXPECT_TRUE(sink.done());
}

TEST(Core, BoundedBufferKeepsEverythingWhenDrainedInTime) {
  QueryGraph graph;
  auto& source = graph.Add<VectorSource<int>>(IntPoints({1, 2, 3, 4, 5}));
  auto& buffer = graph.Add<Buffer<int>>("bounded", /*capacity=*/2);
  auto& sink = graph.Add<CountingSink<int>>();
  source.AddSubscriber(buffer.input());
  buffer.AddSubscriber(sink.input());
  Drain(graph);  // round-robin alternates source and buffer
  EXPECT_EQ(sink.count() + buffer.dropped_count(), 5u);
  EXPECT_LT(buffer.dropped_count(), 5u);
}

TEST(Core, UnionPortAcceptsMultipleUpstreams) {
  // An n-ary union without n operators: several sources subscribed to the
  // same input port; the port merges their watermarks.
  QueryGraph graph;
  auto& a = graph.Add<VectorSource<int>>(
      VectorSource<int>::Points({1, 2}, /*t0=*/0));
  auto& b = graph.Add<VectorSource<int>>(
      VectorSource<int>::Points({3, 4}, /*t0=*/0));
  auto& c = graph.Add<VectorSource<int>>(
      VectorSource<int>::Points({5, 6}, /*t0=*/0));
  auto& u = graph.Add<algebra::Union<int>>();
  auto& d = graph.Add<VectorSource<int>>(
      VectorSource<int>::Points({7}, /*t0=*/0));
  auto& sink = graph.Add<CollectorSink<int>>();
  a.AddSubscriber(u.left());
  b.AddSubscriber(u.left());
  c.AddSubscriber(u.left());
  d.AddSubscriber(u.right());
  u.AddSubscriber(sink.input());
  Drain(graph);

  ASSERT_EQ(sink.elements().size(), 7u);
  for (std::size_t i = 1; i < sink.elements().size(); ++i) {
    EXPECT_LE(sink.elements()[i - 1].start(), sink.elements()[i].start());
  }
  EXPECT_TRUE(sink.done());
}

TEST(Core, PortMergesWatermarksOfMultipleUpstreams) {
  QueryGraph graph;
  auto& fast = graph.Add<VectorSource<int>>(
      VectorSource<int>::Points({1, 2, 3}, /*t0=*/100));
  auto& slow = graph.Add<VectorSource<int>>(
      VectorSource<int>::Points({4, 5}, /*t0=*/10));
  auto& sink = graph.Add<CollectorSink<int>>();
  fast.AddSubscriber(sink.input());
  slow.AddSubscriber(sink.input());

  while (fast.HasWork()) fast.DoWork(1);
  DeliverStaged(graph);
  // Only the fast source has finished; the slow one still constrains the
  // merged watermark (done upstreams stop constraining).
  EXPECT_EQ(sink.watermark(), kMinTimestamp);
  slow.DoWork(1);
  DeliverStaged(graph);
  EXPECT_EQ(sink.watermark(), 10);
  slow.DoWork(10);
  DeliverStaged(graph);
  EXPECT_TRUE(sink.done());
  EXPECT_EQ(sink.watermark(), kMaxTimestamp);
}

TEST(Core, LateSubscriberSeesCurrentProgress) {
  QueryGraph graph;
  auto& source = graph.Add<VectorSource<int>>(IntPoints({1, 2, 3}));
  auto& early = graph.Add<CollectorSink<int>>("early");
  source.AddSubscriber(early.input());
  source.DoWork(2);
  // A subscription change must find the pipe idle (no staged rows).
  DeliverStaged(graph);

  auto& late = graph.Add<CollectorSink<int>>("late");
  source.AddSubscriber(late.input());
  // The late subscriber's watermark reflects elapsed stream time.
  EXPECT_EQ(late.watermark(), 1);

  Drain(graph);
  EXPECT_EQ(early.elements().size(), 3u);
  EXPECT_EQ(late.elements().size(), 1u);
  EXPECT_TRUE(late.done());
}

TEST(Core, SubscribingAfterDoneSignalsDoneImmediately) {
  QueryGraph graph;
  auto& source = graph.Add<VectorSource<int>>(IntPoints({1}));
  auto& early = graph.Add<CollectorSink<int>>("early");
  source.AddSubscriber(early.input());
  Drain(graph);

  auto& late = graph.Add<CollectorSink<int>>("late");
  source.AddSubscriber(late.input());
  EXPECT_TRUE(late.done());
}

TEST(Core, GraphValidateAcceptsDagAndRejectsNothingHere) {
  QueryGraph graph;
  auto& source = graph.Add<VectorSource<int>>(IntPoints({1}));
  auto& a = graph.Add<Buffer<int>>("a");
  auto& b = graph.Add<CollectorSink<int>>("b");
  source.AddSubscriber(a.input());
  a.AddSubscriber(b.input());
  EXPECT_TRUE(graph.Validate().ok());
}

TEST(Core, GraphRemoveRequiresDetachedNode) {
  QueryGraph graph;
  auto& source = graph.Add<VectorSource<int>>(IntPoints({1}));
  auto& sink = graph.Add<CollectorSink<int>>();
  source.AddSubscriber(sink.input());

  EXPECT_EQ(graph.Remove(sink).code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(source.UnsubscribeFrom(sink.input()).ok());
  EXPECT_TRUE(graph.Remove(sink).ok());
  EXPECT_EQ(graph.size(), 1u);
}

TEST(Core, ToDotContainsNodesAndEdges) {
  QueryGraph graph;
  auto& source = graph.Add<VectorSource<int>>(IntPoints({1}), "src");
  auto& sink = graph.Add<CollectorSink<int>>("snk");
  source.AddSubscriber(sink.input());
  const std::string dot = graph.ToDot();
  EXPECT_NE(dot.find("src"), std::string::npos);
  EXPECT_NE(dot.find("snk"), std::string::npos);
  EXPECT_NE(dot.find("->"), std::string::npos);
}

TEST(Core, FunctionSourceGeneratesUntilNullopt) {
  QueryGraph graph;
  int next = 0;
  auto& source = graph.Add<FunctionSource<int>>(
      [&]() -> std::optional<StreamElement<int>> {
        if (next >= 5) return std::nullopt;
        int v = next++;
        return StreamElement<int>::Point(v, v);
      });
  auto& sink = graph.Add<CollectorSink<int>>();
  source.AddSubscriber(sink.input());
  Drain(graph);
  EXPECT_EQ(sink.elements().size(), 5u);
}

TEST(Core, OrderedOutputBufferReleasesInStartOrder) {
  OrderedOutputBuffer<int> buffer;
  buffer.Push(StreamElement<int>::Point(3, 30));
  buffer.Push(StreamElement<int>::Point(1, 10));
  buffer.Push(StreamElement<int>::Point(2, 20));

  std::vector<int> seen;
  buffer.FlushUpTo(21, [&](const StreamElement<int>& e) {
    seen.push_back(e.payload);
  });
  EXPECT_EQ(seen, (std::vector<int>{1, 2}));
  buffer.FlushAll(
      [&](const StreamElement<int>& e) { seen.push_back(e.payload); });
  EXPECT_EQ(seen, (std::vector<int>{1, 2, 3}));
  EXPECT_TRUE(buffer.empty());
}

// Release hands each element over as an rvalue: with a move-only payload
// this compiles only if the buffer never copies.
TEST(Core, OrderedOutputBufferReleasesByMove) {
  OrderedOutputBuffer<std::unique_ptr<int>> buffer;
  const auto push = [&](int v, Timestamp start) {
    buffer.Push(StreamElement<std::unique_ptr<int>>(
        std::make_unique<int>(v), start, start + 5));
  };
  push(3, 30);
  push(1, 10);
  push(4, 10);  // equal start: released after 1, in arrival order
  push(2, 20);
  push(5, 40);

  std::vector<std::pair<Timestamp, int>> seen;
  const auto take = [&](StreamElement<std::unique_ptr<int>>&& e) {
    std::unique_ptr<int> owned = std::move(e.payload);
    seen.emplace_back(e.start(), *owned);
  };
  EXPECT_EQ(buffer.FlushUpTo(30, take), 3u);  // start < 30 only
  EXPECT_EQ(seen, (std::vector<std::pair<Timestamp, int>>{
                      {10, 1}, {10, 4}, {20, 2}}));
  EXPECT_EQ(buffer.size(), 2u);
  EXPECT_EQ(buffer.FlushAll(take), 2u);
  EXPECT_EQ(seen.back(), (std::pair<Timestamp, int>{40, 5}));
  EXPECT_TRUE(buffer.empty());
}

TEST(Core, CountingSinkCounts) {
  QueryGraph graph;
  auto& source = graph.Add<VectorSource<int>>(IntPoints({1, 2, 3, 4}));
  auto& sink = graph.Add<CountingSink<int>>();
  source.AddSubscriber(sink.input());
  Drain(graph);
  EXPECT_EQ(sink.count(), 4u);
}

TEST(Core, CallbackSinkInvokesCallback) {
  QueryGraph graph;
  auto& source = graph.Add<VectorSource<int>>(IntPoints({5}));
  int sum = 0;
  auto& sink = graph.Add<CallbackSink<int>>(
      [&](const StreamElement<int>& e) { sum += e.payload; });
  source.AddSubscriber(sink.input());
  Drain(graph);
  EXPECT_EQ(sum, 5);
}

TEST(Core, NodeIdsAreUniqueAndNamed) {
  QueryGraph graph;
  auto& a = graph.Add<CollectorSink<int>>("first");
  auto& b = graph.Add<CollectorSink<int>>("second");
  EXPECT_NE(a.id(), b.id());
  EXPECT_EQ(a.name(), "first");
  b.set_name("renamed");
  EXPECT_EQ(b.name(), "renamed");
}

}  // namespace
}  // namespace pipes
