// Tests for the executor-polled execution model (DESIGN.md §4f): the
// `Pipe` edge's ready-queue notification and its link/unlink lifecycle, staged
// delivery with preserved element/control interleaving, the `PipeExecutor`
// driver, stack safety on deep chains (the non-recursion argument), and
// end-state equivalence with the snapshot reference.

#include <algorithm>
#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/algebra/filter.h"
#include "src/algebra/map.h"
#include "src/algebra/union.h"
#include "src/algebra/window.h"
#include "src/core/buffer.h"
#include "src/core/generator_source.h"
#include "src/core/graph.h"
#include "src/core/sink.h"
#include "src/scheduler/executor.h"
#include "tests/snapshot_reference.h"

namespace pipes {
namespace {

using namespace pipes::algebra;    // NOLINT: test-local convenience
using namespace pipes::testing;    // NOLINT: test-local convenience
using scheduler::PipeExecutor;
using scheduler::RoundRobinStrategy;

/// A source staged by hand, for driving a pipe edge directly.
class ManualSource : public Source<int> {
 public:
  explicit ManualSource(std::string name = "manual")
      : Source<int>(std::move(name)) {}

  void Emit(int payload, Timestamp t) {
    Transfer(StreamElement<int>::Point(payload, t));
  }
  void EmitHeartbeat(Timestamp t) { TransferHeartbeat(t); }
  void EmitDone() { TransferDone(); }
};

/// ExecutorLink that only records readiness notifications.
class RecordingLink : public ExecutorLink {
 public:
  void PipeReady(PipeBase* pipe) override { ready.push_back(pipe); }
  std::vector<PipeBase*> ready;
};

/// Sink recording elements and progress callbacks in arrival order.
class ProbeSink : public Sink<int> {
 public:
  explicit ProbeSink(std::string name = "probe") : Sink<int>(std::move(name)) {}

  std::vector<StreamElement<int>> elements;
  std::vector<Timestamp> progress;

 protected:
  void PortRun(int /*port_id*/, const ColumnarRun<int>& run) override {
    run.MaterializeTo(elements);
  }
  void PortProgress(int port_id, Timestamp watermark) override {
    progress.push_back(watermark);
    Sink<int>::PortProgress(port_id, watermark);
  }
};

TEST(PipeEdge, StagingQueuesOnceAndDeliverDrains) {
  ManualSource source;
  ProbeSink sink;
  source.AddSubscriber(sink.input());
  RecordingLink link;

  PipeBase* pipe = source.output_pipe();
  ASSERT_NE(pipe, nullptr);
  pipe->Link(&link);
  EXPECT_TRUE(pipe->linked());
  EXPECT_FALSE(pipe->HasStaged());

  // Staging notifies exactly once until dequeued.
  source.Emit(1, 10);
  EXPECT_TRUE(pipe->in_queue());
  ASSERT_EQ(link.ready.size(), 1u);
  EXPECT_EQ(link.ready[0], pipe);
  source.Emit(2, 11);
  EXPECT_EQ(link.ready.size(), 1u);  // already queued: no second notify
  EXPECT_EQ(pipe->staged_units(), 2u);
  EXPECT_TRUE(sink.elements.empty());  // nothing delivered downstream yet

  // Deliver drains everything.
  pipe->ClearInQueue();
  EXPECT_EQ(pipe->Deliver(), 2u);
  EXPECT_FALSE(pipe->HasStaged());
  ASSERT_EQ(sink.elements.size(), 2u);
  EXPECT_EQ(sink.elements[0].payload, 1);
  EXPECT_EQ(sink.elements[1].payload, 2);

  pipe->Unlink();
  EXPECT_FALSE(pipe->linked());
}

TEST(PipeEdge, UnpolledStagingQueuesThePipe) {
  ManualSource source;
  ProbeSink sink;
  source.AddSubscriber(sink.input());
  RecordingLink link;
  PipeBase* pipe = source.output_pipe();
  pipe->Link(&link);

  // No poll preceded the staging: the pipe queues itself directly.
  source.Emit(7, 3);
  EXPECT_TRUE(pipe->in_queue());
  ASSERT_EQ(link.ready.size(), 1u);

  pipe->ClearInQueue();
  EXPECT_EQ(pipe->Deliver(), 1u);
  ASSERT_EQ(sink.elements.size(), 1u);
  pipe->Unlink();
}

TEST(PipeEdge, DeliveryPreservesControlInterleaving) {
  ManualSource source;
  ProbeSink sink;
  source.AddSubscriber(sink.input());
  RecordingLink link;
  PipeBase* pipe = source.output_pipe();
  pipe->Link(&link);

  // element(5) | heartbeat(8) | element(9) | done — two separate runs with
  // the heartbeat pinned between them, then end-of-stream.
  source.Emit(1, 5);
  source.EmitHeartbeat(8);
  source.Emit(2, 9);
  source.EmitDone();
  EXPECT_EQ(pipe->staged_units(), 4u);
  EXPECT_FALSE(sink.done());

  pipe->ClearInQueue();
  EXPECT_EQ(pipe->Deliver(), 4u);
  ASSERT_EQ(sink.elements.size(), 2u);
  EXPECT_EQ(sink.elements[0].start(), 5);
  EXPECT_EQ(sink.elements[1].start(), 9);
  EXPECT_TRUE(sink.done());
  EXPECT_EQ(sink.watermark(), kMaxTimestamp);
  // The staged heartbeat reached the sink between the two elements: its
  // level (8) must appear in the progress sequence before element 2's (9).
  const auto it8 =
      std::find(sink.progress.begin(), sink.progress.end(), Timestamp{8});
  const auto it9 =
      std::find(sink.progress.begin(), sink.progress.end(), Timestamp{9});
  ASSERT_NE(it8, sink.progress.end());
  ASSERT_NE(it9, sink.progress.end());
  EXPECT_LT(it8 - sink.progress.begin(), it9 - sink.progress.begin());

  pipe->Unlink();
}

TEST(PipeExecutorTest, DrivesLinearChainToCompletion) {
  QueryGraph graph;
  auto& source = graph.Add<VectorSource<int>>(
      VectorSource<int>::Points({1, 2, 3, 4, 5, 6}), "src", /*batch_size=*/2);
  auto pred = [](int v) { return v % 2 == 0; };
  auto& filter = graph.Add<Filter<int, decltype(pred)>>(pred);
  auto fn = [](int v) { return v * 10; };
  auto& map = graph.Add<Map<int, int, decltype(fn)>>(fn);
  auto& sink = graph.Add<CollectorSink<int>>();
  source.AddSubscriber(filter.input());
  filter.AddSubscriber(map.input());
  map.AddSubscriber(sink.input());

  RoundRobinStrategy strategy;
  PipeExecutor executor(graph, strategy, /*batch_size=*/4);
  const scheduler::RunStats stats = executor.RunToCompletion();

  ASSERT_EQ(sink.elements().size(), 3u);
  EXPECT_EQ(sink.elements()[0].payload, 20);
  EXPECT_EQ(sink.elements()[1].payload, 40);
  EXPECT_EQ(sink.elements()[2].payload, 60);
  EXPECT_TRUE(sink.done());
  EXPECT_TRUE(executor.AllPipesIdle());
  EXPECT_GT(stats.units, 0u);
  EXPECT_TRUE(graph.Finished());
}

// The headline stack-safety property: a 1000-operator chain drains with
// constant call depth. Delivered recursively, every run would nest ~1000
// frames of ReceiveRun/PortRun/TransferRun; under the executor each hop is
// a separate FIFO-queued delivery, asserted via the nesting metric.
TEST(PipeExecutorTest, Depth1000ChainRunsWithoutRecursion) {
  constexpr std::size_t kDepth = 1000;
  constexpr int kElements = 50;

  QueryGraph graph;
  std::vector<int> payloads(kElements);
  for (int i = 0; i < kElements; ++i) payloads[i] = i;
  auto& source = graph.Add<VectorSource<int>>(
      VectorSource<int>::Points(payloads), "src", /*batch_size=*/8);
  auto fn = [](int v) { return v + 1; };
  using Inc = Map<int, int, decltype(fn)>;
  Source<int>* tail = &source;
  for (std::size_t d = 0; d < kDepth; ++d) {
    auto& stage = graph.Add<Inc>(fn, "map-" + std::to_string(d));
    tail->AddSubscriber(stage.input());
    tail = &stage;
  }
  auto& sink = graph.Add<CollectorSink<int>>();
  tail->AddSubscriber(sink.input());

  RoundRobinStrategy strategy;
  PipeExecutor executor(graph, strategy, /*batch_size=*/16);
  executor.RunToCompletion();

  ASSERT_EQ(sink.elements().size(), static_cast<std::size_t>(kElements));
  for (int i = 0; i < kElements; ++i) {
    EXPECT_EQ(sink.elements()[i].payload, i + static_cast<int>(kDepth));
    EXPECT_EQ(sink.elements()[i].start(), i);
  }
  EXPECT_TRUE(sink.done());
  // Delivery never nested: one pipe's Deliver() finished before the next
  // began, independent of chain depth.
  EXPECT_EQ(executor.max_deliver_nesting(), 1u);
}

TEST(PipeExecutorTest, EndStateMatchesSnapshotReference) {
  Random rng(20240601);
  const auto a = RandomIntStream(rng);
  const auto b = RandomIntStream(rng);

  QueryGraph graph;
  auto& sa = graph.Add<VectorSource<int>>(a, "a", /*batch_size=*/4);
  auto& sb = graph.Add<VectorSource<int>>(b, "b", /*batch_size=*/4);
  auto pred = [](int v) { return v % 3 != 0; };
  auto& filter = graph.Add<Filter<int, decltype(pred)>>(pred);
  auto fn = [](int v) { return v * 2; };
  auto& map = graph.Add<Map<int, int, decltype(fn)>>(fn);
  auto& window = graph.Add<TimeWindow<int>>(/*size=*/16);
  auto& u = graph.Add<Union<int>>();
  auto& sink = graph.Add<CollectorSink<int>>();
  sa.AddSubscriber(filter.input());
  filter.AddSubscriber(map.input());
  map.AddSubscriber(u.left());
  sb.AddSubscriber(window.input());
  window.AddSubscriber(u.right());
  u.AddSubscriber(sink.input());

  RoundRobinStrategy strategy;
  PipeExecutor executor(graph, strategy, /*batch_size=*/4);
  executor.RunToCompletion();

  // The same plan applied element by element: filter + map on `a`, a
  // 16-wide time window on `b`, their union.
  std::vector<StreamElement<int>> expected;
  for (const StreamElement<int>& e : a) {
    if (pred(e.payload)) {
      expected.emplace_back(fn(e.payload), e.start(), e.end());
    }
  }
  for (const StreamElement<int>& e : b) {
    expected.emplace_back(e.payload, e.start(), e.start() + 16);
  }
  for (Timestamp t : CriticalInstants<int>({&expected, &sink.elements()})) {
    ASSERT_EQ(SnapshotAt(sink.elements(), t), SnapshotAt(expected, t))
        << "t=" << t;
  }
  EXPECT_TRUE(sink.done());
  EXPECT_EQ(sink.watermark(), kMaxTimestamp);
  EXPECT_TRUE(executor.AllPipesIdle());
}

TEST(PipeExecutorTest, UnlinkKeepsStagedContent) {
  ManualSource source;
  ProbeSink sink;
  source.AddSubscriber(sink.input());
  PipeBase* pipe = source.output_pipe();
  RecordingLink first;
  pipe->Link(&first);
  source.Emit(1, 5);
  ASSERT_EQ(first.ready.size(), 1u);

  // Unlinking leaves the staged row in place, and staging while unlinked
  // notifies no one.
  pipe->Unlink();
  EXPECT_FALSE(pipe->linked());
  EXPECT_FALSE(pipe->in_queue());
  source.Emit(2, 6);
  EXPECT_EQ(pipe->staged_units(), 2u);
  EXPECT_EQ(first.ready.size(), 1u);
  EXPECT_TRUE(sink.elements.empty());

  // The next link announces the pipe once; delivery hands over both rows.
  RecordingLink next;
  pipe->Link(&next);
  ASSERT_EQ(next.ready.size(), 1u);
  EXPECT_TRUE(pipe->in_queue());
  pipe->ClearInQueue();
  EXPECT_EQ(pipe->Deliver(), 2u);
  ASSERT_EQ(sink.elements.size(), 2u);
  EXPECT_EQ(sink.elements[1].payload, 2);
  pipe->Unlink();
}

// A graph mutation while no executor is linked can stage rows (here: a
// union releases what it held once its slower input is unsubscribed). The
// next executor delivers them, and only once.
TEST(PipeExecutorTest, ContentStagedWhileUnlinkedIsDeliveredOnce) {
  QueryGraph graph;
  auto& fast = graph.Add<ManualSource>("fast");
  auto& slow = graph.Add<ManualSource>("slow");
  auto& u = graph.Add<Union<int>>();
  auto& sink = graph.Add<CollectorSink<int>>();
  fast.AddSubscriber(u.left());
  slow.AddSubscriber(u.right());
  u.AddSubscriber(sink.input());

  RoundRobinStrategy strategy;
  {
    PipeExecutor executor(graph, strategy);
    fast.Emit(1, 10);
    fast.Emit(2, 20);
    fast.EmitHeartbeat(30);
    executor.RunToCompletion();
    // The slow input never advanced: the union holds both rows.
    EXPECT_TRUE(sink.elements().empty());
  }

  ASSERT_TRUE(slow.UnsubscribeFrom(u.right()).ok());
  EXPECT_TRUE(sink.elements().empty());
  EXPECT_TRUE(u.output_pipe()->HasStaged());
  EXPECT_FALSE(u.output_pipe()->linked());

  for (int round = 0; round < 2; ++round) {
    PipeExecutor executor(graph, strategy);
    executor.RunToCompletion();
    EXPECT_TRUE(executor.AllPipesIdle());
    ASSERT_EQ(sink.elements().size(), 2u) << "round " << round;
    EXPECT_EQ(sink.elements()[0].payload, 1);
    EXPECT_EQ(sink.elements()[1].payload, 2);
  }
}

TEST(PipeExecutorTest, DrainsBufferedGraphAndStaysBounded) {
  QueryGraph graph;
  auto& source = graph.Add<VectorSource<int>>(
      VectorSource<int>::Points({1, 2, 3, 4, 5, 6, 7, 8}), "src",
      /*batch_size=*/3);
  auto& buffer = graph.Add<Buffer<int>>();
  auto fn = [](int v) { return v - 1; };
  auto& map = graph.Add<Map<int, int, decltype(fn)>>(fn);
  auto& sink = graph.Add<CollectorSink<int>>();
  source.AddSubscriber(buffer.input());
  buffer.AddSubscriber(map.input());
  map.AddSubscriber(sink.input());

  RoundRobinStrategy strategy;
  PipeExecutor executor(graph, strategy, /*batch_size=*/2);
  executor.RunToCompletion();

  ASSERT_EQ(sink.elements().size(), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(sink.elements()[i].payload, i);
  }
  EXPECT_TRUE(sink.done());
  EXPECT_TRUE(graph.Finished());
  EXPECT_EQ(executor.max_deliver_nesting(), 1u);
}

}  // namespace
}  // namespace pipes
