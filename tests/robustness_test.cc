// Robustness properties: operator correctness must be independent of
// physical execution details — buffering boundaries, batch sizes, input
// disorder (within slack), and rate-reducing rewrites (coalescing).

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "src/algebra/aggregate.h"
#include "src/algebra/coalesce.h"
#include "src/algebra/join.h"
#include "src/algebra/reorder.h"
#include "src/algebra/window.h"
#include "src/core/buffer.h"
#include "src/core/generator_source.h"
#include "src/core/graph.h"
#include "src/core/sink.h"
#include "src/scheduler/scheduler.h"
#include "src/sweeparea/multiway_join.h"
#include "tests/snapshot_reference.h"

namespace pipes {
namespace {

using namespace pipes::algebra;  // NOLINT: test-local convenience
using namespace pipes::testing;  // NOLINT

class Robustness : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Robustness, BuffersDoNotChangeJoinResults) {
  Random rng(GetParam());
  RandomStreamOptions options;
  options.count = 100;
  options.payload_domain = 5;
  const auto left = RandomIntStream(rng, options);
  const auto right = RandomIntStream(rng, options);

  auto run = [&](bool buffered) {
    QueryGraph graph;
    auto& l = graph.Add<VectorSource<int>>(left);
    auto& r = graph.Add<VectorSource<int>>(right);
    auto identity = [](int v) { return v; };
    auto combine = [](int a, int b) { return a * 100 + b; };
    auto& join =
        graph.Add(MakeHashJoin<int, int>(identity, identity, combine));
    auto& sink = graph.Add<CollectorSink<int>>();
    if (buffered) {
      auto& bl = graph.Add<Buffer<int>>("bl");
      auto& br = graph.Add<Buffer<int>>("br");
      l.AddSubscriber(bl.input());
      r.AddSubscriber(br.input());
      bl.AddSubscriber(join.left());
      br.AddSubscriber(join.right());
    } else {
      l.AddSubscriber(join.left());
      r.AddSubscriber(join.right());
    }
    join.AddSubscriber(sink.input());
    scheduler::RandomStrategy strategy(GetParam() + (buffered ? 7 : 0));
    scheduler::PipeExecutor driver(graph, strategy, 1 + GetParam() % 9);
    driver.RunToCompletion();
    auto out = sink.elements();
    std::sort(out.begin(), out.end(),
              [](const StreamElement<int>& a, const StreamElement<int>& b) {
                return std::tie(a.interval.start, a.interval.end, a.payload) <
                       std::tie(b.interval.start, b.interval.end, b.payload);
              });
    return out;
  };

  EXPECT_EQ(run(false), run(true));
}

TEST_P(Robustness, BatchSizeDoesNotChangeAggregateResults) {
  Random rng(GetParam());
  const auto input = RandomIntStream(rng);

  auto run = [&](std::size_t batch) {
    QueryGraph graph;
    auto& source = graph.Add<VectorSource<int>>(input);
    auto value = [](int v) { return v; };
    auto& agg =
        graph.Add<TemporalAggregate<int, SumAgg<int>, decltype(value)>>(
            value);
    auto& sink = graph.Add<CollectorSink<int>>();
    source.AddSubscriber(agg.input());
    agg.AddSubscriber(sink.input());
    scheduler::RoundRobinStrategy strategy;
    scheduler::PipeExecutor driver(graph, strategy, batch);
    driver.RunToCompletion();
    return sink.elements();
  };

  const auto baseline = run(1);
  EXPECT_EQ(run(7), baseline);
  EXPECT_EQ(run(1000), baseline);
}

TEST_P(Robustness, CoalesceIsSnapshotEquivalentToIdentity) {
  Random rng(GetParam());
  RandomStreamOptions options;
  options.payload_domain = 3;  // plenty of adjacent duplicates
  options.max_duration = 6;
  const auto input = RandomIntStream(rng, options);

  QueryGraph graph;
  auto& source = graph.Add<VectorSource<int>>(input);
  auto& coalesce = graph.Add<Coalesce<int>>();
  auto& sink = graph.Add<CollectorSink<int>>();
  source.AddSubscriber(coalesce.input());
  coalesce.AddSubscriber(sink.input());
  scheduler::RandomStrategy strategy(GetParam());
  scheduler::PipeExecutor driver(graph, strategy, 1 + GetParam() % 11);
  driver.RunToCompletion();

  // Snapshot-equivalence holds only where multiplicity is not collapsed:
  // coalesce merges overlapping equal payloads, which is snapshot-exact
  // for duplicate-free streams. Our random stream may contain concurrent
  // duplicates, so compare distinct snapshots.
  auto instants = CriticalInstants(input);
  for (Timestamp t : instants) {
    auto expected = SnapshotAt(input, t);
    expected.erase(std::unique(expected.begin(), expected.end()),
                   expected.end());
    auto actual = SnapshotAt(sink.elements(), t);
    actual.erase(std::unique(actual.begin(), actual.end()), actual.end());
    ASSERT_EQ(actual, expected) << "t=" << t;
  }
}

TEST_P(Robustness, ReorderingSourceRestoresRandomDisorder) {
  Random rng(GetParam());
  // Ordered ground truth, then shuffle within windows of `slack`.
  std::vector<StreamElement<int>> ordered;
  Timestamp t = 0;
  for (int i = 0; i < 200; ++i) {
    t += rng.UniformInt(0, 3);
    ordered.push_back(StreamElement<int>::Point(i, t));
  }
  std::vector<StreamElement<int>> shuffled = ordered;
  const Timestamp slack = 10;
  for (std::size_t i = 0; i + 1 < shuffled.size(); ++i) {
    const std::size_t j = i + rng.NextBounded(4);
    if (j < shuffled.size() &&
        std::llabs(shuffled[i].start() - shuffled[j].start()) <= slack / 2) {
      std::swap(shuffled[i], shuffled[j]);
    }
  }

  QueryGraph graph;
  std::size_t next = 0;
  auto& source = graph.Add<ReorderingSource<int>>(
      [&]() -> std::optional<StreamElement<int>> {
        if (next >= shuffled.size()) return std::nullopt;
        return shuffled[next++];
      },
      slack);
  auto& sink = graph.Add<CollectorSink<int>>();
  source.AddSubscriber(sink.input());
  scheduler::RoundRobinStrategy strategy;
  scheduler::PipeExecutor driver(graph, strategy, 1 + GetParam() % 5);
  driver.RunToCompletion();

  EXPECT_EQ(source.dropped_count(), 0u);
  ASSERT_EQ(sink.elements().size(), ordered.size());
  for (std::size_t i = 1; i < sink.elements().size(); ++i) {
    ASSERT_LE(sink.elements()[i - 1].start(), sink.elements()[i].start());
  }
  // Same multiset of payloads.
  std::vector<int> got;
  for (const auto& e : sink.elements()) got.push_back(e.payload);
  std::sort(got.begin(), got.end());
  std::vector<int> want;
  for (const auto& e : ordered) want.push_back(e.payload);
  std::sort(want.begin(), want.end());
  EXPECT_EQ(got, want);
}

TEST_P(Robustness, FourWayMultiwayJoinMatchesReference) {
  Random rng(GetParam());
  RandomStreamOptions options;
  options.count = 40;
  options.payload_domain = 3;
  std::vector<std::vector<StreamElement<int>>> streams;
  for (int i = 0; i < 4; ++i) {
    streams.push_back(RandomIntStream(rng, options));
  }

  QueryGraph graph;
  auto key = [](int v) { return v; };
  auto& join = graph.Add<sweeparea::MultiwayJoin<int, decltype(key)>>(4, key);
  for (std::size_t i = 0; i < 4; ++i) {
    auto& source = graph.Add<VectorSource<int>>(streams[i]);
    source.AddSubscriber(join.input(i));
  }
  auto& sink = graph.Add<CollectorSink<std::vector<int>>>();
  join.AddSubscriber(sink.input());
  scheduler::RandomStrategy strategy(GetParam());
  scheduler::PipeExecutor driver(graph, strategy, 3);
  driver.RunToCompletion();

  auto instants = CriticalInstants<int>(
      {&streams[0], &streams[1], &streams[2], &streams[3]});
  for (Timestamp t : instants) {
    std::vector<std::vector<int>> expected;
    for (int a : SnapshotAt(streams[0], t)) {
      for (int b : SnapshotAt(streams[1], t)) {
        for (int c : SnapshotAt(streams[2], t)) {
          for (int d : SnapshotAt(streams[3], t)) {
            if (a == b && b == c && c == d) expected.push_back({a, b, c, d});
          }
        }
      }
    }
    std::sort(expected.begin(), expected.end());
    ASSERT_EQ(SnapshotAt(sink.elements(), t), expected) << "t=" << t;
  }
}

TEST_P(Robustness, CountWindowMatchesDirectConstruction) {
  Random rng(GetParam());
  RandomStreamOptions options;
  options.max_duration = 1;
  options.count = 80;
  const auto input = RandomIntStream(rng, options);
  const std::size_t rows = 1 + GetParam() % 5;

  QueryGraph graph;
  auto& source = graph.Add<VectorSource<int>>(input);
  auto& window = graph.Add<CountWindow<int>>(rows);
  auto& sink = graph.Add<CollectorSink<int>>();
  source.AddSubscriber(window.input());
  window.AddSubscriber(sink.input());
  scheduler::RoundRobinStrategy strategy;
  scheduler::PipeExecutor(graph, strategy).RunToCompletion();

  // Reference: element i valid from its start until the start of element
  // i+rows (clamped up when starts are equal), forever for the last rows.
  std::vector<StreamElement<int>> expected;
  for (std::size_t i = 0; i < input.size(); ++i) {
    Timestamp end = kMaxTimestamp;
    if (i + rows < input.size()) {
      end = std::max(input[i + rows].start(), input[i].start() + 1);
    }
    expected.push_back(
        StreamElement<int>(input[i].payload, input[i].start(), end));
  }
  auto instants = CriticalInstants(expected);
  for (Timestamp t : instants) {
    ASSERT_EQ(SnapshotAt(sink.elements(), t), SnapshotAt(expected, t))
        << "t=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Robustness,
                         ::testing::Values(2, 11, 23, 47, 97));

}  // namespace
}  // namespace pipes
