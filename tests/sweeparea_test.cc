// Tests for the SweepArea framework and the multi-way join.

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/generator_source.h"
#include "src/core/graph.h"
#include "src/core/sink.h"
#include "src/scheduler/scheduler.h"
#include "src/sweeparea/hash_sweep_area.h"
#include "src/sweeparea/list_sweep_area.h"
#include "src/sweeparea/multiway_join.h"
#include "src/sweeparea/tree_sweep_area.h"
#include "tests/snapshot_reference.h"

namespace pipes::sweeparea {
namespace {

template <typename SA, typename Probe>
std::vector<int> QueryPayloads(const SA& area, const Probe& probe) {
  std::vector<int> out;
  area.Query(probe, [&](const StreamElement<int>& e) {
    out.push_back(e.payload);
  });
  std::sort(out.begin(), out.end());
  return out;
}

TEST(ListSweepArea, InsertQueryPurge) {
  auto pred = [](int stored, int probe) { return stored < probe; };
  ListSweepArea<int, int, decltype(pred)> area(pred);
  area.Insert(StreamElement<int>(1, 0, 10));
  area.Insert(StreamElement<int>(5, 0, 20));
  area.Insert(StreamElement<int>(9, 0, 30));

  // Probe valid [5, 15): all intervals overlap; predicate keeps 1 and 5.
  EXPECT_EQ(QueryPayloads(area, StreamElement<int>(7, 5, 15)),
            (std::vector<int>{1, 5}));
  // Probe valid [25, 35): only the third element's interval overlaps.
  EXPECT_EQ(QueryPayloads(area, StreamElement<int>(100, 25, 35)),
            (std::vector<int>{9}));

  EXPECT_EQ(area.PurgeBefore(20), 2u);  // ends 10 and 20
  EXPECT_EQ(area.size(), 1u);
  EXPECT_EQ(area.PurgeBefore(20), 0u);  // min_end fast path
}

TEST(ListSweepArea, EvictOneRemovesOldest) {
  auto pred = [](int, int) { return true; };
  ListSweepArea<int, int, decltype(pred)> area(pred);
  EXPECT_FALSE(area.EvictOne());
  area.Insert(StreamElement<int>(1, 0, 10));
  area.Insert(StreamElement<int>(2, 1, 10));
  StreamElement<int> evicted;
  EXPECT_TRUE(area.EvictOne(&evicted));
  EXPECT_EQ(evicted.payload, 1);
  EXPECT_EQ(area.size(), 1u);
}

TEST(ListSweepArea, ByteAccountingTracksContent) {
  auto pred = [](int, int) { return true; };
  ListSweepArea<int, int, decltype(pred)> area(pred);
  EXPECT_EQ(area.ApproxBytes(), 0u);
  area.Insert(StreamElement<int>(1, 0, 10));
  const std::size_t one = area.ApproxBytes();
  EXPECT_GT(one, 0u);
  area.Insert(StreamElement<int>(2, 0, 10));
  EXPECT_EQ(area.ApproxBytes(), 2 * one);
  area.PurgeBefore(100);
  EXPECT_EQ(area.ApproxBytes(), 0u);
}

TEST(HashSweepArea, ProbesOnlyMatchingBucket) {
  auto key = [](int v) { return v % 10; };
  HashSweepArea<int, int, decltype(key), decltype(key)> area(key, key);
  area.Insert(StreamElement<int>(13, 0, 10));
  area.Insert(StreamElement<int>(23, 0, 10));
  area.Insert(StreamElement<int>(14, 0, 10));

  EXPECT_EQ(QueryPayloads(area, StreamElement<int>(3, 5, 6)),
            (std::vector<int>{13, 23}));
  EXPECT_EQ(QueryPayloads(area, StreamElement<int>(4, 5, 6)),
            (std::vector<int>{14}));
  EXPECT_TRUE(QueryPayloads(area, StreamElement<int>(5, 5, 6)).empty());
}

TEST(HashSweepArea, ResidualPredicateFilters) {
  auto key = [](int v) { return v % 10; };
  auto residual = [](int stored, int probe) { return stored > probe; };
  HashSweepArea<int, int, decltype(key), decltype(key), decltype(residual)>
      area(key, key, residual);
  area.Insert(StreamElement<int>(13, 0, 10));
  area.Insert(StreamElement<int>(33, 0, 10));
  EXPECT_EQ(QueryPayloads(area, StreamElement<int>(23, 5, 6)),
            (std::vector<int>{33}));
}

TEST(HashSweepArea, PurgeDropsEmptyBucketsAndEvictTargetsLargestBucket) {
  auto key = [](int v) { return v % 10; };
  HashSweepArea<int, int, decltype(key), decltype(key)> area(key, key);
  area.Insert(StreamElement<int>(1, 0, 5));
  area.Insert(StreamElement<int>(11, 0, 5));
  area.Insert(StreamElement<int>(21, 0, 5));
  area.Insert(StreamElement<int>(2, 0, 50));
  EXPECT_EQ(area.size(), 4u);

  StreamElement<int> evicted;
  ASSERT_TRUE(area.EvictOne(&evicted));
  EXPECT_EQ(evicted.payload % 10, 1);  // largest bucket is key 1

  EXPECT_EQ(area.PurgeBefore(10), 2u);
  EXPECT_EQ(area.size(), 1u);
  EXPECT_EQ(QueryPayloads(area, StreamElement<int>(12, 1, 2)),
            std::vector<int>{2});
}

TEST(TreeSweepArea, RangeQueryScansBandOnly) {
  auto key = [](int v) { return v; };
  auto range = [](int probe) { return std::make_pair(probe - 2, probe + 2); };
  TreeSweepArea<int, int, decltype(key), decltype(range)> area(key, range);
  for (int v : {1, 4, 5, 6, 9}) {
    area.Insert(StreamElement<int>(v, 0, 10));
  }
  EXPECT_EQ(QueryPayloads(area, StreamElement<int>(5, 2, 3)),
            (std::vector<int>{4, 5, 6}));
  EXPECT_EQ(QueryPayloads(area, StreamElement<int>(0, 2, 3)),
            (std::vector<int>{1}));
}

TEST(TreeSweepArea, PurgeAndEvict) {
  auto key = [](int v) { return v; };
  auto range = [](int probe) { return std::make_pair(probe, probe); };
  TreeSweepArea<int, int, decltype(key), decltype(range)> area(key, range);
  area.Insert(StreamElement<int>(5, 0, 10));
  area.Insert(StreamElement<int>(3, 0, 20));
  EXPECT_EQ(area.PurgeBefore(15), 1u);
  EXPECT_EQ(area.size(), 1u);
  EXPECT_TRUE(area.EvictOne());
  EXPECT_EQ(area.size(), 0u);
}

void Drain(QueryGraph& graph) {
  scheduler::RoundRobinStrategy strategy;
  scheduler::PipeExecutor driver(graph, strategy);
  driver.RunToCompletion();
}

TEST(MultiwayJoin, ThreeWayEquiJoinSnapshotEquivalent) {
  Random rng(99);
  testing::RandomStreamOptions options;
  options.count = 60;
  options.payload_domain = 4;
  const auto a = testing::RandomIntStream(rng, options);
  const auto b = testing::RandomIntStream(rng, options);
  const auto c = testing::RandomIntStream(rng, options);

  QueryGraph graph;
  auto& sa = graph.Add<VectorSource<int>>(a);
  auto& sb = graph.Add<VectorSource<int>>(b);
  auto& sc = graph.Add<VectorSource<int>>(c);
  auto key = [](int v) { return v; };
  auto& join = graph.Add<MultiwayJoin<int, decltype(key)>>(3, key);
  auto& sink = graph.Add<CollectorSink<std::vector<int>>>();
  sa.AddSubscriber(join.input(0));
  sb.AddSubscriber(join.input(1));
  sc.AddSubscriber(join.input(2));
  join.AddSubscriber(sink.input());
  Drain(graph);

  // Reference: per critical instant, count key-equal triples.
  auto instants = testing::CriticalInstants<int>({&a, &b, &c});
  for (Timestamp t : instants) {
    auto snap_a = testing::SnapshotAt(a, t);
    auto snap_b = testing::SnapshotAt(b, t);
    auto snap_c = testing::SnapshotAt(c, t);
    std::vector<std::vector<int>> expected;
    for (int va : snap_a) {
      for (int vb : snap_b) {
        for (int vc : snap_c) {
          if (va == vb && vb == vc) expected.push_back({va, vb, vc});
        }
      }
    }
    auto actual = testing::SnapshotAt(sink.elements(), t);
    std::sort(expected.begin(), expected.end());
    ASSERT_EQ(actual, expected) << "t=" << t;
  }
}

TEST(MultiwayJoin, OutputIsStartOrderedAndPurges) {
  QueryGraph graph;
  std::vector<StreamElement<int>> s1, s2, s3;
  for (int i = 0; i < 50; ++i) {
    s1.push_back(StreamElement<int>(i % 3, i * 5, i * 5 + 10));
    s2.push_back(StreamElement<int>(i % 3, i * 5 + 1, i * 5 + 11));
    s3.push_back(StreamElement<int>(i % 3, i * 5 + 2, i * 5 + 12));
  }
  auto& a = graph.Add<VectorSource<int>>(s1);
  auto& b = graph.Add<VectorSource<int>>(s2);
  auto& c = graph.Add<VectorSource<int>>(s3);
  auto key = [](int v) { return v; };
  auto& join = graph.Add<MultiwayJoin<int, decltype(key)>>(3, key);
  auto& sink = graph.Add<CollectorSink<std::vector<int>>>();
  a.AddSubscriber(join.input(0));
  b.AddSubscriber(join.input(1));
  c.AddSubscriber(join.input(2));
  join.AddSubscriber(sink.input());
  Drain(graph);

  ASSERT_FALSE(sink.elements().empty());
  for (std::size_t i = 1; i < sink.elements().size(); ++i) {
    EXPECT_LE(sink.elements()[i - 1].start(), sink.elements()[i].start());
  }
  // With aligned progress the per-input state cannot hold the whole input.
  EXPECT_LT(join.state_size(), 3 * 50u);
}

TEST(MultiwayJoin, RejectsFewerThanTwoInputsByContract) {
  auto key = [](int v) { return v; };
  using JoinType = MultiwayJoin<int, decltype(key)>;
  EXPECT_DEATH(JoinType(1, key), "at least two");
}

}  // namespace
}  // namespace pipes::sweeparea
