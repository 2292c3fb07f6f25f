// Tests for the demand-driven cursor algebra and the dataflow translation
// operators bridging cursors and streams.

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/algebra/aggregates.h"
#include "src/core/graph.h"
#include "src/core/sink.h"
#include "src/cursors/cursor.h"
#include "src/cursors/relation.h"
#include "src/cursors/translate.h"
#include "src/scheduler/scheduler.h"

namespace pipes::cursors {
namespace {

void Drain(QueryGraph& graph) {
  scheduler::RoundRobinStrategy strategy;
  scheduler::PipeExecutor driver(graph, strategy);
  driver.RunToCompletion();
}

TEST(Cursor, VectorAndCollect) {
  VectorCursor<int> cursor({1, 2, 3});
  EXPECT_EQ(Collect(cursor), (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(cursor.Next(), std::nullopt);
}

TEST(Cursor, FilterAndMapCompose) {
  auto base = std::make_unique<VectorCursor<int>>(
      std::vector<int>{1, 2, 3, 4, 5, 6});
  auto filtered = std::make_unique<FilterCursor<int>>(
      std::move(base), [](const int& v) { return v % 2 == 0; });
  MapCursor<int, int> mapped(std::move(filtered),
                             [](const int& v) { return v * 10; });
  EXPECT_EQ(Collect(mapped), (std::vector<int>{20, 40, 60}));
}

TEST(Cursor, Concat) {
  ConcatCursor<int> cursor(
      std::make_unique<VectorCursor<int>>(std::vector<int>{1, 2}),
      std::make_unique<VectorCursor<int>>(std::vector<int>{3}));
  EXPECT_EQ(Collect(cursor), (std::vector<int>{1, 2, 3}));
}

TEST(Cursor, NestedLoopsJoin) {
  auto outer =
      std::make_unique<VectorCursor<int>>(std::vector<int>{1, 2, 3});
  NestedLoopsJoinCursor<int, int, std::pair<int, int>> join(
      std::move(outer), {2, 3, 4},
      [](const int& l, const int& r) { return l == r; },
      [](const int& l, const int& r) { return std::make_pair(l, r); });
  auto result = Collect(join);
  ASSERT_EQ(result.size(), 2u);
  EXPECT_EQ(result[0], std::make_pair(2, 2));
  EXPECT_EQ(result[1], std::make_pair(3, 3));
}

TEST(Cursor, GroupByUsesSharedAggregationPolicies) {
  auto input = std::make_unique<VectorCursor<int>>(
      std::vector<int>{1, 2, 3, 4, 5, 6});
  auto key = [](const int& v) { return v % 2; };
  auto value = [](const int& v) { return v; };
  GroupByCursor<int, algebra::SumAgg<int>, decltype(key), decltype(value)>
      cursor(std::move(input), key, value);
  auto result = Collect(cursor);
  ASSERT_EQ(result.size(), 2u);
  // First-seen key order: 1 (odds) then 0 (evens).
  EXPECT_EQ(result[0], std::make_pair(1, 9));
  EXPECT_EQ(result[1], std::make_pair(0, 12));
}

TEST(Translate, CursorSourceLiftsPullIntoPush) {
  QueryGraph graph;
  auto cursor =
      std::make_unique<VectorCursor<int>>(std::vector<int>{10, 20, 30});
  auto& source = graph.Add<CursorSource<int>>(
      std::move(cursor), [](const int& v) { return Timestamp{v}; });
  auto& sink = graph.Add<CollectorSink<int>>();
  source.AddSubscriber(sink.input());
  Drain(graph);

  ASSERT_EQ(sink.elements().size(), 3u);
  EXPECT_EQ(sink.elements()[1].payload, 20);
  EXPECT_EQ(sink.elements()[1].interval, TimeInterval(20, 21));
  EXPECT_TRUE(sink.done());
}

TEST(Translate, StreamBufferSinkExposesResultsAsCursor) {
  QueryGraph graph;
  auto cursor =
      std::make_unique<VectorCursor<int>>(std::vector<int>{1, 2, 3});
  auto& source = graph.Add<CursorSource<int>>(
      std::move(cursor), [](const int& v) { return Timestamp{v}; });
  auto& sink = graph.Add<StreamBufferSink<int>>();
  source.AddSubscriber(sink.input());
  Drain(graph);

  EXPECT_EQ(sink.buffered(), 3u);
  auto out = sink.OpenCursor();
  std::vector<int> payloads;
  while (auto e = out->Next()) payloads.push_back(e->payload);
  EXPECT_EQ(payloads, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sink.buffered(), 0u);  // consumed exactly once
}

TEST(Relation, InsertScanLookupRange) {
  IndexedRelation<int, std::string> relation;
  relation.Insert(2, "two");
  relation.Insert(1, "one");
  relation.Insert(2, "zwei");
  relation.Insert(5, "five");
  EXPECT_EQ(relation.size(), 4u);

  auto scan = relation.Scan();
  EXPECT_EQ(Collect(*scan),
            (std::vector<std::string>{"one", "two", "zwei", "five"}));

  auto lookup = relation.Lookup(2);
  EXPECT_EQ(Collect(*lookup), (std::vector<std::string>{"two", "zwei"}));

  auto empty = relation.Lookup(9);
  EXPECT_TRUE(Collect(*empty).empty());

  auto range = relation.Range(2, 5);
  EXPECT_EQ(Collect(*range),
            (std::vector<std::string>{"two", "zwei", "five"}));
}

TEST(Relation, StreamRelationJoinProbesPerElement) {
  QueryGraph graph;
  IndexedRelation<int, std::string> people;
  people.Insert(1, "alice");
  people.Insert(2, "bob");

  std::vector<StreamElement<int>> stream = {
      StreamElement<int>::Point(1, 10), StreamElement<int>::Point(3, 20),
      StreamElement<int>::Point(2, 30)};
  auto& source = graph.Add<VectorSource<int>>(stream);
  auto key = [](int v) { return v; };
  auto combine = [](int v, const std::string& name) {
    return std::to_string(v) + ":" + name;
  };
  auto& join = graph.Add<StreamRelationJoin<int, int, std::string,
                                            decltype(key), decltype(combine)>>(
      &people, key, combine);
  auto& sink = graph.Add<CollectorSink<std::string>>();
  source.AddSubscriber(join.input());
  join.AddSubscriber(sink.input());
  Drain(graph);

  ASSERT_EQ(sink.elements().size(), 2u);
  EXPECT_EQ(sink.elements()[0].payload, "1:alice");
  EXPECT_EQ(sink.elements()[0].interval, TimeInterval(10, 11));
  EXPECT_EQ(sink.elements()[1].payload, "2:bob");
}

}  // namespace
}  // namespace pipes::cursors
