// Tests for the extension features: multiset intersection, the historical
// stream archive, the umbrella header, and assorted cross-module edge
// cases (cycle detection, slide-window grid semantics, dynamic tuple
// aggregates, CQL ROWS windows end-to-end).

#include <algorithm>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "src/pipes.h"
#include "tests/snapshot_reference.h"

namespace pipes {
namespace {

using namespace pipes::algebra;  // NOLINT: test-local convenience
using relational::Schema;
using relational::Tuple;
using relational::Value;
using relational::ValueType;

void Drain(QueryGraph& graph) {
  scheduler::RoundRobinStrategy strategy;
  scheduler::PipeExecutor driver(graph, strategy);
  driver.RunToCompletion();
}

TEST(Intersect, KeepsMinimumMultiplicity) {
  QueryGraph graph;
  // Left: two copies of 5 on [0,10). Right: one copy on [5,15).
  std::vector<StreamElement<int>> left = {StreamElement<int>(5, 0, 10),
                                          StreamElement<int>(5, 0, 10)};
  std::vector<StreamElement<int>> right = {StreamElement<int>(5, 5, 15)};
  auto& l = graph.Add<VectorSource<int>>(left);
  auto& r = graph.Add<VectorSource<int>>(right);
  auto& intersect = graph.Add<Intersect<int>>();
  auto& sink = graph.Add<CollectorSink<int>>();
  l.AddSubscriber(intersect.left());
  r.AddSubscriber(intersect.right());
  intersect.AddSubscriber(sink.input());
  Drain(graph);

  // Only [5,10) has both sides; min(2,1) = 1 copy.
  ASSERT_EQ(sink.elements().size(), 1u);
  EXPECT_EQ(sink.elements()[0], StreamElement<int>(5, 5, 10));
}

class IntersectProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IntersectProperty, SnapshotEquivalent) {
  Random rng(GetParam());
  testing::RandomStreamOptions options;
  options.count = 120;
  options.payload_domain = 4;
  const auto left = testing::RandomIntStream(rng, options);
  const auto right = testing::RandomIntStream(rng, options);

  QueryGraph graph;
  auto& l = graph.Add<VectorSource<int>>(left);
  auto& r = graph.Add<VectorSource<int>>(right);
  auto& intersect = graph.Add<Intersect<int>>();
  auto& sink = graph.Add<CollectorSink<int>>();
  l.AddSubscriber(intersect.left());
  r.AddSubscriber(intersect.right());
  intersect.AddSubscriber(sink.input());

  scheduler::RandomStrategy strategy(GetParam());
  scheduler::PipeExecutor driver(graph, strategy, 1 + GetParam() % 13);
  driver.RunToCompletion();

  for (std::size_t i = 1; i < sink.elements().size(); ++i) {
    ASSERT_LE(sink.elements()[i - 1].start(), sink.elements()[i].start());
  }
  auto instants = testing::CriticalInstants<int>({&left, &right});
  for (Timestamp t : instants) {
    auto snap_l = testing::SnapshotAt(left, t);    // sorted
    auto snap_r = testing::SnapshotAt(right, t);   // sorted
    std::vector<int> expected;
    std::set_intersection(snap_l.begin(), snap_l.end(), snap_r.begin(),
                          snap_r.end(), std::back_inserter(expected));
    ASSERT_EQ(testing::SnapshotAt(sink.elements(), t), expected)
        << "t=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntersectProperty,
                         ::testing::Values(3, 7, 31, 127));

TEST(StreamArchive, SupportsHistoricalQueries) {
  QueryGraph graph;
  std::vector<StreamElement<int>> input = {
      StreamElement<int>(1, 0, 10), StreamElement<int>(2, 5, 15),
      StreamElement<int>(3, 20, 30)};
  auto& source = graph.Add<VectorSource<int>>(input);
  auto& archive = graph.Add<cursors::StreamArchive<int>>();
  source.AddSubscriber(archive.input());
  Drain(graph);

  EXPECT_EQ(archive.size(), 3u);

  auto all = archive.ScanAll();
  EXPECT_EQ(cursors::Collect(*all).size(), 3u);

  // Historical snapshot at t=7: payloads 1 and 2.
  auto snapshot = archive.SnapshotAt(7);
  auto payloads = cursors::Collect(*snapshot);
  std::sort(payloads.begin(), payloads.end());
  EXPECT_EQ(payloads, (std::vector<int>{1, 2}));

  // Range [12, 25) overlaps elements 2 and 3.
  auto range = archive.QueryRange(TimeInterval(12, 25));
  EXPECT_EQ(cursors::Collect(*range).size(), 2u);

  // Empty epochs yield nothing.
  EXPECT_TRUE(cursors::Collect(*archive.SnapshotAt(17)).empty());
  EXPECT_TRUE(cursors::Collect(*archive.SnapshotAt(100)).empty());
}

TEST(StreamArchive, QueryableWhileStreamStillRuns) {
  QueryGraph graph;
  auto& source = graph.Add<VectorSource<int>>(
      VectorSource<int>::Points({1, 2, 3, 4}));
  auto& archive = graph.Add<cursors::StreamArchive<int>>();
  source.AddSubscriber(archive.input());
  source.DoWork(2);
  {
    // Deliver what the hand-driven DoWork staged.
    scheduler::RoundRobinStrategy strategy;
    scheduler::PipeExecutor executor(graph, strategy);
  }
  EXPECT_EQ(archive.size(), 2u);
  EXPECT_EQ(cursors::Collect(*archive.SnapshotAt(0)),
            (std::vector<int>{1}));
  Drain(graph);
  EXPECT_EQ(archive.size(), 4u);
}

TEST(Graph, ValidateDetectsCycle) {
  QueryGraph graph;
  struct Identity {
    int operator()(int v) const { return v; }
  };
  auto& a = graph.Add<Map<int, int, Identity>>(Identity{}, "a");
  auto& b = graph.Add<Map<int, int, Identity>>(Identity{}, "b");
  a.AddSubscriber(b.input());
  b.AddSubscriber(a.input());
  const Status status = graph.Validate();
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(status.message().find("cycle"), std::string::npos);
}

TEST(Graph, ValidateRejectsEdgesToForeignNodes) {
  QueryGraph graph;
  auto& source = graph.Add<VectorSource<int>>(
      VectorSource<int>::Points({1}));
  CollectorSink<int> outside("outside");  // not owned by the graph
  source.AddSubscriber(outside.input());
  EXPECT_EQ(graph.Validate().code(), StatusCode::kFailedPrecondition);
}

TEST(SlideWindow, SnapshotCorrectAtGridInstants) {
  Random rng(77);
  testing::RandomStreamOptions options;
  options.max_duration = 1;
  options.count = 150;
  const auto input = testing::RandomIntStream(rng, options);
  const Timestamp w = 20;
  const Timestamp s = 5;

  QueryGraph graph;
  auto& source = graph.Add<VectorSource<int>>(input);
  auto& window = graph.Add<SlideWindow<int>>(w, s);
  auto& sink = graph.Add<CollectorSink<int>>();
  source.AddSubscriber(window.input());
  window.AddSubscriber(sink.input());
  Drain(graph);

  // At every grid instant τ = k*s the snapshot must contain exactly the
  // payloads with t in (τ - w, τ].
  const Timestamp horizon = testing::Horizon(input).end + w + s;
  for (Timestamp tau = 0; tau <= horizon; tau += s) {
    std::vector<int> expected;
    for (const auto& e : input) {
      if (tau - w < e.start() && e.start() <= tau) {
        expected.push_back(e.payload);
      }
    }
    std::sort(expected.begin(), expected.end());
    ASSERT_EQ(testing::SnapshotAt(sink.elements(), tau), expected)
        << "grid instant " << tau;
  }
}

TEST(TupleAggPolicy, AllAggregateKinds) {
  using optimizer::AggKind;
  using optimizer::AggSpec;
  std::vector<AggSpec> specs;
  specs.push_back({AggKind::kCount, nullptr, "n"});
  specs.push_back({AggKind::kSum, relational::MakeField(0, "x"), "sum"});
  specs.push_back({AggKind::kAvg, relational::MakeField(0, "x"), "avg"});
  specs.push_back({AggKind::kMin, relational::MakeField(1, "s"), "min"});
  specs.push_back({AggKind::kMax, relational::MakeField(1, "s"), "max"});
  optimizer::TupleAggPolicy policy(specs);

  auto state = policy.Init();
  policy.Add(state, Tuple{Value(std::int64_t{4}), Value("beta")});
  policy.Add(state, Tuple{Value(std::int64_t{6}), Value("alpha")});
  const Tuple result = policy.Result(state);

  EXPECT_EQ(result.field(0).AsInt(), 2);       // COUNT(*)
  EXPECT_EQ(result.field(1).AsInt(), 10);      // int SUM stays int
  EXPECT_DOUBLE_EQ(result.field(2).AsDouble(), 5.0);
  EXPECT_EQ(result.field(3).AsString(), "alpha");  // MIN over strings
  EXPECT_EQ(result.field(4).AsString(), "beta");
}

TEST(TupleAggPolicy, MixedIntDoubleSumPromotes) {
  using optimizer::AggKind;
  using optimizer::AggSpec;
  std::vector<AggSpec> specs;
  specs.push_back({AggKind::kSum, relational::MakeField(0, "x"), "sum"});
  optimizer::TupleAggPolicy policy(specs);
  auto state = policy.Init();
  policy.Add(state, Tuple{Value(std::int64_t{1})});
  policy.Add(state, Tuple{Value(2.5)});
  EXPECT_DOUBLE_EQ(policy.Result(state).field(0).AsDouble(), 3.5);
  EXPECT_EQ(policy.Result(state).field(0).type(), ValueType::kDouble);
}

TEST(TupleAggPolicy, NullArgumentsAreIgnored) {
  using optimizer::AggKind;
  using optimizer::AggSpec;
  std::vector<AggSpec> specs;
  specs.push_back({AggKind::kMin, relational::MakeField(0, "x"), "min"});
  specs.push_back({AggKind::kAvg, relational::MakeField(0, "x"), "avg"});
  optimizer::TupleAggPolicy policy(specs);
  auto state = policy.Init();
  policy.Add(state, Tuple{Value::Null()});
  EXPECT_TRUE(policy.Result(state).field(0).is_null());   // MIN of nothing
  EXPECT_TRUE(policy.Result(state).field(1).is_null());   // AVG of nothing
}

TEST(CqlEndToEnd, RowsWindowKeepsLastN) {
  QueryGraph graph;
  std::vector<StreamElement<Tuple>> input;
  for (int i = 0; i < 6; ++i) {
    input.push_back(StreamElement<Tuple>::Point(
        Tuple{Value(std::int64_t{i})}, i * 10));
  }
  auto& source = graph.Add<VectorSource<Tuple>>(input, "nums");
  cql::Catalog catalog;
  ASSERT_TRUE(catalog
                  .RegisterStream("nums",
                                  Schema({{"v", ValueType::kInt}}), &source)
                  .ok());
  optimizer::PlanManager manager(&graph, &catalog);
  auto query = manager.InstallQuery(
      "SELECT COUNT(*) AS n FROM nums [ROWS 2]");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  auto& sink = graph.Add<CollectorSink<Tuple>>();
  query->output->AddSubscriber(sink.input());
  Drain(graph);

  // After warm-up the window always holds exactly two rows.
  ASSERT_FALSE(sink.elements().empty());
  std::int64_t max_count = 0;
  for (const auto& e : sink.elements()) {
    max_count = std::max(max_count, e.payload.field(0).AsInt());
    EXPECT_LE(e.payload.field(0).AsInt(), 2);
  }
  EXPECT_EQ(max_count, 2);
}

TEST(CqlEndToEnd, DistinctQueryCollapsesDuplicates) {
  QueryGraph graph;
  std::vector<StreamElement<Tuple>> input;
  for (int i = 0; i < 9; ++i) {
    input.push_back(StreamElement<Tuple>(
        Tuple{Value(std::int64_t{i % 3})}, i, i + 10));
  }
  auto& source = graph.Add<VectorSource<Tuple>>(input, "keys");
  cql::Catalog catalog;
  ASSERT_TRUE(catalog
                  .RegisterStream("keys",
                                  Schema({{"k", ValueType::kInt}}), &source)
                  .ok());
  optimizer::PlanManager manager(&graph, &catalog);
  auto query = manager.InstallQuery("SELECT DISTINCT k FROM keys");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  auto& sink = graph.Add<CollectorSink<Tuple>>();
  query->output->AddSubscriber(sink.input());
  Drain(graph);

  // Snapshot-distinct: at t = 8 all three keys are valid exactly once.
  auto snapshot = testing::SnapshotAt(sink.elements(), 8);
  EXPECT_EQ(snapshot.size(), 3u);
}

TEST(UmbrellaHeader, EverythingIsReachable) {
  // Compile-time test: src/pipes.h included above pulls in the full API.
  QueryGraph graph;
  auto& source = graph.Add<VectorSource<int>>(
      VectorSource<int>::Points({1, 2, 3}));
  auto& sink = graph.Add<CountingSink<int>>();
  source.AddSubscriber(sink.input());
  Drain(graph);
  EXPECT_EQ(sink.count(), 3u);
}

}  // namespace
}  // namespace pipes
