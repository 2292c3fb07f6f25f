// Tests for the optimizer: rewrite rules, cost model, alternatives,
// physical instantiation, and multi-query sharing — including end-to-end
// CQL execution against vector-backed tuple streams.

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/generator_source.h"
#include "src/core/sink.h"
#include "src/cql/analyzer.h"
#include "src/optimizer/cost.h"
#include "src/optimizer/optimizer.h"
#include "src/optimizer/physical.h"
#include "src/optimizer/plan_manager.h"
#include "src/optimizer/rules.h"
#include "src/scheduler/scheduler.h"
#include "src/testing/conformance.h"

namespace pipes::optimizer {
namespace {

using relational::BinaryOp;
using relational::MakeBinary;
using relational::MakeField;
using relational::MakeLiteral;
using relational::Schema;
using relational::Tuple;
using relational::Value;
using relational::ValueType;

Schema BidSchema() {
  return Schema({{"auction", ValueType::kInt},
                 {"bidder", ValueType::kInt},
                 {"price", ValueType::kDouble}});
}

Schema PersonSchema() {
  return Schema({{"id", ValueType::kInt}, {"city", ValueType::kString}});
}

StreamElement<Tuple> BidAt(Timestamp t, std::int64_t auction,
                           std::int64_t bidder, double price) {
  return StreamElement<Tuple>::Point(
      Tuple{Value(auction), Value(bidder), Value(price)}, t);
}

StreamElement<Tuple> PersonAt(Timestamp t, std::int64_t id,
                              const char* city) {
  return StreamElement<Tuple>::Point(Tuple{Value(id), Value(city)}, t);
}

void Drain(QueryGraph& graph) {
  scheduler::RoundRobinStrategy strategy;
  scheduler::PipeExecutor driver(graph, strategy);
  driver.RunToCompletion();
}

TEST(Rules, MergeFilters) {
  auto scan = ScanOp("s", BidSchema(), WindowSpec{});
  auto p1 = MakeBinary(BinaryOp::kGt, MakeField(2, "price"),
                       MakeLiteral(Value(10.0)));
  auto p2 = MakeBinary(BinaryOp::kLt, MakeField(0, "auction"),
                       MakeLiteral(Value(std::int64_t{5})));
  auto plan = FilterOp(FilterOp(scan, p1), p2);
  auto rules = DefaultRules();
  auto rewritten = Rewrite(plan, rules);
  EXPECT_EQ(rewritten->kind, LogicalOp::Kind::kFilter);
  EXPECT_EQ(rewritten->children[0]->kind, LogicalOp::Kind::kStreamScan);
}

TEST(Rules, ExtractJoinKeysAndPushSidePredicates) {
  auto left = ScanOp("bids", BidSchema().WithPrefix("b"), WindowSpec{});
  auto right = ScanOp("persons", PersonSchema().WithPrefix("p"),
                      WindowSpec{});
  auto join = JoinOp(left, right, {}, nullptr);
  // b.bidder = p.id AND b.price > 10 AND p.city = 'Paris'
  auto key_eq = MakeBinary(BinaryOp::kEq, MakeField(1, "b.bidder"),
                           MakeField(3, "p.id"));
  auto left_only = MakeBinary(BinaryOp::kGt, MakeField(2, "b.price"),
                              MakeLiteral(Value(10.0)));
  auto right_only = MakeBinary(BinaryOp::kEq, MakeField(4, "p.city"),
                               MakeLiteral(Value("Paris")));
  auto predicate = MakeBinary(
      BinaryOp::kAnd, MakeBinary(BinaryOp::kAnd, key_eq, left_only),
      right_only);
  auto plan = FilterOp(join, predicate);

  auto rules = DefaultRules();
  auto rewritten = Rewrite(plan, rules);

  ASSERT_EQ(rewritten->kind, LogicalOp::Kind::kJoin);
  ASSERT_EQ(rewritten->equi_keys.size(), 1u);
  EXPECT_EQ(rewritten->equi_keys[0].first, 1u);   // b.bidder
  EXPECT_EQ(rewritten->equi_keys[0].second, 0u);  // p.id in right schema
  EXPECT_EQ(rewritten->predicate, nullptr);
  // Side predicates pushed below the join.
  EXPECT_EQ(rewritten->children[0]->kind, LogicalOp::Kind::kFilter);
  EXPECT_EQ(rewritten->children[1]->kind, LogicalOp::Kind::kFilter);
}

TEST(Rules, PushFilterThroughProject) {
  auto scan = ScanOp("s", BidSchema(), WindowSpec{});
  auto project = ProjectOp(
      scan, {MakeField(2, "price"), MakeField(0, "auction")},
      {"price", "auction"});
  auto pred = MakeBinary(BinaryOp::kGt, MakeField(0, "price"),
                         MakeLiteral(Value(10.0)));
  auto plan = FilterOp(project, pred);
  auto rules = DefaultRules();
  auto rewritten = Rewrite(plan, rules);
  ASSERT_EQ(rewritten->kind, LogicalOp::Kind::kProject);
  ASSERT_EQ(rewritten->children[0]->kind, LogicalOp::Kind::kFilter);
  // The pushed predicate references the scan's field 2.
  EXPECT_NE(rewritten->children[0]->predicate->ToString().find("price"),
            std::string::npos);
}

TEST(Cost, FilterPushdownIsCheaper) {
  CostModel model;
  auto scan = ScanOp("s", BidSchema(), WindowSpec{});
  auto pred = MakeBinary(BinaryOp::kGt, MakeField(2, "price"),
                         MakeLiteral(Value(10.0)));
  auto cross = JoinOp(scan, scan, {}, nullptr);
  auto filter_above = FilterOp(cross, pred);
  auto filter_below = JoinOp(FilterOp(scan, pred), scan, {}, nullptr);
  EXPECT_LT(model.Estimate(filter_below).cost,
            model.Estimate(filter_above).cost);
}

TEST(Cost, SharedSubplanIsFree) {
  CostModel model;
  auto scan = ScanOp("s", BidSchema(), WindowSpec{});
  auto pred = MakeBinary(BinaryOp::kGt, MakeField(2, "price"),
                         MakeLiteral(Value(10.0)));
  auto plan = FilterOp(scan, pred);
  std::set<std::string> shared = {plan->Signature()};
  EXPECT_GT(model.Estimate(plan).cost, 0.0);
  EXPECT_DOUBLE_EQ(model.Estimate(plan, &shared).cost, 0.0);
}

TEST(Optimizer, EnumeratesJoinOrderAlternatives) {
  cql::Catalog catalog;
  ASSERT_TRUE(catalog.RegisterStream("a", BidSchema()).ok());
  ASSERT_TRUE(catalog.RegisterStream("b", BidSchema()).ok());
  ASSERT_TRUE(catalog.RegisterStream("c", BidSchema()).ok());
  auto plan = cql::Compile(
      "SELECT 1 AS one FROM a [RANGE 1 SECONDS], b [RANGE 1 SECONDS], c "
      "[RANGE 1 SECONDS] WHERE a.auction = b.auction AND b.bidder = "
      "c.bidder",
      catalog);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  Optimizer optimizer(&catalog);
  auto alternatives = optimizer.EnumerateAlternatives(plan->plan);
  // 3 leaves -> up to 6 join orders (plus the original), deduped.
  EXPECT_GE(alternatives.size(), 4u);

  auto result = optimizer.Optimize(plan->plan);
  EXPECT_GE(result.alternatives_considered, 4u);
  ASSERT_NE(result.plan, nullptr);
  EXPECT_GT(result.cost, 0.0);
}

class EndToEnd : public ::testing::Test {
 protected:
  void SetUp() override {
    bid_source_ = &graph_.Add<VectorSource<Tuple>>(
        std::vector<StreamElement<Tuple>>{
            BidAt(1000, 1, 10, 25.0), BidAt(2000, 2, 11, 5.0),
            BidAt(3000, 1, 12, 40.0), BidAt(4000, 2, 10, 15.0)},
        "bids");
    person_source_ = &graph_.Add<VectorSource<Tuple>>(
        std::vector<StreamElement<Tuple>>{PersonAt(0, 10, "Paris"),
                                          PersonAt(0, 11, "Oakland"),
                                          PersonAt(0, 12, "Marburg")},
        "persons");
    ASSERT_TRUE(catalog_
                    .RegisterStream("bids", BidSchema(), bid_source_,
                                    /*rate_hint=*/100.0)
                    .ok());
    ASSERT_TRUE(catalog_
                    .RegisterStream("persons", PersonSchema(),
                                    person_source_, /*rate_hint=*/1.0)
                    .ok());
  }

  QueryGraph graph_;
  cql::Catalog catalog_;
  VectorSource<Tuple>* bid_source_ = nullptr;
  VectorSource<Tuple>* person_source_ = nullptr;
};

TEST_F(EndToEnd, FilterProjectQueryProducesExpectedTuples) {
  PlanManager manager(&graph_, &catalog_);
  auto installed = manager.InstallQuery(
      "SELECT price, auction FROM bids WHERE price > 20");
  ASSERT_TRUE(installed.ok()) << installed.status().ToString();
  auto& sink = graph_.Add<CollectorSink<Tuple>>();
  installed->output->AddSubscriber(sink.input());
  Drain(graph_);

  ASSERT_EQ(sink.elements().size(), 2u);
  EXPECT_DOUBLE_EQ(sink.elements()[0].payload.field(0).AsDouble(), 25.0);
  EXPECT_EQ(sink.elements()[0].payload.field(1).AsInt(), 1);
  EXPECT_DOUBLE_EQ(sink.elements()[1].payload.field(0).AsDouble(), 40.0);
}

TEST_F(EndToEnd, WindowedGroupedAggregateQuery) {
  PlanManager manager(&graph_, &catalog_);
  auto installed = manager.InstallQuery(
      "SELECT auction, MAX(price) AS top FROM bids [RANGE 10 SECONDS] "
      "GROUP BY auction");
  ASSERT_TRUE(installed.ok()) << installed.status().ToString();
  auto& sink = graph_.Add<CollectorSink<Tuple>>();
  installed->output->AddSubscriber(sink.input());
  Drain(graph_);

  ASSERT_FALSE(sink.elements().empty());
  // The max over auction 1 must reach 40 in some segment.
  double best_auction1 = 0;
  for (const auto& e : sink.elements()) {
    if (e.payload.field(0).AsInt() == 1) {
      best_auction1 =
          std::max(best_auction1, e.payload.field(1).AsDouble());
    }
  }
  EXPECT_DOUBLE_EQ(best_auction1, 40.0);
}

TEST_F(EndToEnd, StreamJoinQueryMatchesBiddersToCities) {
  PlanManager manager(&graph_, &catalog_);
  auto installed = manager.InstallQuery(
      "SELECT b.price, p.city FROM bids [RANGE 1 HOURS] AS b, persons "
      "[UNBOUNDED] AS p WHERE b.bidder = p.id AND b.price > 20");
  ASSERT_TRUE(installed.ok()) << installed.status().ToString();
  auto& sink = graph_.Add<CollectorSink<Tuple>>();
  installed->output->AddSubscriber(sink.input());
  Drain(graph_);

  ASSERT_EQ(sink.elements().size(), 2u);
  EXPECT_EQ(sink.elements()[0].payload.field(1).AsString(), "Paris");
  EXPECT_EQ(sink.elements()[1].payload.field(1).AsString(), "Marburg");
}

TEST_F(EndToEnd, MultiQuerySharingReusesSubplans) {
  PlanManager manager(&graph_, &catalog_);
  auto first = manager.InstallQuery(
      "SELECT auction, MAX(price) AS top FROM bids [RANGE 10 SECONDS] "
      "GROUP BY auction");
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->operators_reused, 0u);
  EXPECT_GT(first->operators_created, 0u);

  // The same query again: everything shared, nothing new built.
  auto second = manager.InstallQuery(
      "SELECT auction, MAX(price) AS top FROM bids [RANGE 10 SECONDS] "
      "GROUP BY auction");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->operators_created, 0u);
  EXPECT_GT(second->operators_reused, 0u);
  EXPECT_EQ(second->output, first->output);

  // An overlapping query shares the windowed scan at least.
  auto third = manager.InstallQuery(
      "SELECT auction, COUNT(*) AS n FROM bids [RANGE 10 SECONDS] GROUP BY "
      "auction");
  ASSERT_TRUE(third.ok());
  EXPECT_GT(third->operators_reused, 0u);

  // Both query outputs deliver to their sinks from the shared plan.
  auto& sink1 = graph_.Add<CollectorSink<Tuple>>("sink1");
  auto& sink3 = graph_.Add<CollectorSink<Tuple>>("sink3");
  first->output->AddSubscriber(sink1.input());
  third->output->AddSubscriber(sink3.input());
  Drain(graph_);
  EXPECT_FALSE(sink1.elements().empty());
  EXPECT_FALSE(sink3.elements().empty());
}

TEST_F(EndToEnd, SharingDisabledBuildsEverythingTwice) {
  PlanManager manager(&graph_, &catalog_, /*sharing=*/false);
  auto first =
      manager.InstallQuery("SELECT price FROM bids WHERE price > 20");
  auto second =
      manager.InstallQuery("SELECT price FROM bids WHERE price > 20");
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_EQ(second->operators_reused, 0u);
  EXPECT_EQ(second->operators_created, first->operators_created);
  EXPECT_NE(second->output, first->output);
}

TEST_F(EndToEnd, InstallFailsForUnknownStream) {
  PlanManager manager(&graph_, &catalog_);
  EXPECT_FALSE(manager.InstallQuery("SELECT * FROM nosuch").ok());
}

// --- The operators without CQL syntax ---------------------------------------

/// `plan` built by PhysicalBuilder with `options` over `rows` bound as
/// stream `s (k, v)`, drained, and compared with the reference evaluator.
void ExpectBuildsLikeReference(
    const LogicalPlan& plan,
    const std::vector<StreamElement<Tuple>>& rows, const char* op,
    const PhysicalOptions& options = {}) {
  QueryGraph graph;
  cql::Catalog catalog;
  const Schema schema({{"k", ValueType::kInt}, {"v", ValueType::kInt}});
  auto& source = graph.Add<VectorSource<Tuple>>(rows, "s", 3);
  ASSERT_TRUE(catalog.RegisterStream("s", schema, &source).ok());
  auto output = PhysicalBuilder(&graph, &catalog, options).Build(plan);
  ASSERT_TRUE(output.ok()) << output.status().ToString();
  auto& sink = graph.Add<CollectorSink<Tuple>>();
  (*output)->AddSubscriber(sink.input());
  bool found = false;
  for (const Node* node : graph.nodes()) found |= node->Describe().op == op;
  EXPECT_TRUE(found) << "no " << op << " operator in the built graph";
  scheduler::RoundRobinStrategy strategy;
  scheduler::PipeExecutor(graph, strategy, 4).RunToCompletion();

  auto expected = testing::conformance::ReferenceEval(
      plan, {{"s", schema, rows}});
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  testing::conformance::IntervalTable actual;
  actual.rows = sink.elements();
  const auto diff = testing::conformance::SnapshotDiff(*expected, actual);
  EXPECT_TRUE(diff.equivalent) << plan->ToString() << diff.message;
}

std::vector<StreamElement<Tuple>> KeyedRows() {
  std::vector<StreamElement<Tuple>> rows;
  for (std::int64_t i = 0; i < 40; ++i) {
    rows.push_back(StreamElement<Tuple>::Point(
        Tuple{Value(i % 3), Value(i % 5)}, i / 2));
  }
  return rows;
}

TEST(PhysicalBuilder, BuildsDifferenceIntersectAndPartitionedWindow) {
  const Schema schema({{"k", ValueType::kInt}, {"v", ValueType::kInt}});
  WindowSpec wide;
  wide.kind = WindowKind::kRange;
  wide.range = 6;
  WindowSpec narrow = wide;
  narrow.range = 2;
  WindowSpec partitioned;
  partitioned.kind = WindowKind::kPartitionedRows;
  partitioned.rows = 2;
  partitioned.partition = {0};
  const LogicalPlan a = ScanOp("s", schema, wide);
  const LogicalPlan b = ScanOp("s", schema, narrow);
  ExpectBuildsLikeReference(DifferenceOp(a, b), KeyedRows(), "difference");
  ExpectBuildsLikeReference(IntersectOp(a, b), KeyedRows(), "intersect");
  ExpectBuildsLikeReference(ScanOp("s", schema, partitioned), KeyedRows(),
                            "partitioned-window");
}

// GROUP BY lowers to one group-aggregate node directly above its window,
// which builds the flat `key ++ aggregates` rows itself: no map follows.
// (The analyzer's SELECT-order projection sits above the grouping; it is
// left out here.)
TEST(PhysicalBuilder, GroupByBuildsOneNodeAboveItsWindow) {
  QueryGraph graph;
  cql::Catalog catalog;
  const Schema schema({{"k", ValueType::kInt}, {"v", ValueType::kInt}});
  auto& source = graph.Add<VectorSource<Tuple>>(KeyedRows(), "s", 3);
  ASSERT_TRUE(catalog.RegisterStream("s", schema, &source).ok());
  auto compiled = cql::Compile(
      "SELECT k, SUM(v) AS total, COUNT(*) AS n FROM s "
      "[RANGE 4 MILLISECONDS] GROUP BY k",
      catalog);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  ASSERT_EQ(compiled->plan->kind, LogicalOp::Kind::kProject);
  const LogicalPlan grouping = compiled->plan->children[0];
  ASSERT_EQ(grouping->kind, LogicalOp::Kind::kGroupAggregate);
  const std::size_t nodes = graph.size();
  PhysicalBuilder::BuildStats stats;
  auto output =
      PhysicalBuilder(&graph, &catalog).Build(grouping, nullptr, &stats);
  ASSERT_TRUE(output.ok()) << output.status().ToString();

  EXPECT_EQ(stats.operators_created, 2u);
  ASSERT_EQ(graph.size(), nodes + 2);
  std::multiset<std::string> ops;
  for (const Node* node : graph.nodes()) {
    if (node != &source) ops.insert(node->Describe().op);
  }
  EXPECT_EQ(ops, (std::multiset<std::string>{"group-aggregate",
                                             "time-window"}));
  EXPECT_EQ((*output)->Describe().op, "group-aggregate");
  EXPECT_EQ(source.num_subscribers(), 1u);

  auto& sink = graph.Add<CollectorSink<Tuple>>();
  (*output)->AddSubscriber(sink.input());
  Drain(graph);
  ASSERT_FALSE(sink.elements().empty());
  for (const auto& e : sink.elements()) {
    ASSERT_EQ(e.payload.arity(), 3u) << e.payload.ToString();
    EXPECT_LT(e.payload.field(0).AsInt(), 3);  // the key comes first
  }
  ExpectBuildsLikeReference(grouping, KeyedRows(), "group-aggregate");
}

TEST(PhysicalBuilder, RejectsPartitionOnMissingField) {
  QueryGraph graph;
  cql::Catalog catalog;
  const Schema schema({{"k", ValueType::kInt}});
  auto& source = graph.Add<VectorSource<Tuple>>(
      std::vector<StreamElement<Tuple>>{}, "s");
  ASSERT_TRUE(catalog.RegisterStream("s", schema, &source).ok());
  WindowSpec partitioned;
  partitioned.kind = WindowKind::kPartitionedRows;
  partitioned.rows = 2;
  partitioned.partition = {3};
  const std::size_t nodes = graph.size();
  auto output = PhysicalBuilder(&graph, &catalog)
                    .Build(ScanOp("s", schema, partitioned));
  ASSERT_FALSE(output.ok());
  EXPECT_EQ(output.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(graph.size(), nodes);
}


WindowSpec RangeWindow(Timestamp range) {
  WindowSpec w;
  w.kind = WindowKind::kRange;
  w.range = range;
  return w;
}

WindowSpec PartitionedWindow(std::size_t rows, std::size_t field) {
  WindowSpec w;
  w.kind = WindowKind::kPartitionedRows;
  w.rows = rows;
  w.partition = {field};
  return w;
}

// With replicas, each key-partitionable operator becomes that many replicas
// between one Partition per input and one Merge, and every node of the
// chains counts as created.
TEST(PhysicalBuilder, ReplicatesKeyPartitionableOperators) {
  const Schema schema({{"k", ValueType::kInt}, {"v", ValueType::kInt}});
  const LogicalPlan join =
      JoinOp(ScanOp("s", schema, PartitionedWindow(2, 1)),
             ScanOp("s", schema, RangeWindow(4)), {{0, 0}}, nullptr);
  const LogicalPlan plan = DistinctOp(GroupAggregateOp(
      join, {0}, {AggSpec{AggKind::kSum, MakeField(1, "v"), "total"}}));

  QueryGraph graph;
  cql::Catalog catalog;
  auto& source = graph.Add<VectorSource<Tuple>>(KeyedRows(), "s", 3);
  ASSERT_TRUE(catalog.RegisterStream("s", schema, &source).ok());
  const std::size_t nodes = graph.size();
  PhysicalBuilder::BuildStats stats;
  auto output = PhysicalBuilder(&graph, &catalog, {.replicas = 3})
                    .Build(plan, nullptr, &stats);
  ASSERT_TRUE(output.ok()) << output.status().ToString();
  EXPECT_EQ(stats.operators_created, graph.size() - nodes);

  // Per replicated operator: its replicas, and the Partition and Merge
  // nodes reached through their input and output buffers.
  struct Stage {
    std::size_t replicas = 0;
    std::set<const Node*> partitions;
    std::set<const Node*> merges;
  };
  std::map<std::string, Stage> stages;
  for (const Node* node : graph.nodes()) {
    const std::string op = node->Describe().op;
    if (op != "partitioned-window" && op != "hash-join" &&
        op != "group-aggregate" && op != "distinct") {
      continue;
    }
    Stage& stage = stages[op];
    ++stage.replicas;
    for (const Node* buffer : node->upstream()) {
      EXPECT_EQ(buffer->Describe().op, "buffer") << node->name();
      for (const Node* split : buffer->upstream()) {
        EXPECT_EQ(split->Describe().op, "partition") << node->name();
        stage.partitions.insert(split);
      }
    }
    for (const Node* buffer : node->downstream()) {
      EXPECT_EQ(buffer->Describe().op, "buffer") << node->name();
      for (const Node* merge : buffer->downstream()) {
        EXPECT_EQ(merge->Describe().op, "merge") << node->name();
        stage.merges.insert(merge);
      }
    }
  }
  ASSERT_EQ(stages.size(), 4u);
  for (const auto& [op, stage] : stages) {
    EXPECT_EQ(stage.replicas, 3u) << op;
    EXPECT_EQ(stage.partitions.size(), op == "hash-join" ? 2u : 1u) << op;
    EXPECT_EQ(stage.merges.size(), 1u) << op;
  }
  EXPECT_EQ((*output)->Describe().op, "merge");
  ExpectBuildsLikeReference(plan, KeyedRows(), "merge", {.replicas = 3});
}

// With spillable joins, an equi-join whose inputs pack into at most four
// INT/DOUBLE/BOOL fields keeps its state in spillable SweepAreas; a STRING
// column, a fifth column or replication keeps the plain hash join.
TEST(PhysicalBuilder, SpillableJoinsOnlyForPackableRows) {
  const Schema packable({{"k", ValueType::kInt},
                         {"x", ValueType::kDouble},
                         {"b", ValueType::kBool},
                         {"v", ValueType::kInt}});
  const Schema with_string({{"k", ValueType::kInt},
                            {"name", ValueType::kString}});
  const Schema wide({{"k", ValueType::kInt},
                     {"a", ValueType::kInt},
                     {"b", ValueType::kInt},
                     {"c", ValueType::kInt},
                     {"d", ValueType::kInt}});
  QueryGraph graph;
  cql::Catalog catalog;
  for (const auto& [name, schema] :
       {std::pair{"p", packable}, std::pair{"str", with_string},
        std::pair{"wide", wide}}) {
    auto& source = graph.Add<VectorSource<Tuple>>(
        std::vector<StreamElement<Tuple>>{}, name);
    ASSERT_TRUE(catalog.RegisterStream(name, schema, &source).ok());
  }
  // The ops of the nodes built for `p` joined with `right` on `k`.
  const auto join_ops = [&](const PhysicalOptions& options,
                            const LogicalPlan& right) {
    const std::size_t before = graph.size();
    auto output = PhysicalBuilder(&graph, &catalog, options)
                      .Build(JoinOp(ScanOp("p", packable, RangeWindow(4)),
                                    right, {{0, 0}}, nullptr));
    EXPECT_TRUE(output.ok()) << output.status().ToString();
    std::multiset<std::string> ops;
    const std::vector<Node*> nodes = graph.nodes();
    for (std::size_t i = before; i < nodes.size(); ++i) {
      ops.insert(nodes[i]->Describe().op);
    }
    return ops;
  };
  const PhysicalOptions spill{.spillable_joins = true};
  EXPECT_EQ(join_ops(spill, ScanOp("p", packable, RangeWindow(2))),
            (std::multiset<std::string>{"time-window", "time-window", "map",
                                        "map", "spill-hash-join"}));
  EXPECT_EQ(join_ops(spill, ScanOp("str", with_string, RangeWindow(2))),
            (std::multiset<std::string>{"time-window", "time-window",
                                        "hash-join"}));
  EXPECT_EQ(join_ops(spill, ScanOp("wide", wide, RangeWindow(2))),
            (std::multiset<std::string>{"time-window", "time-window",
                                        "hash-join"}));
  const std::multiset<std::string> replicated =
      join_ops({.replicas = 2, .spillable_joins = true},
               ScanOp("p", packable, RangeWindow(2)));
  EXPECT_EQ(replicated.count("spill-hash-join"), 0u);
  EXPECT_EQ(replicated.count("hash-join"), 2u);

  const Schema schema({{"k", ValueType::kInt}, {"v", ValueType::kInt}});
  ExpectBuildsLikeReference(
      JoinOp(ScanOp("s", schema, RangeWindow(4)),
             ScanOp("s", schema, RangeWindow(2)), {{0, 0}},
             MakeBinary(BinaryOp::kLt, MakeField(1, "v"), MakeField(3, "v"))),
      KeyedRows(), "spill-hash-join", spill);
}

// A replicated build runs the same window and type checks as the plain
// one: each bad plan is an error, and nothing joins the graph.
TEST(PhysicalBuilder, ReplicatedBuildValidatesLikeThePlainOne) {
  const Schema schema({{"k", ValueType::kInt}, {"v", ValueType::kInt}});
  QueryGraph graph;
  cql::Catalog catalog;
  auto& s = graph.Add<VectorSource<Tuple>>(KeyedRows(), "s");
  ASSERT_TRUE(catalog.RegisterStream("s", schema, &s).ok());
  auto& people = graph.Add<VectorSource<Tuple>>(
      std::vector<StreamElement<Tuple>>{PersonAt(0, 1, "Paris")}, "people");
  ASSERT_TRUE(
      catalog.RegisterStream("people", PersonSchema(), &people).ok());

  const std::vector<LogicalPlan> plans = {
      ScanOp("s", schema, RangeWindow(0)),
      ScanOp("s", schema, PartitionedWindow(0, 1)),
      ScanOp("s", schema, PartitionedWindow(2, 3)),
      GroupAggregateOp(
          ScanOp("people", PersonSchema(), RangeWindow(4)), {0},
          {AggSpec{AggKind::kSum, MakeField(1, "city"), "total"}}),
  };
  for (const LogicalPlan& plan : plans) {
    const std::size_t nodes = graph.size();
    auto output =
        PhysicalBuilder(&graph, &catalog, {.replicas = 2}).Build(plan);
    ASSERT_FALSE(output.ok()) << plan->ToString();
    EXPECT_EQ(output.status().code(), StatusCode::kInvalidArgument)
        << output.status().ToString();
    EXPECT_EQ(graph.size(), nodes) << plan->ToString();
  }
}

}  // namespace
}  // namespace pipes::optimizer
