// Tests for the CQL extensions: ISTREAM/DSTREAM relation-to-stream
// operators (algebra + end-to-end), HAVING, and VARIANCE/STDDEV.

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "src/algebra/relation_to_stream.h"
#include "src/core/generator_source.h"
#include "src/core/graph.h"
#include "src/core/sink.h"
#include "src/cql/analyzer.h"
#include "src/cql/catalog.h"
#include "src/optimizer/plan_manager.h"
#include "src/scheduler/scheduler.h"

namespace pipes {
namespace {

using relational::Schema;
using relational::Tuple;
using relational::Value;
using relational::ValueType;

void Drain(QueryGraph& graph) {
  scheduler::RoundRobinStrategy strategy;
  scheduler::PipeExecutor driver(graph, strategy);
  driver.RunToCompletion();
}

TEST(RelationToStream, IStreamEmitsPointAtStart) {
  QueryGraph graph;
  std::vector<StreamElement<int>> input = {StreamElement<int>(7, 5, 50),
                                           StreamElement<int>(8, 10, 20)};
  auto& source = graph.Add<VectorSource<int>>(input);
  auto& istream = graph.Add<algebra::IStream<int>>();
  auto& sink = graph.Add<CollectorSink<int>>();
  source.AddSubscriber(istream.input());
  istream.AddSubscriber(sink.input());
  Drain(graph);

  ASSERT_EQ(sink.elements().size(), 2u);
  EXPECT_EQ(sink.elements()[0], StreamElement<int>(7, 5, 6));
  EXPECT_EQ(sink.elements()[1], StreamElement<int>(8, 10, 11));
}

TEST(RelationToStream, DStreamEmitsPointAtEndInOrder) {
  QueryGraph graph;
  // Ends out of start order: 7 ends at 50, 8 ends at 20.
  std::vector<StreamElement<int>> input = {StreamElement<int>(7, 5, 50),
                                           StreamElement<int>(8, 10, 20),
                                           StreamElement<int>(9, 15, kMaxTimestamp)};
  auto& source = graph.Add<VectorSource<int>>(input);
  auto& dstream = graph.Add<algebra::DStream<int>>();
  auto& sink = graph.Add<CollectorSink<int>>();
  source.AddSubscriber(dstream.input());
  dstream.AddSubscriber(sink.input());
  Drain(graph);

  // The never-expiring element produces nothing; deletions come end-ordered.
  ASSERT_EQ(sink.elements().size(), 2u);
  EXPECT_EQ(sink.elements()[0], StreamElement<int>(8, 20, 21));
  EXPECT_EQ(sink.elements()[1], StreamElement<int>(7, 50, 51));
}

class CqlExtensions : public ::testing::Test {
 protected:
  void SetUp() override {
    std::vector<StreamElement<Tuple>> input;
    // Keys 0..2, values rise with time; each tuple valid for 100 ms.
    for (int i = 0; i < 12; ++i) {
      input.push_back(StreamElement<Tuple>(
          Tuple{Value(static_cast<std::int64_t>(i % 3)),
                Value(static_cast<double>(i))},
          i * 10, i * 10 + 100));
    }
    source_ = &graph_.Add<VectorSource<Tuple>>(input, "obs");
    ASSERT_TRUE(catalog_
                    .RegisterStream("obs",
                                    Schema({{"k", ValueType::kInt},
                                            {"v", ValueType::kDouble}}),
                                    source_)
                    .ok());
  }

  QueryGraph graph_;
  cql::Catalog catalog_;
  VectorSource<Tuple>* source_ = nullptr;
};

TEST_F(CqlExtensions, IStreamQueryProducesPointElements) {
  optimizer::PlanManager manager(&graph_, &catalog_);
  auto query = manager.InstallQuery("SELECT ISTREAM k FROM obs");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  EXPECT_EQ(query->plan->kind, optimizer::LogicalOp::Kind::kIStream);
  auto& sink = graph_.Add<CollectorSink<Tuple>>();
  query->output->AddSubscriber(sink.input());
  Drain(graph_);

  ASSERT_EQ(sink.elements().size(), 12u);
  for (const auto& e : sink.elements()) {
    EXPECT_EQ(e.interval.Length(), 1);  // point validity
  }
}

TEST_F(CqlExtensions, DStreamQueryEmitsDeletions) {
  optimizer::PlanManager manager(&graph_, &catalog_);
  auto query = manager.InstallQuery("SELECT DSTREAM k FROM obs");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  auto& sink = graph_.Add<CollectorSink<Tuple>>();
  query->output->AddSubscriber(sink.input());
  Drain(graph_);

  ASSERT_EQ(sink.elements().size(), 12u);
  // First deletion happens at the first tuple's expiry (t=100).
  EXPECT_EQ(sink.elements()[0].start(), 100);
}

TEST_F(CqlExtensions, HavingFiltersGroups) {
  optimizer::PlanManager manager(&graph_, &catalog_);
  // Group sums: k=0 gets 0+3+6+9=18, k=1 gets 1+4+7+10=22, k=2 gets 26,
  // on the fully-overlapping segment. HAVING keeps sums > 20.
  auto query = manager.InstallQuery(
      "SELECT k, SUM(v) AS total FROM obs GROUP BY k HAVING total > 20");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  auto& sink = graph_.Add<CollectorSink<Tuple>>();
  query->output->AddSubscriber(sink.input());
  Drain(graph_);

  ASSERT_FALSE(sink.elements().empty());
  for (const auto& e : sink.elements()) {
    EXPECT_GT(e.payload.field(1).AsDouble(), 20.0);
    EXPECT_NE(e.payload.field(0).AsInt(), 0);  // group 0 never exceeds 20
  }
}

TEST_F(CqlExtensions, HavingWithoutAggregationIsRejected) {
  // The parser only allows HAVING after GROUP BY, so this is a parse error;
  // either way it must not compile into a plan.
  EXPECT_FALSE(
      cql::Compile("SELECT k FROM obs HAVING k > 1", catalog_).ok());
}

TEST_F(CqlExtensions, VarianceAndStddevAggregates) {
  optimizer::PlanManager manager(&graph_, &catalog_);
  auto query = manager.InstallQuery(
      "SELECT VARIANCE(v) AS var, STDDEV(v) AS sd FROM obs [RANGE 1 HOURS]");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  auto& sink = graph_.Add<CollectorSink<Tuple>>();
  query->output->AddSubscriber(sink.input());
  Drain(graph_);

  ASSERT_FALSE(sink.elements().empty());
  // On the segment containing all 12 values 0..11: population variance of
  // 0..11 is 143/12 ≈ 11.9167.
  bool saw_full_segment = false;
  for (const auto& e : sink.elements()) {
    const double var = e.payload.field(0).AsDouble();
    const double sd = e.payload.field(1).AsDouble();
    EXPECT_NEAR(sd * sd, var, 1e-9);
    if (std::abs(var - 143.0 / 12.0) < 1e-9) saw_full_segment = true;
  }
  EXPECT_TRUE(saw_full_segment);
}

TEST_F(CqlExtensions, RStreamIsDefaultAndExplicit) {
  auto implicit = cql::Compile("SELECT k FROM obs", catalog_);
  auto explicit_mode = cql::Compile("SELECT RSTREAM k FROM obs", catalog_);
  ASSERT_TRUE(implicit.ok() && explicit_mode.ok());
  EXPECT_EQ((implicit->plan)->Signature(), (explicit_mode->plan)->Signature());
}

TEST_F(CqlExtensions, IStreamQueriesShareAndUninstall) {
  optimizer::PlanManager manager(&graph_, &catalog_);
  const std::size_t baseline = graph_.size();
  auto a = manager.InstallQuery("SELECT ISTREAM k FROM obs WHERE v > 3");
  auto b = manager.InstallQuery("SELECT ISTREAM k FROM obs WHERE v > 3");
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(b->operators_created, 0u);
  ASSERT_TRUE(manager.UninstallQuery(a->query_id).ok());
  ASSERT_TRUE(manager.UninstallQuery(b->query_id).ok());
  EXPECT_EQ(graph_.size(), baseline);
}

}  // namespace
}  // namespace pipes
