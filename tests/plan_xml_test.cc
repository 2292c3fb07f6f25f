// Tests for XML plan persistence: round-trips of every operator kind, and
// executing a plan that was saved and reloaded.

#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "src/core/generator_source.h"
#include "src/core/sink.h"
#include "src/cql/analyzer.h"
#include "src/cql/catalog.h"
#include "src/optimizer/plan_manager.h"
#include "src/optimizer/plan_xml.h"
#include "src/scheduler/scheduler.h"

namespace pipes::optimizer {
namespace {

using relational::Schema;
using relational::Tuple;
using relational::Value;
using relational::ValueType;

cql::Catalog MakeCatalog() {
  cql::Catalog catalog;
  PIPES_CHECK(catalog
                  .RegisterStream("bids",
                                  Schema({{"auction", ValueType::kInt},
                                          {"bidder", ValueType::kInt},
                                          {"price", ValueType::kDouble}}))
                  .ok());
  PIPES_CHECK(catalog
                  .RegisterStream("persons",
                                  Schema({{"id", ValueType::kInt},
                                          {"city", ValueType::kString}}))
                  .ok());
  return catalog;
}

void ExpectPlanRoundTrip(const LogicalPlan& plan) {
  const std::string xml = ToXml(plan);
  auto revived = FromXml(xml);
  ASSERT_TRUE(revived.ok()) << revived.status().ToString() << "\n" << xml;
  EXPECT_EQ((*revived)->Signature(), plan->Signature()) << xml;
  EXPECT_EQ((*revived)->schema, plan->schema);
  // Serialization is stable: a second trip produces identical XML.
  EXPECT_EQ(ToXml(*revived), xml);
}

void ExpectRoundTrip(const std::string& query_text) {
  cql::Catalog catalog = MakeCatalog();
  auto plan = cql::Compile(query_text, catalog);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ExpectPlanRoundTrip(plan->plan);
}

TEST(PlanXml, RoundTripsScanVariants) {
  ExpectRoundTrip("SELECT * FROM bids");
  ExpectRoundTrip("SELECT * FROM bids [RANGE 10 SECONDS]");
  ExpectRoundTrip("SELECT * FROM bids [RANGE 10 SECONDS SLIDE 2 SECONDS]");
  ExpectRoundTrip("SELECT * FROM bids [ROWS 50]");
  ExpectRoundTrip("SELECT * FROM bids [UNBOUNDED]");
}

TEST(PlanXml, RoundTripsFilterProjectExpressions) {
  ExpectRoundTrip(
      "SELECT price * 2 AS twice, auction FROM bids WHERE price > 10 AND "
      "NOT (bidder = 3)");
  ExpectRoundTrip("SELECT price FROM bids WHERE bidder % 2 = 0");
}

TEST(PlanXml, RoundTripsStringLiterals) {
  ExpectRoundTrip("SELECT id FROM persons WHERE city = 'Paris'");
}

TEST(PlanXml, RoundTripsJoinGroupDistinctStreams) {
  ExpectRoundTrip(
      "SELECT b.price, p.city FROM bids [RANGE 1 MINUTES] AS b, persons "
      "[UNBOUNDED] AS p WHERE b.bidder = p.id");
  ExpectRoundTrip(
      "SELECT auction, MAX(price) AS top, COUNT(*) AS n, STDDEV(price) AS "
      "sd FROM bids [RANGE 10 MINUTES SLIDE 1 MINUTES] GROUP BY auction "
      "HAVING top > 5");
  ExpectRoundTrip("SELECT DISTINCT bidder FROM bids");
  ExpectRoundTrip("SELECT ISTREAM auction FROM bids [RANGE 1 MINUTES]");
  ExpectRoundTrip("SELECT DSTREAM auction FROM bids [RANGE 1 MINUTES]");
}

// The operators without CQL syntax: bag difference, intersect, and the
// partitioned-rows scan window.
TEST(PlanXml, RoundTripsSetOperatorsAndPartitionedWindows) {
  const Schema bids({{"auction", ValueType::kInt},
                     {"bidder", ValueType::kInt},
                     {"price", ValueType::kDouble}});
  WindowSpec range;
  range.kind = WindowKind::kRange;
  range.range = 5000;
  WindowSpec partitioned;
  partitioned.kind = WindowKind::kPartitionedRows;
  partitioned.rows = 3;
  partitioned.partition = {0, 1};
  const LogicalPlan now = ScanOp("bids", bids, WindowSpec{});
  const LogicalPlan last3 = ScanOp("bids", bids, partitioned);
  ExpectPlanRoundTrip(last3);
  ExpectPlanRoundTrip(DifferenceOp(ScanOp("bids", bids, range), now));
  ExpectPlanRoundTrip(IntersectOp(last3, DifferenceOp(now, last3)));

  // Set operators need equal arities; a partitioned window needs its rows.
  EXPECT_FALSE(FromXml("<plan><op kind=\"difference\">"
                       "<op kind=\"scan\" stream=\"a\" window=\"NOW\">"
                       "<out name=\"x\" type=\"INT\"/></op>"
                       "<op kind=\"scan\" stream=\"b\" window=\"NOW\"></op>"
                       "</op></plan>")
                   .ok());
  EXPECT_FALSE(FromXml("<plan><op kind=\"scan\" stream=\"a\" "
                       "window=\"PARTITIONED_ROWS\"></op></plan>")
                   .ok());
}

TEST(PlanXml, RoundTripsOptimizedPlans) {
  cql::Catalog catalog = MakeCatalog();
  auto plan = cql::Compile(
      "SELECT b.price, p.city FROM bids [RANGE 1 MINUTES] AS b, persons "
      "[UNBOUNDED] AS p WHERE b.bidder = p.id AND b.price > 10",
      catalog);
  ASSERT_TRUE(plan.ok());
  Optimizer optimizer(&catalog);
  auto optimized = optimizer.Optimize(plan->plan);
  const std::string xml = ToXml(optimized.plan);
  auto revived = FromXml(xml);
  ASSERT_TRUE(revived.ok()) << revived.status().ToString() << "\n" << xml;
  EXPECT_EQ((*revived)->Signature(), optimized.plan->Signature());
}

TEST(PlanXml, ReloadedPlanExecutes) {
  QueryGraph graph;
  std::vector<StreamElement<Tuple>> input;
  for (int i = 0; i < 10; ++i) {
    input.push_back(StreamElement<Tuple>::Point(
        Tuple{Value(static_cast<std::int64_t>(i % 2)),
              Value(static_cast<std::int64_t>(i)),
              Value(static_cast<double>(i * 10))},
        i * 100));
  }
  auto& source = graph.Add<VectorSource<Tuple>>(input, "bids");
  cql::Catalog catalog;
  ASSERT_TRUE(catalog
                  .RegisterStream("bids",
                                  Schema({{"auction", ValueType::kInt},
                                          {"bidder", ValueType::kInt},
                                          {"price", ValueType::kDouble}}),
                                  &source)
                  .ok());

  auto plan =
      cql::Compile("SELECT price FROM bids WHERE price > 40", catalog);
  ASSERT_TRUE(plan.ok());
  auto revived = FromXml(ToXml(plan->plan));
  ASSERT_TRUE(revived.ok());

  PlanManager manager(&graph, &catalog);
  auto installed = manager.InstallPlan(*revived);
  ASSERT_TRUE(installed.ok()) << installed.status().ToString();
  auto& sink = graph.Add<CollectorSink<Tuple>>();
  installed->output->AddSubscriber(sink.input());
  scheduler::RoundRobinStrategy strategy;
  scheduler::PipeExecutor(graph, strategy).RunToCompletion();
  EXPECT_EQ(sink.elements().size(), 5u);  // prices 50..90
}

TEST(PlanXml, RejectsMalformedDocuments) {
  EXPECT_FALSE(FromXml("").ok());
  EXPECT_FALSE(FromXml("<plan></plan>").ok());
  EXPECT_FALSE(FromXml("<plan><op kind=\"nope\"></op></plan>").ok());
  EXPECT_FALSE(FromXml("<plan><op kind=\"scan\"></op></plan>").ok());
  EXPECT_FALSE(FromXml("<plan><op kind=\"filter\"></op></plan>").ok());
  EXPECT_FALSE(FromXml("<plan><op kind=\"scan\" stream=\"s\" "
                       "window=\"NOW\"></wrong></plan>")
                   .ok());
  // Bad numbers are parse errors naming the attribute: non-numeric text,
  // a value past int64, and a negative row count.
  const std::pair<const char*, const char*> bad_numbers[] = {
      {"window=\"RANGE\" range=\"abc\"", "'range'"},
      {"window=\"RANGE\" range=\"99999999999999999999\"", "'range'"},
      {"window=\"ROWS\" rows=\"-5\"", "'rows'"},
  };
  for (const auto& [attrs, name] : bad_numbers) {
    const auto plan = FromXml(std::string("<plan><op kind=\"scan\" "
                                          "stream=\"s\" ") +
                              attrs + "></op></plan>");
    ASSERT_FALSE(plan.ok()) << attrs;
    EXPECT_EQ(plan.status().code(), StatusCode::kParseError) << attrs;
    EXPECT_NE(plan.status().message().find(name), std::string::npos)
        << plan.status().message();
  }
}

TEST(PlanXml, EscapesSpecialCharacters) {
  // Predicate with < and string quotes must survive the trip.
  ExpectRoundTrip("SELECT id FROM persons WHERE id < 5 AND city <> 'a<b'");
}

}  // namespace
}  // namespace pipes::optimizer
