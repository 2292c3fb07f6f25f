// Tests for dynamic query removal: uninstalling continuous queries from a
// running graph with reference-counted shared subplans.

#include <gtest/gtest.h>

#include "src/core/generator_source.h"
#include "src/core/sink.h"
#include "src/cql/catalog.h"
#include "src/optimizer/plan_manager.h"
#include "src/scheduler/scheduler.h"

namespace pipes::optimizer {
namespace {

using relational::Schema;
using relational::Tuple;
using relational::Value;
using relational::ValueType;

class UninstallTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::vector<StreamElement<Tuple>> input;
    for (int i = 0; i < 20; ++i) {
      input.push_back(StreamElement<Tuple>::Point(
          Tuple{Value(static_cast<std::int64_t>(i % 4)),
                Value(static_cast<double>(i))},
          i * 100));
    }
    source_ = &graph_.Add<VectorSource<Tuple>>(input, "trades");
    ASSERT_TRUE(catalog_
                    .RegisterStream("trades",
                                    Schema({{"symbol", ValueType::kInt},
                                            {"price", ValueType::kDouble}}),
                                    source_)
                    .ok());
  }

  std::size_t GraphSize() const { return graph_.size(); }

  QueryGraph graph_;
  cql::Catalog catalog_;
  VectorSource<Tuple>* source_ = nullptr;
};

constexpr const char* kQueryA =
    "SELECT symbol, MAX(price) AS top FROM trades [RANGE 10 SECONDS] "
    "WHERE price > 2 GROUP BY symbol";
constexpr const char* kQueryB =
    "SELECT symbol, COUNT(*) AS n FROM trades [RANGE 10 SECONDS] "
    "WHERE price > 2 GROUP BY symbol";

TEST_F(UninstallTest, UninstallRemovesAllOperators) {
  PlanManager manager(&graph_, &catalog_);
  const std::size_t baseline = GraphSize();  // just the source
  auto query = manager.InstallQuery(kQueryA);
  ASSERT_TRUE(query.ok());
  EXPECT_GT(GraphSize(), baseline);
  EXPECT_EQ(manager.installed_queries(), 1u);

  ASSERT_TRUE(manager.UninstallQuery(query->query_id).ok());
  EXPECT_EQ(GraphSize(), baseline);
  EXPECT_EQ(manager.installed_queries(), 0u);
  EXPECT_EQ(manager.live_subplans(), 0u);
  // The source is untouched and has no leftover subscribers.
  EXPECT_TRUE(source_->downstream().empty());
}

TEST_F(UninstallTest, SharedSubplansSurviveUntilLastQueryLeaves) {
  PlanManager manager(&graph_, &catalog_);
  const std::size_t baseline = GraphSize();
  auto a = manager.InstallQuery(kQueryA);
  auto b = manager.InstallQuery(kQueryB);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_GT(b->operators_reused, 0u);  // shares scan+window+filter

  const std::size_t with_both = GraphSize();
  ASSERT_TRUE(manager.UninstallQuery(a->query_id).ok());
  // B still runs: the shared prefix must remain.
  EXPECT_GT(GraphSize(), baseline);
  EXPECT_LT(GraphSize(), with_both);

  // B still produces results after A left.
  auto& sink = graph_.Add<CollectorSink<Tuple>>();
  b->output->AddSubscriber(sink.input());
  scheduler::RoundRobinStrategy strategy;
  scheduler::PipeExecutor(graph_, strategy).RunToCompletion();
  EXPECT_FALSE(sink.elements().empty());

  // Detach the sink, then B can leave too; the graph returns to baseline
  // (plus the test's sink node).
  ASSERT_TRUE(b->output->UnsubscribeFrom(sink.input()).ok());
  ASSERT_TRUE(manager.UninstallQuery(b->query_id).ok());
  EXPECT_EQ(GraphSize(), baseline + 1);  // +1 = the detached sink
  EXPECT_TRUE(source_->downstream().empty());
}

TEST_F(UninstallTest, FailsWhileSinkStillSubscribed) {
  PlanManager manager(&graph_, &catalog_);
  auto query = manager.InstallQuery(kQueryA);
  ASSERT_TRUE(query.ok());
  auto& sink = graph_.Add<CollectorSink<Tuple>>();
  query->output->AddSubscriber(sink.input());

  const std::size_t before = GraphSize();
  const Status status = manager.UninstallQuery(query->query_id);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(GraphSize(), before);  // nothing was modified

  ASSERT_TRUE(query->output->UnsubscribeFrom(sink.input()).ok());
  EXPECT_TRUE(manager.UninstallQuery(query->query_id).ok());
}

TEST_F(UninstallTest, UnknownIdAndDoubleUninstall) {
  PlanManager manager(&graph_, &catalog_);
  EXPECT_EQ(manager.UninstallQuery(999).code(), StatusCode::kNotFound);
  auto query = manager.InstallQuery(kQueryA);
  ASSERT_TRUE(query.ok());
  ASSERT_TRUE(manager.UninstallQuery(query->query_id).ok());
  EXPECT_EQ(manager.UninstallQuery(query->query_id).code(),
            StatusCode::kNotFound);
}

TEST_F(UninstallTest, ReinstallAfterUninstallRebuilds) {
  PlanManager manager(&graph_, &catalog_);
  auto first = manager.InstallQuery(kQueryA);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(manager.UninstallQuery(first->query_id).ok());

  auto second = manager.InstallQuery(kQueryA);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->operators_reused, 0u);  // nothing left to share
  EXPECT_EQ(second->operators_created, first->operators_created);

  auto& sink = graph_.Add<CollectorSink<Tuple>>();
  second->output->AddSubscriber(sink.input());
  scheduler::RoundRobinStrategy strategy;
  scheduler::PipeExecutor(graph_, strategy).RunToCompletion();
  EXPECT_FALSE(sink.elements().empty());
}

TEST_F(UninstallTest, NonSharingQueriesUninstallIndependently) {
  PlanManager manager(&graph_, &catalog_, /*sharing=*/false);
  const std::size_t baseline = GraphSize();
  auto a = manager.InstallQuery(kQueryA);
  auto b = manager.InstallQuery(kQueryA);  // identical text, separate plans
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(a->output, b->output);

  ASSERT_TRUE(manager.UninstallQuery(a->query_id).ok());
  EXPECT_GT(GraphSize(), baseline);  // b's operators remain
  ASSERT_TRUE(manager.UninstallQuery(b->query_id).ok());
  EXPECT_EQ(GraphSize(), baseline);
}

}  // namespace
}  // namespace pipes::optimizer
