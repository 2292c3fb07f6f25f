// Tests for secondary metadata: estimators, registries, and the monitor.

#include <set>
#include <sstream>

#include <gtest/gtest.h>

#include "src/algebra/filter.h"
#include "src/core/generator_source.h"
#include "src/core/graph.h"
#include "src/core/sink.h"
#include "src/metadata/estimators.h"
#include "src/metadata/monitor.h"
#include "src/metadata/registry.h"
#include "src/scheduler/scheduler.h"

namespace pipes::metadata {
namespace {

TEST(Estimators, RunningStatsMatchesClosedForm) {
  RunningStats stats;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.Add(x);
  EXPECT_EQ(stats.count(), 8u);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 4.0);
  EXPECT_DOUBLE_EQ(stats.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
}

TEST(Estimators, RunningStatsEmptyIsSafe) {
  RunningStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
  EXPECT_DOUBLE_EQ(stats.min(), 0.0);
}

TEST(Estimators, EwmaConvergesTowardConstantInput) {
  Ewma ewma(0.5);
  EXPECT_FALSE(ewma.seeded());
  ewma.Add(0.0);
  for (int i = 0; i < 20; ++i) ewma.Add(10.0);
  EXPECT_NEAR(ewma.value(), 10.0, 0.01);
}

TEST(Registry, GaugesAndStatsLifecycle) {
  Registry registry;
  EXPECT_EQ(registry.Gauge("x"), std::nullopt);
  registry.SetGauge("x", 3.0);
  EXPECT_DOUBLE_EQ(*registry.Gauge("x"), 3.0);

  registry.Observe("y", 1.0);
  registry.Observe("y", 3.0);
  EXPECT_DOUBLE_EQ(registry.Stats("y")->mean(), 2.0);

  registry.Remove("x");
  EXPECT_EQ(registry.Gauge("x"), std::nullopt);
  EXPECT_EQ(registry.GaugeNames().size(), 0u);
  EXPECT_EQ(registry.StatsNames().size(), 1u);
}

class MonitorTest : public ::testing::Test {
 protected:
  void RunPipeline() {
    std::vector<int> payloads;
    for (int i = 0; i < 100; ++i) payloads.push_back(i);
    auto& source = graph_.Add<VectorSource<int>>(
        VectorSource<int>::Points(std::move(payloads)));
    auto pred = [](int v) { return v % 4 == 0; };
    auto& filter = graph_.Add<algebra::Filter<int, decltype(pred)>>(pred);
    filter_ = &filter;
    auto& sink = graph_.Add<CountingSink<int>>();
    source.AddSubscriber(filter.input());
    filter.AddSubscriber(sink.input());

    monitor_.Watch(*filter_,
                   {MetricKind::kInputRate, MetricKind::kOutputRate,
                    MetricKind::kSelectivity, MetricKind::kSubscriberCount});

    scheduler::RoundRobinStrategy strategy;
    scheduler::PipeExecutor driver(graph_, strategy, /*batch_size=*/25);
    while (driver.Step()) {
      monitor_.Sample();
    }
    monitor_.Sample();
  }

  QueryGraph graph_;
  Node* filter_ = nullptr;
  Monitor monitor_;
};

TEST_F(MonitorTest, DerivesRatesAndSelectivity) {
  RunPipeline();
  EXPECT_NEAR(*filter_->metadata().Gauge("selectivity"), 0.25, 0.01);
  EXPECT_DOUBLE_EQ(*filter_->metadata().Gauge("subscriber_count"), 1.0);
  // Rates observed across samples must average to (total / samples).
  auto stats = filter_->metadata().Stats("input_rate.stats");
  ASSERT_TRUE(stats.has_value());
  EXPECT_GT(stats->mean(), 0.0);
  EXPECT_NEAR(stats->mean() * static_cast<double>(stats->count()), 100.0,
              1.0);
}

TEST_F(MonitorTest, CsvContainsWatchedMetrics) {
  RunPipeline();
  std::ostringstream out;
  Monitor::WriteCsvHeader(out);
  monitor_.WriteCsv(out);
  const std::string csv = out.str();
  EXPECT_NE(csv.find("selectivity"), std::string::npos);
  EXPECT_NE(csv.find("input_rate"), std::string::npos);
  EXPECT_NE(csv.find("filter"), std::string::npos);
}

TEST_F(MonitorTest, RuntimeRecomposition) {
  RunPipeline();
  ASSERT_TRUE(monitor_.RemoveMetric(*filter_, MetricKind::kSelectivity).ok());
  EXPECT_EQ(filter_->metadata().Gauge("selectivity"), std::nullopt);
  ASSERT_TRUE(monitor_.AddMetric(*filter_, MetricKind::kQueueSize).ok());
  monitor_.Sample();
  EXPECT_DOUBLE_EQ(*filter_->metadata().Gauge("queue_size"), 0.0);
}

TEST_F(MonitorTest, UnwatchRemovesGauges) {
  RunPipeline();
  monitor_.Unwatch(*filter_);
  EXPECT_EQ(filter_->metadata().Gauge("selectivity"), std::nullopt);
  // Unknown node errors are reported.
  EXPECT_EQ(monitor_.AddMetric(*filter_, MetricKind::kQueueSize).code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace pipes::metadata
