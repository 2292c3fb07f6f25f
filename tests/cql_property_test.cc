// End-to-end CQL property tests: full compiled + optimized + physically
// instantiated queries are checked against the naive snapshot reference on
// randomized tuple streams — the whole stack (parser, analyzer, rules,
// cost model, physical builder, operators, scheduler) must preserve
// snapshot equivalence, not just individual operators.

#include <algorithm>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/random.h"
#include "src/core/generator_source.h"
#include "src/core/sink.h"
#include "src/cql/analyzer.h"
#include "src/cql/catalog.h"
#include "src/optimizer/plan_manager.h"
#include "src/scheduler/scheduler.h"
#include "tests/snapshot_reference.h"

namespace pipes {
namespace {

using relational::Schema;
using relational::Tuple;
using relational::Value;
using relational::ValueType;

class CqlProperty : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  /// Random (key INT, val INT) point-tuple stream.
  std::vector<StreamElement<Tuple>> RandomTuples(std::uint64_t seed,
                                                 int count, int key_domain,
                                                 int val_domain) {
    pipes::Random rng(seed);
    std::vector<StreamElement<Tuple>> out;
    Timestamp t = 0;
    for (int i = 0; i < count; ++i) {
      t += rng.UniformInt(1, 5);
      out.push_back(StreamElement<Tuple>::Point(
          Tuple{Value(static_cast<std::int64_t>(
                    rng.NextBounded(static_cast<std::uint64_t>(key_domain)))),
                Value(static_cast<std::int64_t>(rng.NextBounded(
                    static_cast<std::uint64_t>(val_domain))))},
          t));
    }
    return out;
  }

  /// Installs and runs `query_text` against `input`; returns the collected
  /// result elements.
  std::vector<StreamElement<Tuple>> Run(
      const std::string& query_text,
      const std::vector<StreamElement<Tuple>>& input) {
    QueryGraph graph;
    auto& source = graph.Add<VectorSource<Tuple>>(input, "s");
    cql::Catalog catalog;
    PIPES_CHECK(catalog
                    .RegisterStream("s",
                                    Schema({{"k", ValueType::kInt},
                                            {"v", ValueType::kInt}}),
                                    &source)
                    .ok());
    optimizer::PlanManager manager(&graph, &catalog);
    auto installed = manager.InstallQuery(query_text);
    PIPES_CHECK_MSG(installed.ok(), installed.status().ToString().c_str());
    auto& sink = graph.Add<CollectorSink<Tuple>>();
    installed->output->AddSubscriber(sink.input());
    scheduler::RandomStrategy strategy(GetParam());
    scheduler::PipeExecutor driver(graph, strategy, 1 + GetParam() % 7);
    driver.RunToCompletion();
    return sink.elements();
  }
};

TEST_P(CqlProperty, WindowedGroupCountMatchesReference) {
  const auto input = RandomTuples(GetParam(), 150, 4, 100);
  const Timestamp w = 40;
  const auto actual =
      Run("SELECT k, COUNT(*) AS n FROM s [RANGE 40 MILLISECONDS] GROUP BY "
          "k",
          input);

  // Reference: widen to [t, t+w), then per-instant per-key counts.
  std::vector<StreamElement<Tuple>> windowed;
  for (const auto& e : input) {
    windowed.push_back(StreamElement<Tuple>(e.payload, e.start(),
                                            e.start() + w));
  }
  auto instants = testing::CriticalInstants(windowed);
  for (Timestamp t : instants) {
    std::map<std::int64_t, std::int64_t> counts;
    for (const auto& e : windowed) {
      if (e.interval.Contains(t)) ++counts[e.payload.field(0).AsInt()];
    }
    std::vector<Tuple> expected;
    for (const auto& [k, n] : counts) {
      expected.push_back(Tuple{Value(k), Value(n)});
    }
    std::sort(expected.begin(), expected.end());
    auto snapshot = testing::SnapshotAt(actual, t);
    ASSERT_EQ(snapshot, expected) << "t=" << t;
  }
}

TEST_P(CqlProperty, FilteredSumMatchesReference) {
  const auto input = RandomTuples(GetParam() + 1, 150, 4, 50);
  const Timestamp w = 25;
  const auto actual = Run(
      "SELECT SUM(v) AS total FROM s [RANGE 25 MILLISECONDS] WHERE k <> 0",
      input);

  std::vector<StreamElement<Tuple>> windowed;
  for (const auto& e : input) {
    if (e.payload.field(0).AsInt() == 0) continue;
    windowed.push_back(StreamElement<Tuple>(e.payload, e.start(),
                                            e.start() + w));
  }
  auto instants = testing::CriticalInstants(windowed);
  for (Timestamp t : instants) {
    std::int64_t sum = 0;
    bool any = false;
    for (const auto& e : windowed) {
      if (e.interval.Contains(t)) {
        sum += e.payload.field(1).AsInt();
        any = true;
      }
    }
    std::vector<Tuple> expected;
    if (any) expected.push_back(Tuple{Value(sum)});
    ASSERT_EQ(testing::SnapshotAt(actual, t), expected) << "t=" << t;
  }
}

TEST_P(CqlProperty, DistinctProjectionMatchesReference) {
  const auto input = RandomTuples(GetParam() + 2, 120, 3, 3);
  const Timestamp w = 30;
  const auto actual =
      Run("SELECT DISTINCT k FROM s [RANGE 30 MILLISECONDS]", input);

  std::vector<StreamElement<Tuple>> windowed;
  for (const auto& e : input) {
    windowed.push_back(StreamElement<Tuple>(e.payload, e.start(),
                                            e.start() + w));
  }
  auto instants = testing::CriticalInstants(windowed);
  for (Timestamp t : instants) {
    std::vector<Tuple> expected;
    for (const auto& e : windowed) {
      if (e.interval.Contains(t)) {
        expected.push_back(Tuple{e.payload.field(0)});
      }
    }
    std::sort(expected.begin(), expected.end());
    expected.erase(std::unique(expected.begin(), expected.end()),
                   expected.end());
    ASSERT_EQ(testing::SnapshotAt(actual, t), expected) << "t=" << t;
  }
}

TEST_P(CqlProperty, IStreamEmitsEveryWindowInsertionOnce) {
  const auto input = RandomTuples(GetParam() + 3, 100, 5, 10);
  const auto actual =
      Run("SELECT ISTREAM k FROM s [RANGE 50 MILLISECONDS]", input);
  // One insertion per input element, at its timestamp, as a point element.
  ASSERT_EQ(actual.size(), input.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].start(), input[i].start());
    EXPECT_EQ(actual[i].interval.Length(), 1);
    EXPECT_EQ(actual[i].payload.field(0), input[i].payload.field(0));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CqlProperty,
                         ::testing::Values(101, 211, 331, 443));

}  // namespace
}  // namespace pipes
