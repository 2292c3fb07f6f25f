// Tests for the optimizer's alternative plans: (a) every enumerated
// alternative is snapshot-equivalent when executed — the paper's
// "heuristically produces a set of snapshot-equivalent query plans" — and
// (b) the rate hints from the catalog (refreshable via the metadata
// feedback path) steer the chosen join order.

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/random.h"
#include "src/core/generator_source.h"
#include "src/core/sink.h"
#include "src/cql/analyzer.h"
#include "src/cql/catalog.h"
#include "src/optimizer/optimizer.h"
#include "src/optimizer/physical.h"
#include "src/scheduler/scheduler.h"

namespace pipes::optimizer {
namespace {

using relational::Schema;
using relational::Tuple;
using relational::Value;
using relational::ValueType;

Schema KeyValueSchema() {
  return Schema({{"k", ValueType::kInt}, {"v", ValueType::kInt}});
}

std::vector<StreamElement<Tuple>> MakeStream(std::uint64_t seed, int count,
                                             int key_domain) {
  pipes::Random rng(seed);
  std::vector<StreamElement<Tuple>> out;
  for (int i = 0; i < count; ++i) {
    out.push_back(StreamElement<Tuple>::Point(
        Tuple{Value(static_cast<std::int64_t>(rng.NextBounded(
                  static_cast<std::uint64_t>(key_domain)))),
              Value(static_cast<std::int64_t>(i))},
        i * 10));
  }
  return out;
}

/// Executes `plan` against fresh sources and returns the sorted payloads.
std::vector<Tuple> Execute(const LogicalPlan& plan,
                           const std::vector<StreamElement<Tuple>>& a,
                           const std::vector<StreamElement<Tuple>>& b,
                           const std::vector<StreamElement<Tuple>>& c) {
  QueryGraph graph;
  auto& sa = graph.Add<VectorSource<Tuple>>(a, "a");
  auto& sb = graph.Add<VectorSource<Tuple>>(b, "b");
  auto& sc = graph.Add<VectorSource<Tuple>>(c, "c");
  cql::Catalog catalog;
  PIPES_CHECK(catalog.RegisterStream("a", KeyValueSchema(), &sa).ok());
  PIPES_CHECK(catalog.RegisterStream("b", KeyValueSchema(), &sb).ok());
  PIPES_CHECK(catalog.RegisterStream("c", KeyValueSchema(), &sc).ok());

  PhysicalBuilder builder(&graph, &catalog);
  auto output = builder.Build(plan);
  PIPES_CHECK_MSG(output.ok(), output.status().ToString().c_str());
  auto& sink = graph.Add<CollectorSink<Tuple>>();
  (*output)->AddSubscriber(sink.input());
  scheduler::RoundRobinStrategy strategy;
  scheduler::PipeExecutor driver(graph, strategy);
  driver.RunToCompletion();

  std::vector<Tuple> payloads;
  for (const auto& e : sink.elements()) payloads.push_back(e.payload);
  std::sort(payloads.begin(), payloads.end());
  return payloads;
}

TEST(Alternatives, AllJoinOrdersProduceTheSameResults) {
  const auto a = MakeStream(1, 60, 6);
  const auto b = MakeStream(2, 60, 6);
  const auto c = MakeStream(3, 60, 6);

  cql::Catalog catalog;
  ASSERT_TRUE(catalog.RegisterStream("a", KeyValueSchema()).ok());
  ASSERT_TRUE(catalog.RegisterStream("b", KeyValueSchema()).ok());
  ASSERT_TRUE(catalog.RegisterStream("c", KeyValueSchema()).ok());
  auto plan = cql::Compile(
      "SELECT a.v, b.v, c.v FROM a [RANGE 1 SECONDS], b [RANGE 1 SECONDS], "
      "c [RANGE 1 SECONDS] WHERE a.k = b.k AND b.k = c.k",
      catalog);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  Optimizer optimizer(&catalog);
  const auto alternatives = optimizer.EnumerateAlternatives(plan->plan);
  ASSERT_GE(alternatives.size(), 3u);

  const auto reference = Execute(alternatives[0], a, b, c);
  ASSERT_FALSE(reference.empty());
  for (std::size_t i = 1; i < alternatives.size(); ++i) {
    EXPECT_EQ(Execute(alternatives[i], a, b, c), reference)
        << "alternative " << i << ":\n"
        << alternatives[i]->ToString();
  }
}

TEST(Alternatives, RateHintsSteerTheJoinOrder) {
  cql::Catalog catalog;
  ASSERT_TRUE(
      catalog.RegisterStream("a", KeyValueSchema(), nullptr, 10.0).ok());
  ASSERT_TRUE(
      catalog.RegisterStream("b", KeyValueSchema(), nullptr, 10.0).ok());
  ASSERT_TRUE(
      catalog.RegisterStream("c", KeyValueSchema(), nullptr, 5000.0).ok());

  // Key chain a-b-c: any two adjacent streams can join first, so the cost
  // model is free to push the fattest stream to the top of the chain.
  const char* query =
      "SELECT a.v FROM a [RANGE 1 SECONDS], c [RANGE 1 SECONDS], b [RANGE "
      "1 SECONDS] WHERE a.k = b.k AND b.k = c.k";
  auto plan = cql::Compile(query, catalog);
  ASSERT_TRUE(plan.ok());

  Optimizer optimizer(&catalog);
  auto result = optimizer.Optimize(plan->plan);
  // The fat stream 'c' must not be joined first: the chosen plan joins the
  // two cheap streams (a, b) at the bottom.
  const std::string signature = result.plan->Signature();
  const std::size_t a_pos = signature.find("Scan[a");
  const std::size_t b_pos = signature.find("Scan[b");
  const std::size_t c_pos = signature.find("Scan[c");
  ASSERT_NE(a_pos, std::string::npos);
  ASSERT_NE(b_pos, std::string::npos);
  ASSERT_NE(c_pos, std::string::npos);
  // Left-deep chains nest as Join(Join(x, y), z): the last-joined stream
  // appears rightmost. 'c' must be the outermost (rightmost) scan.
  EXPECT_GT(c_pos, a_pos);
  EXPECT_GT(c_pos, b_pos);

  // Adaptive feedback: making 'a' the fat stream flips the order.
  ASSERT_TRUE(catalog.SetRateHint("a", 5000.0).ok());
  ASSERT_TRUE(catalog.SetRateHint("c", 10.0).ok());
  auto adapted = optimizer.Optimize(plan->plan);
  const std::string adapted_signature = adapted.plan->Signature();
  EXPECT_GT(adapted_signature.find("Scan[a"),
            adapted_signature.find("Scan[c"));
  EXPECT_NE(signature, adapted_signature);
}

TEST(Alternatives, UnknownRateHintFails) {
  cql::Catalog catalog;
  EXPECT_EQ(catalog.SetRateHint("nope", 1.0).code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace pipes::optimizer
