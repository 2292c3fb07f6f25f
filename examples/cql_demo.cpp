// CQL front end + optimizer walkthrough: compiles continuous queries,
// shows the raw and optimized logical plans, installs overlapping queries
// through the multi-query plan manager (watch the reuse counters), and
// prints the resulting physical query graph in Graphviz DOT form — the
// text-mode counterpart of the paper's visual plan editor.

#include <cstdio>
#include <optional>

#include "src/core/generator_source.h"
#include "src/common/random.h"
#include "src/core/graph.h"
#include "src/core/sink.h"
#include "src/cql/analyzer.h"
#include "src/cql/catalog.h"
#include "src/optimizer/optimizer.h"
#include "src/optimizer/plan_manager.h"
#include "src/scheduler/scheduler.h"

namespace {

using pipes::relational::Schema;
using pipes::relational::Tuple;
using pipes::relational::Value;
using pipes::relational::ValueType;

}  // namespace

int main() {
  using namespace pipes;  // NOLINT: example brevity

  QueryGraph graph;
  Random rng(3);

  // A synthetic "trades" stream.
  Timestamp now = 0;
  auto& trades = graph.Add<FunctionSource<Tuple>>(
      [&]() -> std::optional<StreamElement<Tuple>> {
        if (now >= 600'000) return std::nullopt;  // 10 minutes
        const Timestamp t = now;
        now += 100;
        return StreamElement<Tuple>::Point(
            Tuple{Value(static_cast<std::int64_t>(rng.NextBounded(5))),
                  Value(rng.UniformDouble(10, 500)),
                  Value(static_cast<std::int64_t>(rng.NextBounded(1000)))},
            t);
      },
      "trades");

  cql::Catalog catalog;
  PIPES_CHECK(catalog
                  .RegisterStream(
                      "trades",
                      Schema({{"symbol", ValueType::kInt},
                              {"price", ValueType::kDouble},
                              {"volume", ValueType::kInt}}),
                      &trades, /*rate_hint=*/10.0)
                  .ok());

  const char* query_text =
      "SELECT symbol, AVG(price) AS vwap, COUNT(*) AS trades "
      "FROM trades [RANGE 1 MINUTES SLIDE 30 SECONDS] "
      "WHERE volume > 100 GROUP BY symbol";

  std::printf("query:\n  %s\n\n", query_text);

  auto plan = cql::Compile(query_text, catalog);
  PIPES_CHECK_MSG(plan.ok(), plan.status().ToString().c_str());
  std::printf("analyzed logical plan:\n%s\n", (plan->plan)->ToString().c_str());

  optimizer::Optimizer optimizer(&catalog);
  auto optimized = optimizer.Optimize(plan->plan);
  std::printf("optimized plan (of %zu alternatives, est. cost %.0f):\n%s\n",
              optimized.alternatives_considered, optimized.cost,
              optimized.plan->ToString().c_str());

  // Install the query plus two overlapping ones: the plan manager shares
  // subplans of the running graph.
  optimizer::PlanManager manager(&graph, &catalog);
  auto q1 = manager.InstallQuery(query_text);
  PIPES_CHECK_MSG(q1.ok(), q1.status().ToString().c_str());
  auto q2 = manager.InstallQuery(
      "SELECT symbol, MAX(price) AS high FROM trades [RANGE 1 MINUTES SLIDE "
      "30 SECONDS] WHERE volume > 100 GROUP BY symbol");
  PIPES_CHECK_MSG(q2.ok(), q2.status().ToString().c_str());
  auto q3 = manager.InstallQuery(query_text);  // identical to q1
  PIPES_CHECK_MSG(q3.ok(), q3.status().ToString().c_str());

  std::printf("q1: created %zu, reused %zu operators\n",
              q1->operators_created, q1->operators_reused);
  std::printf("q2: created %zu, reused %zu operators (shares scan+filter)\n",
              q2->operators_created, q2->operators_reused);
  std::printf("q3: created %zu, reused %zu operators (fully shared)\n\n",
              q3->operators_created, q3->operators_reused);

  auto& vwap_sink = graph.Add<CollectorSink<Tuple>>("vwap-results");
  auto& high_sink = graph.Add<CollectorSink<Tuple>>("high-results");
  q1->output->AddSubscriber(vwap_sink.input());
  q2->output->AddSubscriber(high_sink.input());

  scheduler::RoundRobinStrategy strategy;
  scheduler::PipeExecutor driver(graph, strategy, 1024);
  driver.RunToCompletion();

  std::printf("q1 produced %zu result tuples; first rows:\n",
              vwap_sink.elements().size());
  for (std::size_t i = 0; i < std::min<std::size_t>(5, vwap_sink.elements().size());
       ++i) {
    const auto& e = vwap_sink.elements()[i];
    std::printf("  %s during [%llds, %llds)\n", e.payload.ToString().c_str(),
                static_cast<long long>(e.start() / 1000),
                static_cast<long long>(e.end() / 1000));
  }
  std::printf("q2 produced %zu result tuples\n\n",
              high_sink.elements().size());

  std::printf("physical query graph (graphviz):\n%s\n",
              graph.ToDot().c_str());
  return 0;
}
