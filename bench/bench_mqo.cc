// E5 — Multi-query optimization: sharing subplans across running queries.
//
// Paper claim: the rule-based optimizer extends multi-query optimization
// (Roy et al.) to stream processing — new query plans are probed against
// the running graph and grafted onto matching subplans via
// publish-subscribe, instead of being instantiated from scratch.
//
// Harness: N overlapping continuous queries (same windowed scan + filter,
// different aggregates) installed with sharing enabled vs disabled, then
// executed. Counters: operators instantiated and total tuples processed
// across all operators. Wall time covers execution of the whole graph.
//
// Expected shape: with sharing, operators and tuples grow ~O(1) extra per
// query; without sharing both grow linearly in N, and runtime follows.

#include <string>

#include <benchmark/benchmark.h>

#include "src/common/random.h"
#include "src/core/generator_source.h"
#include "src/core/graph.h"
#include "src/core/sink.h"
#include "src/cql/catalog.h"
#include "src/optimizer/plan_manager.h"
#include "src/scheduler/scheduler.h"

namespace {

using namespace pipes;  // NOLINT
using relational::Schema;
using relational::Tuple;
using relational::Value;
using relational::ValueType;

constexpr int kElements = 20'000;

std::vector<StreamElement<Tuple>> MakeTrades() {
  Random rng(17);
  std::vector<StreamElement<Tuple>> input;
  input.reserve(kElements);
  for (int i = 0; i < kElements; ++i) {
    input.push_back(StreamElement<Tuple>::Point(
        Tuple{Value(static_cast<std::int64_t>(rng.NextBounded(20))),
              Value(rng.UniformDouble(1, 100))},
        i * 10));
  }
  return input;
}

// A family of overlapping queries: identical scan/window/filter, varying
// aggregate / grouping tail.
std::string QueryText(int i) {
  static const char* kTails[] = {
      "MAX(price) AS v", "MIN(price) AS v", "AVG(price) AS v",
      "SUM(price) AS v", "COUNT(*) AS v"};
  return std::string("SELECT symbol, ") + kTails[i % 5] +
         " FROM trades [RANGE 10 SECONDS SLIDE 1 SECONDS] WHERE price > 25 "
         "GROUP BY symbol";
}

void RunMqo(benchmark::State& state, bool sharing) {
  const int num_queries = static_cast<int>(state.range(0));
  const auto input = MakeTrades();
  std::size_t created = 0;
  std::uint64_t tuples = 0;
  for (auto _ : state) {
    QueryGraph graph;
    auto& source = graph.Add<VectorSource<Tuple>>(input, "trades");
    cql::Catalog catalog;
    PIPES_CHECK(catalog
                    .RegisterStream(
                        "trades",
                        Schema({{"symbol", ValueType::kInt},
                                {"price", ValueType::kDouble}}),
                        &source, /*rate_hint=*/100.0)
                    .ok());
    optimizer::PlanManager manager(&graph, &catalog, sharing);
    for (int q = 0; q < num_queries; ++q) {
      auto installed = manager.InstallQuery(QueryText(q));
      PIPES_CHECK_MSG(installed.ok(), installed.status().ToString().c_str());
      auto& sink = graph.Add<CountingSink<Tuple>>();
      installed->output->AddSubscriber(sink.input());
    }
    scheduler::RoundRobinStrategy strategy;
    scheduler::PipeExecutor driver(graph, strategy, 256);
    driver.RunToCompletion();

    created = manager.total_operators_created();
    tuples = 0;
    for (const Node* node : graph.nodes()) tuples += node->elements_in();
    benchmark::DoNotOptimize(tuples);
  }
  state.counters["operators"] =
      benchmark::Counter(static_cast<double>(created));
  state.counters["tuples_processed"] =
      benchmark::Counter(static_cast<double>(tuples));
  state.SetItemsProcessed(state.iterations() * kElements);
}

void BM_SharedQueries(benchmark::State& state) { RunMqo(state, true); }
void BM_UnsharedQueries(benchmark::State& state) { RunMqo(state, false); }

}  // namespace

BENCHMARK(BM_SharedQueries)->Arg(1)->Arg(4)->Arg(16)->Arg(32);
BENCHMARK(BM_UnsharedQueries)->Arg(1)->Arg(4)->Arg(16)->Arg(32);
