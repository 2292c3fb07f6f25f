// E5 at serving scale — multi-tenant register/cancel storms through the
// `pipes::Engine` facade and its TCP front end.
//
// Claim under test: because registration grafts onto the shared live graph
// (multi-query optimization) and cancellation removes only the unshared
// suffix, a storm of overlapping continuous queries keeps the operator
// count ~flat — O(1) extra operators per query (its private result sink) —
// while the unshared baseline grows linearly. Registration stays cheap at
// ≥1000 live queries, and none of it quiesces the stream.
//
// Benchmarks:
//   BM_RegisterCancelStorm/N      N engine-level register+cancel pairs per
//     (shared|unshared)           iteration; counters expose operators
//                                 created/reused and peak graph size.
//   BM_ChurnWhileStreaming/N      same churn with tuples flowing and the
//                                 executor pumping between registrations —
//                                 the cancel-never-quiesces path.
//   BM_ServerRegisterStorm/N      the storm through a real loopback client
//                                 (framing, socket round-trips, tenant
//                                 bookkeeping included). Skips when the
//                                 sandbox refuses listeners.
//   BM_ServerPushToFetch          freshness on an idle server: one row
//                                 pushed once the pump has gone idle, FETCH
//                                 spun until it is visible. Manual time, so
//                                 items/s = 1 / latency; p50_us and p99_us
//                                 are counters.

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <benchmark/benchmark.h>

#include "src/engine/engine.h"
#include "src/server/client.h"
#include "src/server/server.h"

namespace {

using namespace pipes;  // NOLINT
using relational::Schema;
using relational::Tuple;
using relational::Value;
using relational::ValueType;

Schema TradesSchema() {
  return Schema({{"symbol", ValueType::kInt},
                 {"price", ValueType::kDouble}});
}

// A family of overlapping queries: identical scan/window/filter, varying
// aggregate tail — the E5 sharing workload.
std::string QueryText(int i) {
  static const char* kTails[] = {
      "MAX(price) AS v", "MIN(price) AS v", "AVG(price) AS v",
      "SUM(price) AS v", "COUNT(*) AS v"};
  return std::string("SELECT symbol, ") + kTails[i % 5] +
         " FROM trades [RANGE 10 SECONDS SLIDE 1 SECONDS] WHERE price > 25 "
         "GROUP BY symbol";
}

void RunStorm(benchmark::State& state, bool sharing) {
  const int num_queries = static_cast<int>(state.range(0));
  std::size_t created = 0;
  std::size_t reused = 0;
  std::size_t peak_nodes = 0;
  for (auto _ : state) {
    engine::EngineOptions options;
    options.sharing = sharing;
    engine::Engine engine(options);
    auto writer = engine.AddStream("trades", TradesSchema(), 100.0);
    PIPES_CHECK(writer.ok());

    std::vector<engine::QueryHandle> handles;
    handles.reserve(static_cast<std::size_t>(num_queries));
    for (int q = 0; q < num_queries; ++q) {
      auto handle = engine.Register(QueryText(q),
                                    {.tenant = "t" + std::to_string(q % 8)});
      PIPES_CHECK_MSG(handle.ok(), handle.status().ToString().c_str());
      handles.push_back(*handle);
    }
    const engine::EngineStats stats = engine.stats();
    created = stats.operators_created;
    reused = stats.operators_reused;
    peak_nodes = stats.graph_nodes;
    for (auto& handle : handles) {
      PIPES_CHECK(handle.Cancel().ok());
    }
    benchmark::DoNotOptimize(engine.stats().graph_nodes);
  }
  state.counters["operators"] =
      benchmark::Counter(static_cast<double>(created));
  state.counters["operators_reused"] =
      benchmark::Counter(static_cast<double>(reused));
  state.counters["peak_graph_nodes"] =
      benchmark::Counter(static_cast<double>(peak_nodes));
  // One "item" = one register or cancel round-trip through the engine.
  state.SetItemsProcessed(state.iterations() * num_queries * 2);
}

void BM_RegisterCancelStormShared(benchmark::State& state) {
  RunStorm(state, true);
}
void BM_RegisterCancelStormUnshared(benchmark::State& state) {
  RunStorm(state, false);
}

// Churn with data in flight: a resident query must keep its stream exact
// while others come and go around it.
void BM_ChurnWhileStreaming(benchmark::State& state) {
  const int churn = static_cast<int>(state.range(0));
  std::uint64_t resident_results = 0;
  for (auto _ : state) {
    engine::Engine engine;
    auto writer = engine.AddStream("trades", TradesSchema(), 100.0);
    PIPES_CHECK(writer.ok());
    auto resident = engine.Register(QueryText(0));
    PIPES_CHECK(resident.ok());

    Timestamp now = 0;
    for (int q = 0; q < churn; ++q) {
      auto handle = engine.Register(QueryText(q % 5));
      PIPES_CHECK(handle.ok());
      for (int i = 0; i < 20; ++i) {
        PIPES_CHECK(writer
                        ->Push(Tuple{Value(static_cast<std::int64_t>(i % 4)),
                                     Value(30.0 + i)},
                               now)
                        .ok());
        now += 100;
      }
      engine.Pump(256);
      PIPES_CHECK(handle->Cancel().ok());
    }
    PIPES_CHECK(writer->Close().ok());
    engine.RunToCompletion();
    resident_results = resident->results_delivered();
    benchmark::DoNotOptimize(resident_results);
  }
  state.counters["resident_results"] =
      benchmark::Counter(static_cast<double>(resident_results));
  state.SetItemsProcessed(state.iterations() * churn * 2);
}

// The same storm through a real client connection: socket round-trips,
// framing, per-tenant bookkeeping, server-side handle tables.
void BM_ServerRegisterStorm(benchmark::State& state) {
  const int num_queries = static_cast<int>(state.range(0));

  engine::Engine engine;
  auto writer = engine.AddStream("trades", TradesSchema(), 100.0);
  PIPES_CHECK(writer.ok());
  server::PipesServer server(engine);
  if (!server.Start().ok()) {
    state.SkipWithError("no loopback sockets in this environment");
    return;
  }
  auto client = server::Client::Connect("127.0.0.1", server.port(), "bench");
  if (!client.ok()) {
    server.Stop();
    state.SkipWithError("loopback connect failed");
    return;
  }

  for (auto _ : state) {
    std::vector<std::uint64_t> ids;
    ids.reserve(static_cast<std::size_t>(num_queries));
    for (int q = 0; q < num_queries; ++q) {
      auto registered = client->Register(QueryText(q));
      PIPES_CHECK_MSG(registered.ok(),
                      registered.status().ToString().c_str());
      ids.push_back(registered->query_id);
    }
    for (const std::uint64_t id : ids) {
      PIPES_CHECK(client->Cancel(id).ok());
    }
  }
  state.counters["operators"] = benchmark::Counter(
      static_cast<double>(engine.stats().operators_created));
  state.SetItemsProcessed(state.iterations() * num_queries * 2);

  client->Close();
  server.Stop();
}

// The time from a push into an idle server to the FETCH that first returns
// the row: one filter query, one row per iteration. Before each push the
// bench sleeps 200 us (untimed), long enough for the pump to find the
// graph idle.
void BM_ServerPushToFetch(benchmark::State& state) {
  engine::Engine engine;
  auto writer = engine.AddStream("trades", TradesSchema(), 100.0);
  PIPES_CHECK(writer.ok());
  server::PipesServer server(engine);
  if (!server.Start().ok()) {
    state.SkipWithError("no loopback sockets in this environment");
    return;
  }
  auto client = server::Client::Connect("127.0.0.1", server.port(), "bench");
  if (!client.ok()) {
    server.Stop();
    state.SkipWithError("loopback connect failed");
    return;
  }
  auto query =
      client->Register("SELECT symbol, price FROM trades WHERE price > 0");
  PIPES_CHECK_MSG(query.ok(), query.status().ToString().c_str());

  std::vector<double> latencies_us;
  Timestamp t = 0;
  for (auto _ : state) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    const auto start = std::chrono::steady_clock::now();
    PIPES_CHECK(writer
                    ->Push(Tuple{Value(static_cast<std::int64_t>(t % 4)),
                                 Value(30.0)},
                           t)
                    .ok());
    std::size_t rows = 0;
    while (rows == 0) {
      auto fetched = client->Fetch(query->query_id, 16);
      PIPES_CHECK(fetched.ok());
      rows = fetched->size();
    }
    const std::chrono::duration<double> took =
        std::chrono::steady_clock::now() - start;
    state.SetIterationTime(took.count());
    latencies_us.push_back(took.count() * 1e6);
    benchmark::DoNotOptimize(rows);
    ++t;
  }
  std::sort(latencies_us.begin(), latencies_us.end());
  const auto quantile = [&](double q) {
    if (latencies_us.empty()) return 0.0;
    return latencies_us[static_cast<std::size_t>(
        q * static_cast<double>(latencies_us.size() - 1))];
  };
  state.counters["p50_us"] = benchmark::Counter(quantile(0.50));
  state.counters["p99_us"] = benchmark::Counter(quantile(0.99));
  state.SetItemsProcessed(state.iterations());

  client->Close();
  server.Stop();
}

}  // namespace

// The shared storm must stay flat out past a thousand live queries; the
// unshared baseline is capped where its linear growth already shows.
BENCHMARK(BM_RegisterCancelStormShared)->Arg(16)->Arg(256)->Arg(1024);
BENCHMARK(BM_RegisterCancelStormUnshared)->Arg(16)->Arg(64);
BENCHMARK(BM_ChurnWhileStreaming)->Arg(16)->Arg(64);
BENCHMARK(BM_ServerRegisterStorm)->Arg(16)->Arg(256);
BENCHMARK(BM_ServerPushToFetch)->UseManualTime()->Unit(benchmark::kMicrosecond);
