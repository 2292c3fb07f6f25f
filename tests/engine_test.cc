// Tests for the `pipes::engine::Engine` facade: register/cancel churn with
// shared prefixes (the E5 flat-operator-count property), cancel-during-flow
// correctness against a single-query reference run (multiset-exact),
// admission control (reject and queue policies), per-tenant isolation of
// snapshots and counters, concurrent registration (exercised under TSAN in
// the sanitizer CI job), pushes that wait for Pump but never for the
// engine lock, the graft boundary of queued writes, the inlet's bounded
// and visible backlog, pushed intervals the algebra cannot hold, and query
// text that must fail Register without touching the graph.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <limits>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "src/core/generator_source.h"
#include "src/core/pipeline.h"
#include "src/engine/engine.h"

namespace pipes::engine {
namespace {

using relational::Schema;
using relational::Tuple;
using relational::Value;
using relational::ValueType;

Schema TradesSchema() {
  return Schema({{"symbol", ValueType::kInt},
                 {"price", ValueType::kDouble}});
}

constexpr const char* kAvgQuery =
    "SELECT symbol, AVG(price) AS avg_price FROM trades "
    "[RANGE 1 SECONDS SLIDE 1 SECONDS] WHERE price > 10 GROUP BY symbol";
constexpr const char* kMaxQuery =
    "SELECT symbol, MAX(price) AS high FROM trades "
    "[RANGE 1 SECONDS SLIDE 1 SECONDS] WHERE price > 10 GROUP BY symbol";
constexpr const char* kCountQuery =
    "SELECT symbol, COUNT(*) AS n FROM trades "
    "[RANGE 1 SECONDS SLIDE 1 SECONDS] WHERE price > 10 GROUP BY symbol";

/// Pushes `n` deterministic trades starting at `t0` (100ms apart).
void PushTrades(StreamWriter& writer, int n, Timestamp t0) {
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(writer
                    .Push(Tuple{Value(static_cast<std::int64_t>(i % 3)),
                                Value(20.0 + i)},
                          t0 + i * 100)
                    .ok());
  }
}

/// Canonical multiset form of a result stream: sorted (start, end, text).
std::vector<std::tuple<Timestamp, Timestamp, std::string>> Canonical(
    const std::vector<QueryHandle::Element>& elements) {
  std::vector<std::tuple<Timestamp, Timestamp, std::string>> out;
  out.reserve(elements.size());
  for (const auto& e : elements) {
    out.emplace_back(e.start(), e.end(), e.payload.ToString());
  }
  std::sort(out.begin(), out.end());
  return out;
}

class EngineTest : public ::testing::Test {
 protected:
  Result<StreamWriter> AddTrades(Engine& engine) {
    return engine.AddStream("trades", TradesSchema(), /*rate_hint=*/10.0);
  }
};

// --- E5: churn keeps the shared graph flat ---------------------------------

TEST_F(EngineTest, RegisterCancelChurnKeepsOperatorCountFlat) {
  Engine engine;
  auto writer = AddTrades(engine);
  ASSERT_TRUE(writer.ok());

  const char* queries[] = {kAvgQuery, kMaxQuery, kCountQuery};

  // First wave instantiates everything once.
  std::vector<QueryHandle> wave;
  for (const char* q : queries) {
    auto handle = engine.Register(q);
    ASSERT_TRUE(handle.ok()) << handle.status().ToString();
    wave.push_back(*handle);
  }
  const std::size_t settled_nodes = engine.stats().graph_nodes;
  const std::size_t created_once = engine.stats().operators_created;
  EXPECT_GT(created_once, 0u);

  // Churn: five waves of duplicate registrations and cancellations. Every
  // operator already exists, so the graph must not grow and the plan
  // manager must only ever reuse.
  for (int round = 0; round < 5; ++round) {
    std::vector<QueryHandle> extra;
    for (const char* q : queries) {
      auto handle = engine.Register(q);
      ASSERT_TRUE(handle.ok()) << handle.status().ToString();
      extra.push_back(*handle);
    }
    EXPECT_EQ(engine.stats().operators_created, created_once)
        << "round " << round << " instantiated new operators for a fully "
        << "shared workload";
    EXPECT_EQ(engine.stats().graph_nodes, settled_nodes + extra.size())
        << "only per-query result sinks may be added";
    for (auto& handle : extra) {
      EXPECT_TRUE(handle.Cancel().ok());
    }
    EXPECT_EQ(engine.stats().graph_nodes, settled_nodes);
  }
  EXPECT_GT(engine.stats().operators_reused, 0u);

  // The original wave still works after all that churn.
  PushTrades(*writer, 40, 0);
  ASSERT_TRUE(writer->Close().ok());
  engine.RunToCompletion();
  for (auto& handle : wave) {
    EXPECT_GT(handle.results_delivered(), 0u) << handle.id();
  }
}

// --- Cancel during flow: surviving query is exact --------------------------

TEST_F(EngineTest, CancelDuringFlowLeavesSurvivorExact) {
  // Run A: two overlapping queries; the MAX query is cancelled mid-stream.
  Engine engine;
  auto writer = AddTrades(engine);
  ASSERT_TRUE(writer.ok());

  auto keep = engine.Register(kAvgQuery);
  ASSERT_TRUE(keep.ok());
  auto victim = engine.Register(kMaxQuery);
  ASSERT_TRUE(victim.ok());

  PushTrades(*writer, 30, 0);
  engine.Pump(10);  // partial progress: elements in flight
  ASSERT_TRUE(victim->Cancel().ok());
  EXPECT_EQ(victim->state(), QueryState::kCancelled);
  PushTrades(*writer, 30, 3000);
  ASSERT_TRUE(writer->Close().ok());
  engine.RunToCompletion();
  const auto survivor_results = Canonical(keep->Poll());
  ASSERT_FALSE(survivor_results.empty());

  // Run B: the reference — the surviving query alone over the same input.
  Engine reference;
  auto ref_writer = AddTrades(reference);
  ASSERT_TRUE(ref_writer.ok());
  auto ref_handle = reference.Register(kAvgQuery);
  ASSERT_TRUE(ref_handle.ok());
  PushTrades(*ref_writer, 30, 0);
  PushTrades(*ref_writer, 30, 3000);
  ASSERT_TRUE(ref_writer->Close().ok());
  reference.RunToCompletion();

  // Multiset-exact: cancelling the overlapping query must not add, drop,
  // or alter a single element of the survivor's output.
  EXPECT_EQ(survivor_results, Canonical(ref_handle->Poll()));
}

TEST_F(EngineTest, CancelledQueryStopsDeliveringButSurvivorFlows) {
  Engine engine;
  auto writer = AddTrades(engine);
  ASSERT_TRUE(writer.ok());
  auto keep = engine.Register(kAvgQuery);
  auto victim = engine.Register(kMaxQuery);
  ASSERT_TRUE(keep.ok() && victim.ok());

  PushTrades(*writer, 30, 0);
  engine.RunToCompletion();
  const std::uint64_t victim_results = victim->results_delivered();
  EXPECT_GT(victim_results, 0u);

  ASSERT_TRUE(engine.Cancel(victim->id()).ok());
  PushTrades(*writer, 30, 10'000);
  ASSERT_TRUE(writer->Close().ok());
  engine.RunToCompletion();

  EXPECT_EQ(victim->results_delivered(), victim_results)
      << "cancelled query kept producing";
  EXPECT_TRUE(victim->Poll().empty());
  EXPECT_GT(keep->results_delivered(), 0u);

  // Double-cancel is an error, as is cancelling an unknown id.
  EXPECT_FALSE(victim->Cancel().ok());
  EXPECT_FALSE(engine.Cancel(99'999).ok());
}

// --- Admission control ------------------------------------------------------

TEST_F(EngineTest, RejectPolicyFailsOverQuota) {
  EngineOptions options;
  options.max_total_queries = 2;
  Engine engine(options);
  auto writer = AddTrades(engine);
  ASSERT_TRUE(writer.ok());

  ASSERT_TRUE(engine.Register(kAvgQuery).ok());
  ASSERT_TRUE(engine.Register(kMaxQuery).ok());
  auto rejected = engine.Register(kCountQuery);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(engine.stats().rejected_queries, 1u);
  EXPECT_EQ(engine.tenant_counters("default").rejected, 1u);

  // Capacity freed by a cancel is usable again.
  ASSERT_TRUE(engine.Cancel(1).ok());
  EXPECT_TRUE(engine.Register(kCountQuery).ok());
}

TEST_F(EngineTest, PerTenantQuotaIsIndependent) {
  EngineOptions options;
  options.max_queries_per_tenant = 1;
  Engine engine(options);
  auto writer = AddTrades(engine);
  ASSERT_TRUE(writer.ok());

  ASSERT_TRUE(engine.Register(kAvgQuery, {.tenant = "a"}).ok());
  auto over = engine.Register(kMaxQuery, {.tenant = "a"});
  EXPECT_EQ(over.status().code(), StatusCode::kResourceExhausted);
  // A different tenant still fits.
  EXPECT_TRUE(engine.Register(kMaxQuery, {.tenant = "b"}).ok());
}

TEST_F(EngineTest, QueuePolicyAdmitsWhenCapacityFrees) {
  EngineOptions options;
  options.max_total_queries = 1;
  options.admission = AdmissionPolicy::kQueue;
  Engine engine(options);
  auto writer = AddTrades(engine);
  ASSERT_TRUE(writer.ok());

  auto first = engine.Register(kAvgQuery);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->state(), QueryState::kRunning);

  auto parked = engine.Register(kMaxQuery);
  ASSERT_TRUE(parked.ok());
  EXPECT_EQ(parked->state(), QueryState::kQueued);
  EXPECT_EQ(engine.stats().queued_queries, 1u);

  // Cancelling the running query admits the parked one FIFO.
  ASSERT_TRUE(first->Cancel().ok());
  EXPECT_EQ(parked->state(), QueryState::kRunning);
  EXPECT_EQ(engine.stats().queued_queries, 0u);

  // A queued query can also be cancelled before it ever runs.
  auto parked2 = engine.Register(kCountQuery);
  ASSERT_TRUE(parked2.ok());
  EXPECT_EQ(parked2->state(), QueryState::kQueued);
  ASSERT_TRUE(parked2->Cancel().ok());
  EXPECT_EQ(parked2->state(), QueryState::kCancelled);
}

TEST_F(EngineTest, MemoryBudgetGatesAdmission) {
  EngineOptions options;
  options.memory_budget_bytes = 1;  // Anything with state is over budget.
  Engine engine(options);
  auto writer = AddTrades(engine);
  ASSERT_TRUE(writer.ok());

  auto first = engine.Register(kAvgQuery);
  ASSERT_TRUE(first.ok()) << "an empty engine must admit its first query";

  // Accumulate window state, then try to admit another query.
  PushTrades(*writer, 30, 0);
  engine.Pump(1024);
  auto second = engine.Register(kMaxQuery);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kResourceExhausted);
}

// --- Certificate-gated admission --------------------------------------------

// Identical shape to kAvgQuery but a 60x window: the static certificate
// must scale with the window extent, so this query certifies far more
// state than its 1-second twin.
constexpr const char* kBigWindowQuery =
    "SELECT symbol, AVG(price) AS avg_price FROM trades "
    "[RANGE 60 SECONDS SLIDE 60 SECONDS] WHERE price > 10 GROUP BY symbol";

/// The `dataflow.cert_ram_bytes` gauge stamped on a query's result sink,
/// or -2 when no node carries it.
double CertRamGauge(const metadata::MetricsSnapshot& snap) {
  for (const auto& node : snap.nodes) {
    for (const auto& [name, value] : node.gauges) {
      if (name == "dataflow.cert_ram_bytes") return value;
    }
  }
  return -2.0;
}

TEST_F(EngineTest, CertificateGatesAdmissionStatically) {
  // Probe run (no budget): read both queries' certified RAM bounds off
  // their result-sink gauges so the gated budget below self-calibrates.
  double small_cert = 0.0, big_cert = 0.0;
  {
    EngineOptions options;
    options.certify_admission = true;
    Engine probe(options);
    auto writer = AddTrades(probe);
    ASSERT_TRUE(writer.ok());
    auto small = probe.Register(kAvgQuery);
    ASSERT_TRUE(small.ok()) << small.status().ToString();
    auto big = probe.Register(kBigWindowQuery);
    ASSERT_TRUE(big.ok()) << big.status().ToString();
    auto small_snap = small->Snapshot();
    auto big_snap = big->Snapshot();
    ASSERT_TRUE(small_snap.ok() && big_snap.ok());
    small_cert = CertRamGauge(*small_snap);
    big_cert = CertRamGauge(*big_snap);
    ASSERT_GT(small_cert, 0.0) << "certificate gauge missing from snapshot";
    ASSERT_GT(big_cert, small_cert)
        << "a 60x window must certify more state than its 1s twin";
  }

  // Gated run: a budget between the two certificates admits the small
  // query and statically rejects the big one before any element flows —
  // the runtime usage at registration time is zero in both cases, so only
  // the certificate can tell them apart.
  EngineOptions options;
  options.certify_admission = true;
  options.memory_budget_bytes =
      static_cast<std::size_t>((small_cert + big_cert) / 2);
  Engine engine(options);
  auto writer = AddTrades(engine);
  ASSERT_TRUE(writer.ok());
  auto small = engine.Register(kAvgQuery);
  ASSERT_TRUE(small.ok()) << small.status().ToString();
  auto big = engine.Register(kBigWindowQuery);
  ASSERT_FALSE(big.ok());
  EXPECT_EQ(big.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(big.status().ToString().find(
                "state certificate exceeds remaining memory budget"),
            std::string::npos)
      << big.status().ToString();
  EXPECT_EQ(engine.stats().rejected_queries, 1u);
}

TEST_F(EngineTest, QueuedCertificateAdmitsWhenHeadroomFrees) {
  // Calibrate the big query's certificate on a throwaway engine.
  double big_cert = 0.0;
  {
    EngineOptions options;
    options.certify_admission = true;
    Engine probe(options);
    auto writer = AddTrades(probe);
    ASSERT_TRUE(writer.ok());
    auto big = probe.Register(kBigWindowQuery);
    ASSERT_TRUE(big.ok()) << big.status().ToString();
    auto snap = big->Snapshot();
    ASSERT_TRUE(snap.ok());
    big_cert = CertRamGauge(*snap);
    ASSERT_GT(big_cert, 0.0);
  }

  // Budget fits the big certificate only when the engine is idle. A small
  // running query whose accumulated state eats into the headroom parks
  // the big registration; cancelling the state-holder re-admits it.
  EngineOptions options;
  options.certify_admission = true;
  options.admission = AdmissionPolicy::kQueue;
  options.memory_budget_bytes = static_cast<std::size_t>(big_cert) + 1000;
  Engine engine(options);
  auto writer = AddTrades(engine);
  ASSERT_TRUE(writer.ok());

  auto small = engine.Register(kAvgQuery);
  ASSERT_TRUE(small.ok()) << small.status().ToString();
  // A dense burst inside one window, spread over many groups: nothing is
  // purgeable yet, so the aggregate holds live per-group state well above
  // the 1000-byte slack in the budget.
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(writer
                    ->Push(Tuple{Value(static_cast<std::int64_t>(i % 50)),
                                 Value(20.0 + i)},
                           i)
                    .ok());
  }
  engine.Pump(4096);

  auto big = engine.Register(kBigWindowQuery);
  ASSERT_TRUE(big.ok()) << big.status().ToString();
  EXPECT_EQ(big->state(), QueryState::kQueued)
      << "accumulated state must shrink the headroom below the certificate";

  ASSERT_TRUE(small->Cancel().ok());
  EXPECT_EQ(big->state(), QueryState::kRunning)
      << "freed headroom must re-admit the queued certificate";
}

// --- Stream writer contract -------------------------------------------------

TEST_F(EngineTest, StreamWriterValidatesOrderAndClose) {
  Engine engine;
  auto writer = AddTrades(engine);
  ASSERT_TRUE(writer.ok());

  ASSERT_TRUE(writer->Push(Tuple{Value(std::int64_t{1}), Value(2.0)}, 500).ok());
  // Time must not run backwards on an inlet.
  auto out_of_order =
      writer->Push(Tuple{Value(std::int64_t{1}), Value(2.0)}, 400);
  EXPECT_EQ(out_of_order.code(), StatusCode::kInvalidArgument);

  ASSERT_TRUE(writer->Close().ok());
  auto after_close =
      writer->Push(Tuple{Value(std::int64_t{1}), Value(2.0)}, 600);
  EXPECT_EQ(after_close.code(), StatusCode::kFailedPrecondition);

  // Duplicate stream names are rejected.
  EXPECT_FALSE(engine.AddStream("trades", TradesSchema()).ok());
}

// TimeInterval checks start < end only where DCHECKs are on; the writer
// refuses empty and inverted intervals, and the point at the last timestamp
// (whose end would overflow), in every build. The bad elements get their
// ends assigned after construction so the test also runs in Debug.
TEST_F(EngineTest, PushRejectsEmptyAndInvertedIntervals) {
  Engine engine;
  auto writer = AddTrades(engine);
  ASSERT_TRUE(writer.ok());
  auto where = engine.Register("SELECT symbol, price FROM trades WHERE price > 0");
  ASSERT_TRUE(where.ok()) << where.status().ToString();
  auto grouped = engine.Register(
      "SELECT symbol, COUNT(*) AS n FROM trades [NOW] GROUP BY symbol");
  ASSERT_TRUE(grouped.ok()) << grouped.status().ToString();
  const std::size_t nodes = engine.stats().graph_nodes;

  StreamElement<Tuple> inverted(Tuple{Value(std::int64_t{1}), Value(6.0)}, 30,
                                31);
  inverted.interval.end = 25;
  StreamElement<Tuple> empty(Tuple{Value(std::int64_t{2}), Value(7.0)}, 40,
                             41);
  empty.interval.end = 40;
  for (const StreamElement<Tuple>* bad : {&inverted, &empty}) {
    const Status status = writer->Push(*bad);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << status.ToString();
    EXPECT_NE(status.message().find("'trades'"), std::string::npos)
        << status.ToString();
    EXPECT_NE(status.message().find(
                  "[" + std::to_string(bad->start()) + ", " +
                  std::to_string(bad->end()) + ")"),
              std::string::npos)
        << status.ToString();
  }
  const Status at_end =
      writer->Push(Tuple{Value(std::int64_t{3}), Value(8.0)}, kMaxTimestamp);
  EXPECT_EQ(at_end.code(), StatusCode::kInvalidArgument) << at_end.ToString();
  EXPECT_NE(at_end.message().find("'trades'"), std::string::npos);
  EXPECT_NE(at_end.message().find(std::to_string(kMaxTimestamp)),
            std::string::npos);

  ASSERT_TRUE(writer->Push(Tuple{Value(std::int64_t{4}), Value(9.0)}, 50).ok());
  ASSERT_TRUE(writer->Close().ok());
  engine.Pump();

  const std::vector<QueryHandle::Element> rows = where->Poll();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].payload.ToString(), (Tuple{Value(std::int64_t{4}),
                                               Value(9.0)}.ToString()));
  EXPECT_EQ(rows[0].start(), 50);
  EXPECT_EQ(rows[0].end(), 51);
  const std::vector<QueryHandle::Element> counts = grouped->Poll();
  ASSERT_EQ(counts.size(), 1u);
  EXPECT_EQ(counts[0].payload.ToString(),
            (Tuple{Value(std::int64_t{4}), Value(std::int64_t{1})}.ToString()));
  EXPECT_EQ(counts[0].start(), 50);
  EXPECT_EQ(counts[0].end(), 51);
  EXPECT_EQ(engine.stats().graph_nodes, nodes);
}

// --- One delivery path -------------------------------------------------------

TEST_F(EngineTest, PushAfterRegisterWaitsForPump) {
  Engine engine;
  auto writer = AddTrades(engine);
  ASSERT_TRUE(writer.ok());
  auto handle = engine.Register("SELECT symbol, price FROM trades");
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  int callbacks = 0;
  ASSERT_TRUE(
      handle->OnResult([&](const QueryHandle::Element&) { ++callbacks; }).ok());

  // Register suspended the executor; the push is staged and only Pump
  // delivers it.
  PushTrades(*writer, 1, 0);
  EXPECT_EQ(callbacks, 0);
  EXPECT_EQ(handle->results_delivered(), 0u);

  engine.Pump();
  EXPECT_EQ(callbacks, 1);
  EXPECT_EQ(handle->results_delivered(), 1u);
}

// --- Ingest off the engine lock ---------------------------------------------

// A pump that holds the engine lock, its result callback blocked on a
// latch, must not hold up writers: 1 000 pushes (under the inlet's queue
// bound), heartbeats and Close all return while the callback still blocks.
// The deadline turns a writer that waits for the lock into a failure
// instead of a hang.
TEST_F(EngineTest, WritersDoNotWaitForPump) {
  Engine engine;
  auto writer = AddTrades(engine);
  ASSERT_TRUE(writer.ok());
  auto handle = engine.Register("SELECT symbol, price FROM trades");
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();

  std::mutex latch_mu;
  std::condition_variable latch_cv;
  bool entered = false;
  bool released = false;
  std::vector<Timestamp> starts;  // Written by the callback only.
  ASSERT_TRUE(handle
                  ->OnResult([&](const QueryHandle::Element& e) {
                    starts.push_back(e.start());
                    std::unique_lock<std::mutex> lock(latch_mu);
                    entered = true;
                    latch_cv.notify_all();
                    latch_cv.wait(lock, [&] { return released; });
                  })
                  .ok());

  PushTrades(*writer, 1, 0);
  std::thread pump([&] { engine.Pump(); });
  {
    std::unique_lock<std::mutex> lock(latch_mu);
    latch_cv.wait(lock, [&] { return entered; });
  }

  constexpr int kRows = 1000;
  std::atomic<bool> wrote{false};
  std::atomic<int> failures{0};
  std::thread feeder([&] {
    for (int i = 1; i <= kRows; ++i) {
      if (!writer->Push(Tuple{Value(std::int64_t{i % 3}), Value(1.0 * i)},
                        i * 10)
               .ok()) {
        ++failures;
      }
      if (i % 100 == 0 && !writer->Heartbeat(i * 10 + 5).ok()) ++failures;
    }
    if (!writer->Close().ok()) ++failures;
    wrote.store(true);
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!wrote.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const bool wrote_while_pump_held_lock = wrote.load();
  {
    std::lock_guard<std::mutex> lock(latch_mu);
    released = true;
  }
  latch_cv.notify_all();
  feeder.join();
  pump.join();
  EXPECT_TRUE(wrote_while_pump_held_lock)
      << "writers waited for the engine lock the pump held";
  EXPECT_EQ(failures.load(), 0);

  engine.RunToCompletion();
  ASSERT_EQ(starts.size(), static_cast<std::size_t>(kRows) + 1);
  for (std::size_t i = 0; i < starts.size(); ++i) {
    EXPECT_EQ(starts[i], static_cast<Timestamp>(i) * 10) << i;
  }
}

// Every graft is a boundary for queued writes, with no pump in between: a
// query sees exactly the rows accepted after its Register, a cancelled
// query counts the rows accepted before its Cancel, and rows still queued
// when the engine goes reach a callback subscriber.
TEST_F(EngineTest, GraftSeesOnlyRowsAcceptedBeforeOrAfterIt) {
  constexpr int kN = 40;
  constexpr int kM = 25;
  constexpr int kK = 15;
  Engine engine;
  auto writer = AddTrades(engine);
  ASSERT_TRUE(writer.ok());
  auto q1 = engine.Register("SELECT symbol, price FROM trades");
  ASSERT_TRUE(q1.ok()) << q1.status().ToString();
  PushTrades(*writer, kN, 0);
  auto q2 =
      engine.Register("SELECT symbol, price FROM trades WHERE price > 0");
  ASSERT_TRUE(q2.ok()) << q2.status().ToString();
  PushTrades(*writer, kM, kN * 100);
  engine.RunToCompletion();
  EXPECT_EQ(q1->results_delivered(), static_cast<std::uint64_t>(kN + kM));
  EXPECT_EQ(q2->results_delivered(), static_cast<std::uint64_t>(kM));
  const std::vector<QueryHandle::Element> late = q2->Poll();
  ASSERT_EQ(late.size(), static_cast<std::size_t>(kM));
  EXPECT_EQ(late.front().start(), kN * 100);

  PushTrades(*writer, kK, (kN + kM) * 100);
  ASSERT_TRUE(q1->Cancel().ok());
  EXPECT_EQ(q1->results_delivered(),
            static_cast<std::uint64_t>(kN + kM + kK));
  EXPECT_EQ(q2->results_delivered(), static_cast<std::uint64_t>(kM + kK));

  std::vector<Timestamp> delivered;
  {
    Engine closing;
    auto closing_writer = AddTrades(closing);
    ASSERT_TRUE(closing_writer.ok());
    auto handle = closing.Register("SELECT symbol, price FROM trades");
    ASSERT_TRUE(handle.ok()) << handle.status().ToString();
    ASSERT_TRUE(handle
                    ->OnResult([&](const QueryHandle::Element& e) {
                      delivered.push_back(e.start());
                    })
                    .ok());
    PushTrades(*closing_writer, kK, 0);
    EXPECT_TRUE(delivered.empty());
  }
  ASSERT_EQ(delivered.size(), static_cast<std::size_t>(kK));
  EXPECT_EQ(delivered.back(), (kK - 1) * 100);
}

/// `n` trades at `step` ms spacing, symbols cycling through `symbols`.
std::vector<StreamElement<Tuple>> TradeRows(int n, Timestamp step,
                                            int symbols) {
  std::vector<StreamElement<Tuple>> rows;
  rows.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    rows.push_back(StreamElement<Tuple>::Point(
        Tuple{Value(static_cast<std::int64_t>(i % symbols)),
              Value(static_cast<double>(i % 100))},
        i * step));
  }
  return rows;
}

/// Registers `queries` on `engine`, runs it to completion, and returns each
/// query's results in canonical order.
std::vector<std::vector<std::tuple<Timestamp, Timestamp, std::string>>>
ReferenceResults(const std::vector<std::string>& queries,
                 const std::vector<std::pair<std::string,
                                             std::vector<StreamElement<Tuple>>>>&
                     streams) {
  Engine reference;
  for (const auto& [name, rows] : streams) {
    auto& source = reference.graph().Add<VectorSource<Tuple>>(rows, name, 64);
    EXPECT_TRUE(reference.BindStream(name, TradesSchema(), source).ok());
  }
  std::vector<QueryHandle> handles;
  for (const std::string& q : queries) {
    auto handle = reference.Register(q);
    EXPECT_TRUE(handle.ok()) << handle.status().ToString();
    if (handle.ok()) handles.push_back(*handle);
  }
  reference.RunToCompletion();
  std::vector<std::vector<std::tuple<Timestamp, Timestamp, std::string>>> out;
  for (QueryHandle& handle : handles) out.push_back(Canonical(handle.Poll()));
  return out;
}

// 100 000 rows pushed with no pump: each time the inlet queue passes its
// bound the writer stages the backlog into the pipe itself, so pushing
// everything before pumping never deadlocks. A snapshot shows the rows
// still queued at the inlet, bounded, and counted as engine state.
TEST_F(EngineTest, InletBacklogIsBoundedAndVisible) {
  constexpr int kRows = 100'000;
  const std::vector<std::string> queries = {
      "SELECT symbol, price FROM trades WHERE price > 50", kAvgQuery};
  const std::vector<StreamElement<Tuple>> rows = TradeRows(kRows, 1, 7);

  Engine engine;
  auto writer = AddTrades(engine);
  ASSERT_TRUE(writer.ok());
  std::vector<QueryHandle> handles;
  for (const std::string& q : queries) {
    auto handle = engine.Register(q);
    ASSERT_TRUE(handle.ok()) << handle.status().ToString();
    handles.push_back(*handle);
  }
  for (int i = 0; i < kRows; ++i) {
    ASSERT_TRUE(writer->Push(rows[static_cast<std::size_t>(i)]).ok());
    if (i != kRows / 2) continue;
    const metadata::MetricsSnapshot snap = engine.Snapshot();
    const auto inlet =
        std::find_if(snap.nodes.begin(), snap.nodes.end(),
                     [](const metadata::NodeSnapshot& n) {
                       return n.name == "trades";
                     });
    ASSERT_NE(inlet, snap.nodes.end());
    EXPECT_GT(inlet->queue_size, 0u);
    EXPECT_LE(inlet->queue_size, InletSource::kMaxQueuedUnits);
    EXPECT_GT(inlet->memory_bytes, 0u);
    EXPECT_GE(engine.stats().state_bytes, inlet->memory_bytes);
  }
  ASSERT_TRUE(writer->Close().ok());
  engine.RunToCompletion();

  const auto expected = ReferenceResults(queries, {{"trades", rows}});
  ASSERT_EQ(expected.size(), handles.size());
  for (std::size_t q = 0; q < handles.size(); ++q) {
    const auto got = Canonical(handles[q].Poll());
    EXPECT_FALSE(got.empty()) << queries[q];
    EXPECT_EQ(got, expected[q]) << queries[q];
  }
}

// Two writer threads on two inlets race one pump thread; the results of a
// join across the inlets and a filter on each are multiset-exact against
// the same rows fed from VectorSources. Meaningful under TSAN.
TEST_F(EngineTest, ConcurrentWritersMatchReference) {
  const std::vector<std::string> queries = {
      "SELECT trades.symbol, trades.price, quotes.price AS quote "
      "FROM trades [RANGE 1 SECONDS], quotes [RANGE 1 SECONDS] "
      "WHERE trades.symbol = quotes.symbol",
      "SELECT symbol, price FROM trades WHERE price > 90",
      "SELECT symbol, price FROM quotes WHERE price < 5"};
  const std::vector<StreamElement<Tuple>> trades = TradeRows(20'000, 10, 10);
  const std::vector<StreamElement<Tuple>> quotes = TradeRows(2'000, 100, 10);

  Engine engine;
  auto trades_writer = AddTrades(engine);
  auto quotes_writer = engine.AddStream("quotes", TradesSchema(), 10.0);
  ASSERT_TRUE(trades_writer.ok() && quotes_writer.ok());
  std::vector<QueryHandle> handles;
  for (const std::string& q : queries) {
    auto handle = engine.Register(q);
    ASSERT_TRUE(handle.ok()) << handle.status().ToString();
    handles.push_back(*handle);
  }

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::thread pumper([&] {
    while (!stop.load()) engine.Pump(64);
  });
  auto feed = [&](StreamWriter writer,
                  const std::vector<StreamElement<Tuple>>& rows) {
    for (const StreamElement<Tuple>& row : rows) {
      if (!writer.Push(row).ok()) ++failures;
    }
    if (!writer.Close().ok()) ++failures;
  };
  std::thread trades_feeder(feed, *trades_writer, std::cref(trades));
  std::thread quotes_feeder(feed, *quotes_writer, std::cref(quotes));
  trades_feeder.join();
  quotes_feeder.join();
  stop.store(true);
  pumper.join();
  EXPECT_EQ(failures.load(), 0);
  engine.RunToCompletion();

  const auto expected =
      ReferenceResults(queries, {{"trades", trades}, {"quotes", quotes}});
  ASSERT_EQ(expected.size(), handles.size());
  for (std::size_t q = 0; q < handles.size(); ++q) {
    const auto got = Canonical(handles[q].Poll());
    EXPECT_FALSE(got.empty()) << queries[q];
    EXPECT_EQ(got, expected[q]) << queries[q];
  }
}

// --- Pull mode pages a backlog ----------------------------------------------

// Poll(max_rows) takes the oldest rows and leaves the rest queued: paging
// a backlog 16 rows at a time, with more rows arriving in between, yields
// every row exactly once and in order.
TEST_F(EngineTest, PollPagesTheBacklogInOrder) {
  Engine engine;
  auto writer = AddTrades(engine);
  ASSERT_TRUE(writer.ok());
  auto handle = engine.Register("SELECT symbol, price FROM trades");
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();

  std::vector<QueryHandle::Element> paged;
  const auto take_page = [&] {
    const std::vector<QueryHandle::Element> rows = handle->Poll(16);
    EXPECT_LE(rows.size(), 16u);
    paged.insert(paged.end(), rows.begin(), rows.end());
    return rows.size();
  };
  PushTrades(*writer, 100, 0);
  engine.Pump();
  for (int page = 0; page < 3; ++page) EXPECT_EQ(take_page(), 16u);
  PushTrades(*writer, 100, 100 * 100);
  engine.Pump();
  while (take_page() > 0) {
  }

  ASSERT_EQ(paged.size(), 200u);
  for (std::size_t i = 0; i < paged.size(); ++i) {
    EXPECT_EQ(paged[i].start(), static_cast<Timestamp>(i) * 100) << i;
  }
  EXPECT_EQ(handle->results_delivered(), 200u);
  EXPECT_TRUE(handle->Poll().empty());
}

// --- Windows reaching past the last timestamp -------------------------------

TEST_F(EngineTest, WindowEndsSaturateAtMaxTimestamp) {
  Engine engine;
  auto writer = AddTrades(engine);
  ASSERT_TRUE(writer.ok());
  auto range = engine.Register(
      "SELECT * FROM trades [RANGE 9223372036854775000 MILLISECONDS]");
  ASSERT_TRUE(range.ok()) << range.status().ToString();
  auto slide = engine.Register(
      "SELECT * FROM trades [RANGE 9223372036854775000 MILLISECONDS "
      "SLIDE 1 SECONDS]");
  ASSERT_TRUE(slide.ok()) << slide.status().ToString();

  PushTrades(*writer, 1, /*t0=*/1000);
  engine.Pump();

  for (QueryHandle* handle : {&*range, &*slide}) {
    const std::vector<QueryHandle::Element> rows = handle->Poll();
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].start(), 1000);
    EXPECT_EQ(rows[0].end(), kMaxTimestamp);
  }
}

// --- Client input that must fail Register cleanly ----------------------------

/// Registers `cql` and expects it to fail with `code` without adding a node
/// to the graph; the engine must keep serving afterwards.
void ExpectRegisterFails(const std::string& cql, StatusCode code) {
  Engine engine;
  auto writer = engine.AddStream("trades", TradesSchema(), /*rate_hint=*/10.0);
  ASSERT_TRUE(writer.ok());
  const std::size_t nodes = engine.stats().graph_nodes;

  auto handle = engine.Register(cql);
  ASSERT_FALSE(handle.ok());
  EXPECT_EQ(handle.status().code(), code) << handle.status().ToString();
  EXPECT_EQ(engine.stats().graph_nodes, nodes);
  EXPECT_TRUE(engine.Register(kAvgQuery).ok());
}

TEST_F(EngineTest, ZeroRangeFailsRegister) {
  ExpectRegisterFails("SELECT * FROM trades [RANGE 0 SECONDS]",
                      StatusCode::kInvalidArgument);
}

TEST_F(EngineTest, ZeroSlideFailsRegister) {
  ExpectRegisterFails(
      "SELECT * FROM trades [RANGE 100 MILLISECONDS SLIDE 0 MILLISECONDS]",
      StatusCode::kInvalidArgument);
}

TEST_F(EngineTest, ZeroRowsFailsRegister) {
  ExpectRegisterFails("SELECT * FROM trades [ROWS 0]",
                      StatusCode::kInvalidArgument);
}

TEST_F(EngineTest, ZeroRowsOnSecondJoinInputBuildsNothing) {
  // The valid left input must not be built before the right one fails.
  ExpectRegisterFails(
      "SELECT * FROM trades [RANGE 1 SECONDS] AS a, trades [ROWS 0] AS b "
      "WHERE a.symbol = b.symbol",
      StatusCode::kInvalidArgument);
}

TEST_F(EngineTest, OverflowingRangeFailsRegister) {
  ExpectRegisterFails(
      "SELECT * FROM trades [RANGE 9223372036854775807 MINUTES]",
      StatusCode::kParseError);
}

TEST_F(EngineTest, OutOfRangeIntLiteralFailsRegister) {
  ExpectRegisterFails("SELECT * FROM trades WHERE price > 99999999999999999999",
                      StatusCode::kParseError);
}

TEST_F(EngineTest, OutOfRangeDoubleLiteralFailsRegister) {
  ExpectRegisterFails(
      "SELECT * FROM trades WHERE price > 1" + std::string(400, '0') + ".5",
      StatusCode::kParseError);
}

// --- Integer arithmetic wraps (Java long semantics) --------------------------

/// Registers `SELECT <expr> AS x FROM trades`, pushes one trade with
/// symbol 2, and returns the one INT the query produced.
std::int64_t EvalOnOneTrade(const std::string& expr) {
  Engine engine;
  auto writer =
      engine.AddStream("trades", TradesSchema(), /*rate_hint=*/10.0);
  EXPECT_TRUE(writer.ok());
  auto handle = engine.Register("SELECT " + expr + " AS x FROM trades");
  EXPECT_TRUE(handle.ok()) << handle.status().ToString();
  if (!writer.ok() || !handle.ok()) return 0;
  EXPECT_TRUE(
      writer->Push(Tuple{Value(std::int64_t{2}), Value(10.0)}, 5).ok());
  engine.Pump();
  const std::vector<QueryHandle::Element> rows = handle->Poll();
  EXPECT_EQ(rows.size(), 1u);
  return rows.empty() ? 0 : rows[0].payload.field(0).AsInt();
}

TEST_F(EngineTest, IntegerArithmeticWrapsInsteadOfTrapping) {
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  EXPECT_EQ(EvalOnOneTrade("(-9223372036854775807 - 1) / -1"), kMin);
  EXPECT_EQ(EvalOnOneTrade("(-9223372036854775807 - 1) % -1"), 0);
  EXPECT_EQ(EvalOnOneTrade("symbol * 9223372036854775807"), -2);
  EXPECT_EQ(EvalOnOneTrade("-(-9223372036854775807 - 1)"), kMin);
}

// --- Ill-typed expressions fail Register -------------------------------------

/// Registers `cql` over `people (name STRING, age INT)` and expects
/// InvalidArgument mentioning `culprit`, with the graph untouched.
void ExpectIllTyped(const std::string& cql, const std::string& culprit) {
  Engine engine;
  ASSERT_TRUE(engine
                  .AddStream("people", Schema({{"name", ValueType::kString},
                                               {"age", ValueType::kInt}}))
                  .ok());
  const std::size_t nodes = engine.stats().graph_nodes;
  auto handle = engine.Register(cql);
  ASSERT_FALSE(handle.ok());
  EXPECT_EQ(handle.status().code(), StatusCode::kInvalidArgument)
      << handle.status().ToString();
  EXPECT_NE(handle.status().message().find(culprit), std::string::npos)
      << handle.status().ToString();
  EXPECT_EQ(engine.stats().graph_nodes, nodes);
  // Comparisons keep their results: strings compare with anything.
  EXPECT_TRUE(engine.Register("SELECT * FROM people WHERE name > 1").ok());
}

TEST_F(EngineTest, StringPlusIntFailsRegister) {
  ExpectIllTyped("SELECT name + 1 AS x FROM people", "(people.name + 1)");
}

TEST_F(EngineTest, NegatedStringFailsRegister) {
  ExpectIllTyped("SELECT -name AS x FROM people", "-people.name");
}

TEST_F(EngineTest, NotStringFailsRegister) {
  ExpectIllTyped("SELECT NOT name AS x FROM people", "NOT people.name");
}

TEST_F(EngineTest, StringWherePredicateFailsRegister) {
  ExpectIllTyped("SELECT * FROM people WHERE name", "predicate people.name");
}

TEST_F(EngineTest, SumOfStringFailsRegister) {
  ExpectIllTyped("SELECT SUM(name) AS s FROM people", "SUM(people.name)");
}

TEST_F(EngineTest, AvgOfStringFailsRegister) {
  ExpectIllTyped("SELECT AVG(name) AS a FROM people", "AVG(people.name)");
}

TEST_F(EngineTest, NonPositiveWindowInLogicalPlanIsRejected) {
  Engine engine;
  ASSERT_TRUE(AddTrades(engine).ok());
  const std::size_t nodes = engine.stats().graph_nodes;
  optimizer::WindowSpec rows;
  rows.kind = optimizer::WindowKind::kRows;
  rows.rows = 0;
  auto handle =
      engine.Register(optimizer::ScanOp("trades", TradesSchema(), rows));
  ASSERT_FALSE(handle.ok());
  EXPECT_EQ(handle.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.stats().graph_nodes, nodes);
}

// --- Tenant observability ---------------------------------------------------

TEST_F(EngineTest, TenantSnapshotSeesOnlyOwnOperators) {
  Engine engine;
  auto writer = AddTrades(engine);
  ASSERT_TRUE(writer.ok());

  auto qa = engine.Register(kAvgQuery, {.tenant = "alice"});
  auto qb = engine.Register(kMaxQuery, {.tenant = "bob"});
  ASSERT_TRUE(qa.ok() && qb.ok());

  const auto whole = engine.Snapshot();
  const auto alice = engine.TenantSnapshot("alice");
  const auto nobody = engine.TenantSnapshot("nobody");

  EXPECT_LT(alice.nodes.size(), whole.nodes.size());
  EXPECT_FALSE(alice.nodes.empty());
  EXPECT_TRUE(nobody.nodes.empty());

  // Alice's view covers her whole query but not Bob's aggregate.
  const auto qa_snap = qa->Snapshot();
  ASSERT_TRUE(qa_snap.ok());
  EXPECT_FALSE(qa_snap->nodes.empty());
  for (const auto& node : qa_snap->nodes) {
    EXPECT_NE(nullptr, alice.FindNode(node.id));
  }
  const auto qb_snap = qb->Snapshot();
  ASSERT_TRUE(qb_snap.ok());
  bool bob_has_private_node = false;
  for (const auto& node : qb_snap->nodes) {
    if (alice.FindNode(node.id) == nullptr) bob_has_private_node = true;
  }
  EXPECT_TRUE(bob_has_private_node);

  // Output nodes carry the tenant gauge the lint layer keys on (P019).
  bool gauge_seen = false;
  for (const Node* node : engine.graph().nodes()) {
    for (const auto& name : node->metadata().GaugeNames()) {
      if (name.rfind("engine.registered_output:", 0) == 0) gauge_seen = true;
    }
  }
  EXPECT_TRUE(gauge_seen);
}

TEST_F(EngineTest, CancelAllForTenantOnlyHitsThatTenant) {
  Engine engine;
  auto writer = AddTrades(engine);
  ASSERT_TRUE(writer.ok());

  ASSERT_TRUE(engine.Register(kAvgQuery, {.tenant = "alice"}).ok());
  ASSERT_TRUE(engine.Register(kMaxQuery, {.tenant = "alice"}).ok());
  auto bob = engine.Register(kCountQuery, {.tenant = "bob"});
  ASSERT_TRUE(bob.ok());

  EXPECT_EQ(engine.CancelAllForTenant("alice"), 2u);
  EXPECT_EQ(engine.tenant_counters("alice").live, 0u);
  EXPECT_EQ(engine.tenant_counters("alice").cancelled, 2u);
  EXPECT_EQ(bob->state(), QueryState::kRunning);
  EXPECT_EQ(engine.CancelAllForTenant("alice"), 0u);
}

// --- Pipeline registration --------------------------------------------------

TEST_F(EngineTest, PipelineQueryRegistersAndCancels) {
  Engine engine;
  const std::size_t empty_nodes = engine.stats().graph_nodes;

  Source<Tuple>* built = nullptr;
  auto handle = engine.Register(
      [&](QueryGraph& graph) -> Result<Source<Tuple>*> {
        auto tail =
            dsl::From(graph,
                      graph.Add(std::make_unique<VectorSource<Tuple>>(
                          std::vector<StreamElement<Tuple>>{
                              StreamElement<Tuple>::Point(
                                  Tuple{Value(std::int64_t{1})}, 0),
                              StreamElement<Tuple>::Point(
                                  Tuple{Value(std::int64_t{7})}, 100)},
                          "nums")))
            | dsl::Filter([](const Tuple& t) { return t.field(0).AsInt() > 2; },
                          "gt2");
        built = &tail.source();
        return built;
      });
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  EXPECT_GT(engine.stats().graph_nodes, empty_nodes);

  engine.RunToCompletion();
  const auto results = handle->Poll();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].payload.field(0).AsInt(), 7);

  ASSERT_TRUE(handle->Cancel().ok());
  EXPECT_EQ(handle->state(), QueryState::kCancelled);
}

// --- Concurrency (meaningful under TSAN) ------------------------------------

TEST_F(EngineTest, ConcurrentRegisterCancelPumpIsSafe) {
  Engine engine;
  auto writer = AddTrades(engine);
  ASSERT_TRUE(writer.ok());

  constexpr int kThreads = 4;
  constexpr int kPerThread = 8;
  const char* queries[] = {kAvgQuery, kMaxQuery, kCountQuery};

  std::atomic<bool> stop{false};
  std::thread pumper([&] {
    while (!stop.load()) engine.Pump(64);
  });
  std::thread feeder([&] {
    Timestamp t = 0;
    while (!stop.load()) {
      (void)writer->Push(Tuple{Value(std::int64_t{1}), Value(42.0)}, t);
      t += 100;
    }
  });

  std::vector<std::thread> workers;
  std::atomic<int> failures{0};
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      for (int i = 0; i < kPerThread; ++i) {
        auto handle = engine.Register(queries[(w + i) % 3],
                                      {.tenant = "t" + std::to_string(w)});
        if (!handle.ok()) {
          ++failures;
          continue;
        }
        if (i % 2 == 0 && !handle->Cancel().ok()) ++failures;
      }
    });
  }
  for (auto& worker : workers) worker.join();
  stop.store(true);
  pumper.join();
  feeder.join();

  EXPECT_EQ(failures.load(), 0);
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.total_registered, kThreads * kPerThread);
  EXPECT_EQ(stats.live_queries,
            kThreads * kPerThread - stats.cancelled_queries);
  engine.RunToCompletion();
}

}  // namespace
}  // namespace pipes::engine
