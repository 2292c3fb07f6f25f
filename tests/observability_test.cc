// Tests for the runtime observability layer: hot-path counters and the
// MetricsSnapshot walker, JSON/DOT exporters and the round-trip parser, the
// trace ring, the latency histogram, the scheduler profiler — and the two
// contracts everything else rests on: metrics never perturb the dataflow
// output, and capturing a snapshot is safe while a ThreadScheduler runs
// (this file is part of the TSAN CI job).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/algebra/filter.h"
#include "src/algebra/map.h"
#include "src/algebra/union.h"
#include "src/core/buffer.h"
#include "src/core/generator_source.h"
#include "src/core/graph.h"
#include "src/core/metrics.h"
#include "src/core/sink.h"
#include "src/core/trace.h"
#include "src/memory/memory_manager.h"
#include "src/metadata/snapshot.h"
#include "src/scheduler/profiler.h"
#include "src/scheduler/scheduler.h"

namespace pipes {
namespace {

std::vector<StreamElement<int>> MakeInput(int n) {
  std::vector<StreamElement<int>> input;
  input.reserve(n);
  for (int i = 0; i < n; ++i) {
    input.push_back(StreamElement<int>::Point(i, i));
  }
  return input;
}

struct DropEveryFourth {
  bool operator()(int v) const { return v % 4 != 0; }
};
struct Negate {
  int operator()(int v) const { return -v; }
};

/// Restores global observability switches on scope exit so tests do not
/// leak state into each other.
struct ObservabilityGuard {
  ~ObservabilityGuard() {
    obs::SetMetricsEnabled(false);
    trace::SetEnabled(false);
    trace::SetSamplePeriod(1024);
    trace::GlobalRing().Clear();
  }
};

// --- Counters and CaptureSnapshot ------------------------------------------

TEST(ObservabilityTest, CountersAndSelectivity) {
  QueryGraph graph;
  auto& source =
      graph.Add<VectorSource<int>>(MakeInput(1000), "source", /*batch=*/64);
  auto& filter =
      graph.Add<algebra::Filter<int, DropEveryFourth>>(DropEveryFourth{},
                                                       "filter");
  auto& sink = graph.Add<CollectorSink<int>>("sink");
  source.AddSubscriber(filter.input());
  filter.AddSubscriber(sink.input());

  scheduler::RoundRobinStrategy strategy;
  scheduler::PipeExecutor driver(graph, strategy);
  driver.RunToCompletion();

  EXPECT_EQ(source.elements_out(), 1000u);
  EXPECT_EQ(filter.elements_in(), 1000u);
  EXPECT_EQ(filter.elements_out(), 750u);
  EXPECT_EQ(sink.elements_in(), 750u);
  // Batched path: 64-element trains -> ceil(1000/64) batches.
  EXPECT_EQ(source.batches_out(), 16u);
  EXPECT_EQ(filter.batches_in(), 16u);

  const metadata::MetricsSnapshot snap = metadata::CaptureSnapshot(graph);
  const metadata::NodeSnapshot* fs = snap.FindNode("filter");
  ASSERT_NE(fs, nullptr);
  EXPECT_DOUBLE_EQ(fs->selectivity, 0.75);
  EXPECT_EQ(fs->subscribers, 1u);
  // Every node saw the final watermark, so nothing lags.
  for (const metadata::NodeSnapshot& n : snap.nodes) {
    if (n.has_progress) {
      EXPECT_EQ(n.watermark_lag, 0);
    }
  }
  EXPECT_EQ(snap.edges.size(), 2u);
}

TEST(ObservabilityTest, ProgressTracksWatermarks) {
  QueryGraph graph;
  auto& source = graph.Add<VectorSource<int>>(MakeInput(100), "source");
  auto& sink = graph.Add<CollectorSink<int>>("sink");
  source.AddSubscriber(sink.input());

  // Produce half of the input: progress reflects the last transfer.
  while (source.elements_out() < 50) source.DoWork(1);
  const metadata::MetricsSnapshot snap = metadata::CaptureSnapshot(graph);
  const metadata::NodeSnapshot* ss = snap.FindNode("source");
  ASSERT_NE(ss, nullptr);
  EXPECT_TRUE(ss->has_progress);
  EXPECT_EQ(ss->progress, 49);
  EXPECT_EQ(snap.high_watermark, 49);
}

// --- The no-perturbation contract ------------------------------------------

std::vector<StreamElement<int>> RunChainCollect() {
  QueryGraph graph;
  auto& source =
      graph.Add<VectorSource<int>>(MakeInput(5000), "source", /*batch=*/32);
  auto& filter = graph.Add<algebra::Filter<int, DropEveryFourth>>(
      DropEveryFourth{}, "filter");
  auto& map = graph.Add<algebra::Map<int, int, Negate>>(Negate{}, "map");
  auto& buffer = graph.Add<Buffer<int>>();
  auto& sink = graph.Add<CollectorSink<int>>("sink");
  source.AddSubscriber(filter.input());
  filter.AddSubscriber(map.input());
  map.AddSubscriber(buffer.input());
  buffer.AddSubscriber(sink.input());

  scheduler::RoundRobinStrategy strategy;
  scheduler::PipeExecutor driver(graph, strategy);
  driver.RunToCompletion();
  return sink.elements();
}

TEST(ObservabilityTest, MetricsAndTracingNeverPerturbOutput) {
  ObservabilityGuard guard;
  obs::SetMetricsEnabled(false);
  trace::SetEnabled(false);
  const std::vector<StreamElement<int>> baseline = RunChainCollect();

  obs::SetMetricsEnabled(true);
  trace::SetEnabled(true);
  trace::SetSamplePeriod(1);  // trace every element — worst case
  const std::vector<StreamElement<int>> observed = RunChainCollect();

  EXPECT_EQ(baseline, observed);
}

// --- Latency histogram ------------------------------------------------------

TEST(LatencyHistogramTest, BucketBoundaries) {
  // Bucket 0 holds everything below 256 ns.
  EXPECT_EQ(obs::LatencyHistogram::BucketIndex(0), 0u);
  EXPECT_EQ(obs::LatencyHistogram::BucketIndex(255), 0u);
  EXPECT_EQ(obs::LatencyHistogram::BucketIndex(256), 1u);
  EXPECT_EQ(obs::LatencyHistogram::BucketIndex(511), 1u);
  EXPECT_EQ(obs::LatencyHistogram::BucketIndex(512), 2u);
  // Everything huge lands in the last bucket.
  EXPECT_EQ(obs::LatencyHistogram::BucketIndex(std::uint64_t{1} << 60),
            obs::LatencyHistogram::kBuckets - 1);
}

TEST(LatencyHistogramTest, RecordAndSnapshot) {
  obs::LatencyHistogram hist;
  hist.Record(100);
  hist.Record(300);
  hist.Record(300);
  const obs::HistogramSnapshot snap = hist.Snapshot();
  EXPECT_EQ(snap.count, 3u);
  EXPECT_EQ(snap.sum_ns, 700u);
  EXPECT_EQ(snap.buckets[0], 1u);
  EXPECT_EQ(snap.buckets[1], 2u);
  EXPECT_DOUBLE_EQ(snap.MeanNs(), 700.0 / 3.0);
}

TEST(ObservabilityTest, SampledLatencyHistogramRecordsWhenEnabled) {
  ObservabilityGuard guard;
  obs::SetMetricsEnabled(true);
  QueryGraph graph;
  auto& source = graph.Add<VectorSource<int>>(MakeInput(1000), "source");
  auto& sink = graph.Add<CollectorSink<int>>("sink");
  source.AddSubscriber(sink.input());
  scheduler::RoundRobinStrategy strategy;
  // Trains of one: every element is its own delivery.
  scheduler::PipeExecutor driver(graph, strategy, /*batch_size=*/1);
  driver.RunToCompletion();
  // 1000 deliveries at a 1-in-16 sample rate.
  EXPECT_GE(sink.service_histogram().count(), 1000u / obs::kLatencySamplePeriod);
}

// --- Trace ring -------------------------------------------------------------

TEST(TraceRingTest, RecordsAndSnapshots) {
  trace::TraceRing ring(8);
  EXPECT_EQ(ring.capacity(), 8u);
  ring.Record(1, 10, trace::Hop::kEmit);
  ring.Record(2, 10, trace::Hop::kReceive);
  const std::vector<trace::Event> events = ring.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].node_id, 1u);
  EXPECT_EQ(events[0].hop, trace::Hop::kEmit);
  EXPECT_EQ(events[1].node_id, 2u);
  // Hops of one element are ordered by the monotonic clock.
  EXPECT_LE(events[0].steady_ns, events[1].steady_ns);
}

TEST(TraceRingTest, WrapsWithoutGrowing) {
  trace::TraceRing ring(4);
  for (int i = 0; i < 100; ++i) {
    ring.Record(static_cast<std::uint64_t>(i), i, trace::Hop::kEmit);
  }
  EXPECT_EQ(ring.recorded(), 100u);
  const std::vector<trace::Event> events = ring.Snapshot();
  EXPECT_LE(events.size(), 4u);
  for (const trace::Event& e : events) {
    EXPECT_GE(e.node_id, 96u);  // only the newest survive
  }
}

// Two writers race a reader over a small ring. Each event's fields are
// derived from its node id, so a torn copy shows as a mismatch; under TSAN
// the publication protocol itself is checked.
TEST(TraceRingTest, ConcurrentSnapshotsNeverTear) {
  trace::TraceRing ring(16);
  std::atomic<bool> stop{false};
  auto write = [&](std::uint64_t first) {
    for (std::uint64_t id = first; !stop.load(std::memory_order_relaxed);
         id += 2) {
      ring.Record(id, static_cast<Timestamp>(3 * id + 1),
                  id % 2 == 0 ? trace::Hop::kEmit : trace::Hop::kReceive);
    }
  };
  std::thread even(write, 0);
  std::thread odd(write, 1);
  while (ring.recorded() < 1000) std::this_thread::yield();
  std::size_t seen = 0;
  std::size_t torn = 0;
  for (int round = 0; round < 2000; ++round) {
    for (const trace::Event& e : ring.Snapshot()) {
      ++seen;
      const trace::Hop hop =
          e.node_id % 2 == 0 ? trace::Hop::kEmit : trace::Hop::kReceive;
      if (e.element_start != static_cast<Timestamp>(3 * e.node_id + 1) ||
          e.hop != hop) {
        ++torn;
      }
    }
  }
  stop.store(true);
  even.join();
  odd.join();
  EXPECT_GT(seen, 0u);
  EXPECT_EQ(torn, 0u);
}

TEST(TraceRingTest, EndToEndJourney) {
  ObservabilityGuard guard;
  trace::SetEnabled(true);
  trace::SetSamplePeriod(64);
  trace::GlobalRing().Clear();

  QueryGraph graph;
  auto& source =
      graph.Add<VectorSource<int>>(MakeInput(256), "source", /*batch=*/16);
  auto& map = graph.Add<algebra::Map<int, int, Negate>>(Negate{}, "map");
  auto& sink = graph.Add<CollectorSink<int>>("sink");
  source.AddSubscriber(map.input());
  map.AddSubscriber(sink.input());
  scheduler::RoundRobinStrategy strategy;
  scheduler::PipeExecutor driver(graph, strategy);
  driver.RunToCompletion();

  // Element with start 64 is sampled: emitted by source and map, received
  // by map's and sink's ports — 4 hops, in clock order.
  std::vector<trace::Event> journey;
  for (const trace::Event& e : trace::GlobalRing().Snapshot()) {
    if (e.element_start == 64) journey.push_back(e);
  }
  // Single-threaded run: the ring preserves record order, and the
  // monotonic timestamps agree with it.
  ASSERT_EQ(journey.size(), 4u);
  for (std::size_t i = 1; i < journey.size(); ++i) {
    EXPECT_LE(journey[i - 1].steady_ns, journey[i].steady_ns);
  }
  EXPECT_EQ(journey[0].node_id, source.id());
  EXPECT_EQ(journey[0].hop, trace::Hop::kEmit);
  EXPECT_EQ(journey[1].node_id, map.id());
  EXPECT_EQ(journey[1].hop, trace::Hop::kReceive);
  EXPECT_EQ(journey[2].node_id, map.id());
  EXPECT_EQ(journey[2].hop, trace::Hop::kEmit);
  EXPECT_EQ(journey[3].node_id, sink.id());
  EXPECT_EQ(journey[3].hop, trace::Hop::kReceive);
}

// --- Scheduler profiler -----------------------------------------------------

TEST(ProfilerTest, AgreesWithRunStats) {
  QueryGraph graph;
  auto& source =
      graph.Add<VectorSource<int>>(MakeInput(2000), "source", /*batch=*/32);
  auto& buffer = graph.Add<Buffer<int>>();
  auto& sink = graph.Add<CollectorSink<int>>("sink");
  source.AddSubscriber(buffer.input());
  buffer.AddSubscriber(sink.input());

  scheduler::RoundRobinStrategy strategy;
  scheduler::PipeExecutor driver(graph, strategy, /*batch_size=*/64);
  scheduler::Profiler profiler;
  driver.set_profiler(&profiler);
  const scheduler::RunStats stats = driver.RunToCompletion();

  EXPECT_EQ(profiler.decisions(), stats.iterations);
  EXPECT_EQ(profiler.total_units(), stats.units);
  const scheduler::NodeProfile sp = profiler.ForNode(source);
  EXPECT_GT(sp.quanta, 0u);
  EXPECT_EQ(sp.node_name, "source");
  EXPECT_GE(sp.max_service_ns, 1u);
  EXPECT_GT(sp.MeanTrainLength(), 1.0);  // 64-unit quanta, not singletons
  EXPECT_FALSE(profiler.Summary().empty());
}

TEST(ProfilerTest, MergeAccumulates) {
  QueryGraph graph;
  auto& source = graph.Add<VectorSource<int>>(MakeInput(10), "source");
  scheduler::Profiler a;
  scheduler::Profiler b;
  a.RecordQuantum(source, 2, 10, 100);
  b.RecordQuantum(source, 4, 30, 50);
  a.Merge(b);
  EXPECT_EQ(a.decisions(), 2u);
  EXPECT_EQ(a.total_units(), 40u);
  const scheduler::NodeProfile p = a.ForNode(source);
  EXPECT_EQ(p.quanta, 2u);
  EXPECT_EQ(p.units, 40u);
  EXPECT_EQ(p.service_ns, 150u);
  EXPECT_EQ(p.max_service_ns, 100u);
  EXPECT_EQ(p.candidates_sum, 6u);
}

// --- Exporters --------------------------------------------------------------

/// Two queries sharing a filtered subplan — the multi-query shape the
/// exporters must represent (one node, several subscribers).
void BuildSharedPlan(QueryGraph& graph, memory::MemoryManager* manager) {
  auto& source =
      graph.Add<VectorSource<int>>(MakeInput(512), "source", /*batch=*/16);
  auto& filter = graph.Add<algebra::Filter<int, DropEveryFourth>>(
      DropEveryFourth{}, "shared-filter");
  auto& map = graph.Add<algebra::Map<int, int, Negate>>(Negate{}, "q1-map");
  auto& sink1 = graph.Add<CollectorSink<int>>("q1-sink");
  auto& sink2 = graph.Add<CollectorSink<int>>("q2-sink");
  source.AddSubscriber(filter.input());
  filter.AddSubscriber(map.input());   // query 1
  filter.AddSubscriber(sink2.input());  // query 2 taps the shared subplan
  map.AddSubscriber(sink1.input());
  (void)manager;
}

TEST(SnapshotExportTest, JsonRoundTripsMultiQueryGraph) {
  ObservabilityGuard guard;
  obs::SetMetricsEnabled(true);

  QueryGraph graph;
  memory::MemoryManager manager(1 << 20,
                                std::make_unique<memory::UniformStrategy>());
  BuildSharedPlan(graph, &manager);
  scheduler::RoundRobinStrategy strategy;
  scheduler::PipeExecutor driver(graph, strategy);
  scheduler::Profiler profiler;
  driver.set_profiler(&profiler);
  driver.RunToCompletion();

  metadata::CaptureOptions options;
  options.memory_manager = &manager;
  options.profiler = &profiler;
  const metadata::MetricsSnapshot snap =
      metadata::CaptureSnapshot(graph, options);
  ASSERT_EQ(snap.nodes.size(), 5u);
  ASSERT_EQ(snap.edges.size(), 4u);
  EXPECT_TRUE(snap.memory.present);

  const std::string json = metadata::ToJson(snap);
  const Result<metadata::MetricsSnapshot> parsed =
      metadata::SnapshotFromJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_EQ(parsed.value(), snap);
  // Round-tripping the reparsed snapshot is also lossless (fixed point).
  EXPECT_EQ(metadata::ToJson(parsed.value()), json);
}

TEST(SnapshotExportTest, JsonParserRejectsGarbage) {
  EXPECT_FALSE(metadata::SnapshotFromJson("").ok());
  EXPECT_FALSE(metadata::SnapshotFromJson("{\"nodes\":").ok());
  EXPECT_FALSE(metadata::SnapshotFromJson("{\"bogus\":1}").ok());
  EXPECT_FALSE(metadata::SnapshotFromJson("{} trailing").ok());
}

TEST(SnapshotExportTest, DotCarriesOverlay) {
  QueryGraph graph;
  BuildSharedPlan(graph, nullptr);
  scheduler::RoundRobinStrategy strategy;
  scheduler::PipeExecutor driver(graph, strategy);
  driver.RunToCompletion();

  const metadata::MetricsSnapshot snap = metadata::CaptureSnapshot(graph);
  const std::string dot = metadata::ToDot(snap);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("shared-filter"), std::string::npos);
  // The shared filter's 0.75 selectivity is printed on its outgoing edges.
  EXPECT_NE(dot.find("sel 0.75"), std::string::npos);
  // All four subscription edges are present.
  std::size_t arrows = 0;
  for (std::size_t pos = dot.find(" -> "); pos != std::string::npos;
       pos = dot.find(" -> ", pos + 1)) {
    ++arrows;
  }
  EXPECT_EQ(arrows, 4u);

  // Rate mode: with a previous snapshot, edges carry el/s labels.
  metadata::SnapshotOptions rate;
  rate.previous = &snap;
  rate.elapsed_seconds = 1.0;
  const std::string rate_dot = metadata::ToDot(snap, rate);
  EXPECT_NE(rate_dot.find("el/s"), std::string::npos);
}

// --- Concurrent capture (exercised under TSAN in CI) ------------------------

TEST(ObservabilityTest, SnapshotWhileThreadSchedulerRuns) {
  ObservabilityGuard guard;
  obs::SetMetricsEnabled(true);

  QueryGraph graph;
  auto& source =
      graph.Add<VectorSource<int>>(MakeInput(50'000), "source", /*batch=*/32);
  auto& buffer = graph.Add<ConcurrentBuffer<int>>();
  auto& map = graph.Add<algebra::Map<int, int, Negate>>(Negate{}, "map");
  auto& sink = graph.Add<CountingSink<int>>("sink");
  source.AddSubscriber(buffer.input());
  buffer.AddSubscriber(map.input());
  map.AddSubscriber(sink.input());

  scheduler::ThreadScheduler driver(
      graph, /*num_threads=*/2,
      [] { return std::make_unique<scheduler::RoundRobinStrategy>(); });
  scheduler::Profiler profiler;
  driver.set_profiler(&profiler);

  std::atomic<bool> done{false};
  std::thread runner([&] {
    driver.RunToCompletion();
    done.store(true, std::memory_order_release);
  });

  // Capture continuously while the graph drains; every counter must be
  // monotone from one capture to the next.
  metadata::MetricsSnapshot prev = metadata::CaptureSnapshot(graph);
  std::uint64_t captures = 0;
  while (!done.load(std::memory_order_acquire)) {
    const metadata::MetricsSnapshot snap = metadata::CaptureSnapshot(graph);
    ++captures;
    for (const metadata::NodeSnapshot& n : snap.nodes) {
      const metadata::NodeSnapshot* p = prev.FindNode(n.id);
      ASSERT_NE(p, nullptr);
      EXPECT_GE(n.elements_in, p->elements_in);
      EXPECT_GE(n.elements_out, p->elements_out);
      EXPECT_GE(n.batches_in, p->batches_in);
      EXPECT_GE(n.service.count, p->service.count);
      if (p->has_progress) {
        EXPECT_TRUE(n.has_progress);
        EXPECT_GE(n.progress, p->progress);
      }
    }
    EXPECT_GE(snap.high_watermark, prev.high_watermark);
    prev = snap;
  }
  runner.join();
  EXPECT_GT(captures, 0u);
  EXPECT_EQ(sink.count(), 50'000u);
  // The merged profile covers the complete run: at least every element that
  // passed through the two scheduled nodes (source and buffer).
  EXPECT_GE(profiler.total_units(), 100'000u);
  EXPECT_GT(profiler.decisions(), 0u);
}

// --- Deterministic mid-run capture (virtual time) ----------------------------
// The single-threaded counterpart of the test above. The thread version
// necessarily races capture points against the scheduler (that is its
// point — TSAN watches the data paths), so *which* intermediate states it
// observes varies run to run. Here the scheduler is stepped explicitly and
// a snapshot is taken every few quanta: same graph, same stride, same
// intermediate states, every time. This is the pattern the fuzz harness
// uses for its mid-run snapshot oracle, and the reason the test suite
// needs no wall-clock sleeps anywhere (see docs/testing.md).

/// Canonical text of one capture: per-node counters keyed by name (node
/// ids are process-global and differ between graph instances).
std::string CanonicalCapture(const metadata::MetricsSnapshot& snap) {
  std::vector<std::string> lines;
  for (const metadata::NodeSnapshot& n : snap.nodes) {
    std::ostringstream line;
    line << n.name << " in=" << n.elements_in << " out=" << n.elements_out
         << " shed=" << n.shed << " queue=" << n.queue_size
         << " progress=" << (n.has_progress ? n.progress : kMinTimestamp);
    lines.push_back(line.str());
  }
  std::sort(lines.begin(), lines.end());
  std::ostringstream out;
  out << "wm=" << snap.high_watermark;
  for (const std::string& line : lines) out << '\n' << line;
  return out.str();
}

std::vector<std::string> StepAndCapture() {
  QueryGraph graph;
  auto& source =
      graph.Add<VectorSource<int>>(MakeInput(2000), "source", /*batch=*/16);
  auto& buffer = graph.Add<Buffer<int>>();
  auto& map = graph.Add<algebra::Map<int, int, Negate>>(Negate{}, "map");
  auto& sink = graph.Add<CountingSink<int>>("sink");
  source.AddSubscriber(buffer.input());
  buffer.AddSubscriber(map.input());
  map.AddSubscriber(sink.input());

  scheduler::RoundRobinStrategy strategy;
  scheduler::PipeExecutor driver(graph, strategy);
  std::vector<std::string> captures;
  int steps = 0;
  while (driver.Step()) {
    if (++steps % 5 == 0) {
      captures.push_back(CanonicalCapture(metadata::CaptureSnapshot(graph)));
    }
  }
  captures.push_back(CanonicalCapture(metadata::CaptureSnapshot(graph)));
  EXPECT_EQ(sink.count(), 2000u);
  return captures;
}

TEST(ObservabilityTest, MidRunCaptureIsDeterministicUnderVirtualTime) {
  const std::vector<std::string> first = StepAndCapture();
  const std::vector<std::string> second = StepAndCapture();
  // Genuinely mid-run: more than just the final quiescent state observed.
  ASSERT_GT(first.size(), 2u);
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace pipes
