// Property tests for keyed data parallelism: a plan replicated through
// `Partition` / `Merge` (src/core/parallel.h, src/algebra/parallel.h,
// dsl::Parallel) must be *element-for-element* equivalent to its
// single-replica form — same multiset of (start, end, payload), with the
// merged output globally start-ordered. Randomized keys, skew, batch sizes
// and scheduling orders stress the split/merge watermark machinery; a
// ThreadScheduler variant drives each replica chain on its own worker
// (exercised under TSan in CI).

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/algebra/aggregate.h"
#include "src/algebra/distinct.h"
#include "src/algebra/join.h"
#include "src/algebra/parallel.h"
#include "src/algebra/union.h"
#include "src/algebra/window.h"
#include "src/core/generator_source.h"
#include "src/core/graph.h"
#include "src/core/parallel.h"
#include "src/core/pipeline.h"
#include "src/core/sink.h"
#include "src/metadata/snapshot.h"
#include "src/scheduler/scheduler.h"
#include "tests/snapshot_reference.h"

namespace pipes {
namespace {

using namespace pipes::algebra;  // NOLINT: test-local convenience
using namespace pipes::testing;  // NOLINT: test-local convenience

// --- Compile-time contract: what may and may not be replicated ------------

struct IdentityKey {
  int operator()(int v) const { return v; }
};
using GroupedCountOp =
    GroupedAggregate<int, CountAgg<int>, IdentityKey, IdentityKey>;

static_assert(KeyPartitionable<GroupedCountOp>::value,
              "grouped aggregation decomposes by key");
static_assert(KeyPartitionable<Distinct<int>>::value,
              "distinct decomposes by payload");
static_assert(KeyPartitionable<PartitionedWindow<int, IdentityKey>>::value,
              "partitioned windows decompose by key");
static_assert(
    !KeyPartitionable<TemporalAggregate<int, SumAgg<int>, IdentityKey>>::value,
    "a scalar aggregate needs every element — replication must be refused");
static_assert(!KeyPartitionable<TimeWindow<int>>::value,
              "windows without keyed state are not in the safe list");
static_assert(!KeyPartitionable<Union<int>>::value,
              "union is not in the safe list");

static_assert(dsl::IsKeyPartitionableSpec<dsl::DistinctSpec>::value);
static_assert(!dsl::IsKeyPartitionableSpec<dsl::TimeWindowSpec>::value);
static_assert(!dsl::IsKeyPartitionableSpec<dsl::CountWindowSpec>::value);

// --- Helpers ---------------------------------------------------------------

/// Drives the graph with a randomized strategy and batch size derived from
/// the seed, so different seeds exercise different interleavings.
void DrainRandomized(QueryGraph& graph, std::uint64_t seed) {
  scheduler::RandomStrategy strategy(seed);
  scheduler::PipeExecutor driver(graph, strategy, /*batch_size=*/1 + seed % 17);
  driver.RunToCompletion();
}

template <typename T>
void ExpectStartOrdered(const std::vector<StreamElement<T>>& elements) {
  for (std::size_t i = 1; i < elements.size(); ++i) {
    ASSERT_LE(elements[i - 1].start(), elements[i].start())
        << "merged output not ordered at index " << i;
  }
}

/// Element-for-element equivalence: equal starts may interleave differently
/// across replicas (the merge only fixes (start, arrival) order), so compare
/// the full (start, end, payload) multisets.
template <typename T>
std::vector<std::tuple<Timestamp, Timestamp, T>> SortedTriples(
    const std::vector<StreamElement<T>>& elements) {
  std::vector<std::tuple<Timestamp, Timestamp, T>> triples;
  triples.reserve(elements.size());
  for (const StreamElement<T>& e : elements) {
    triples.emplace_back(e.start(), e.end(), e.payload);
  }
  std::sort(triples.begin(), triples.end());
  return triples;
}

template <typename T>
void ExpectSameElements(const std::vector<StreamElement<T>>& parallel,
                        const std::vector<StreamElement<T>>& single) {
  EXPECT_EQ(SortedTriples(parallel), SortedTriples(single));
}

/// Canonical form for operators whose output fragmentation is
/// pacing-dependent (`Distinct` may release [4,6)+[6,8) or the coalesced
/// [4,8) depending on when watermarks land): per payload, the coalesced
/// union of validity intervals. Two outputs with equal coalesced runs are
/// snapshot-identical at every instant.
template <typename T>
std::vector<std::tuple<T, Timestamp, Timestamp>> CoalescedRuns(
    const std::vector<StreamElement<T>>& elements) {
  std::map<T, std::vector<TimeInterval>> by_payload;
  for (const StreamElement<T>& e : elements) {
    by_payload[e.payload].push_back(e.interval);
  }
  std::vector<std::tuple<T, Timestamp, Timestamp>> runs;
  for (auto& [payload, intervals] : by_payload) {
    std::sort(intervals.begin(), intervals.end(),
              [](const TimeInterval& a, const TimeInterval& b) {
                return a.start < b.start;
              });
    TimeInterval current = intervals.front();
    for (std::size_t i = 1; i < intervals.size(); ++i) {
      if (intervals[i].start <= current.end) {
        current.end = std::max(current.end, intervals[i].end);
      } else {
        runs.emplace_back(payload, current.start, current.end);
        current = intervals[i];
      }
    }
    runs.emplace_back(payload, current.start, current.end);
  }
  return runs;
}

class ParallelEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

// --- Partitioned operator vs single replica --------------------------------

TEST_P(ParallelEquivalence, GroupedCountMatchesSingleReplica) {
  const std::uint64_t seed = GetParam();
  Random rng(seed);
  RandomStreamOptions options;
  // Small domains make hot keys: all-equal payloads route everything to one
  // replica, the worst skew the contract has to survive.
  options.payload_domain = 1 + static_cast<std::int64_t>(seed % 8);
  const auto input = RandomIntStream(rng, options);
  auto key = [](int v) { return v % 5; };
  auto value = [](int v) { return v; };
  using Op = GroupedAggregate<int, CountAgg<int>, decltype(key),
                              decltype(value)>;
  using Out = Op::Output;

  std::vector<StreamElement<Out>> single;
  {
    QueryGraph graph;
    auto& source = graph.Add<VectorSource<int>>(input);
    auto& agg = graph.Add<Op>(key, value);
    auto& sink = graph.Add<CollectorSink<Out>>();
    source.AddSubscriber(agg.input());
    agg.AddSubscriber(sink.input());
    DrainRandomized(graph, seed);
    single = sink.elements();
  }

  for (std::size_t n : {2u, 3u, 4u}) {
    SCOPED_TRACE("replicas=" + std::to_string(n));
    QueryGraph graph;
    auto& source = graph.Add<VectorSource<int>>(
        input, "source", /*batch_size=*/1 + seed % 13);
    auto chain = MakeKeyedParallel<Op>(graph, n, key, key, value);
    auto& sink = graph.Add<CollectorSink<Out>>();
    source.AddSubscriber(*chain.input);
    chain.output->AddSubscriber(sink.input());
    DrainRandomized(graph, seed + n);

    ExpectStartOrdered(sink.elements());
    ExpectSameElements(sink.elements(), single);
    // Routing is conservative: every input element lands in exactly one
    // partition.
    std::uint64_t routed = 0;
    for (const std::uint64_t c : chain.splitters[0]->PartitionCounts()) {
      routed += c;
    }
    EXPECT_EQ(routed, input.size());
  }
}

TEST_P(ParallelEquivalence, DistinctMatchesSingleReplica) {
  const std::uint64_t seed = GetParam();
  Random rng(seed);
  RandomStreamOptions options;
  options.payload_domain = 4;  // many duplicates per key
  const auto input = RandomIntStream(rng, options);
  auto key = [](int v) { return v; };  // partition by payload == the group

  std::vector<StreamElement<int>> single;
  {
    QueryGraph graph;
    auto& source = graph.Add<VectorSource<int>>(input);
    auto& distinct = graph.Add<Distinct<int>>();
    auto& sink = graph.Add<CollectorSink<int>>();
    source.AddSubscriber(distinct.input());
    distinct.AddSubscriber(sink.input());
    DrainRandomized(graph, seed);
    single = sink.elements();
  }

  for (std::size_t n : {2u, 3u}) {
    SCOPED_TRACE("replicas=" + std::to_string(n));
    QueryGraph graph;
    auto& source = graph.Add<VectorSource<int>>(
        input, "source", /*batch_size=*/1 + seed % 7);
    auto chain = MakeKeyedParallel<Distinct<int>>(graph, n, key);
    auto& sink = graph.Add<CollectorSink<int>>();
    source.AddSubscriber(*chain.input);
    chain.output->AddSubscriber(sink.input());
    DrainRandomized(graph, seed + n);

    ExpectStartOrdered(sink.elements());
    EXPECT_EQ(CoalescedRuns(sink.elements()), CoalescedRuns(single));
  }
}

TEST_P(ParallelEquivalence, PartitionedWindowMatchesSingleReplica) {
  const std::uint64_t seed = GetParam();
  Random rng(seed);
  RandomStreamOptions options;
  options.max_duration = 1;  // raw stream, windows assign validity
  const auto input = RandomIntStream(rng, options);
  auto key = [](int v) { return v % 3; };
  const std::size_t rows = 1 + seed % 4;
  using Op = PartitionedWindow<int, decltype(key)>;

  std::vector<StreamElement<int>> single;
  {
    QueryGraph graph;
    auto& source = graph.Add<VectorSource<int>>(input);
    auto& window = graph.Add<Op>(key, rows);
    auto& sink = graph.Add<CollectorSink<int>>();
    source.AddSubscriber(window.input());
    window.AddSubscriber(sink.input());
    DrainRandomized(graph, seed);
    single = sink.elements();
  }

  for (std::size_t n : {2u, 4u}) {
    SCOPED_TRACE("replicas=" + std::to_string(n));
    QueryGraph graph;
    auto& source = graph.Add<VectorSource<int>>(
        input, "source", /*batch_size=*/1 + seed % 11);
    auto chain = MakeKeyedParallel<Op>(graph, n, key, key, rows);
    auto& sink = graph.Add<CollectorSink<int>>();
    source.AddSubscriber(*chain.input);
    chain.output->AddSubscriber(sink.input());
    DrainRandomized(graph, seed + n);

    ExpectStartOrdered(sink.elements());
    ExpectSameElements(sink.elements(), single);
  }
}

TEST_P(ParallelEquivalence, HashJoinMatchesSingleReplica) {
  const std::uint64_t seed = GetParam();
  Random rng(seed);
  RandomStreamOptions options;
  options.count = 120;
  options.payload_domain = 5;  // frequent matches
  const auto left = RandomIntStream(rng, options);
  const auto right = RandomIntStream(rng, options);
  auto identity = [](int v) { return v; };
  auto combine = [](int a, int b) { return a * 100 + b; };

  std::vector<StreamElement<int>> single;
  {
    QueryGraph graph;
    auto& sl = graph.Add<VectorSource<int>>(left);
    auto& sr = graph.Add<VectorSource<int>>(right);
    auto& join =
        graph.Add(MakeHashJoin<int, int>(identity, identity, combine));
    auto& sink = graph.Add<CollectorSink<int>>();
    sl.AddSubscriber(join.left());
    sr.AddSubscriber(join.right());
    join.AddSubscriber(sink.input());
    DrainRandomized(graph, seed);
    single = sink.elements();
  }

  for (std::size_t n : {2u, 3u}) {
    SCOPED_TRACE("replicas=" + std::to_string(n));
    QueryGraph graph;
    auto& sl = graph.Add<VectorSource<int>>(
        left, "left", /*batch_size=*/1 + seed % 9);
    auto& sr = graph.Add<VectorSource<int>>(
        right, "right", /*batch_size=*/1 + (seed + 1) % 9);
    auto chain = MakeParallelHashJoin<int, int>(graph, n, identity, identity,
                                                combine);
    auto& sink = graph.Add<CollectorSink<int>>();
    sl.AddSubscriber(*chain.left);
    sr.AddSubscriber(*chain.right);
    chain.output->AddSubscriber(sink.input());
    DrainRandomized(graph, seed + n);

    ExpectStartOrdered(sink.elements());
    ExpectSameElements(sink.elements(), single);
  }
}

// --- dsl::Parallel ---------------------------------------------------------

TEST_P(ParallelEquivalence, DslParallelMatchesManualSingleReplica) {
  const std::uint64_t seed = GetParam();
  Random rng(seed);
  const auto input = RandomIntStream(rng);
  auto key = [](int v) { return v % 4; };
  auto value = [](int v) { return v; };
  using Out = std::pair<int, std::uint64_t>;

  std::vector<StreamElement<Out>> single;
  {
    QueryGraph graph;
    auto& source = graph.Add<VectorSource<int>>(input);
    auto& agg = graph.Add<GroupedAggregate<int, CountAgg<int>, decltype(key),
                                           decltype(value)>>(key, value);
    auto& sink = graph.Add<CollectorSink<Out>>();
    source.AddSubscriber(agg.input());
    agg.AddSubscriber(sink.input());
    DrainRandomized(graph, seed);
    single = sink.elements();
  }

  QueryGraph graph;
  auto& sink =
      dsl::From(graph, std::make_unique<VectorSource<int>>(input)) |
      dsl::Parallel(3, key, dsl::GroupBy<CountAgg<int>>(key, value)) |
      dsl::Into(std::make_unique<CollectorSink<Out>>());
  DrainRandomized(graph, seed + 1);

  ExpectStartOrdered(sink.elements());
  ExpectSameElements(sink.elements(), single);
}

// --- ThreadScheduler: replica chains on their own workers ------------------

// Each replica's input buffer is pinned to its own worker, so replica
// operators genuinely run concurrently — under TSan this validates the
// cross-thread contract (ConcurrentBuffer edges, relaxed skew counters,
// single-worker merge drive).
TEST_P(ParallelEquivalence, ThreadSchedulerDrivesPinnedReplicas) {
  const std::uint64_t seed = GetParam();
  Random rng(seed);
  RandomStreamOptions options;
  options.count = 400;
  const auto input = RandomIntStream(rng, options);
  auto key = [](int v) { return v; };
  auto value = [](int v) { return v; };
  using Op = GroupedAggregate<int, SumAgg<int>, decltype(key),
                              decltype(value)>;
  using Out = Op::Output;

  std::vector<StreamElement<Out>> single;
  {
    QueryGraph graph;
    auto& source = graph.Add<VectorSource<int>>(input);
    auto& agg = graph.Add<Op>(key, value);
    auto& sink = graph.Add<CollectorSink<Out>>();
    source.AddSubscriber(agg.input());
    agg.AddSubscriber(sink.input());
    DrainRandomized(graph, seed);
    single = sink.elements();
  }

  const std::size_t replicas = 4;
  // More replicas than workers (3 workers → replicas share) and one worker
  // per replica (5 workers) both have to produce identical output.
  for (int num_threads : {3, 5}) {
    SCOPED_TRACE("num_threads=" + std::to_string(num_threads));
    QueryGraph graph;
    auto& source = graph.Add<VectorSource<int>>(
        input, "source", /*batch_size=*/1 + seed % 13);
    auto chain = MakeKeyedParallel<Op>(graph, replicas, key, key, value);
    auto& sink = graph.Add<CollectorSink<Out>>();
    source.AddSubscriber(*chain.input);
    chain.output->AddSubscriber(sink.input());

    scheduler::ThreadScheduler driver(
        graph, num_threads,
        [] { return std::make_unique<scheduler::RoundRobinStrategy>(); },
        chain.PinnedAssignment(graph, num_threads),
        /*batch_size=*/32);
    driver.RunToCompletion();

    ExpectStartOrdered(sink.elements());
    ExpectSameElements(sink.elements(), single);
  }
}

TEST_P(ParallelEquivalence, ThreadSchedulerDrivesPinnedParallelJoin) {
  const std::uint64_t seed = GetParam();
  Random rng(seed);
  RandomStreamOptions options;
  options.count = 150;
  options.payload_domain = 6;
  const auto left = RandomIntStream(rng, options);
  const auto right = RandomIntStream(rng, options);
  auto identity = [](int v) { return v; };
  auto combine = [](int a, int b) { return a * 100 + b; };

  std::vector<StreamElement<int>> single;
  {
    QueryGraph graph;
    auto& sl = graph.Add<VectorSource<int>>(left);
    auto& sr = graph.Add<VectorSource<int>>(right);
    auto& join =
        graph.Add(MakeHashJoin<int, int>(identity, identity, combine));
    auto& sink = graph.Add<CollectorSink<int>>();
    sl.AddSubscriber(join.left());
    sr.AddSubscriber(join.right());
    join.AddSubscriber(sink.input());
    DrainRandomized(graph, seed);
    single = sink.elements();
  }

  QueryGraph graph;
  auto& sl = graph.Add<VectorSource<int>>(left, "left", /*batch_size=*/4);
  auto& sr = graph.Add<VectorSource<int>>(right, "right", /*batch_size=*/4);
  auto chain =
      MakeParallelHashJoin<int, int>(graph, /*n=*/3, identity, identity,
                                     combine);
  auto& sink = graph.Add<CollectorSink<int>>();
  sl.AddSubscriber(*chain.left);
  sr.AddSubscriber(*chain.right);
  chain.output->AddSubscriber(sink.input());

  const int num_threads = 4;
  scheduler::ThreadScheduler driver(
      graph, num_threads,
      [] { return std::make_unique<scheduler::RoundRobinStrategy>(); },
      chain.PinnedAssignment(graph, num_threads),
      /*batch_size=*/16);
  driver.RunToCompletion();

  ExpectStartOrdered(sink.elements());
  ExpectSameElements(sink.elements(), single);
}

// --- Heartbeat broadcast ---------------------------------------------------

// All elements route to one partition; the idle partition must still see
// progress (heartbeats are broadcast) and end-of-stream.
TEST(PartitionTest, HeartbeatsReachIdlePartitions) {
  QueryGraph graph;
  std::vector<StreamElement<int>> input;
  for (int i = 0; i < 10; ++i) {
    input.push_back(StreamElement<int>(7, i * 2, i * 2 + 5));
  }
  auto& source = graph.Add<VectorSource<int>>(input);
  auto constant_key = [](int) { return 0; };
  auto& split =
      graph.Add<Partition<int, decltype(constant_key)>>(2, constant_key);
  auto& busy = graph.Add<CollectorSink<int>>("busy");
  auto& idle = graph.Add<CollectorSink<int>>("idle");
  source.AddSubscriber(split.input());
  const std::size_t target = split.PartitionIndex(7);
  split.AddSubscriber(target, busy.input());
  split.AddSubscriber(1 - target, idle.input());

  scheduler::RoundRobinStrategy strategy;
  scheduler::PipeExecutor driver(graph, strategy);
  driver.RunToCompletion();

  EXPECT_EQ(busy.elements().size(), input.size());
  EXPECT_TRUE(idle.elements().empty());
  // The idle side's clock advanced with the busy side's elements and its
  // port reached end-of-stream — replicas behind it purge state and finish.
  EXPECT_TRUE(idle.input().done());
  EXPECT_EQ(idle.input().watermark(), kMaxTimestamp);
  EXPECT_EQ(split.partition_elements(target), input.size());
  EXPECT_EQ(split.partition_elements(1 - target), 0u);
}

// --- Skew metric through the snapshot layer --------------------------------

TEST(PartitionTest, SnapshotSurfacesPartitionSkew) {
  QueryGraph graph;
  Random rng(42);
  RandomStreamOptions options;
  options.payload_domain = 2;  // two keys onto three partitions: skewed
  const auto input = RandomIntStream(rng, options);
  auto& source = graph.Add<VectorSource<int>>(input);
  auto key = [](int v) { return v; };
  auto chain = MakeKeyedParallel<Distinct<int>>(graph, 3, key);
  auto& sink = graph.Add<CollectorSink<int>>();
  source.AddSubscriber(*chain.input);
  chain.output->AddSubscriber(sink.input());
  DrainRandomized(graph, 42);

  const metadata::MetricsSnapshot snap = metadata::CaptureSnapshot(graph);
  const metadata::NodeSnapshot* split = snap.FindNode("partition");
  ASSERT_NE(split, nullptr);
  ASSERT_EQ(split->partition_out.size(), 3u);
  std::uint64_t routed = 0;
  for (const std::uint64_t c : split->partition_out) routed += c;
  EXPECT_EQ(routed, input.size());
  // Two keys cannot cover three partitions: max/mean skew is at least 3/2.
  EXPECT_GE(split->PartitionSkew(), 1.5);
  // Non-splitter nodes carry no partition counts.
  const metadata::NodeSnapshot* merge = snap.FindNode("merge");
  ASSERT_NE(merge, nullptr);
  EXPECT_TRUE(merge->partition_out.empty());

  // The skew vector round-trips through the JSON exporter.
  const auto parsed = metadata::SnapshotFromJson(metadata::ToJson(snap));
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_EQ(*parsed, snap);

  // ...and shows up in the DOT monitoring overlay.
  const std::string dot = metadata::ToDot(snap);
  EXPECT_NE(dot.find("skew"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelEquivalence,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55,
                                           89));

}  // namespace
}  // namespace pipes
