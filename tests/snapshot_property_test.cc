// Property tests: every physical operator must be *snapshot-equivalent* to
// its logical counterpart. For randomized input streams we compare, at every
// critical instant, the multiset snapshot of the operator's output against
// the logical operator applied to the multiset snapshots of its inputs
// (naive materializing reference). Randomized scheduling (strategy + batch
// size) stresses the watermark machinery.

#include <algorithm>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/algebra/aggregate.h"
#include "src/algebra/difference.h"
#include "src/algebra/distinct.h"
#include "src/algebra/filter.h"
#include "src/algebra/join.h"
#include "src/algebra/union.h"
#include "src/algebra/window.h"
#include "src/core/generator_source.h"
#include "src/core/graph.h"
#include "src/core/sink.h"
#include "src/scheduler/scheduler.h"
#include "tests/snapshot_reference.h"

namespace pipes {
namespace {

using namespace pipes::algebra;    // NOLINT: test-local convenience
using namespace pipes::testing;    // NOLINT: test-local convenience

/// Drives the graph with a randomized strategy and batch size derived from
/// the seed, so different seeds exercise different interleavings.
void DrainRandomized(QueryGraph& graph, std::uint64_t seed) {
  scheduler::RandomStrategy strategy(seed);
  scheduler::PipeExecutor driver(graph, strategy, /*batch_size=*/1 + seed % 17);
  driver.RunToCompletion();
}

/// Checks the global output-ordering invariant.
template <typename T>
void ExpectStartOrdered(const std::vector<StreamElement<T>>& elements) {
  for (std::size_t i = 1; i < elements.size(); ++i) {
    ASSERT_LE(elements[i - 1].start(), elements[i].start())
        << "output not ordered at index " << i;
  }
}

/// Asserts output snapshots equal `expected_at(t)` at all critical instants
/// of inputs and output.
template <typename T>
void ExpectSnapshotsEqual(
    const std::vector<Timestamp>& instants,
    const std::vector<StreamElement<T>>& actual,
    const std::function<std::vector<T>(Timestamp)>& expected_at) {
  for (Timestamp t : instants) {
    auto actual_snapshot = SnapshotAt(actual, t);
    auto expected_snapshot = expected_at(t);
    std::sort(expected_snapshot.begin(), expected_snapshot.end());
    ASSERT_EQ(actual_snapshot, expected_snapshot) << "snapshot at t=" << t;
  }
}

class SnapshotProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SnapshotProperty, FilterIsSnapshotEquivalent) {
  Random rng(GetParam());
  const auto input = RandomIntStream(rng);

  QueryGraph graph;
  auto& source = graph.Add<VectorSource<int>>(input);
  auto pred = [](int v) { return v % 3 != 0; };
  auto& filter = graph.Add<Filter<int, decltype(pred)>>(pred);
  auto& sink = graph.Add<CollectorSink<int>>();
  source.AddSubscriber(filter.input());
  filter.AddSubscriber(sink.input());
  DrainRandomized(graph, GetParam());

  ExpectStartOrdered(sink.elements());
  auto instants = CriticalInstants(input);
  ExpectSnapshotsEqual<int>(
      instants, sink.elements(), [&](Timestamp t) {
        std::vector<int> expected;
        for (int v : SnapshotAt(input, t)) {
          if (pred(v)) expected.push_back(v);
        }
        return expected;
      });
}

TEST_P(SnapshotProperty, TimeWindowIsSnapshotEquivalent) {
  Random rng(GetParam());
  RandomStreamOptions options;
  options.max_duration = 1;  // raw point stream
  const auto input = RandomIntStream(rng, options);
  const Timestamp w = 5 + static_cast<Timestamp>(GetParam() % 20);

  QueryGraph graph;
  auto& source = graph.Add<VectorSource<int>>(input);
  auto& window = graph.Add<TimeWindow<int>>(w);
  auto& sink = graph.Add<CollectorSink<int>>();
  source.AddSubscriber(window.input());
  window.AddSubscriber(sink.input());
  DrainRandomized(graph, GetParam());

  // Reference: widen intervals directly.
  std::vector<StreamElement<int>> expected_elements;
  for (const auto& e : input) {
    expected_elements.push_back(
        StreamElement<int>(e.payload, e.start(), e.start() + w));
  }
  ExpectStartOrdered(sink.elements());
  auto instants = CriticalInstants(expected_elements);
  ExpectSnapshotsEqual<int>(instants, sink.elements(), [&](Timestamp t) {
    return SnapshotAt(expected_elements, t);
  });
}

TEST_P(SnapshotProperty, UnionIsSnapshotEquivalent) {
  Random rng(GetParam());
  const auto a = RandomIntStream(rng);
  const auto b = RandomIntStream(rng);

  QueryGraph graph;
  auto& sa = graph.Add<VectorSource<int>>(a);
  auto& sb = graph.Add<VectorSource<int>>(b);
  auto& u = graph.Add<Union<int>>();
  auto& sink = graph.Add<CollectorSink<int>>();
  sa.AddSubscriber(u.left());
  sb.AddSubscriber(u.right());
  u.AddSubscriber(sink.input());
  DrainRandomized(graph, GetParam());

  ExpectStartOrdered(sink.elements());
  auto instants = CriticalInstants<int>({&a, &b});
  ExpectSnapshotsEqual<int>(instants, sink.elements(), [&](Timestamp t) {
    auto expected = SnapshotAt(a, t);
    auto more = SnapshotAt(b, t);
    expected.insert(expected.end(), more.begin(), more.end());
    return expected;
  });
}

TEST_P(SnapshotProperty, HashJoinIsSnapshotEquivalent) {
  Random rng(GetParam());
  RandomStreamOptions options;
  options.count = 120;
  options.payload_domain = 5;  // frequent key collisions
  const auto left = RandomIntStream(rng, options);
  const auto right = RandomIntStream(rng, options);

  QueryGraph graph;
  auto& sl = graph.Add<VectorSource<int>>(left);
  auto& sr = graph.Add<VectorSource<int>>(right);
  auto identity = [](int v) { return v; };
  auto combine = [](int a, int b) { return a * 100 + b; };
  auto& join =
      graph.Add(MakeHashJoin<int, int>(identity, identity, combine));
  auto& sink = graph.Add<CollectorSink<int>>();
  sl.AddSubscriber(join.left());
  sr.AddSubscriber(join.right());
  join.AddSubscriber(sink.input());
  DrainRandomized(graph, GetParam());

  ExpectStartOrdered(sink.elements());
  auto instants = CriticalInstants<int>({&left, &right});
  ExpectSnapshotsEqual<int>(instants, sink.elements(), [&](Timestamp t) {
    std::vector<int> expected;
    for (int l : SnapshotAt(left, t)) {
      for (int r : SnapshotAt(right, t)) {
        if (l == r) expected.push_back(combine(l, r));
      }
    }
    return expected;
  });
}

TEST_P(SnapshotProperty, NestedLoopsBandJoinIsSnapshotEquivalent) {
  Random rng(GetParam());
  RandomStreamOptions options;
  options.count = 60;
  options.payload_domain = 10;
  const auto left = RandomIntStream(rng, options);
  const auto right = RandomIntStream(rng, options);

  QueryGraph graph;
  auto& sl = graph.Add<VectorSource<int>>(left);
  auto& sr = graph.Add<VectorSource<int>>(right);
  auto pred = [](int l, int r) { return l <= r && r <= l + 2; };
  auto combine = [](int a, int b) { return a * 100 + b; };
  auto& join =
      graph.Add(MakeNestedLoopsJoin<int, int>(pred, combine));
  auto& sink = graph.Add<CollectorSink<int>>();
  sl.AddSubscriber(join.left());
  sr.AddSubscriber(join.right());
  join.AddSubscriber(sink.input());
  DrainRandomized(graph, GetParam());

  ExpectStartOrdered(sink.elements());
  auto instants = CriticalInstants<int>({&left, &right});
  ExpectSnapshotsEqual<int>(instants, sink.elements(), [&](Timestamp t) {
    std::vector<int> expected;
    for (int l : SnapshotAt(left, t)) {
      for (int r : SnapshotAt(right, t)) {
        if (pred(l, r)) expected.push_back(combine(l, r));
      }
    }
    return expected;
  });
}

TEST_P(SnapshotProperty, SumAggregateIsSnapshotEquivalent) {
  Random rng(GetParam());
  const auto input = RandomIntStream(rng);

  QueryGraph graph;
  auto& source = graph.Add<VectorSource<int>>(input);
  auto value = [](int v) { return v; };
  auto& agg =
      graph.Add<TemporalAggregate<int, SumAgg<int>, decltype(value)>>(value);
  auto& sink = graph.Add<CollectorSink<int>>();
  source.AddSubscriber(agg.input());
  agg.AddSubscriber(sink.input());
  DrainRandomized(graph, GetParam());

  ExpectStartOrdered(sink.elements());
  auto instants = CriticalInstants(input);
  ExpectSnapshotsEqual<int>(instants, sink.elements(), [&](Timestamp t) {
    auto snapshot = SnapshotAt(input, t);
    std::vector<int> expected;
    if (!snapshot.empty()) {
      int sum = 0;
      for (int v : snapshot) sum += v;
      expected.push_back(sum);
    }
    return expected;
  });
}

TEST_P(SnapshotProperty, MaxAggregateIsSnapshotEquivalent) {
  Random rng(GetParam());
  const auto input = RandomIntStream(rng);

  QueryGraph graph;
  auto& source = graph.Add<VectorSource<int>>(input);
  auto value = [](int v) { return v; };
  auto& agg =
      graph.Add<TemporalAggregate<int, MaxAgg<int>, decltype(value)>>(value);
  auto& sink = graph.Add<CollectorSink<int>>();
  source.AddSubscriber(agg.input());
  agg.AddSubscriber(sink.input());
  DrainRandomized(graph, GetParam());

  auto instants = CriticalInstants(input);
  ExpectSnapshotsEqual<int>(instants, sink.elements(), [&](Timestamp t) {
    auto snapshot = SnapshotAt(input, t);
    std::vector<int> expected;
    if (!snapshot.empty()) {
      expected.push_back(*std::max_element(snapshot.begin(), snapshot.end()));
    }
    return expected;
  });
}

TEST_P(SnapshotProperty, GroupedCountIsSnapshotEquivalent) {
  Random rng(GetParam());
  const auto input = RandomIntStream(rng);

  QueryGraph graph;
  auto& source = graph.Add<VectorSource<int>>(input);
  auto key = [](int v) { return v % 3; };
  auto value = [](int v) { return v; };
  auto& agg = graph.Add<
      GroupedAggregate<int, CountAgg<int>, decltype(key), decltype(value)>>(
      key, value);
  auto& sink = graph.Add<CollectorSink<std::pair<int, std::uint64_t>>>();
  source.AddSubscriber(agg.input());
  agg.AddSubscriber(sink.input());
  DrainRandomized(graph, GetParam());

  ExpectStartOrdered(sink.elements());
  auto instants = CriticalInstants(input);
  ExpectSnapshotsEqual<std::pair<int, std::uint64_t>>(
      instants, sink.elements(), [&](Timestamp t) {
        std::map<int, std::uint64_t> counts;
        for (int v : SnapshotAt(input, t)) ++counts[key(v)];
        std::vector<std::pair<int, std::uint64_t>> expected;
        for (const auto& [k, c] : counts) expected.emplace_back(k, c);
        return expected;
      });
}

// Keys that go quiet for longer than any validity lose their group (every
// segment finalized) and open a new one when they come back. With 24 keys
// the removals reorder the group table by swap-and-pop.
TEST_P(SnapshotProperty, GroupedSumSurvivesGroupChurn) {
  Random rng(GetParam());
  constexpr int kKeys = 24;
  std::vector<StreamElement<int>> input;
  Timestamp t = 0;
  for (int phase = 0; phase < 8; ++phase) {
    // A rotating third of the keys sits each phase (~60 ticks) out;
    // validities last at most 10 ticks.
    for (int i = 0; i < 40; ++i) {
      t += rng.UniformInt(0, 3);
      int key = static_cast<int>(rng.UniformInt(0, kKeys - 1));
      if ((key + phase) % 3 == 0) key = (key + 1) % kKeys;
      input.push_back(StreamElement<int>(
          key * 100 + static_cast<int>(rng.UniformInt(0, 9)), t,
          t + rng.UniformInt(1, 10)));
    }
  }

  QueryGraph graph;
  auto& source = graph.Add<VectorSource<int>>(input);
  auto key = [](int v) { return v / 100; };
  auto value = [](int v) { return v % 100; };
  auto& agg = graph.Add<
      GroupedAggregate<int, SumAgg<int>, decltype(key), decltype(value)>>(
      key, value);
  auto& sink = graph.Add<CollectorSink<std::pair<int, int>>>();
  source.AddSubscriber(agg.input());
  agg.AddSubscriber(sink.input());
  DrainRandomized(graph, GetParam());

  EXPECT_EQ(agg.num_groups(), 0u);
  ExpectStartOrdered(sink.elements());
  auto instants = CriticalInstants(input);
  ExpectSnapshotsEqual<std::pair<int, int>>(
      instants, sink.elements(), [&](Timestamp at) {
        std::map<int, int> sums;
        for (int v : SnapshotAt(input, at)) sums[key(v)] += value(v);
        return std::vector<std::pair<int, int>>(sums.begin(), sums.end());
      });
}

TEST_P(SnapshotProperty, DistinctIsSnapshotEquivalent) {
  Random rng(GetParam());
  RandomStreamOptions options;
  options.payload_domain = 4;  // many duplicates
  const auto input = RandomIntStream(rng, options);

  QueryGraph graph;
  auto& source = graph.Add<VectorSource<int>>(input);
  auto& distinct = graph.Add<Distinct<int>>();
  auto& sink = graph.Add<CollectorSink<int>>();
  source.AddSubscriber(distinct.input());
  distinct.AddSubscriber(sink.input());
  DrainRandomized(graph, GetParam());

  ExpectStartOrdered(sink.elements());
  auto instants = CriticalInstants(input);
  ExpectSnapshotsEqual<int>(instants, sink.elements(), [&](Timestamp t) {
    auto snapshot = SnapshotAt(input, t);
    snapshot.erase(std::unique(snapshot.begin(), snapshot.end()),
                   snapshot.end());
    return snapshot;
  });
}

TEST_P(SnapshotProperty, DifferenceIsSnapshotEquivalent) {
  Random rng(GetParam());
  RandomStreamOptions options;
  options.count = 120;
  options.payload_domain = 4;
  const auto left = RandomIntStream(rng, options);
  const auto right = RandomIntStream(rng, options);

  QueryGraph graph;
  auto& sl = graph.Add<VectorSource<int>>(left);
  auto& sr = graph.Add<VectorSource<int>>(right);
  auto& diff = graph.Add<Difference<int>>();
  auto& sink = graph.Add<CollectorSink<int>>();
  sl.AddSubscriber(diff.left());
  sr.AddSubscriber(diff.right());
  diff.AddSubscriber(sink.input());
  DrainRandomized(graph, GetParam());

  ExpectStartOrdered(sink.elements());
  auto instants = CriticalInstants<int>({&left, &right});
  ExpectSnapshotsEqual<int>(instants, sink.elements(), [&](Timestamp t) {
    auto l = SnapshotAt(left, t);   // sorted
    auto r = SnapshotAt(right, t);  // sorted
    std::vector<int> expected;
    std::size_t i = 0, j = 0;
    while (i < l.size()) {
      if (j < r.size() && r[j] == l[i]) {
        ++i;
        ++j;  // cancelled by one right copy
      } else if (j < r.size() && r[j] < l[i]) {
        ++j;
      } else {
        expected.push_back(l[i++]);
      }
    }
    return expected;
  });
}

TEST_P(SnapshotProperty, OperatorCompositionIsSnapshotEquivalent) {
  // window -> filter -> grouped count: a realistic mini-plan.
  Random rng(GetParam());
  RandomStreamOptions options;
  options.max_duration = 1;
  options.count = 150;
  const auto input = RandomIntStream(rng, options);
  const Timestamp w = 8;

  QueryGraph graph;
  auto& source = graph.Add<VectorSource<int>>(input);
  auto& window = graph.Add<TimeWindow<int>>(w);
  auto pred = [](int v) { return v != 0; };
  auto& filter = graph.Add<Filter<int, decltype(pred)>>(pred);
  auto key = [](int v) { return v % 2; };
  auto value = [](int v) { return v; };
  auto& agg = graph.Add<
      GroupedAggregate<int, CountAgg<int>, decltype(key), decltype(value)>>(
      key, value);
  auto& sink = graph.Add<CollectorSink<std::pair<int, std::uint64_t>>>();
  source.AddSubscriber(window.input());
  window.AddSubscriber(filter.input());
  filter.AddSubscriber(agg.input());
  agg.AddSubscriber(sink.input());
  DrainRandomized(graph, GetParam());

  std::vector<StreamElement<int>> windowed;
  for (const auto& e : input) {
    windowed.push_back(StreamElement<int>(e.payload, e.start(),
                                          e.start() + w));
  }
  auto instants = CriticalInstants(windowed);
  ExpectSnapshotsEqual<std::pair<int, std::uint64_t>>(
      instants, sink.elements(), [&](Timestamp t) {
        std::map<int, std::uint64_t> counts;
        for (int v : SnapshotAt(windowed, t)) {
          if (pred(v)) ++counts[key(v)];
        }
        std::vector<std::pair<int, std::uint64_t>> expected;
        for (const auto& [k, c] : counts) expected.emplace_back(k, c);
        return expected;
      });
}

// --- Windows over derived streams --------------------------------------------
// CQL and LogicalPlan attach windows to stream scans only, so neither the
// conformance corpus nor the fuzzer can put one over a join or a union.
// These typed tests do: the reference is each window's per-element interval
// map applied to the upstream's expected elements.

/// Hangs a time, a slide and an unbounded window off `upstream`, drains the
/// graph, and checks each window's output against its interval map applied
/// to `upstream_elements` (what `upstream` emits, in any order).
void ExpectWindowsOverDerived(
    QueryGraph& graph, Source<int>& upstream,
    const std::vector<StreamElement<int>>& upstream_elements,
    std::uint64_t seed) {
  const Timestamp range = 3 + static_cast<Timestamp>(seed % 11);
  const Timestamp size = 4 + static_cast<Timestamp>(seed % 9);
  const Timestamp slide = 1 + static_cast<Timestamp>(seed % 5);
  auto& time = graph.Add<TimeWindow<int>>(range);
  auto& sliding = graph.Add<SlideWindow<int>>(size, slide);
  auto& unbounded = graph.Add<UnboundedWindow<int>>();
  std::vector<CollectorSink<int>*> sinks;
  for (UnaryPipe<int, int>* window :
       std::initializer_list<UnaryPipe<int, int>*>{&time, &sliding,
                                                   &unbounded}) {
    upstream.AddSubscriber(window->input());
    sinks.push_back(&graph.Add<CollectorSink<int>>());
    window->AddSubscriber(sinks.back()->input());
  }
  DrainRandomized(graph, seed);

  const auto align = [&](Timestamp t) {
    return (t + slide - 1) / slide * slide;
  };
  std::vector<std::vector<StreamElement<int>>> expected(3);
  for (const auto& e : upstream_elements) {
    expected[0].emplace_back(e.payload, e.start(), e.start() + range);
    if (align(e.start()) < align(e.start() + size)) {
      expected[1].emplace_back(e.payload, align(e.start()),
                               align(e.start() + size));
    }
    expected[2].emplace_back(e.payload, e.start(), kMaxTimestamp);
  }
  for (std::size_t w = 0; w < sinks.size(); ++w) {
    SCOPED_TRACE(w == 0 ? "time window" : w == 1 ? "slide window"
                                                 : "unbounded window");
    ExpectStartOrdered(sinks[w]->elements());
    ExpectSnapshotsEqual<int>(
        CriticalInstants<int>({&expected[w], &sinks[w]->elements()}),
        sinks[w]->elements(),
        [&](Timestamp t) { return SnapshotAt(expected[w], t); });
  }
}

TEST_P(SnapshotProperty, WindowsOverHashJoinAreSnapshotEquivalent) {
  Random rng(GetParam());
  RandomStreamOptions options;
  options.count = 80;
  options.payload_domain = 5;
  const auto left = RandomIntStream(rng, options);
  const auto right = RandomIntStream(rng, options);

  QueryGraph graph;
  auto& sl = graph.Add<VectorSource<int>>(left);
  auto& sr = graph.Add<VectorSource<int>>(right);
  auto identity = [](int v) { return v; };
  auto combine = [](int a, int b) { return a * 100 + b; };
  auto& join =
      graph.Add(MakeHashJoin<int, int>(identity, identity, combine));
  sl.AddSubscriber(join.left());
  sr.AddSubscriber(join.right());

  // The join emits one element per matching overlapping pair, valid on the
  // intersection.
  std::vector<StreamElement<int>> joined;
  for (const auto& l : left) {
    for (const auto& r : right) {
      if (l.payload == r.payload && l.interval.Overlaps(r.interval)) {
        joined.emplace_back(combine(l.payload, r.payload),
                            l.interval.Intersect(r.interval));
      }
    }
  }
  ExpectWindowsOverDerived(graph, join, joined, GetParam());
}

TEST_P(SnapshotProperty, WindowsOverUnionAreSnapshotEquivalent) {
  Random rng(GetParam());
  const auto a = RandomIntStream(rng);
  const auto b = RandomIntStream(rng);

  QueryGraph graph;
  auto& sa = graph.Add<VectorSource<int>>(a);
  auto& sb = graph.Add<VectorSource<int>>(b);
  auto& u = graph.Add<Union<int>>();
  sa.AddSubscriber(u.left());
  sb.AddSubscriber(u.right());

  std::vector<StreamElement<int>> both = a;
  both.insert(both.end(), b.begin(), b.end());
  ExpectWindowsOverDerived(graph, u, both, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SnapshotProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55,
                                           89));

}  // namespace
}  // namespace pipes
