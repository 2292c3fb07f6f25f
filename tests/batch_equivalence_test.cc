// Run-size equivalence: a graph whose sources emit columnar runs
// (`TransferRun`, source batch sizes > 1) must give the same results at the
// sink as the same graph fed runs of 1 — the same elements (compared as a
// sequence, a multiset or snapshots, see `ElementCheck`), the same done
// signal, and the same final watermark. Progress notifications may be
// coarser (one merge per run instead of one per element) but must stay
// monotone; where operators forward their input watermark they must be a
// subsequence of the runs-of-1 sequence: runs may skip intermediate
// watermarks, never invent or reorder them.
//
// The executor polls as many units as the run size: transfers made within
// one poll coalesce in the source's pipe, so each poll delivers one run of
// exactly that size (a larger train would merge the runs of one poll). The
// sweep covers run sizes {2, 7, 32, 512}; each seed draws its own input
// streams.
//
// `PortRun` is the only way rows reach an operator (DESIGN.md "Run
// delivery"), so every operator's run hook is covered here: the column
// kernels (filter, map, windows, coalesce, union, aggregates, buffer), the
// row-at-a-time loops (count and partitioned windows, distinct, difference,
// intersect, IStream/DStream, the multi-way join), the join's row-by-row
// shed fallback, and a keyed Partition -> replicas -> Merge stage. Every
// arm runs on the `PipeExecutor` (DESIGN.md §4f), where transfers stage
// columnar runs into pipe edges.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/algebra/aggregate.h"
#include "src/algebra/coalesce.h"
#include "src/algebra/difference.h"
#include "src/algebra/distinct.h"
#include "src/algebra/filter.h"
#include "src/algebra/intersect.h"
#include "src/algebra/join.h"
#include "src/algebra/map.h"
#include "src/algebra/relation_to_stream.h"
#include "src/algebra/union.h"
#include "src/algebra/window.h"
#include "src/core/buffer.h"
#include "src/core/generator_source.h"
#include "src/core/graph.h"
#include "src/core/parallel.h"
#include "src/core/sink.h"
#include "src/scheduler/executor.h"
#include "src/scheduler/scheduler.h"
#include "src/sweeparea/multiway_join.h"
#include "tests/snapshot_reference.h"

namespace pipes {
namespace {

using namespace pipes::algebra;  // NOLINT: test-local convenience
using namespace pipes::testing;  // NOLINT: test-local convenience

/// Everything observable at the end of a run, from the sink's perspective.
struct Observation {
  std::vector<StreamElement<int>> elements;
  std::vector<Timestamp> progress;
  bool done = false;
  Timestamp final_watermark = kMinTimestamp;
};

/// Sink that records every callback the port delivers.
class ProbeSink : public Sink<int> {
 public:
  explicit ProbeSink(std::string name = "probe") : Sink<int>(std::move(name)) {}

  std::vector<StreamElement<int>> elements;
  std::vector<Timestamp> progress;

 protected:
  void PortRun(int /*port_id*/, const ColumnarRun<int>& run) override {
    run.MaterializeTo(elements);
  }
  void PortProgress(int port_id, Timestamp watermark) override {
    progress.push_back(watermark);
    Sink<int>::PortProgress(port_id, watermark);
  }
};

/// Builds a graph around pre-built input streams and returns what the probe
/// saw. The build function wires sources (created with `run_size`) to the
/// probe; the executor's train is `run_size` too, so sources deliver runs
/// of exactly `run_size` rows.
using BuildFn = std::function<void(
    QueryGraph&, const std::vector<std::vector<StreamElement<int>>>&,
    std::size_t run_size, ProbeSink&)>;

Observation RunGraph(const std::vector<std::vector<StreamElement<int>>>& inputs,
                std::size_t run_size, const BuildFn& build) {
  QueryGraph graph;
  auto& probe = graph.Add<ProbeSink>();
  build(graph, inputs, run_size, probe);
  scheduler::RoundRobinStrategy strategy;
  scheduler::PipeExecutor driver(graph, strategy, /*batch_size=*/run_size);
  driver.RunToCompletion();
  Observation obs;
  obs.elements = probe.elements;
  obs.progress = probe.progress;
  obs.done = probe.done();
  obs.final_watermark = probe.watermark();
  return obs;
}

bool IsSubsequence(const std::vector<Timestamp>& sub,
                   const std::vector<Timestamp>& full) {
  std::size_t i = 0;
  for (Timestamp t : full) {
    if (i < sub.size() && sub[i] == t) ++i;
  }
  return i == sub.size();
}

/// Whether the stricter progress check applies. Downstream of a `Buffer`
/// the run size 1 reference is itself re-batched by the train drain, and the
/// train boundaries shift with the number of queued heartbeat entries. An
/// operator that caps its heartbeat at pending state (aggregates, windows
/// over rows) or merges several inputs emits watermarks the runs-of-1
/// graph never reaches. So only buffer-free paths of operators that forward
/// their input watermark guarantee the subsequence relation.
enum class ProgressCheck { kSubsequenceOfReference, kMonotoneOnly };

/// How output elements are compared.
///  * kSequence — the same elements in the same order.
///  * kMultiset — the same (start, end, payload) multiset. Operators with
///    several inputs (union, joins, difference, intersect, merge) release
///    equal starts in arrival order, and the run size changes which input
///    arrives first (DESIGN.md §4c); a grouped aggregate stages equal
///    starts in the order their groups finalize.
///  * kSnapshot — the same snapshot at every instant. Distinct emits a
///    coalesced piece once the watermark passes its end, so coarser
///    watermarks coalesce more and split fewer pieces.
enum class ElementCheck { kSequence, kMultiset, kSnapshot };

std::vector<StreamElement<int>> SortedElements(
    std::vector<StreamElement<int>> elements) {
  std::sort(elements.begin(), elements.end(),
            [](const StreamElement<int>& a, const StreamElement<int>& b) {
              return std::tie(a.interval.start, a.interval.end, a.payload) <
                     std::tie(b.interval.start, b.interval.end, b.payload);
            });
  return elements;
}

/// Core assertion: for every run size, the graph is element-for-element
/// identical to the runs-of-1 graph and finishes with the same done and
/// watermark state. Progress values are always sorted; on buffer-free
/// paths they must additionally be a subsequence of the runs-of-1 progress
/// values (runs sample the same watermark trajectory at coarser points —
/// they may skip values, never invent or reorder them).
void ExpectRunsEqualPerElement(
    const std::vector<std::vector<StreamElement<int>>>& inputs,
    const BuildFn& build,
    ProgressCheck progress_check = ProgressCheck::kSubsequenceOfReference,
    ElementCheck element_check = ElementCheck::kSequence) {
  const Observation reference = RunGraph(inputs, /*run_size=*/1, build);
  EXPECT_TRUE(reference.done);
  EXPECT_FALSE(reference.elements.empty());
  for (std::size_t run_size : {2u, 7u, 32u, 512u}) {
    SCOPED_TRACE("run_size=" + std::to_string(run_size));
    const Observation runs = RunGraph(inputs, run_size, build);
    EXPECT_TRUE(std::is_sorted(
        runs.elements.begin(), runs.elements.end(),
        [](const StreamElement<int>& a, const StreamElement<int>& b) {
          return a.start() < b.start();
        }));
    switch (element_check) {
      case ElementCheck::kSequence:
        EXPECT_EQ(runs.elements, reference.elements);
        break;
      case ElementCheck::kMultiset:
        EXPECT_EQ(SortedElements(runs.elements),
                  SortedElements(reference.elements));
        break;
      case ElementCheck::kSnapshot:
        for (Timestamp t : CriticalInstants<int>(
                 {&runs.elements, &reference.elements})) {
          EXPECT_EQ(SnapshotAt(runs.elements, t),
                    SnapshotAt(reference.elements, t))
              << "t=" << t;
        }
        break;
    }
    EXPECT_EQ(runs.done, reference.done);
    EXPECT_EQ(runs.final_watermark, reference.final_watermark);
    EXPECT_TRUE(std::is_sorted(runs.progress.begin(), runs.progress.end()));
    if (progress_check == ProgressCheck::kSubsequenceOfReference) {
      // On failure, name the first run-path watermark the reference never
      // notified — far more useful than two truncated vector dumps.
      std::size_t matched = 0;
      for (Timestamp t : reference.progress) {
        if (matched < runs.progress.size() && runs.progress[matched] == t) {
          ++matched;
        }
      }
      EXPECT_TRUE(IsSubsequence(runs.progress, reference.progress))
          << "run progress is not a subsequence of runs-of-1 progress; "
          << "first unmatched run watermark: "
          << runs.progress[std::min(matched, runs.progress.size() - 1)];
    }
  }
}

/// source -> `Op` -> probe, for an operator from int to int built from
/// `args`.
template <typename Op, typename... Args>
BuildFn UnaryChain(Args... args) {
  return [=](QueryGraph& graph, const auto& inputs, std::size_t run_size,
             ProbeSink& probe) {
    auto& source = graph.Add<VectorSource<int>>(inputs[0], "source",
                                                run_size);
    auto& op = graph.Add<Op>(args...);
    source.AddSubscriber(op.input());
    op.AddSubscriber(probe.input());
  };
}

/// Two sources -> the left and right inputs of `Op` -> probe.
template <typename Op>
BuildFn BinaryChain() {
  return [](QueryGraph& graph, const auto& inputs, std::size_t run_size,
            ProbeSink& probe) {
    auto& left = graph.Add<VectorSource<int>>(inputs[0], "l", run_size);
    auto& right = graph.Add<VectorSource<int>>(inputs[1], "r", run_size);
    auto& op = graph.Add<Op>();
    left.AddSubscriber(op.left());
    right.AddSubscriber(op.right());
    op.AddSubscriber(probe.input());
  };
}

class BatchEquivalence : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  std::vector<StreamElement<int>> Stream(RandomStreamOptions options = {}) {
    Random rng(GetParam() * 7919 + streams_drawn_++);
    return RandomIntStream(rng, options);
  }

 private:
  std::uint64_t streams_drawn_ = 0;
};

TEST_P(BatchEquivalence, FilterMapChain) {
  const auto input = Stream();
  ExpectRunsEqualPerElement(
      {input},
      [](QueryGraph& graph, const auto& inputs, std::size_t run_size,
         ProbeSink& probe) {
        auto& source = graph.Add<VectorSource<int>>(inputs[0], "source",
                                                    run_size);
        auto pred = [](int v) { return v % 3 != 0; };
        auto& filter = graph.Add<Filter<int, decltype(pred)>>(pred);
        auto fn = [](int v) { return v * 2 + 1; };
        auto& map = graph.Add<Map<int, int, decltype(fn)>>(fn);
        source.AddSubscriber(filter.input());
        filter.AddSubscriber(map.input());
        map.AddSubscriber(probe.input());
      });
}

TEST_P(BatchEquivalence, WindowedCoalesceChain) {
  RandomStreamOptions options;
  options.payload_domain = 3;  // frequent equal payloads to coalesce
  options.max_duration = 1;    // raw point stream
  const auto input = Stream(options);
  ExpectRunsEqualPerElement(
      {input},
      [](QueryGraph& graph, const auto& inputs, std::size_t run_size,
         ProbeSink& probe) {
        auto& source = graph.Add<VectorSource<int>>(inputs[0], "source",
                                                    run_size);
        auto& window = graph.Add<TimeWindow<int>>(/*size=*/8);
        auto& coalesce = graph.Add<Coalesce<int>>();
        source.AddSubscriber(window.input());
        window.AddSubscriber(coalesce.input());
        coalesce.AddSubscriber(probe.input());
      });
}

TEST_P(BatchEquivalence, UnionOfTwoBatchedSources) {
  const auto a = Stream();
  const auto b = Stream();
  ExpectRunsEqualPerElement({a, b}, BinaryChain<Union<int>>(),
                            ProgressCheck::kMonotoneOnly,
                            ElementCheck::kMultiset);
}

// While a memory limit is armed (`ShedActive()`), the join's run hooks
// fall back to probing each run row by row (`ProbeLeft`/`ProbeRight`); a
// limit no run ever reaches keeps the results exact. This is the
// regression test for the two-step watermark raise in ReceiveRun — an
// eagerly raised watermark would let the join flush staged results ahead
// of later elements of the same input run.
TEST_P(BatchEquivalence, HashJoinViaDefaultReplay) {
  RandomStreamOptions options;
  options.count = 120;
  options.payload_domain = 5;  // frequent key collisions
  const auto left = Stream(options);
  const auto right = Stream(options);
  ExpectRunsEqualPerElement(
      {left, right},
      [](QueryGraph& graph, const auto& inputs, std::size_t run_size,
         ProbeSink& probe) {
        auto& sl = graph.Add<VectorSource<int>>(inputs[0], "l", run_size);
        auto& sr = graph.Add<VectorSource<int>>(inputs[1], "r", run_size);
        auto identity = [](int v) { return v; };
        auto combine = [](int a, int b) { return a * 100 + b; };
        auto& join = graph.Add(
            MakeHashJoin<int, int>(identity, identity, combine));
        join.SetMemoryLimit(std::numeric_limits<std::size_t>::max() - 1);
        sl.AddSubscriber(join.left());
        sr.AddSubscriber(join.right());
        join.AddSubscriber(probe.input());
      },
      ProgressCheck::kMonotoneOnly, ElementCheck::kMultiset);
}

// Mixed-path graph: run source -> row-at-a-time operator (CountWindow's
// `PortRun` loops over the run and `Transfer`s one row at a time) -> buffer
// train drain. The buffer's train drain coarsens progress in the reference
// run too, at boundaries that depend on queued heartbeats, so only
// monotonicity is asserted.
TEST_P(BatchEquivalence, MixedPathThroughCountWindowAndBuffer) {
  RandomStreamOptions options;
  options.max_duration = 1;
  const auto input = Stream(options);
  ExpectRunsEqualPerElement(
      {input},
      [](QueryGraph& graph, const auto& inputs, std::size_t run_size,
         ProbeSink& probe) {
        auto& source = graph.Add<VectorSource<int>>(inputs[0], "source",
                                                    run_size);
        auto& window = graph.Add<CountWindow<int>>(/*rows=*/5);
        auto& buffer = graph.Add<Buffer<int>>();
        auto fn = [](int v) { return v - 3; };
        auto& map = graph.Add<Map<int, int, decltype(fn)>>(fn);
        source.AddSubscriber(window.input());
        window.AddSubscriber(buffer.input());
        buffer.AddSubscriber(map.input());
        map.AddSubscriber(probe.input());
      },
      ProgressCheck::kMonotoneOnly);
}

// Filter -> map -> union -> buffer: the bench_batch chain, checked for
// semantics here so the bench can claim pure-performance differences.
TEST_P(BatchEquivalence, FilterMapUnionBufferChain) {
  const auto a = Stream();
  const auto b = Stream();
  ExpectRunsEqualPerElement(
      {a, b},
      [](QueryGraph& graph, const auto& inputs, std::size_t run_size,
         ProbeSink& probe) {
        auto& sa = graph.Add<VectorSource<int>>(inputs[0], "a", run_size);
        auto& sb = graph.Add<VectorSource<int>>(inputs[1], "b", run_size);
        auto pred = [](int v) { return v % 2 == 0; };
        auto& filter = graph.Add<Filter<int, decltype(pred)>>(pred);
        auto fn = [](int v) { return v + 100; };
        auto& map = graph.Add<Map<int, int, decltype(fn)>>(fn);
        auto& u = graph.Add<Union<int>>();
        auto& buffer = graph.Add<Buffer<int>>();
        sa.AddSubscriber(filter.input());
        filter.AddSubscriber(map.input());
        map.AddSubscriber(u.left());
        sb.AddSubscriber(u.right());
        u.AddSubscriber(buffer.input());
        buffer.AddSubscriber(probe.input());
      },
      ProgressCheck::kMonotoneOnly, ElementCheck::kMultiset);
}

// Two sources fanned in to the union's *left* port: per-port arrival order
// breaks, forcing the union off its two-queue fast path onto the spilled
// heap, which must release the same elements in start order.
TEST_P(BatchEquivalence, UnionFanInSpillPath) {
  const auto a = Stream();
  const auto b = Stream();
  const auto c = Stream();
  ExpectRunsEqualPerElement(
      {a, b, c},
      [](QueryGraph& graph, const auto& inputs, std::size_t run_size,
         ProbeSink& probe) {
        auto& sa = graph.Add<VectorSource<int>>(inputs[0], "a", run_size);
        auto& sb = graph.Add<VectorSource<int>>(inputs[1], "b", run_size);
        auto& sc = graph.Add<VectorSource<int>>(inputs[2], "c", run_size);
        auto& u = graph.Add<Union<int>>();
        sa.AddSubscriber(u.left());
        sb.AddSubscriber(u.left());
        sc.AddSubscriber(u.right());
        u.AddSubscriber(probe.input());
      },
      ProgressCheck::kMonotoneOnly, ElementCheck::kMultiset);
}

TEST_P(BatchEquivalence, SlideAndUnboundedWindowChains) {
  RandomStreamOptions options;
  options.max_duration = 1;
  const auto input = Stream(options);
  ExpectRunsEqualPerElement(
      {input}, UnaryChain<SlideWindow<int>>(/*size=*/9, /*slide=*/4));
  ExpectRunsEqualPerElement({input}, UnaryChain<UnboundedWindow<int>>());
}

TEST_P(BatchEquivalence, TemporalAndGroupedAggregateChains) {
  const auto input = Stream();
  const auto value = [](int v) { return v; };
  // Heartbeats are capped at the oldest pending segment, which depends on
  // how much input arrived before each notification: monotone only.
  ExpectRunsEqualPerElement(
      {input},
      UnaryChain<TemporalAggregate<int, SumAgg<int>, decltype(value)>>(value),
      ProgressCheck::kMonotoneOnly);
  // Segments of different groups with equal starts are staged in the order
  // their groups finalize, which moves with the watermark granularity.
  ExpectRunsEqualPerElement(
      {input},
      [value](QueryGraph& graph, const auto& inputs, std::size_t run_size,
              ProbeSink& probe) {
        auto& source = graph.Add<VectorSource<int>>(inputs[0], "source",
                                                    run_size);
        auto key = [](int v) { return v % 3; };
        auto& grouped = graph.Add<GroupedAggregate<
            int, CountAgg<int>, decltype(key), decltype(value)>>(key, value);
        auto encode = [](const std::pair<int, std::uint64_t>& kv) {
          return kv.first * 1000 + static_cast<int>(kv.second);
        };
        auto& flatten = graph.Add<
            Map<std::pair<int, std::uint64_t>, int, decltype(encode)>>(encode);
        source.AddSubscriber(grouped.input());
        grouped.AddSubscriber(flatten.input());
        flatten.AddSubscriber(probe.input());
      },
      ProgressCheck::kMonotoneOnly, ElementCheck::kMultiset);
}

TEST_P(BatchEquivalence, DistinctAndPartitionedWindowChains) {
  RandomStreamOptions options;
  options.payload_domain = 4;  // frequent duplicates and shared partitions
  const auto input = Stream(options);
  ExpectRunsEqualPerElement({input}, UnaryChain<Distinct<int>>(),
                            ProgressCheck::kMonotoneOnly,
                            ElementCheck::kSnapshot);
  // Heartbeats are capped at the oldest retained row: monotone only.
  const auto key = [](int v) { return v % 2; };
  ExpectRunsEqualPerElement(
      {input},
      UnaryChain<PartitionedWindow<int, decltype(key)>>(key, /*rows=*/3),
      ProgressCheck::kMonotoneOnly);
}

TEST_P(BatchEquivalence, DifferenceAndIntersectChains) {
  RandomStreamOptions options;
  options.payload_domain = 4;  // payloads overlap across both inputs
  const auto left = Stream(options);
  const auto right = Stream(options);
  ExpectRunsEqualPerElement({left, right}, BinaryChain<Difference<int>>(),
                            ProgressCheck::kMonotoneOnly,
                            ElementCheck::kMultiset);
  ExpectRunsEqualPerElement({left, right}, BinaryChain<Intersect<int>>(),
                            ProgressCheck::kMonotoneOnly,
                            ElementCheck::kMultiset);
}

TEST_P(BatchEquivalence, IStreamAndDStreamChains) {
  const auto input = Stream();
  ExpectRunsEqualPerElement({input}, UnaryChain<IStream<int>>());
  ExpectRunsEqualPerElement({input}, UnaryChain<DStream<int>>());
}

TEST_P(BatchEquivalence, MultiwayJoinChain) {
  RandomStreamOptions options;
  options.count = 120;
  options.payload_domain = 5;  // frequent key collisions
  const auto a = Stream(options);
  const auto b = Stream(options);
  const auto c = Stream(options);
  ExpectRunsEqualPerElement(
      {a, b, c},
      [](QueryGraph& graph, const auto& inputs, std::size_t run_size,
         ProbeSink& probe) {
        auto key = [](int v) { return v; };
        auto& join =
            graph.Add<sweeparea::MultiwayJoin<int, decltype(key)>>(3, key);
        for (std::size_t i = 0; i < inputs.size(); ++i) {
          auto& source = graph.Add<VectorSource<int>>(
              inputs[i], "s" + std::to_string(i), run_size);
          source.AddSubscriber(join.input(i));
        }
        auto encode = [](const std::vector<int>& v) {
          return v[0] * 100 + v[1] * 10 + v[2];
        };
        auto& flatten =
            graph.Add<Map<std::vector<int>, int, decltype(encode)>>(encode);
        join.AddSubscriber(flatten.input());
        flatten.AddSubscriber(probe.input());
      },
      ProgressCheck::kMonotoneOnly, ElementCheck::kMultiset);
}

// Keyed parallelism on one executor: Partition routes each run as one
// sub-run per replica, the partitioned-window replicas run their own
// hooks, and Merge restores start order. Equal starts interleave across
// replicas in arrival order, which depends on the run size, so the
// elements are compared as multisets (DESIGN.md §4c).
TEST_P(BatchEquivalence, PartitionReplicasMergeStage) {
  RandomStreamOptions options;
  options.payload_domain = 6;
  const auto input = Stream(options);
  ExpectRunsEqualPerElement(
      {input},
      [](QueryGraph& graph, const auto& inputs, std::size_t run_size,
         ProbeSink& probe) {
        constexpr std::size_t kReplicas = 3;
        auto& source = graph.Add<VectorSource<int>>(inputs[0], "source",
                                                    run_size);
        auto key = [](int v) { return v; };
        auto& split =
            graph.Add<Partition<int, decltype(key)>>(kReplicas, key);
        auto& merge = graph.Add<Merge<int>>(kReplicas);
        source.AddSubscriber(split.input());
        for (std::size_t i = 0; i < kReplicas; ++i) {
          auto& replica = graph.Add<PartitionedWindow<int, decltype(key)>>(
              key, /*rows=*/2, "rows-" + std::to_string(i));
          split.AddSubscriber(i, replica.input());
          replica.AddSubscriber(merge.input(i));
        }
        merge.AddSubscriber(probe.input());
      },
      ProgressCheck::kMonotoneOnly, ElementCheck::kMultiset);
}

// Cross-thread edge: run source -> ConcurrentBuffer -> map, driven by
// the ThreadScheduler. Thread interleaving makes intermediate progress
// nondeterministic, so only the end state is compared against the
// single-threaded runs-of-1 reference.
TEST_P(BatchEquivalence, ConcurrentBufferTrainDrainUnderThreadScheduler) {
  const auto input = Stream();
  const BuildFn build = [](QueryGraph& graph, const auto& inputs,
                           std::size_t run_size, ProbeSink& probe) {
    auto& source = graph.Add<VectorSource<int>>(inputs[0], "source",
                                                run_size);
    auto& buffer = graph.Add<ConcurrentBuffer<int>>();
    auto fn = [](int v) { return v * 5; };
    auto& map = graph.Add<Map<int, int, decltype(fn)>>(fn);
    source.AddSubscriber(buffer.input());
    buffer.AddSubscriber(map.input());
    map.AddSubscriber(probe.input());
  };
  const Observation reference = RunGraph({input}, /*run_size=*/1, build);
  for (std::size_t run_size : {1u, 32u}) {
    SCOPED_TRACE("run_size=" + std::to_string(run_size));
    QueryGraph graph;
    auto& probe = graph.Add<ProbeSink>();
    build(graph, {input}, run_size, probe);
    scheduler::ThreadScheduler driver(
        graph, /*num_threads=*/2,
        [] { return std::make_unique<scheduler::RoundRobinStrategy>(); },
        /*assignment=*/{}, /*batch_size=*/64);
    driver.RunToCompletion();
    EXPECT_EQ(probe.elements, reference.elements);
    EXPECT_TRUE(probe.done());
    EXPECT_EQ(probe.watermark(), reference.final_watermark);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchEquivalence,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace pipes
