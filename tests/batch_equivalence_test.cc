// Run-size x train-size equivalence: a graph whose sources emit columnar
// runs (`TransferRun`, source batch sizes > 1) must be indistinguishable at
// the sink from the same graph run per-element — the same elements in the
// same order, the same done signal, and the same final watermark. Progress
// notifications may be coarser (one merge per run instead of one per
// element) but must be a monotone subsequence of the per-element sequence:
// runs may skip intermediate watermarks, never invent or reorder them.
// Each seed picks its own scheduler train size, so the sweep covers run
// sizes {2, 7, 32, 512} against eight train sizes between 1 and 14.
//
// Chains cover the operators with columnar kernels (filter, map, union,
// windows, coalesce, buffer), the join's per-row fallback, and a mixed-path
// graph (run source -> element-only count window -> buffer), per DESIGN.md
// "Run delivery". Every arm runs on the `PipeExecutor` (DESIGN.md §4f),
// where transfers stage columnar runs into pipe edges.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/algebra/coalesce.h"
#include "src/algebra/filter.h"
#include "src/algebra/join.h"
#include "src/algebra/map.h"
#include "src/algebra/union.h"
#include "src/algebra/window.h"
#include "src/core/buffer.h"
#include "src/core/generator_source.h"
#include "src/core/graph.h"
#include "src/core/sink.h"
#include "src/scheduler/executor.h"
#include "src/scheduler/scheduler.h"
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
  void PortElement(int /*port_id*/, const StreamElement<int>& e) override {
    elements.push_back(e);
  }
  void PortProgress(int port_id, Timestamp watermark) override {
    progress.push_back(watermark);
    Sink<int>::PortProgress(port_id, watermark);
  }
};

/// Builds a graph around pre-built input streams and returns what the probe
/// saw. The build function wires sources (created with `run_size`) to the
/// probe.
using BuildFn = std::function<void(
    QueryGraph&, const std::vector<std::vector<StreamElement<int>>>&,
    std::size_t run_size, ProbeSink&)>;

Observation RunGraph(const std::vector<std::vector<StreamElement<int>>>& inputs,
                std::size_t run_size, std::size_t train_size,
                const BuildFn& build) {
  QueryGraph graph;
  auto& probe = graph.Add<ProbeSink>();
  build(graph, inputs, run_size, probe);
  scheduler::RoundRobinStrategy strategy;
  scheduler::PipeExecutor driver(graph, strategy, train_size);
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
/// train boundaries shift with the number of queued heartbeat entries — so
/// only direct (buffer-free) paths guarantee the subsequence relation.
enum class ProgressCheck { kSubsequenceOfReference, kMonotoneOnly };

/// Core assertion: for every run size, the graph is element-for-element
/// identical to the per-element (run size 1) graph and finishes with the
/// same done/watermark state. Progress values are always sorted; on
/// buffer-free paths they must additionally be a subsequence of the
/// per-element progress values (runs sample the same watermark trajectory
/// at coarser points — they may skip values, never invent or reorder them).
void ExpectRunsEqualPerElement(
    const std::vector<std::vector<StreamElement<int>>>& inputs,
    std::size_t train_size, const BuildFn& build,
    ProgressCheck progress_check = ProgressCheck::kSubsequenceOfReference) {
  const Observation reference = RunGraph(inputs, /*run_size=*/1, train_size,
                                         build);
  EXPECT_TRUE(reference.done);
  for (std::size_t run_size : {2u, 7u, 32u, 512u}) {
    SCOPED_TRACE("run_size=" + std::to_string(run_size) +
                 " train_size=" + std::to_string(train_size));
    const Observation runs = RunGraph(inputs, run_size, train_size, build);
    EXPECT_EQ(runs.elements, reference.elements);
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
          << "run progress is not a subsequence of per-element progress; "
          << "first unmatched run watermark: "
          << runs.progress[std::min(matched, runs.progress.size() - 1)];
    }
  }
}

class BatchEquivalence : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  std::vector<StreamElement<int>> Stream(RandomStreamOptions options = {}) {
    Random rng(GetParam() * 7919 + streams_drawn_++);
    return RandomIntStream(rng, options);
  }
  std::size_t TrainSize() const { return 1 + GetParam() % 17; }

 private:
  std::uint64_t streams_drawn_ = 0;
};

TEST_P(BatchEquivalence, FilterMapChain) {
  const auto input = Stream();
  ExpectRunsEqualPerElement(
      {input}, TrainSize(),
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
      {input}, TrainSize(),
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
  ExpectRunsEqualPerElement(
      {a, b}, TrainSize(),
      [](QueryGraph& graph, const auto& inputs, std::size_t run_size,
         ProbeSink& probe) {
        auto& sa = graph.Add<VectorSource<int>>(inputs[0], "a", run_size);
        auto& sb = graph.Add<VectorSource<int>>(inputs[1], "b", run_size);
        auto& u = graph.Add<Union<int>>();
        sa.AddSubscriber(u.left());
        sb.AddSubscriber(u.right());
        u.AddSubscriber(probe.input());
      });
}

// While a memory limit is armed (`ShedActive()`), the join's columnar
// kernels fall back to replaying each run row by row through
// `OnElement{Left,Right}`; a limit no run ever reaches keeps the results
// exact. This is the regression test for the two-step watermark raise in
// ReceiveRun — an eagerly raised watermark would let the join flush staged
// results ahead of later elements of the same input run.
TEST_P(BatchEquivalence, HashJoinViaDefaultReplay) {
  RandomStreamOptions options;
  options.count = 120;
  options.payload_domain = 5;  // frequent key collisions
  const auto left = Stream(options);
  const auto right = Stream(options);
  ExpectRunsEqualPerElement(
      {left, right}, TrainSize(),
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
      });
}

// Mixed-path graph: run source -> operator with only `PortElement`
// (CountWindow takes the default row-by-row `PortRun`) -> buffer train
// drain. Exercises run -> per-element -> run transitions across one chain.
// The buffer's train drain
// coarsens progress in the reference run too, at boundaries that depend on
// queued heartbeats, so only monotonicity is asserted.
TEST_P(BatchEquivalence, MixedPathThroughCountWindowAndBuffer) {
  RandomStreamOptions options;
  options.max_duration = 1;
  const auto input = Stream(options);
  ExpectRunsEqualPerElement(
      {input}, TrainSize(),
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
      {a, b}, TrainSize(),
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
      ProgressCheck::kMonotoneOnly);
}

// Two sources fanned in to the union's *left* port: per-port arrival order
// breaks, forcing the union off its two-queue fast path onto the spilled
// heap. Run and per-element graphs must still agree element-for-element
// (the spill preserves (start, arrival) release order exactly).
TEST_P(BatchEquivalence, UnionFanInSpillPath) {
  const auto a = Stream();
  const auto b = Stream();
  const auto c = Stream();
  ExpectRunsEqualPerElement(
      {a, b, c}, TrainSize(),
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
      });
}

// Cross-thread edge: run source -> ConcurrentBuffer -> map, driven by
// the ThreadScheduler. Thread interleaving makes intermediate progress
// nondeterministic, so only the end state is compared against the
// single-threaded per-element reference.
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
  const Observation reference = RunGraph({input}, /*run_size=*/1, TrainSize(),
                                         build);
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
