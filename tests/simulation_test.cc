// Tests for the deterministic simulation harness itself: the plan generator
// emits valid, diverse `LogicalPlan`s the optimizer has work on, the
// comparator and the runtime oracles detect the bug classes they claim to
// (via planted canaries), a failing case shrinks to a minimal repro, and
// the whole pipeline is a pure function of its seed. The full-scale
// campaigns live in CI (examples/pipes_fuzz); this file keeps the harness
// honest at unit cost.

#include <cstdint>
#include <functional>
#include <set>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "src/optimizer/optimizer.h"
#include "src/testing/conformance.h"
#include "src/testing/harness.h"
#include "src/testing/oracles.h"

namespace pipes::testing {
namespace {

using conformance::IntervalTable;
using conformance::SnapRel;
using conformance::SnapshotDiff;
using optimizer::LogicalOp;
using optimizer::LogicalPlan;
using optimizer::WindowKind;
using relational::Tuple;
using relational::Value;

/// Visits every node of `plan` (shared subplans once per parent).
void Walk(const LogicalPlan& plan,
          const std::function<void(const LogicalOp&)>& visit) {
  visit(*plan);
  for (const LogicalPlan& child : plan->children) Walk(child, visit);
}

bool ContainsDistinct(const LogicalPlan& plan) {
  bool found = false;
  Walk(plan, [&](const LogicalOp& op) {
    found |= op.kind == LogicalOp::Kind::kDistinct;
  });
  return found;
}

std::vector<conformance::CorpusStream> StreamsOf(const FuzzCase& c) {
  std::vector<conformance::CorpusStream> streams;
  for (std::size_t s = 0; s < c.inputs.size(); ++s) {
    streams.push_back(
        {StreamName(s), StreamSchema(), SortByStart(c.inputs[s])});
  }
  return streams;
}

// --- Generator --------------------------------------------------------------

// Every operator kind and window kind shows up across 200 plans, scans
// only name the case's streams, and the segmentation rule holds: IStream /
// DStream read interval boundaries, which a Distinct below them makes
// schedule-dependent.
TEST(SimulationGenerator, PlansAreValidAndDiverse) {
  std::set<LogicalOp::Kind> kinds;
  std::set<WindowKind> windows;
  int resegmenting_plans = 0;
  for (std::uint64_t i = 0; i < 200; ++i) {
    const FuzzCase c = MakeCase(CaseSeed(99, i));
    EXPECT_EQ(c.inputs.size(), c.profiles.size());
    Walk(c.plan, [&](const LogicalOp& op) {
      kinds.insert(op.kind);
      if (op.kind == LogicalOp::Kind::kStreamScan) {
        windows.insert(op.window.kind);
        bool known = false;
        for (std::size_t s = 0; s < c.inputs.size(); ++s) {
          known |= op.stream_name == StreamName(s);
        }
        EXPECT_TRUE(known) << op.stream_name;
      }
      if (op.kind == LogicalOp::Kind::kIStream ||
          op.kind == LogicalOp::Kind::kDStream) {
        EXPECT_FALSE(ContainsDistinct(op.children[0]))
            << "boundary-reading op over a Distinct:\n"
            << c.plan->ToString();
      }
    });
    if (ContainsDistinct(c.plan)) ++resegmenting_plans;
  }
  EXPECT_EQ(kinds.size(),
            static_cast<std::size_t>(LogicalOp::Kind::kIntersect) + 1);
  EXPECT_EQ(windows.size(),
            static_cast<std::size_t>(WindowKind::kPartitionedRows) + 1);
  // The constraint must not have priced Distinct out of the pool.
  EXPECT_GT(resegmenting_plans, 10);
}

// The generator gives the optimizer work: key extraction from the
// analyzer-shaped cross joins, filter merging, join reordering.
TEST(SimulationGenerator, OptimizerRewritesGeneratedPlans) {
  const optimizer::Optimizer optimizer;
  int changed = 0;
  for (std::uint64_t i = 0; i < 200; ++i) {
    const LogicalPlan plan = MakeCase(CaseSeed(99, i)).plan;
    changed += optimizer.Optimize(plan).plan->Signature() != plan->Signature();
  }
  EXPECT_GE(changed, 20);
}

TEST(SimulationGenerator, RewritesPreserveReferenceSemantics) {
  const optimizer::Optimizer optimizer;
  for (std::uint64_t i = 0; i < 50; ++i) {
    const FuzzCase c = MakeCase(CaseSeed(123, i));
    const auto streams = StreamsOf(c);
    const auto expected = conformance::ReferenceEval(c.plan, streams);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    const auto actual = conformance::ReferenceEval(
        optimizer.Optimize(c.plan).plan, streams);
    ASSERT_TRUE(actual.ok()) << actual.status().ToString();
    const conformance::TableDiff diff = SnapshotDiff(*expected, *actual);
    EXPECT_TRUE(diff.equivalent) << "optimizing changed semantics on seed "
                                 << CaseSeed(123, i) << ": " << diff.message;
  }
}

// --- Oracles ----------------------------------------------------------------

IntervalTable Table(std::vector<std::pair<std::int64_t, TimeInterval>> rows) {
  IntervalTable t;
  for (const auto& [v, iv] : rows) t.rows.emplace_back(Tuple{Value(v)}, iv);
  return t;
}

TEST(SimulationOracles, SnapshotCompareFindsMultiplicityDrift) {
  const IntervalTable expected =
      Table({{7, TimeInterval(0, 10)}, {7, TimeInterval(5, 15)}});
  EXPECT_TRUE(SnapshotDiff(expected, expected).equivalent);

  // Same payloads, same total mass, shifted boundary: snapshot at t in
  // [10, 12) now has multiplicity 2 instead of 1.
  const IntervalTable shifted =
      Table({{7, TimeInterval(0, 12)}, {7, TimeInterval(5, 15)}});
  EXPECT_FALSE(SnapshotDiff(expected, shifted).equivalent);
  // ...and that is not a subset either (extra mass).
  EXPECT_FALSE(SnapshotDiff(expected, shifted, SnapRel::kSubset).equivalent);

  // Dropping an element is a subset but not equal.
  const IntervalTable lossy = Table({{7, TimeInterval(0, 10)}});
  EXPECT_FALSE(SnapshotDiff(expected, lossy).equivalent);
  EXPECT_TRUE(SnapshotDiff(expected, lossy, SnapRel::kSubset).equivalent);
}

TEST(SimulationOracles, ConservationRules) {
  EXPECT_FALSE(CheckConservation(ConservationRule::kExact, 10, 10, 0, 0, "n")
                   .has_value());
  EXPECT_TRUE(CheckConservation(ConservationRule::kExact, 10, 9, 0, 0, "n")
                  .has_value());
  EXPECT_FALSE(
      CheckConservation(ConservationRule::kExactPlusShed, 10, 7, 3, 0, "n")
          .has_value());
  EXPECT_TRUE(
      CheckConservation(ConservationRule::kExactPlusShed, 10, 7, 2, 0, "n")
          .has_value());
  EXPECT_FALSE(
      CheckConservation(ConservationRule::kAtMostDoubleIn, 10, 21, 0, 0, "n")
          .has_value());
  EXPECT_TRUE(
      CheckConservation(ConservationRule::kAtMostDoubleIn, 10, 22, 0, 0, "n")
          .has_value());
  NodeDescriptor filter;
  filter.op = "filter";
  EXPECT_EQ(RuleFor(filter), ConservationRule::kAtMostIn);
  NodeDescriptor buffer;
  buffer.op = "buffer";
  EXPECT_EQ(RuleFor(buffer), ConservationRule::kExactPlusShed);
}

// --- End-to-end harness -----------------------------------------------------

TEST(SimulationHarness, SmallCampaignPassesClean) {
  std::ostringstream log;
  const FuzzStats stats = RunFuzz(/*base_seed=*/2026, /*num_cases=*/60,
                                  HarnessOptions{}, &log);
  EXPECT_EQ(stats.failed_cases, 0u) << stats.first_failure.Summary();
  EXPECT_EQ(stats.cases_run, 60u);
  // Every arm runs at least once, the optimizer and engine arms included.
  for (const char* arm :
       {"naive", "batched-4", "batched-32", "schedule-0", "columnar-32",
        "reorder", "parallel", "fault-overflow", "fault-memory", "fault-spill",
        "fault-stall", "optimize", "engine"}) {
    EXPECT_GT(stats.arms_by_name.count(arm), 0u) << arm << " never ran";
  }
}

TEST(SimulationHarness, SelfCheckCatchesEveryCanary) {
  std::ostringstream log;
  EXPECT_TRUE(SelfCheck(/*seed=*/5, &log)) << log.str();
#ifndef NDEBUG
  // With PIPES_DCHECK on, the start-order check in the canary's own
  // Transfer is what catches the heartbeat overshoot.
  HarnessOptions options;
  options.fault_mix = "none";
  options.canary = CanaryKind::kHeartbeatOvershoot;
  EXPECT_DEATH(
      {
        for (std::uint64_t i = 0; i < 25; ++i) {
          (void)RunCase(CaseSeed(5 ^ 0x106, i), options);
        }
      },
      "PIPES_CHECK failed");
#endif
}

TEST(SimulationHarness, CaseVerdictIsDeterministic) {
  HarnessOptions options;
  options.canary = CanaryKind::kCorruptPayload;
  const CaseResult a = RunCase(CaseSeed(17, 0), options);
  const CaseResult b = RunCase(CaseSeed(17, 0), options);
  EXPECT_EQ(a.ok(), b.ok());
  EXPECT_EQ(a.failing_arm, b.failing_arm);
  EXPECT_EQ(a.Summary(), b.Summary());
}

// A hand-broken pipeline (planted element-dropping bug) must shrink to a
// minimal repro — at most 5 operators — that still fails with the same
// harness options, so the printed replay line works.
TEST(SimulationHarness, ShrinkReducesPlantedBugToMinimalRepro) {
  HarnessOptions options;
  options.canary = CanaryKind::kDropElement;
  const std::uint64_t case_seed = CaseSeed(7, 0);

  const FuzzCase c = MakeCase(case_seed);
  const CaseResult broken = RunCaseOn(c, case_seed, options);
  ASSERT_FALSE(broken.ok()) << "canary was not detected at all";
  ASSERT_GT(PlanSize(c.plan), 5u) << "pick a seed with a bigger plan";

  const ShrinkResult shrunk = Shrink(c, case_seed, options, /*max_reruns=*/300);
  EXPECT_FALSE(shrunk.result.ok());
  EXPECT_LE(PlanSize(shrunk.shrunk.plan), 5u) << shrunk.shrunk.plan->ToString();
  // The shrunk case must replay: running it again reproduces a failure.
  EXPECT_FALSE(RunCaseOn(shrunk.shrunk, case_seed, options).ok());
}

}  // namespace
}  // namespace pipes::testing
