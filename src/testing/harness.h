#ifndef PIPES_TESTING_HARNESS_H_
#define PIPES_TESTING_HARNESS_H_

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "src/optimizer/logical_plan.h"
#include "src/testing/generate.h"
#include "src/testing/oracles.h"

/// \file
/// The schedule explorer: drives every fuzz case through many seeded
/// execution arms — per-element vs batched sources, randomized scheduling
/// strategies and quanta, spliced buffers, disordered sources, keyed
/// parallelism, injected faults (bounded-buffer overflow, memory-manager
/// budget squeezes with and without spilling, watermark starvation), the
/// rule-based optimizer, and `Engine::Register` next to other queries — and
/// checks each run against the one reference (`conformance::ReferenceEval`)
/// plus the streaming, conservation and static state-bound oracles. All
/// virtual time: no wall-clock sleeps anywhere.

namespace pipes::testing {

struct HarnessOptions {
  /// Extra randomized-schedule arms beyond the fixed ones.
  int schedule_variants = 3;

  /// Comma-separated subset of {overflow, memory, stall}, or "all"/"none".
  std::string fault_mix = "all";

  /// Run the optimize arm (`Optimizer::Optimize` against the reference,
  /// then physically) and the engine arm (`Engine::Register` after other
  /// generated queries over the same streams).
  bool check_rewrites = true;
  bool check_parallel = true;
  /// Capture metrics snapshots mid-run and check counter monotonicity and
  /// JSON round-tripping.
  bool check_snapshots = true;

  /// Planted bug (self-check / shrink tests); applies to every arm that
  /// owns its sink (all but the engine arm).
  CanaryKind canary = CanaryKind::kNone;

  /// Query-graph generator knobs (RunCase / RunFuzz only).
  GenOptions gen;
};

/// One fuzz case as plain data: a plan over s0..s{n-1} plus the streams.
struct FuzzCase {
  optimizer::LogicalPlan plan;
  /// `inputs[s]` is stream s in generated (possibly disordered) arrival
  /// order.
  std::vector<Stream> inputs;
  std::vector<StreamProfile> profiles;
};

/// Outcome of one case across all arms. Stops at the first failing arm.
struct CaseResult {
  std::uint64_t case_seed = 0;
  /// The arms that ran, in order (the failing one last).
  std::vector<std::string> arms;
  std::string failing_arm;
  std::vector<Failure> failures;

  bool ok() const { return failures.empty(); }
  /// One-line human summary of the first failure; empty when ok.
  std::string Summary() const;
};

struct FuzzStats {
  std::uint64_t cases_run = 0;
  std::uint64_t arms_run = 0;
  /// How often each arm ran, by name.
  std::map<std::string, std::uint64_t> arms_by_name;
  std::uint64_t failed_cases = 0;
  CaseResult first_failure;
};

/// Derives the per-case seed from a base seed (splitmix64 over the index),
/// so `--replay <case_seed>` reproduces one case without re-running the
/// whole campaign.
std::uint64_t CaseSeed(std::uint64_t base_seed, std::uint64_t index);

/// The case of `case_seed`: its plan and input streams.
FuzzCase MakeCase(std::uint64_t case_seed, const GenOptions& gen = {});

/// Generates the case for `case_seed` and runs every arm. Fully
/// deterministic in (case_seed, options).
CaseResult RunCase(std::uint64_t case_seed, const HarnessOptions& options = {});

/// Runs every arm on an explicit case — the entry point for corpus replay
/// and shrinking.
CaseResult RunCaseOn(const FuzzCase& fuzz_case, std::uint64_t schedule_seed,
                     const HarnessOptions& options);

/// Runs `num_cases` cases; stops early at the first failure (recorded in
/// `first_failure`). `log`, when non-null, receives progress lines.
FuzzStats RunFuzz(std::uint64_t base_seed, std::uint64_t num_cases,
                  const HarnessOptions& options = {},
                  std::ostream* log = nullptr);

/// Distinct operators in `plan` (its nodes, shared subplans counted once).
std::size_t PlanSize(const optimizer::LogicalPlan& plan);

/// A failing case reduced to (near-)minimal form: greedy operator bypassing
/// plus per-stream ddmin on the inputs, re-running the harness after each
/// candidate reduction.
struct ShrinkResult {
  FuzzCase shrunk;
  /// The failure the minimized case still exhibits.
  CaseResult result;
  int reruns = 0;
};

ShrinkResult Shrink(const FuzzCase& fuzz_case, std::uint64_t schedule_seed,
                    const HarnessOptions& options, int max_reruns = 300);

/// Plants each canary kind into otherwise-clean cases and verifies some
/// oracle catches every kind (and that clean control cases pass). Returns
/// true when the harness detects everything it claims to detect. In builds
/// with `PIPES_DCHECK` on, the start-order DCHECK in `Source::Transfer`
/// aborts on the heartbeat-overshoot canary before any oracle sees it, so
/// that kind is left to the DCHECK there.
bool SelfCheck(std::uint64_t seed, std::ostream* log = nullptr);

}  // namespace pipes::testing

#endif  // PIPES_TESTING_HARNESS_H_
