// Simulation-harness throughput: how many fuzz cases per second the
// generator, the reference evaluator, the snapshot comparator, and the
// full schedule explorer sustain.
//
// The fuzzer's value scales with its case rate — the nightly campaign is
// time-boxed (--minutes 15), so a 2x regression here halves the nightly
// coverage. The CI bench-smoke job runs this via the shared `--smoke`
// driver; locally, plain google-benchmark flags apply.

#include <cstdint>
#include <vector>

#include <benchmark/benchmark.h>

#include "src/testing/conformance.h"
#include "src/testing/harness.h"

namespace {

using namespace pipes::testing;  // NOLINT

struct PreparedCase {
  FuzzCase fuzz_case;
  std::vector<conformance::CorpusStream> streams;
  conformance::IntervalTable expected;
};

/// Pre-generates a pool of cases so the measured loops exercise exactly one
/// stage (reference eval, oracle compare, ...) instead of re-paying the
/// generator each iteration.
std::vector<PreparedCase> PrepareCases(std::uint64_t base_seed, int count) {
  std::vector<PreparedCase> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    PreparedCase c;
    c.fuzz_case = MakeCase(CaseSeed(base_seed, static_cast<std::uint64_t>(i)));
    for (std::size_t s = 0; s < c.fuzz_case.inputs.size(); ++s) {
      c.streams.push_back({StreamName(s), StreamSchema(),
                           SortByStart(c.fuzz_case.inputs[s])});
    }
    c.expected = *conformance::ReferenceEval(c.fuzz_case.plan, c.streams);
    out.push_back(std::move(c));
  }
  return out;
}

/// Plan + stream generation alone: the cost floor of every fuzz case.
void BM_GenerateCase(benchmark::State& state) {
  std::uint64_t index = 0;
  for (auto _ : state) {
    const FuzzCase c = MakeCase(CaseSeed(42, index++));
    benchmark::DoNotOptimize(c.inputs.size());
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["cases/s"] =
      benchmark::Counter(static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GenerateCase);

/// The one reference evaluator over a pool of generated plans.
void BM_ReferenceEval(benchmark::State& state) {
  const std::vector<PreparedCase> pool = PrepareCases(7, 16);
  std::size_t i = 0;
  for (auto _ : state) {
    const PreparedCase& c = pool[i++ % pool.size()];
    auto out = conformance::ReferenceEval(c.fuzz_case.plan, c.streams);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["cases/s"] =
      benchmark::Counter(static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ReferenceEval);

/// Snapshot-equivalence sweep (the dominant oracle) on reference outputs.
void BM_OracleSnapshotCompare(benchmark::State& state) {
  const std::vector<PreparedCase> pool = PrepareCases(11, 16);
  std::size_t i = 0;
  for (auto _ : state) {
    const PreparedCase& c = pool[i++ % pool.size()];
    auto diff = conformance::SnapshotDiff(c.expected, c.expected);
    benchmark::DoNotOptimize(diff);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["compares/s"] =
      benchmark::Counter(static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_OracleSnapshotCompare);

/// One full fuzz case: every execution arm (schedules, faults, optimizer,
/// engine, parallel replication) plus all oracles. This is the campaign's true
/// cases-per-second number.
void BM_FullCase(benchmark::State& state) {
  const std::vector<PreparedCase> pool = PrepareCases(3, 8);
  HarnessOptions options;
  std::size_t i = 0;
  std::uint64_t arms = 0;
  for (auto _ : state) {
    const std::size_t k = i++ % pool.size();
    const PreparedCase& c = pool[k];
    CaseResult r =
        RunCaseOn(c.fuzz_case, CaseSeed(3, static_cast<std::uint64_t>(k)),
                  options);
    arms += r.arms.size();
    if (!r.ok()) {
      state.SkipWithError("fuzz case failed inside the benchmark");
      break;
    }
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["cases/s"] =
      benchmark::Counter(static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
  state.counters["arms"] = static_cast<double>(arms);
}
BENCHMARK(BM_FullCase)->Unit(benchmark::kMillisecond);

}  // namespace
