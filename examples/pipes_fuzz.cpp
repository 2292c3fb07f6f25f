// Deterministic simulation fuzzer: generates random-but-valid logical plans
// over randomized traffic streams, drives each through many seeded
// schedules, fault injections, the optimizer and the engine, and checks
// every run against the one reference evaluator plus the streaming
// invariants.
//
//   pipes_fuzz --cases 2000 --seed 1          # CI smoke campaign
//   pipes_fuzz --minutes 15                   # nightly time-boxed campaign
//   pipes_fuzz --replay <case-seed>           # reproduce one case verbosely
//   pipes_fuzz --self-check                   # verify the oracles detect
//                                             # planted canary bugs
//
// Exit status: 0 = everything passed, 1 = a failure (or missed canary).

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "src/testing/harness.h"

namespace {

using namespace pipes::testing;  // NOLINT: CLI brevity

struct CliOptions {
  std::uint64_t seed = 1;
  std::uint64_t cases = 2000;
  double minutes = 0;  // >0: time-boxed campaign, `cases` becomes the cap
  bool self_check = false;
  bool replay = false;
  std::uint64_t replay_seed = 0;
  HarnessOptions harness;
};

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--seed N] [--cases N] [--minutes M] [--fault-mix MIX]\n"
      "          [--variants N] [--canary KIND] [--replay CASE_SEED]\n"
      "          [--self-check]\n"
      "  MIX: all | none | comma list of overflow,memory,stall\n"
      "  KIND: drop-element | duplicate-element | corrupt-payload |\n"
      "        widen-interval | stale-replay | heartbeat-overshoot\n",
      argv0);
  return 2;
}

bool ParseCanary(const std::string& name, CanaryKind* out) {
  for (int i = 0; i < kNumCanaryKinds; ++i) {
    const CanaryKind kind = static_cast<CanaryKind>(i);
    if (name == CanaryKindName(kind)) {
      *out = kind;
      return true;
    }
  }
  return false;
}

/// Shrinks a failing case and prints the minimal repro + replay command.
void ReportFailure(std::uint64_t case_seed, const CliOptions& cli) {
  std::cout << "shrinking...\n";
  const ShrinkResult shrunk = Shrink(MakeCase(case_seed, cli.harness.gen),
                                     case_seed, cli.harness, 300);
  std::size_t total = 0;
  for (const Stream& s : shrunk.shrunk.inputs) total += s.size();
  std::cout << "minimal repro (" << PlanSize(shrunk.shrunk.plan)
            << " plan nodes, " << total << " input elements, " << shrunk.reruns
            << " reruns):\n"
            << shrunk.shrunk.plan->ToString()
            << "failure: " << shrunk.result.Summary() << "\n";
  std::cout << "replay: pipes_fuzz --replay " << case_seed;
  if (cli.harness.fault_mix != "all") {
    std::cout << " --fault-mix " << cli.harness.fault_mix;
  }
  if (cli.harness.canary != CanaryKind::kNone) {
    std::cout << " --canary " << CanaryKindName(cli.harness.canary);
  }
  std::cout << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return ++i < argc ? argv[i] : nullptr;
    };
    if (arg == "--seed") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      cli.seed = std::strtoull(v, nullptr, 0);
    } else if (arg == "--cases") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      cli.cases = std::strtoull(v, nullptr, 0);
    } else if (arg == "--minutes") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      cli.minutes = std::strtod(v, nullptr);
      cli.cases = ~std::uint64_t{0};  // time-boxed: no case cap
    } else if (arg == "--fault-mix") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      cli.harness.fault_mix = v;
    } else if (arg == "--variants") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      cli.harness.schedule_variants = std::atoi(v);
    } else if (arg == "--canary") {
      const char* v = next();
      if (v == nullptr || !ParseCanary(v, &cli.harness.canary)) {
        return Usage(argv[0]);
      }
    } else if (arg == "--replay") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      cli.replay = true;
      cli.replay_seed = std::strtoull(v, nullptr, 0);
    } else if (arg == "--self-check") {
      cli.self_check = true;
    } else {
      return Usage(argv[0]);
    }
  }

  if (cli.self_check) {
    std::cout << "self-check: planting canary bugs, every kind must be "
                 "caught\n";
    const bool ok = SelfCheck(cli.seed, &std::cout);
    std::cout << (ok ? "self-check passed\n" : "self-check FAILED\n");
    return ok ? 0 : 1;
  }

  if (cli.replay) {
    const FuzzCase c = MakeCase(cli.replay_seed, cli.harness.gen);
    std::cout << "replaying case seed " << cli.replay_seed << ":\n"
              << c.plan->ToString();
    CaseResult r = RunCaseOn(c, cli.replay_seed, cli.harness);
    if (r.ok()) {
      std::cout << "case passed\n";
      return 0;
    }
    std::cout << "case FAILED: " << r.Summary() << "\n";
    ReportFailure(cli.replay_seed, cli);
    return 1;
  }

  const auto start = std::chrono::steady_clock::now();
  auto out_of_time = [&]() {
    if (cli.minutes <= 0) return false;
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    return elapsed.count() >= cli.minutes * 60.0;
  };

  FuzzStats total;
  std::uint64_t index = 0;
  const std::uint64_t batch = 100;
  while (total.cases_run < cli.cases && !out_of_time()) {
    const std::uint64_t want =
        std::min<std::uint64_t>(batch, cli.cases - total.cases_run);
    // RunFuzz derives case seeds from (seed, global index), so batching
    // does not change which cases run.
    for (std::uint64_t b = 0; b < want; ++b) {
      const std::uint64_t case_seed = CaseSeed(cli.seed, index++);
      const FuzzCase c = MakeCase(case_seed, cli.harness.gen);
      CaseResult r = RunCaseOn(c, case_seed, cli.harness);
      ++total.cases_run;
      total.arms_run += r.arms.size();
      if (!r.ok()) {
        ++total.failed_cases;
        std::cout << "FAIL case " << (index - 1) << " seed " << case_seed
                  << ": " << r.Summary() << "\nplan:\n"
                  << c.plan->ToString();
        ReportFailure(case_seed, cli);
        return 1;
      }
      if (out_of_time()) break;
    }
    if (total.cases_run % 500 == 0 || out_of_time()) {
      std::cout << "  " << total.cases_run << " cases, " << total.arms_run
                << " arms, 0 failures\n";
    }
  }
  std::cout << "fuzz campaign passed: " << total.cases_run << " cases, "
            << total.arms_run << " arms, 0 failures\n";
  return 0;
}
