// pipes_lint: the static contract checker for query graphs (docs/lint.md).
//
//   pipes_lint --rules                 list the rule catalog
//   pipes_lint --fixtures              self-check: every rule fires on its
//                                      broken-graph fixture
//   pipes_lint --workload traffic      lint a clean demo workload graph
//   pipes_lint --workload nexmark
//   pipes_lint --demo-plan             build a demo logical plan, lint it
//                                      in memory AND through an XML
//                                      round-trip, verify both agree
//   pipes_lint plan.xml [...]          lint stored plan documents
//   pipes_lint --certify ...           dataflow abstract interpretation:
//                                      print the per-edge fact table and
//                                      the StateCertificate for each
//                                      subject (workloads, plan files,
//                                      --demo-plan, --fuzz-corpus N)
//   pipes_lint --certify --fuzz-corpus 15
//                                      certify N generated fuzz-corpus
//                                      plans (seeded, deterministic)
//
// Options: --json (machine-readable output, schema_version stamped),
// --dot (Graphviz fact graph in certify mode), --corpus-seed N,
// --fail-on=error|warning|note (exit 1 when a diagnostic at or above the
// threshold is present; default error; in certify mode an unbounded or
// non-progressing certificate counts as a warning). Exit codes: 0 clean
// (below threshold), 1 findings or fixture failure, 2 usage/input error.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/analysis/analyzer.h"
#include "src/analysis/dataflow.h"
#include "src/analysis/fixtures.h"
#include "src/core/generator_source.h"
#include "src/core/sink.h"
#include "src/cql/catalog.h"
#include "src/optimizer/logical_plan.h"
#include "src/optimizer/physical.h"
#include "src/optimizer/plan_xml.h"
#include "src/relational/expression.h"
#include "src/relational/schema.h"
#include "src/testing/harness.h"

namespace {

using pipes::analysis::Diagnostic;
using pipes::analysis::Severity;

struct Options {
  bool json = false;
  bool dot = false;
  bool rules = false;
  bool fixtures = false;
  bool demo_plan = false;
  bool certify = false;
  int fuzz_corpus = 0;
  std::uint64_t corpus_seed = 1;
  Severity fail_on = Severity::kError;
  std::vector<std::string> workloads;
  std::vector<std::string> plan_files;
};

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--json] [--dot] [--fail-on=error|warning|note] "
               "[--rules] [--fixtures] [--demo-plan] [--certify] "
               "[--fuzz-corpus N] [--corpus-seed N] "
               "[--workload traffic|nexmark|espbench] [plan.xml ...]\n",
               argv0);
  return 2;
}

/// Renders diagnostics for one lint subject and folds its worst severity
/// into the process-wide gate.
void Report(const std::string& subject,
            const std::vector<Diagnostic>& diags, const Options& options,
            Severity* worst) {
  if (options.json) {
    std::printf("{\"schema_version\": %d, \"subject\": \"%s\", "
                "\"diagnostics\": %s}\n",
                pipes::analysis::kLintJsonSchemaVersion, subject.c_str(),
                pipes::analysis::ToJson(diags).c_str());
  } else if (diags.empty()) {
    std::printf("%s: clean\n", subject.c_str());
  } else {
    std::printf("%s: %zu diagnostic(s)\n%s", subject.c_str(), diags.size(),
                pipes::analysis::ToText(diags).c_str());
  }
  const Severity max = pipes::analysis::MaxSeverity(diags);
  if (!diags.empty() && max > *worst) *worst = max;
}

/// Renders one dataflow analysis (certify mode). Returns whether the
/// certificate is healthy: bounded RAM, guaranteed progress, no cycle,
/// and (when a cost cross-check ran) a cost-model rate within the
/// certified bound. An unhealthy certificate counts as a warning-level
/// finding for the --fail-on gate.
bool CertifyReport(const std::string& subject,
                   const pipes::analysis::DataflowResult& analyzed,
                   const std::vector<Diagnostic>& diags,
                   const Options& options) {
  namespace an = pipes::analysis;
  if (options.json) {
    std::printf("{\"schema_version\": %d, \"subject\": \"%s\", "
                "\"dataflow\": %s, \"diagnostics\": %s}\n",
                an::kLintJsonSchemaVersion, subject.c_str(),
                an::ToJson(analyzed).c_str(), an::ToJson(diags).c_str());
  } else if (options.dot) {
    std::printf("%s", an::ToDot(analyzed).c_str());
  } else {
    std::printf("=== %s ===\n%s", subject.c_str(),
                an::ToText(analyzed).c_str());
    if (!diags.empty()) {
      std::printf("%s", an::ToText(diags).c_str());
    }
  }
  std::vector<std::string> problems;
  if (analyzed.has_cycle) problems.push_back("graph has a cycle");
  if (!analyzed.certificate.ram_bounded()) {
    problems.push_back("RAM certificate is unbounded");
  }
  if (!analyzed.certificate.progress_ok) {
    problems.push_back("watermark progress is not guaranteed");
  }
  if (analyzed.has_cost_check && !analyzed.rate_consistent) {
    problems.push_back("cost-model rate exceeds the certified rate bound");
  }
  for (const std::string& p : problems) {
    std::fprintf(stderr, "%s: certificate: %s\n", subject.c_str(), p.c_str());
  }
  return problems.empty();
}

/// A small plan with deliberate lint bait — DISTINCT over an UNBOUNDED
/// window — used to prove that linting the in-memory plan and linting its
/// XML serialization produce identical diagnostics.
pipes::optimizer::LogicalPlan DemoPlan() {
  using namespace pipes::optimizer;
  using namespace pipes::relational;
  const Schema bids({{"auction", ValueType::kInt},
                     {"bidder", ValueType::kInt},
                     {"price", ValueType::kDouble}});
  WindowSpec unbounded;
  unbounded.kind = WindowKind::kUnbounded;
  auto scan = ScanOp("bids", bids, unbounded);
  auto pricey = FilterOp(scan, MakeBinary(BinaryOp::kGt,
                                          MakeField(2, "price"),
                                          MakeLiteral(Value(10.0))));
  return DistinctOp(ProjectOp(pricey, {MakeField(0, "auction")},
                              {"auction"}));
}

int RunFixtures(const Options& options) {
  int failures = 0;
  for (const auto& fixture : pipes::analysis::BrokenGraphFixtures()) {
    const std::string error = pipes::analysis::CheckFixture(fixture);
    if (error.empty()) {
      if (!options.json) {
        std::printf("fixture %-28s %s fires as expected\n",
                    fixture.name.c_str(), fixture.rule_id.c_str());
      }
    } else {
      ++failures;
      std::fprintf(stderr, "FAIL %s\n", error.c_str());
    }
  }
  std::printf("%zu fixtures, %d failure(s)\n",
              pipes::analysis::BrokenGraphFixtures().size(), failures);
  return failures == 0 ? 0 : 1;
}

int RunDemoPlan(
    const Options& options, Severity* worst,
    const std::function<void(const std::vector<Diagnostic>&)>& gate) {
  const auto plan = DemoPlan();
  auto direct = pipes::analysis::LintPlan(plan);
  if (!direct.ok()) {
    std::fprintf(stderr, "demo-plan: %s\n",
                 direct.status().ToString().c_str());
    return 2;
  }
  const std::string xml = pipes::optimizer::ToXml(plan);
  auto via_xml = pipes::analysis::LintPlanXml(xml);
  if (!via_xml.ok()) {
    std::fprintf(stderr, "demo-plan xml: %s\n",
                 via_xml.status().ToString().c_str());
    return 2;
  }
  if (direct.value() != via_xml.value()) {
    std::fprintf(stderr,
                 "demo-plan: XML round-trip changed the diagnostics\n"
                 "in-memory:\n%svia xml:\n%s",
                 pipes::analysis::ToText(direct.value()).c_str(),
                 pipes::analysis::ToText(via_xml.value()).c_str());
    return 1;
  }
  Report("demo-plan", direct.value(), options, worst);
  gate(direct.value());
  std::printf("demo-plan: in-memory and XML round-trip diagnostics agree\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      options.json = true;
    } else if (arg == "--dot") {
      options.dot = true;
    } else if (arg == "--certify") {
      options.certify = true;
    } else if (arg == "--fuzz-corpus") {
      if (++i == argc) return Usage(argv[0]);
      options.fuzz_corpus = std::atoi(argv[i]);
      if (options.fuzz_corpus <= 0) return Usage(argv[0]);
    } else if (arg == "--corpus-seed") {
      if (++i == argc) return Usage(argv[0]);
      options.corpus_seed =
          static_cast<std::uint64_t>(std::strtoull(argv[i], nullptr, 10));
    } else if (arg == "--rules") {
      options.rules = true;
    } else if (arg == "--fixtures") {
      options.fixtures = true;
    } else if (arg == "--demo-plan") {
      options.demo_plan = true;
    } else if (arg == "--fail-on=error") {
      options.fail_on = Severity::kError;
    } else if (arg == "--fail-on=warning") {
      options.fail_on = Severity::kWarning;
    } else if (arg == "--fail-on=note") {
      options.fail_on = Severity::kNote;
    } else if (arg == "--workload") {
      if (++i == argc) return Usage(argv[0]);
      options.workloads.push_back(argv[i]);
    } else if (!arg.empty() && arg[0] == '-') {
      return Usage(argv[0]);
    } else {
      options.plan_files.push_back(arg);
    }
  }
  if (!options.rules && !options.fixtures && !options.demo_plan &&
      options.workloads.empty() && options.plan_files.empty() &&
      options.fuzz_corpus == 0) {
    return Usage(argv[0]);
  }
  // --fuzz-corpus and --dot only make sense in certify mode.
  if ((options.fuzz_corpus > 0 || options.dot) && !options.certify) {
    return Usage(argv[0]);
  }

  if (options.rules) {
    for (const auto& rule : pipes::analysis::RuleCatalog()) {
      std::printf("%s  %-7s  %s\n", rule.id,
                  pipes::analysis::SeverityName(rule.severity),
                  rule.summary);
    }
  }

  int exit_code = 0;
  if (options.fixtures) {
    exit_code = std::max(exit_code, RunFixtures(options));
  }

  Severity worst = Severity::kNote;
  bool any_findings = false;
  const auto gate = [&](const std::vector<Diagnostic>& diags) {
    if (!diags.empty() &&
        pipes::analysis::MaxSeverity(diags) >= options.fail_on) {
      any_findings = true;
    }
  };
  // Certify-mode health gate: an unhealthy certificate is a warning-level
  // finding even when no diagnostic rule fired.
  const auto cert_gate = [&](bool healthy) {
    if (!healthy && Severity::kWarning >= options.fail_on) {
      any_findings = true;
    }
  };

  for (const std::string& workload : options.workloads) {
    pipes::analysis::LintSubject subject;
    if (workload == "traffic") {
      subject = pipes::analysis::BuildTrafficLintGraph();
    } else if (workload == "nexmark") {
      subject = pipes::analysis::BuildNexmarkLintGraph();
    } else if (workload == "espbench") {
      subject = pipes::analysis::BuildEspbenchLintGraph();
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
      return 2;
    }
    const auto diags = subject.LintAll();
    if (options.certify) {
      const auto analyzed = pipes::analysis::AnalyzeDataflow(*subject.graph);
      cert_gate(
          CertifyReport("workload:" + workload, analyzed, diags, options));
    } else {
      Report("workload:" + workload, diags, options, &worst);
    }
    gate(diags);
  }

  if (options.demo_plan) {
    if (options.certify) {
      const auto plan = DemoPlan();
      auto analyzed = pipes::analysis::AnalyzeDataflowPlan(plan);
      auto diags = pipes::analysis::LintPlan(plan);
      if (!analyzed.ok() || !diags.ok()) {
        std::fprintf(stderr, "demo-plan: %s\n",
                     (!analyzed.ok() ? analyzed.status() : diags.status())
                         .ToString()
                         .c_str());
        return 2;
      }
      cert_gate(
          CertifyReport("demo-plan", analyzed.value(), diags.value(), options));
      gate(diags.value());
    } else {
      const int rc = RunDemoPlan(options, &worst, gate);
      if (rc != 0) return rc;
    }
  }

  for (const std::string& file : options.plan_files) {
    std::ifstream in(file);
    if (!in) {
      std::fprintf(stderr, "cannot read '%s'\n", file.c_str());
      return 2;
    }
    std::ostringstream xml;
    xml << in.rdbuf();
    auto diags = pipes::analysis::LintPlanXml(xml.str());
    if (!diags.ok()) {
      std::fprintf(stderr, "%s: %s\n", file.c_str(),
                   diags.status().ToString().c_str());
      return 2;
    }
    if (options.certify) {
      auto plan = pipes::optimizer::FromXml(xml.str());
      if (!plan.ok()) {
        std::fprintf(stderr, "%s: %s\n", file.c_str(),
                     plan.status().ToString().c_str());
        return 2;
      }
      auto analyzed = pipes::analysis::AnalyzeDataflowPlan(plan.value());
      if (!analyzed.ok()) {
        std::fprintf(stderr, "%s: %s\n", file.c_str(),
                     analyzed.status().ToString().c_str());
        return 2;
      }
      cert_gate(CertifyReport(file, analyzed.value(), diags.value(), options));
    } else {
      Report(file, diags.value(), options, &worst);
    }
    gate(diags.value());
  }

  // Certify a deterministic slice of the fuzz corpus: the same generator
  // and seed schedule the fuzz harness uses, each plan lowered through
  // PhysicalBuilder over its streams exactly as the naive arm does (no
  // faults, no canaries). Gated on the dataflow rules plus certificate
  // health only — generated plans may legitimately trip structural lint
  // rules (e.g. distinct-over-unbounded bait).
  for (int i = 0; i < options.fuzz_corpus; ++i) {
    const pipes::testing::FuzzCase c = pipes::testing::MakeCase(
        pipes::testing::CaseSeed(options.corpus_seed,
                                 static_cast<std::uint64_t>(i)));
    pipes::QueryGraph graph;
    pipes::cql::Catalog catalog;
    for (std::size_t s = 0; s < c.inputs.size(); ++s) {
      auto& source =
          graph.Add<pipes::VectorSource<pipes::relational::Tuple>>(
              pipes::testing::SortByStart(c.inputs[s]),
              pipes::testing::StreamName(s));
      (void)catalog.RegisterStream(pipes::testing::StreamName(s),
                                   pipes::testing::StreamSchema(), &source);
    }
    auto output = pipes::optimizer::PhysicalBuilder(&graph, &catalog)
                      .Build(c.plan);
    if (!output.ok()) {
      std::fprintf(stderr, "fuzz-corpus[%d]: %s\n", i,
                   output.status().ToString().c_str());
      return 2;
    }
    (*output)->AddSubscriber(
        graph.Add<pipes::CollectorSink<pipes::relational::Tuple>>("output")
            .input());
    const auto analyzed = pipes::analysis::AnalyzeDataflow(graph);
    const auto diags = pipes::analysis::DataflowDiagnostics(graph);
    char subject[64];
    std::snprintf(subject, sizeof(subject), "fuzz-corpus[%d](seed=%llu)", i,
                  static_cast<unsigned long long>(options.corpus_seed));
    cert_gate(CertifyReport(subject, analyzed, diags, options));
    gate(diags);
  }

  if (any_findings) exit_code = std::max(exit_code, 1);
  return exit_code;
}
