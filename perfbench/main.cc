// End-to-end benchmark of PIPES: three workloads driven through the public
// API (StreamWriter, Engine, QueryHandle, server::Client). See README.md in
// this directory for the workloads, the metrics and what each should move.
//
//   perfbench --workload <espbench-enrich|nexmark-fanout|traffic-serve>
//             --seed <n> --seconds <s> --trace <0|1> [--tiny]
//             [--trace-dir <dir>]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. The line before it is
// the full report (host fingerprint, seed, phase lengths, every metric
// with its sample count).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <espbench-enrich|nexmark-fanout|"
               "traffic-serve> --seed <n> --seconds <s> --trace <0|1> "
               "[--tiny] [--trace-dir <dir>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--tiny") {
      args.tiny = true;
    } else if (flag == "--workload" && has_value) {
      args.workload = argv[++i];
    } else if (flag == "--seed" && has_value) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--seconds" && has_value) {
      args.seconds = std::strtod(argv[++i], nullptr);
    } else if (flag == "--trace" && has_value) {
      args.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (flag == "--trace-dir" && has_value) {
      args.trace_dir = argv[++i];
    } else {
      return Usage();
    }
  }
  if (args.seconds <= 0) return Usage();

  perfbench::Report report;
  int status = 0;
  if (args.workload == "espbench-enrich") {
    status = perfbench::RunEspbenchEnrich(args, report);
  } else if (args.workload == "nexmark-fanout") {
    status = perfbench::RunNexmarkFanout(args, report);
  } else if (args.workload == "traffic-serve") {
    status = perfbench::RunTrafficServe(args, report);
  } else {
    return Usage();
  }
  if (status != 0) return status;
  report.Print(args.trace ? perfbench::PerLayerMetricNames()
                          : perfbench::EndToEndMetricNames());
  return 0;
}
