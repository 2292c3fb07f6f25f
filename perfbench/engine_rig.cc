#include "engine_rig.h"

#include <memory>
#include <utility>

#include "src/core/generator_source.h"
#include "src/cql/analyzer.h"

namespace perfbench {

using pipes::Result;
using pipes::Status;
using pipes::StreamElement;
using pipes::engine::Engine;
using pipes::engine::QueryHandle;
using pipes::relational::Tuple;

Result<QueryHandle> RegisterSpec(Engine& engine, const QuerySpec& spec) {
  pipes::engine::RegisterOptions options;
  options.tenant = spec.tenant;
  if (spec.plan) {
    PIPES_ASSIGN_OR_RETURN(pipes::optimizer::LogicalPlan plan,
                           spec.plan(engine.catalog()));
    ScopedSpan span(SpanKind::kRegister, 0);
    return engine.Register(plan, options);
  }
  ScopedSpan span(SpanKind::kRegister, 0);
  return engine.Register(spec.text, options);
}

Result<std::vector<Fingerprint>> ReferenceRun(
    std::vector<StreamInput> streams,
    const std::vector<QuerySpec>& queries, bool hash_text) {
  Engine engine;
  for (StreamInput& stream : streams) {
    auto& source = engine.graph().Add<pipes::VectorSource<Tuple>>(
        std::move(stream.rows), "reference(" + stream.name + ")", 64);
    PIPES_RETURN_IF_ERROR(
        engine.BindStream(stream.name, stream.schema, source));
  }
  std::vector<Fingerprint> fingerprints(queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    PIPES_ASSIGN_OR_RETURN(QueryHandle handle,
                           RegisterSpec(engine, queries[q]));
    Fingerprint* fp = &fingerprints[q];
    PIPES_RETURN_IF_ERROR(handle.OnResult(
        [fp, hash_text](const StreamElement<Tuple>& e) {
          fp->Add(hash_text ? HashText(e.payload.ToString())
                            : HashTuple(e.payload),
                  e.start(), e.end());
        }));
  }
  engine.RunToCompletion();
  return fingerprints;
}

void CheckOutputs(Report& report, const std::vector<QuerySpec>& queries,
                  const std::vector<Fingerprint>& live,
                  const Result<std::vector<Fingerprint>>& reference) {
  if (!reference.ok()) {
    report.Fail("reference run: " + reference.status().ToString());
    return;
  }
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const std::string name = queries[q].tenant + "/" + queries[q].name;
    if (live[q].rows == 0) {
      report.Fail(name + " produced no rows (reference: " +
                  std::to_string((*reference)[q].rows) + ")");
    } else if (!(live[q] == (*reference)[q])) {
      report.Fail(name + " differs from the reference run (" +
                  std::to_string(live[q].rows) + " rows live, " +
                  std::to_string((*reference)[q].rows) + " reference)");
    } else {
      report.Count(1, 0);
    }
  }
}

void TimeCompile(Engine& engine, const std::vector<QuerySpec>& queries,
                 int rounds) {
  for (int r = 0; r < rounds; ++r) {
    for (const QuerySpec& spec : queries) {
      if (spec.text.empty()) continue;
      ScopedSpan span(SpanKind::kCompile, 0);
      auto compiled = pipes::cql::Compile(spec.text, engine.catalog());
      (void)compiled;
    }
  }
}

void ReportRun(Report& report, const Args& args, const RunSummary& run) {
  const LatencySamples& latency = *run.latency;
  const auto n_latency = static_cast<std::int64_t>(latency.count());
  for (const auto& [name, q] : {std::pair{"latency_p50_ms", 0.5},
                                {"latency_p90_ms", 0.9},
                                {"latency_p99_ms", 0.99}}) {
    report.Set(name, latency.WindowedQuantileMs(q), "ms", n_latency);
  }
  const auto n_register = static_cast<std::int64_t>(run.register_ms.size());
  for (const auto& [name, q] : {std::pair{"register_p50_ms", 0.5},
                                {"register_p90_ms", 0.9},
                                {"register_p99_ms", 0.99}}) {
    report.Set(name, Quantile(run.register_ms, q), "ms", n_register);
  }
  report.Set("sustained_eps", run.saturation->eps(), "1/s", run.bursts);
  report.Set("mem_peak_mb", run.memory->retained_peak_mb(), "MB");
  report.Set("setup_s", run.setup_s, "s", run.setups);
  AddFeederMetrics(report, run.open.late_ms);

  if (args.trace) {
    LayerCounts counts = run.counts;
    counts.feeder_ns = static_cast<std::int64_t>(
        (run.open.seconds + run.saturation->traced_seconds()) * 1e9);
    AddLayerMetrics(report, run.final_snapshot, run.stats, *run.gauges,
                    counts);
    report.Set("trace.overhead_share", run.saturation->overhead_share(),
               "ratio", run.bursts / 2);
    const std::string path = args.trace_dir + "/" + run.workload + "-seed" +
                             std::to_string(args.seed) + ".tsv";
    if (!Tracer::Get().WriteSpans(path)) report.Fail("could not write " + path);
    report.Info("trace_file", "\"" + path + "\"");
  }
  report.Info("workload", "\"" + run.workload + "\"");
  report.Info("seed", std::to_string(args.seed));
  report.Info("host", HostJson());
  report.Info("phases_s", "{\"open_loop\": " +
                              std::to_string(run.open.seconds) +
                              ", \"saturation\": " +
                              std::to_string(run.saturation->seconds()) +
                              "}");
  report.Info("burst_eps", JsonArray(run.saturation->burst_eps()));
  report.Info("latency_windows", std::to_string(latency.windows()));
  report.Info("latency_window_p50_ms",
              JsonArray(latency.WindowQuantilesMs(0.5)));
  report.Info("heap_checkpoints_mb", JsonArray(run.memory->checkpoints_mb()));
  report.Info("rss_peak_mb",
              std::to_string(static_cast<double>(run.memory->rss_peak()) / 1e6));
  report.Info("inputs",
              "{\"warmup_events\": " + std::to_string(run.warmup_events) +
                  ", \"open_loop_events\": " + std::to_string(run.open_events) +
                  ", \"saturation_events\": " +
                  std::to_string(run.saturation_events) +
                  ", \"open_loop_rate\": " + std::to_string(run.open_rate) +
                  ", \"register_cancel_pairs\": " +
                  std::to_string(run.register_pairs) + "}");
}

void OpCounter::FoldInto(Report& report, const char* what) const {
  report.Count(ops, fails);
  if (fails > 0) {
    report.Note(std::string(what) + ": " + std::to_string(fails) + " of " +
                std::to_string(ops) + " failed, first: " + first_error);
  }
}

}  // namespace perfbench
