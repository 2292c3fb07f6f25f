// The phases every workload runs through: setup (repeated, median), rounds
// of an open-loop block with registration traffic and a saturation burst,
// close, and the result check against a reference run.

#include <atomic>
#include <cstdio>
#include <memory>
#include <utility>
#include <vector>

#include "engine_rig.h"
#include "harness.h"
#include "src/core/metrics.h"

namespace perfbench {

namespace {

using pipes::Timestamp;
using pipes::engine::StreamWriter;

// The open loop runs in kRounds blocks. The first kWarmRounds are each
// followed by a memory checkpoint, the others by a saturation burst, so
// throughput is sampled across the whole run rather than at one moment of
// a shared host whose speed drifts by 20 % over tens of seconds. Memory is
// only read before the first burst: a drained burst leaves heap sized by
// however far the feeder outran the engine.
constexpr int kRounds = 10;
constexpr int kWarmRounds = 4;
constexpr int kBursts = kRounds - kWarmRounds;
constexpr std::size_t kWarmupChunk = 64;

/// First index of part `k` of `n` items cut into `parts` nearly equal parts.
std::size_t Cut(std::size_t n, int k, int parts) {
  return n * static_cast<std::size_t>(k) / static_cast<std::size_t>(parts);
}

}  // namespace

int RunWorkload(const Args& args, Workload w, Report& report) {
  Tracer& tracer = Tracer::Get();
  const std::size_t open_n = w.open_events;
  const std::size_t total =
      w.warmup_events + w.open_events + w.saturation_events;
  std::vector<StreamInput>& streams = w.streams;
  if (streams[0].rows.size() < total) {
    std::fprintf(stderr, "%s: generated %zu of %zu events\n", w.name.c_str(),
                 streams[0].rows.size(), total);
    return 1;
  }
  streams[0].rows.resize(total);
  const auto& events = streams[0].rows;
  std::vector<Timestamp> times;
  times.reserve(total);
  for (const auto& e : events) times.push_back(e.start());
  DueTimes due;
  due.Build(times);
  // Harness buffers that fill during the timed phases are sized here,
  // before the memory baseline, so mem_peak_mb holds engine memory only.
  LatencySamples latency;
  latency.Reserve(open_n * 2);
  FeederResult open;
  open.late_ms.reserve(open_n);
  LoadBook load;
  load.register_ms.reserve(static_cast<std::size_t>(w.churn_pairs));
  if (args.trace) pipes::obs::SetMetricsEnabled(true);

  // --- Setup -----------------------------------------------------------------
  MemorySampler sampler;
  std::unique_ptr<Target> target;
  OpCounter setup_ops;
  tracer.set_enabled(args.trace);
  tracer.BeginPhase("setup");
  const double setup_s = TimeSetup(
      w.setups, [&] { target.reset(); },
      [&] { target = w.build(w, LatencySink{&due, &latency}, setup_ops); });
  tracer.EndPhase();
  if (setup_ops.fails > 0) {
    std::fprintf(stderr, "%s: setup failed: %s\n", w.name.c_str(),
                 setup_ops.first_error.c_str());
    return 1;
  }
  sampler.Checkpoint();
  EngineGauges gauges;
  if (args.trace) sampler.set_hook([&] { gauges.Sample(target->engine()); });

  // --- Timed phases ----------------------------------------------------------
  target->Begin();
  std::vector<StreamWriter>& writers = target->writers();
  OpCounter push_ops;
  std::vector<std::size_t> next_row(streams.size(), 0);
  Timestamp heartbeat = pipes::kMinTimestamp;
  std::uint64_t traced_events = 0;
  auto push = [&](std::size_t i) {
    const Timestamp t = events[i].start();
    {
      // One span per event: its Push plus the dimension rows and
      // heartbeats it triggers.
      ScopedSpan span(SpanKind::kPush, static_cast<std::uint64_t>(t),
                      i % kIngestSampleEvery == 0);
      for (std::size_t d = 1; d < streams.size(); ++d) {
        const auto& rows = streams[d].rows;
        while (next_row[d] < rows.size() && rows[next_row[d]].start() <= t) {
          push_ops.Add(writers[d].Push(rows[next_row[d]++]));
        }
      }
      // Heartbeat discipline: the dimensions advance with event time, so
      // a join never waits on a dimension inlet.
      if (t > heartbeat) {
        for (std::size_t d = 1; d < streams.size(); ++d) {
          push_ops.Add(writers[d].Heartbeat(t));
        }
        heartbeat = t;
      }
      push_ops.Add(writers[0].Push(events[i]));
    }
    target->NotePushed();
    if (tracer.enabled()) ++traced_events;
  };

  // Warm-up, untraced: the events before the first block, drained every
  // kWarmupChunk events so no inlet queue grows past what the open loop
  // holds. Pushed in one go, the backlog's capacity stayed in
  // mem_peak_mb: 20 MB in some runs and 41 MB in others.
  tracer.set_enabled(false);
  for (std::size_t i = 0; i < w.warmup_events; ++i) {
    push(i);
    if (i % kWarmupChunk == kWarmupChunk - 1) target->Drain();
  }
  target->Drain();
  tracer.set_enabled(args.trace);

  std::atomic<std::size_t> open_pushed{0};
  auto open_push = [&](std::size_t i) {
    push(i);
    open_pushed.fetch_add(1, std::memory_order_release);
  };
  target->StartLoad(w.churn, w.churn_pairs, open_n, open_pushed, load);
  Saturation sat;
  // Events are pushed in timestamp order: round r's block, then its burst.
  std::size_t next = w.warmup_events;
  for (int r = 0; r < kRounds; ++r) {
    SetRotation(r);
    FollowRotation(Role::kFeeder);
    const std::size_t open_end =
        next + Cut(open_n, r + 1, kRounds) - Cut(open_n, r, kRounds);
    tracer.BeginPhase("open-loop");
    RunOpenLoop(next, open_end, w.open_rate, due, open_push, open);
    next = open_end;
    target->Drain();
    tracer.EndPhase();
    // The first block warms the graph up: its windows are still filling.
    if (r == 0) latency.set_warm_until(NowNs());
    if (r < kWarmRounds) {
      sampler.Checkpoint();
      continue;
    }
    const int b = r - kWarmRounds;
    const std::size_t burst_end = next +
                                  Cut(w.saturation_events, b + 1, kBursts) -
                                  Cut(w.saturation_events, b, kBursts);
    tracer.BeginPhase("saturation");
    sat.RunBurst(next, burst_end, args.trace && b % 2 == 0, push,
                 [&] { target->Drain(); });
    next = burst_end;
    tracer.EndPhase();
  }
  target->EndOpenLoop();
  sampler.Stop();

  tracer.BeginPhase("close");
  for (std::size_t d = 1; d < streams.size(); ++d) {
    while (next_row[d] < streams[d].rows.size()) {
      push_ops.Add(writers[d].Push(streams[d].rows[next_row[d]++]));
    }
  }
  for (StreamWriter& writer : writers) push_ops.Add(writer.Close());
  target->Finish();
  tracer.EndPhase();

  RunSummary run;
  if (args.trace) {
    gauges.Sample(target->engine());
    run.final_snapshot = target->engine().Snapshot();
    run.stats = target->engine().stats();
    TimeCompile(target->engine(), w.queries, 40);
  }
  tracer.set_enabled(false);

  const std::vector<Fingerprint> live = target->outputs();
  std::uint64_t rows = 0;
  for (const Fingerprint& f : live) rows += f.rows;
  run.counts.traced_events = traced_events;
  run.counts.rows_per_event =
      static_cast<double>(rows) / static_cast<double>(total);
  target->AddCounts(run.counts);
  target.reset();

  // --- Result check ----------------------------------------------------------
  CheckOutputs(report, w.queries, live,
               ReferenceRun(std::move(streams), w.queries, w.hash_text));
  setup_ops.FoldInto(report, "setup");
  push_ops.FoldInto(report, "push");
  load.ops.FoldInto(report, "register/cancel");

  run.workload = w.name;
  run.latency = &latency;
  run.open = std::move(open);
  run.saturation = &sat;
  run.bursts = kBursts;
  run.register_ms = std::move(load.register_ms);
  run.memory = &sampler;
  run.setup_s = setup_s;
  run.setups = w.setups;
  run.open_rate = w.open_rate;
  run.warmup_events = w.warmup_events;
  run.open_events = open_n;
  run.saturation_events = w.saturation_events;
  run.register_pairs = w.churn_pairs;
  run.gauges = &gauges;
  ReportRun(report, args, run);
  return 0;
}

}  // namespace perfbench
