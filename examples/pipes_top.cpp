// pipes_top: a `top`-style text dashboard over a running query graph.
//
// Drives a two-query workload (a shared sensor source feeding a filtered
// windowed average and a raw counter) with a PipeExecutor, and
// between scheduling bursts captures a MetricsSnapshot — per-node element
// counts, selectivities, queue/state sizes, watermark lag, scheduler
// service times — and renders it as a table. Rates are computed against the
// previous frame, exactly how an external monitor would use the snapshot
// API against a live system.
//
// The run is deterministic and terminating (a fixed element budget), so it
// doubles as a smoke test for the observability layer.
//
// With `--connect host:port` the dashboard attaches to a running
// `pipes_serve` instead: each frame pulls a whole-graph snapshot over the
// wire (SNAPSHOT frame -> JSON -> SnapshotFromJson) and renders the same
// table — the monitor never touches the engine's memory.
//
// Flags:
//   --frames N          number of dashboard frames (default 5)
//   --json              dump the final snapshot as JSON instead of a table
//   --dot               dump the final snapshot as Graphviz DOT
//   --connect HOST:PORT monitor a remote engine instead of the local demo
//   --interval-ms N     frame interval in remote mode (default 500)

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "src/algebra/aggregate.h"
#include "src/core/generator_source.h"
#include "src/core/graph.h"
#include "src/core/metrics.h"
#include "src/core/pipeline.h"
#include "src/core/sink.h"
#include "src/metadata/snapshot.h"
#include "src/scheduler/profiler.h"
#include "src/scheduler/scheduler.h"
#include "src/server/client.h"

namespace {

using namespace pipes;  // NOLINT: example brevity

constexpr int kReadings = 200'000;

void BuildWorkload(QueryGraph& graph) {
  // Sensor: one reading per ms, values cycling 0..99.
  Timestamp now = 0;
  auto& sensor = graph.Add<FunctionSource<int>>(
      [now]() mutable -> std::optional<StreamElement<int>> {
        if (now >= kReadings) return std::nullopt;
        const Timestamp t = now++;
        return StreamElement<int>::Point(static_cast<int>(t % 100), t);
      },
      "sensor");

  // Query 1: valid readings -> 50ms window -> average.
  dsl::From(graph, sensor)
      | dsl::Filter([](int v) { return v < 75; }, "valid")
      | dsl::TimeWindow(50, "50ms")
      | dsl::Average([](int v) { return static_cast<double>(v); })
      | dsl::Detach("q1-out")
      | dsl::Into(std::make_unique<CountingSink<double>>("q1-sink"));

  // Query 2: raw reading count off the same (shared) source.
  dsl::From(graph, sensor)
      | dsl::Detach("q2-out")
      | dsl::Into(std::make_unique<CountingSink<int>>("q2-sink"));
}

void PrintFrame(int frame, const metadata::MetricsSnapshot& snap,
                const metadata::MetricsSnapshot& prev, double elapsed_s) {
  std::printf("\n== frame %d  (high watermark %lld) %s\n", frame,
              static_cast<long long>(snap.high_watermark),
              std::string(40, '=').c_str());
  std::printf("%-12s %10s %10s %10s %6s %7s %8s %9s %9s %10s\n", "node", "in",
              "out", "el/s", "sel", "queue", "lag", "state-B", "spill-B",
              "sched-us");
  for (const metadata::NodeSnapshot& n : snap.nodes) {
    const metadata::NodeSnapshot* p = prev.FindNode(n.id);
    const double rate =
        (p != nullptr && elapsed_s > 0)
            ? static_cast<double>(n.elements_out - p->elements_out) / elapsed_s
            : 0.0;
    std::printf(
        "%-12s %10llu %10llu %10.0f %6.2f %7llu %8lld %9llu %9llu %10.1f\n",
        n.name.c_str(), static_cast<unsigned long long>(n.elements_in),
        static_cast<unsigned long long>(n.elements_out), rate, n.selectivity,
        static_cast<unsigned long long>(n.queue_size),
        static_cast<long long>(n.watermark_lag),
        static_cast<unsigned long long>(n.memory_bytes),
        static_cast<unsigned long long>(n.spilled_bytes),
        static_cast<double>(n.sched_service_ns) / 1e3);
  }
  if (snap.memory.present) {
    std::printf("memory: %llu / %llu bytes over %llu users\n",
                static_cast<unsigned long long>(snap.memory.usage_bytes),
                static_cast<unsigned long long>(snap.memory.budget_bytes),
                static_cast<unsigned long long>(snap.memory.users));
    if (snap.memory.disk_usage_bytes > 0 || snap.memory.spill_users > 0) {
      std::printf("disk:   %llu / %llu bytes over %llu spill users\n",
                  static_cast<unsigned long long>(
                      snap.memory.disk_usage_bytes),
                  static_cast<unsigned long long>(
                      snap.memory.disk_budget_bytes),
                  static_cast<unsigned long long>(snap.memory.spill_users));
    }
  }
}

/// Remote mode: the same dashboard against a live pipes_serve, one
/// whole-graph snapshot per frame over the wire.
int MonitorRemote(const std::string& endpoint, int frames, int interval_ms,
                  bool dump_json, bool dump_dot) {
  const std::size_t colon = endpoint.rfind(':');
  if (colon == std::string::npos) {
    std::fprintf(stderr, "--connect wants HOST:PORT, got %s\n",
                 endpoint.c_str());
    return 2;
  }
  const std::string host = endpoint.substr(0, colon);
  const int port = std::atoi(endpoint.c_str() + colon + 1);

  auto client = server::Client::Connect(host, port, "pipes-top");
  if (!client.ok()) {
    std::fprintf(stderr, "connect failed: %s\n",
                 client.status().ToString().c_str());
    return 1;
  }

  metadata::MetricsSnapshot prev;
  std::int64_t prev_ns = obs::SteadyNowNs();
  for (int frame = 1; frame <= frames; ++frame) {
    auto json = client->SnapshotJson(/*whole_graph=*/true);
    if (!json.ok()) {
      std::fprintf(stderr, "snapshot failed: %s\n",
                   json.status().ToString().c_str());
      return 1;
    }
    if (frame == frames && dump_json) {
      std::printf("%s\n", json->c_str());
      return 0;
    }
    auto snap = metadata::SnapshotFromJson(*json);
    if (!snap.ok()) {
      std::fprintf(stderr, "bad snapshot JSON: %s\n",
                   snap.status().ToString().c_str());
      return 1;
    }
    if (frame == frames && dump_dot) {
      std::printf("%s", metadata::ToDot(*snap).c_str());
      return 0;
    }
    const std::int64_t now_ns = obs::SteadyNowNs();
    PrintFrame(frame, *snap, prev,
               static_cast<double>(now_ns - prev_ns) / 1e9);
    prev = *std::move(snap);
    prev_ns = now_ns;
    if (frame < frames) {
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  int frames = 5;
  bool dump_json = false;
  bool dump_dot = false;
  std::string connect;
  int interval_ms = 500;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) dump_json = true;
    if (std::strcmp(argv[i], "--dot") == 0) dump_dot = true;
    if (std::strcmp(argv[i], "--frames") == 0 && i + 1 < argc) {
      frames = std::atoi(argv[++i]);
    }
    if (std::strcmp(argv[i], "--connect") == 0 && i + 1 < argc) {
      connect = argv[++i];
    }
    if (std::strcmp(argv[i], "--interval-ms") == 0 && i + 1 < argc) {
      interval_ms = std::atoi(argv[++i]);
    }
  }

  if (!connect.empty()) {
    return MonitorRemote(connect, frames, interval_ms, dump_json, dump_dot);
  }

  obs::SetMetricsEnabled(true);
  QueryGraph graph;
  BuildWorkload(graph);

  scheduler::RoundRobinStrategy strategy;
  scheduler::PipeExecutor driver(graph, strategy, /*batch_size=*/256);
  scheduler::Profiler profiler;
  driver.set_profiler(&profiler);

  metadata::CaptureOptions capture;
  capture.profiler = &profiler;

  metadata::MetricsSnapshot prev = metadata::CaptureSnapshot(graph, capture);
  std::int64_t prev_ns = obs::SteadyNowNs();

  for (int frame = 1; frame <= frames; ++frame) {
    // One burst of scheduling per frame; a real monitor would sleep here
    // instead, but a fixed step count keeps the demo deterministic.
    for (int step = 0; step < 2000 && driver.Step(); ++step) {
    }
    const metadata::MetricsSnapshot snap =
        metadata::CaptureSnapshot(graph, capture);
    const std::int64_t now_ns = obs::SteadyNowNs();
    if (!dump_json && !dump_dot) {
      PrintFrame(frame, snap, prev,
                 static_cast<double>(now_ns - prev_ns) / 1e9);
    }
    prev = snap;
    prev_ns = now_ns;
  }

  // Drain whatever the frame budget left over, then report.
  driver.RunToCompletion();
  const metadata::MetricsSnapshot final_snap =
      metadata::CaptureSnapshot(graph, capture);
  if (dump_json) {
    std::printf("%s\n", metadata::ToJson(final_snap).c_str());
  } else if (dump_dot) {
    std::printf("%s", metadata::ToDot(final_snap).c_str());
  } else {
    PrintFrame(frames + 1, final_snap, prev, 0.0);
    std::printf("\n-- scheduler profile --\n%s", profiler.Summary().c_str());
  }
  return 0;
}
