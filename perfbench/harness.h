#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

// Shared machinery of the end-to-end benchmark: clocks, the in-memory span
// tracer, latency and fingerprint bookkeeping, the open-loop feeder and
// saturation bursts, process memory sampling, and the metric report.
// README.md in this directory defines every workload and metric.

#include <sched.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/common/time.h"
#include "src/engine/engine.h"
#include "src/metadata/snapshot.h"
#include "src/relational/tuple.h"

namespace perfbench {

using pipes::Timestamp;

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- Command line ------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Self-test size: every phase runs, on a few hundred events.
  bool tiny = false;
  /// Where the traced run writes its spans (created if missing).
  std::string trace_dir = ".bench_build/perfbench-traces";
};

// --- Report ------------------------------------------------------------------

/// Every metric a run measured, by name, with unit and sample count. The
/// last output line carries the end-to-end set (untraced run) or the
/// per-layer set (traced run); the report line carries everything.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit,
           std::int64_t samples = -1);
  void Info(const std::string& key, const std::string& json_value);
  /// Adds `n` attempted operations of which `failed` failed.
  void Count(std::uint64_t n, std::uint64_t failed);
  void Fail(const std::string& why);
  /// Records a failure message for failures already counted.
  void Note(const std::string& why) { failures_.push_back(why); }

  /// Prints the human-readable table, the full report line, and finally
  /// the result line restricted to `names`.
  void Print(const std::vector<std::string>& names) const;

 private:
  struct Metric {
    double value = 0;
    std::string unit;
    std::int64_t samples = -1;
  };
  std::map<std::string, Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> info_;
  std::vector<std::string> failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// The metric names BENCHMARK.json lists, in its order.
const std::vector<std::string>& EndToEndMetricNames();
const std::vector<std::string>& PerLayerMetricNames();

// --- Statistics --------------------------------------------------------------

/// Linear-interpolated quantile (q in [0,1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

// --- Tracing -----------------------------------------------------------------

/// Layer boundaries the harness times. Every call the harness makes into
/// the program is wrapped in one of these spans.
enum class SpanKind : std::uint8_t {
  kPhase,
  kPush,            // StreamWriter calls ingesting one input event
  kPump,            // Engine::Pump that did work
  kPumpIdle,        // Engine::Pump that returned 0 (a wasted poll)
  kCallback,        // QueryHandle::OnResult callback body (harness code)
  kRegister,        // Engine::Register
  kCancel,          // Engine::Cancel / QueryHandle::Cancel
  kCompile,         // cql::Compile
  kSnapshot,        // Engine::Snapshot
  kStats,           // Engine::stats
  kServerFetch,     // Client::Fetch round trip
  kServerRegister,  // Client::Register round trip
  kServerCancel,    // Client::Cancel round trip
  kServerSnapshot,  // Client::SnapshotJson round trip
  kDrainProbe,      // Engine::Pump(1) asking whether work is left
  kCount,
};

const char* SpanKindName(SpanKind kind);

/// In-memory span recorder. Off unless the run is traced; when off a span
/// costs one relaxed load. Each thread records into its own buffer, so
/// recording takes no lock. Every span's duration feeds per-kind totals
/// and a duration list (percentiles). The span file keeps every span but
/// wasted polls, and only every 16th busy poll and FETCH. Push and
/// callback spans carry the event time as request id, so a result links
/// to the ingest of the event it starts at. A span's child time
/// is the time covered by spans opened inside it on the same thread, so
/// self time = duration - child time (e.g. `engine.pump` minus the
/// `harness.callback` spans that fire inside it).
class Tracer {
 public:
  struct Span {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::uint64_t request = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t child_ns = 0;
    SpanKind kind = SpanKind::kPhase;
    std::uint16_t thread = 0;
  };
  struct KindStats {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::vector<std::int64_t> durations_ns;
  };

  static Tracer& Get();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  std::uint64_t current_phase() const {
    return phase_id_.load(std::memory_order_relaxed);
  }

  /// Opens a phase span on the calling thread; spans on other threads
  /// without an enclosing span take the current phase as their parent.
  void BeginPhase(const std::string& name);
  void EndPhase();

  /// Per-kind statistics merged over all threads.
  KindStats Merged(SpanKind kind) const;

  /// Writes every kept span as tab-separated text; false on I/O error.
  bool WriteSpans(const std::string& path) const;

  // Used by ScopedSpan.
  struct ThreadBuffer;
  ThreadBuffer& Local();
  void Record(ThreadBuffer& buffer, const Span& span);

 private:
  Tracer() = default;

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> phase_id_{0};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
  std::vector<std::string> phase_names_;
  std::vector<Span> phases_;
};

/// The feeder traces the ingest of every this-many-th event only: a span
/// around every event widens the gap between the feeder's back-to-back
/// engine calls enough for the pump thread to take the engine lock in
/// between, which in a probe slowed saturated ingest by 20-45 %.
inline constexpr std::uint64_t kIngestSampleEvery = 16;

/// Result callbacks are traced for every this-many-th row only: a span
/// costs two clock reads inside the engine lock, several times the
/// callback body.
inline constexpr std::uint64_t kCallbackSampleEvery = 16;

/// RAII span around one call into a layer; records nothing when tracing is
/// off or `sampled` is false.
class ScopedSpan {
 public:
  ScopedSpan(SpanKind kind, std::uint64_t request, bool sampled = true);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Re-labels the span before it closes (a poll that found no work).
  void set_kind(SpanKind kind) { span_.kind = kind; }

 private:
  Tracer::ThreadBuffer* buffer_ = nullptr;
  Tracer::Span span_;
  std::uint64_t saved_parent_ = 0;
  std::int64_t saved_child_ns_ = 0;
};

// --- Results: latency and fingerprints ------------------------------------

/// The due time of every open-loop event, and the lookup from a result's
/// start timestamp to the due time of the first input event carrying it.
/// The feeder sets an event's due time before pushing it; a result reader
/// sees it through the engine lock that the push and the delivery take.
class DueTimes {
 public:
  /// `event_times` must be non-decreasing.
  void Build(const std::vector<Timestamp>& event_times);
  void Set(std::size_t i, std::int64_t due_ns) { due_ns_[i] = due_ns; }
  /// Due time of the first event with timestamp `t`; -1 when no event has
  /// that timestamp or the first one was not an open-loop event.
  std::int64_t DueNs(Timestamp t) const;

 private:
  std::vector<Timestamp> times_;
  std::vector<std::size_t> first_index_;
  std::vector<std::int64_t> due_ns_;
};

/// Latency samples of latency-tagged results, each stamped with its
/// delivery time.
class LatencySamples {
 public:
  void Reserve(std::size_t n);
  void Add(std::int64_t at_ns, std::int64_t latency_ns) {
    if (count_ < samples_.size()) samples_[count_] = {at_ns, latency_ns};
    ++count_;
  }
  std::uint64_t count() const { return count_; }
  /// Samples delivered before `ns` are warm-up and left out (unless no
  /// other sample is left).
  void set_warm_until(std::int64_t ns) { warm_until_ns_ = ns; }
  /// The lower quartile over 1 s delivery windows of each window's
  /// q-quantile, in ms. A host stall then spoils one window instead of the
  /// tail of the whole run, and a slow stretch of the shared host (its
  /// noise only ever adds time) has to cover three quarters of the run to
  /// move the figure. Windows with under 200 samples are skipped; with
  /// none left this is the q-quantile of all samples.
  double WindowedQuantileMs(double q) const;
  /// Each window's q-quantile in ms, in delivery order.
  std::vector<double> WindowQuantilesMs(double q) const;
  /// Windows that fed WindowedQuantileMs.
  int windows() const;

 private:
  std::vector<std::vector<double>> Windows() const;

  std::vector<std::pair<std::int64_t, std::int64_t>> samples_;
  std::uint64_t count_ = 0;
  std::int64_t warm_until_ns_ = 0;
};

/// Coalescing-insensitive fingerprint of one query's output relation: the
/// sum over rows of h1(payload)·|[s,e)| + h2(payload)·(e²−s²), modulo 2^64.
/// Splitting a row into adjacent pieces leaves both sums unchanged, so two
/// snapshot-equivalent outputs agree however validity is segmented, and
/// moving a payload in time changes the second sum.
struct Fingerprint {
  std::uint64_t mass = 0;
  std::uint64_t moment = 0;
  std::uint64_t rows = 0;

  void Add(std::uint64_t payload_hash, Timestamp start, Timestamp end);
  bool operator==(const Fingerprint& o) const {
    return mass == o.mass && moment == o.moment;
  }
};

/// Hash of a tuple's values (doubles by bit pattern).
std::uint64_t HashTuple(const pipes::relational::Tuple& tuple);
/// Hash of a rendered row (the server's wire format).
std::uint64_t HashText(const std::string& text);

// --- Open-loop feeder and saturation bursts ----------------------------------

/// One block of the open loop: event i of [begin, end) is due at
/// t0 + (i - begin)/rate, t0 shortly after the call. Waits (sleep, then
/// spin) until each is due, records the due time in `due` and how late it
/// ran in `late_ms`, and calls `push(i)`.
struct FeederResult {
  /// Reserved by the caller before memory is baselined.
  std::vector<double> late_ms;
  double seconds = 0;  ///< Summed over blocks.
};
void RunOpenLoop(std::size_t begin, std::size_t end, double rate_per_s,
                 DueTimes& due, const std::function<void(std::size_t)>& push,
                 FeederResult& result);

// --- Process ----------------------------------------------------------------

/// Memory bookkeeping of a run. Heap bytes in use are read at checkpoints
/// where the graph has drained (after setup, after the open loop), so the
/// peak is what the system retains for the workload, not a backlog whose
/// size depends on how fast the feeder outran the pump: a saturation
/// burst leaves staging buffers sized by that backlog. RSS is sampled on a
/// thread every few ms for the report.
class MemorySampler {
 public:
  MemorySampler();
  ~MemorySampler();
  MemorySampler(const MemorySampler&) = delete;
  MemorySampler& operator=(const MemorySampler&) = delete;
  void Checkpoint();
  /// Each checkpoint's heap in use over the baseline, in MB.
  const std::vector<double>& checkpoints_mb() const { return checkpoints_mb_; }
  /// Peak checkpoint minus the heap in use when the sampler was created.
  double retained_peak_mb() const {
    return static_cast<double>(heap_peak_ - heap_baseline_) / 1e6;
  }
  std::int64_t rss_peak() const { return rss_peak_.load(); }
  /// Optional extra work on the sampler thread (traced runs: engine
  /// gauges), called about every 100 ms.
  void set_hook(std::function<void()> hook);
  void Stop();

 private:
  void Sample();

  std::int64_t heap_baseline_ = 0;
  std::int64_t heap_peak_ = 0;
  std::vector<double> checkpoints_mb_;
  std::atomic<bool> stop_{false};
  std::atomic<std::int64_t> rss_peak_{0};
  std::mutex hook_mu_;
  std::function<void()> hook_;
  std::thread thread_;
};

/// The harness's own threads. On hosts with at least four CPUs each runs
/// on a CPU of its own: role k on CPU (rotation + k) mod 4.
enum class Role : int {
  kFeeder = 0,   // the main thread: setup, open-loop feeder, bursts
  kPump = 1,     // the harness pump thread (in-process workloads)
  kLoad = 2,     // the churn thread, or the traffic-serve client
  kSampler = 3,  // the memory sampler
};

/// Moves every role one placement on, all at once: each setup repeat and
/// each round of an open-loop block and its burst runs under its own
/// rotation. On a shared host one virtual CPU can run 1.5x slower than
/// the others for tens of seconds, and a median over rotated placements
/// shrugs that off where a fixed placement inherits it for the whole run.
/// Threads pick the new rotation up at their next FollowRotation call.
void SetRotation(int rotation);

/// Rotation k places role r on CPU (k·stride + r) mod 4; the stride is 1
/// unless set. With stride 2 the pump and sampler roles only ever hold
/// CPUs 1 and 3, which a workload can then leave to threads it does not
/// own (see ScopedPinToSpareCpus).
void SetRotationStride(int stride);

/// Pins the calling thread to its role's CPU under the current rotation;
/// costs one relaxed load when the rotation has not changed since the
/// thread's last call.
void FollowRotation(Role role);

/// Pins the calling thread to CPUs 1 and 3 until destroyed, then restores
/// its affinity. Threads started meanwhile (a server's) inherit those two
/// CPUs for good; under rotation stride 2 no spinning harness thread runs
/// there.
class ScopedPinToSpareCpus {
 public:
  ScopedPinToSpareCpus();
  ~ScopedPinToSpareCpus();
  ScopedPinToSpareCpus(const ScopedPinToSpareCpus&) = delete;
  ScopedPinToSpareCpus& operator=(const ScopedPinToSpareCpus&) = delete;

 private:
  cpu_set_t saved_;
  bool restore_ = false;
};

std::string HostJson();
std::string JsonArray(const std::vector<double>& values);

// --- Engine-level per-layer helpers ------------------------------------------

/// Peaks of engine gauges sampled during the run (traced runs).
struct EngineGauges {
  std::size_t state_bytes_peak = 0;
  std::size_t graph_nodes_peak = 0;
  std::map<std::string, std::uint64_t> op_memory_peak;  // by kind
  /// Samples `engine` once (stats + snapshot), timing both.
  void Sample(const pipes::engine::Engine& engine);
};

/// Counts behind the per-event per-layer ratios of a traced run.
struct LayerCounts {
  std::uint64_t traced_events = 0;  ///< Input events pushed while traced.
  std::uint64_t pump_steps = 0;     ///< Executor steps taken while traced.
  double rows_per_event = 0;        ///< Result rows / input events, whole run.
  std::int64_t feeder_ns = 0;       ///< Feeder wall time while traced.
  std::uint64_t fetch_calls = 0;    ///< FETCH round trips (traffic-serve).
  std::uint64_t fetch_empty = 0;    ///< ... that returned no rows.
  std::uint64_t fetch_rows = 0;     ///< Rows they returned.
};

/// Adds the per-layer metrics derived from the tracer, the final engine
/// snapshot and stats, and the sampled gauge peaks.
void AddLayerMetrics(Report& report,
                     const pipes::metadata::MetricsSnapshot& final_snapshot,
                     const pipes::engine::EngineStats& stats,
                     const EngineGauges& gauges, const LayerCounts& counts);

void AddFeederMetrics(Report& report, const std::vector<double>& late_ms);

/// The harness pump thread of the in-process workloads: it calls
/// `engine.Pump()` in a loop and yields when a call returns 0; until the
/// next push (or for at most 50 us) it then yields without calling Pump,
/// so an idle pump does not hold the engine lock. Everything
/// pushed before a Pump call that returned 0 has been processed, which is
/// how a saturation burst knows it is drained.
class PumpThread {
 public:
  explicit PumpThread(pipes::engine::Engine& engine);
  ~PumpThread();
  PumpThread(const PumpThread&) = delete;
  PumpThread& operator=(const PumpThread&) = delete;

  /// Feeder side: call after each push.
  void NotePushed() { pushed_.fetch_add(1, std::memory_order_release); }
  /// Blocks until everything pushed so far has been processed.
  void WaitDrained();
  void Stop();
  /// Executor steps taken while tracing was on.
  std::uint64_t steps_traced() const { return steps_traced_; }

 private:
  void Loop();

  pipes::engine::Engine& engine_;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> pushed_{0};
  std::atomic<std::uint64_t> drained_{0};
  std::uint64_t steps_traced_ = 0;  // pump thread only; read after Stop
  std::thread thread_;
};

/// Saturation throughput over bursts: each pushes its events as fast as
/// `push` returns and then calls `drain`. `eps` is the upper quartile over
/// the untraced bursts of each burst's events over its push-and-drain
/// time: the shared host's noise only ever slows a burst, so the faster
/// bursts read the program and the slower ones the host. Traced runs
/// alternate traced and untraced bursts, and `overhead_share` is the
/// traced bursts' median time per event over the untraced bursts', minus
/// one.
class Saturation {
 public:
  void RunBurst(std::size_t begin, std::size_t end, bool traced,
                const std::function<void(std::size_t)>& push,
                const std::function<void()>& drain);
  double eps() const { return Quantile(untraced_eps_, 0.75); }
  double overhead_share() const;
  const std::vector<double>& burst_eps() const { return burst_eps_; }
  double seconds() const { return seconds_; }
  double traced_seconds() const { return traced_seconds_; }

 private:
  std::vector<double> burst_eps_;
  std::vector<double> traced_ns_;
  std::vector<double> untraced_ns_;
  std::vector<double> untraced_eps_;
  double seconds_ = 0;
  double traced_seconds_ = 0;
};

/// Times `setup` `repeats` times, repeat i under placement rotation i,
/// and returns the median in seconds. `teardown` runs untimed before every
/// repeat but the first, so only the last system survives.
double TimeSetup(int repeats, const std::function<void()>& teardown,
                 const std::function<void()>& setup);

/// Workload entry points; each fills `report` and returns 0, or prints an
/// error to stderr and returns non-zero when the run could not be made.
int RunEspbenchEnrich(const Args& args, Report& report);
int RunNexmarkFanout(const Args& args, Report& report);
int RunTrafficServe(const Args& args, Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
