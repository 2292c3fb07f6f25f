#ifndef PERFBENCH_ENGINE_RIG_H_
#define PERFBENCH_ENGINE_RIG_H_

// Query registration, the reference run every workload's outputs are
// checked against, and the phases every workload runs through: a Workload
// describes the inputs and queries, a Target is the system it builds.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "src/common/status.h"
#include "src/cql/catalog.h"
#include "src/engine/engine.h"
#include "src/optimizer/logical_plan.h"

namespace perfbench {

/// One resident query: CQL text, or a plan built against the engine's
/// catalog when CQL cannot say it (a UNION).
struct QuerySpec {
  std::string name;
  std::string tenant;
  std::string text;
  std::function<pipes::Result<pipes::optimizer::LogicalPlan>(
      const pipes::cql::Catalog&)>
      plan;
  /// Results start at an input event's time (filters, stream-relation
  /// joins), so they yield latency samples.
  bool latency_tagged = false;
};

/// Registers `spec` on `engine` (timed as `engine.register`).
pipes::Result<pipes::engine::QueryHandle> RegisterSpec(
    pipes::engine::Engine& engine, const QuerySpec& spec);

/// One input stream of a workload and of the reference run.
struct StreamInput {
  std::string name;
  pipes::relational::Schema schema;
  std::vector<pipes::StreamElement<pipes::relational::Tuple>> rows;
};

/// Runs `queries` over `streams` on a fresh engine to completion
/// (`VectorSource`s, `Engine::RunToCompletion`) and returns each query's
/// output fingerprint. `hash_text` hashes rows as the server renders them.
pipes::Result<std::vector<Fingerprint>> ReferenceRun(
    std::vector<StreamInput> streams,
    const std::vector<QuerySpec>& queries, bool hash_text);

/// Compares live fingerprints with the reference: one attempted check per
/// query, failing on a mismatch or on a query that produced no rows.
void CheckOutputs(Report& report, const std::vector<QuerySpec>& queries,
                  const std::vector<Fingerprint>& live,
                  const pipes::Result<std::vector<Fingerprint>>& reference);

/// Times `cql::Compile` alone on each query text (`cql.compile`).
void TimeCompile(pipes::engine::Engine& engine,
                 const std::vector<QuerySpec>& queries, int rounds);

/// What one run measured.
struct RunSummary {
  std::string workload;
  const LatencySamples* latency = nullptr;
  FeederResult open;
  const Saturation* saturation = nullptr;
  int bursts = 0;
  std::vector<double> register_ms;
  const MemorySampler* memory = nullptr;
  double setup_s = 0;
  int setups = 0;
  double open_rate = 0;
  std::size_t warmup_events = 0;
  std::size_t open_events = 0;
  std::size_t saturation_events = 0;
  int register_pairs = 0;
  // Traced runs only.
  pipes::metadata::MetricsSnapshot final_snapshot;
  pipes::engine::EngineStats stats;
  const EngineGauges* gauges = nullptr;
  LayerCounts counts;
};

/// Adds every metric of `run` to the report (the per-layer ones and the
/// span file when traced) and the run's description: host, seed, phase
/// lengths, bursts, input sizes, memory checkpoints.
void ReportRun(Report& report, const Args& args, const RunSummary& run);

/// Attempted and failed calls of one thread; folded into the report once
/// the thread is done.
struct OpCounter {
  std::uint64_t ops = 0;
  std::uint64_t fails = 0;
  std::string first_error;

  void Add(const pipes::Status& status) {
    ++ops;
    if (!status.ok()) {
      if (fails++ == 0) first_error = status.ToString();
    }
  }
  void FoldInto(Report& report, const char* what) const;
};

/// What the registration traffic thread (churn, or the traffic-serve
/// client) records; read after the thread has joined.
struct LoadBook {
  /// Register calls as the caller sees them; reserved before memory is
  /// baselined.
  std::vector<double> register_ms;
  OpCounter ops;
};

/// Where result callbacks and FETCH replies record latency samples.
struct LatencySink {
  const DueTimes* due = nullptr;
  LatencySamples* latency = nullptr;
};

/// One built system under test: an engine with one writer per input
/// stream, the resident queries registered, and whatever drives it.
/// `RunWorkload` builds one per setup repeat and measures the last.
class Target {
 public:
  virtual ~Target() = default;

  virtual pipes::engine::Engine& engine() = 0;
  /// One writer per `Workload::streams` entry, in the same order.
  virtual std::vector<pipes::engine::StreamWriter>& writers() = 0;
  /// Output fingerprint of each resident query, in `Workload::queries`
  /// order.
  virtual std::vector<Fingerprint> outputs() const = 0;

  /// Called once on the measured system, before the open loop.
  virtual void Begin() {}
  /// Feeder side: called after each ingested event.
  virtual void NotePushed() {}
  /// Blocks until everything ingested so far has been processed.
  virtual void Drain() = 0;
  /// Starts the registration traffic thread. Register/cancel pair k,
  /// cycling through `churn`, is due once the feeder has pushed
  /// k·open_events/pairs open-loop events, so pairs are paced with the
  /// open loop and wait while a saturation burst runs.
  virtual void StartLoad(const std::vector<QuerySpec>& churn, int pairs,
                         std::size_t open_events,
                         const std::atomic<std::size_t>& open_pushed,
                         LoadBook& book) = 0;
  /// Called once the open loop's last event is pushed.
  virtual void EndOpenLoop() {}
  /// Called after every inlet is closed: processes what is left and stops
  /// every thread the target started.
  virtual void Finish() = 0;
  /// Adds the target's own per-layer counts (traced runs).
  virtual void AddCounts(LayerCounts& /*counts*/) const {}
};

/// A workload: inputs, resident queries, registration traffic, and how
/// its system is built. `RunWorkload` drives every workload through the
/// same phases.
struct Workload {
  std::string name;
  /// streams[0] carries the events the feeder schedules; the others are
  /// dimensions whose rows are pushed once event time reaches their start
  /// and which are heartbeated whenever event time advances. Every row
  /// vector is ordered by start.
  std::vector<StreamInput> streams;
  std::vector<QuerySpec> queries;
  double open_rate = 0;  ///< Events/s in the open-loop phase.
  /// Events pushed untimed before the first open-loop block, drained every
  /// 64, so the measured phases see the state the queries hold once their
  /// windows and groups have filled.
  std::size_t warmup_events = 0;
  std::size_t open_events = 0;
  std::size_t saturation_events = 0;
  int setups = 101;
  /// Register/cancel pairs, cycling through `churn`, paced evenly over the
  /// open-loop blocks.
  std::vector<QuerySpec> churn;
  int churn_pairs = 0;
  /// The reference run hashes rows as the server renders them.
  bool hash_text = false;
  /// Builds one system (timed as setup); records every call's status in
  /// `ops`, which fails the run if any failed.
  std::function<std::unique_ptr<Target>(const Workload&, LatencySink,
                                        OpCounter& ops)>
      build;
};

/// The in-process system: the engine driven by one harness pump thread,
/// resident queries delivering through `QueryHandle::OnResult`, and a
/// churn thread registering and cancelling through `Engine::Register`.
std::unique_ptr<Target> BuildInProcess(const Workload& workload,
                                       LatencySink sink, OpCounter& ops);

/// Setup (repeated, median); the warm-up; ten rounds of an open-loop block
/// with registration traffic, the first four followed by a memory
/// checkpoint and the other six by a saturation burst; close and drain;
/// then the reference check.
int RunWorkload(const Args& args, Workload workload, Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_ENGINE_RIG_H_
