#ifndef PIPES_ENGINE_ENGINE_H_
#define PIPES_ENGINE_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <stop_token>
#include <string>
#include <utility>
#include <vector>

#include "src/analysis/dataflow.h"
#include "src/common/status.h"
#include "src/core/buffer.h"
#include "src/core/graph.h"
#include "src/core/sink.h"
#include "src/core/source.h"
#include "src/cql/analyzer.h"
#include "src/cql/catalog.h"
#include "src/memory/memory_manager.h"
#include "src/metadata/snapshot.h"
#include "src/optimizer/plan_manager.h"
#include "src/relational/tuple.h"
#include "src/scheduler/executor.h"
#include "src/scheduler/scheduler.h"
#include "src/scheduler/strategy.h"

/// \file
/// `pipes::engine::Engine` — the unified facade over one shared live query
/// graph (DESIGN.md §4g). Everything a long-running multi-tenant deployment
/// needs sits behind it: the graph, the CQL catalog, the multi-query plan
/// manager (shared-subplan grafting), the memory manager, and the
/// pipe-polled executor. Tenants register continuous queries (CQL text, an
/// analyzed logical plan, or a hand-built pipeline) and get back a
/// `QueryHandle` carrying cancellation, result subscription (pull or
/// callback), and a per-query metrics snapshot.
///
/// Threading: every public entry point except the `StreamWriter` calls
/// serializes on one internal mutex, so concurrent registration,
/// cancellation, publishing, and pumping from multiple threads is safe.
/// Writers queue at their inlet under the inlet's own mutex and return; the
/// engine mutex is only taken by a writer whose inlet queue is past its
/// bound. Lock order is engine mutex, then inlet mutex. Result callbacks
/// fire while the engine lock is held — do not call back into the engine
/// from inside one, writers included.
///
/// Waking a pump: a thread that pumps on its own (`PipesServer`'s) parks in
/// `WaitForWork` when a `Pump` finds nothing to do, and the engine wakes it
/// when there is work again. This is an eventcount. A pump that finds no
/// work counts itself in as parked, re-checks every inlet's queue under
/// that inlet's mutex, and only then sleeps. A writer appends under the
/// inlet mutex and afterwards loads the parked count, so either the
/// re-check sees its row or the writer sees the parked pump and wakes it.
/// With no pump parked a writer only loads that count, which sits alone on
/// its cache line. Every graft, and a writer that stages its backlog, marks
/// the next `Pump` due and wakes unconditionally once it releases the
/// engine mutex: what it staged sits in a pipe, where no inlet re-check can
/// see it. A `Pump` stopped by its step budget does the same (waking only
/// if a pump is parked); one that finds the graph idle clears the mark.
/// `WaitForWork` has no timeout; a stop request ends it. It must return
/// before `~Engine`.
///
/// Graph mutation protocol: the graph must not change while a
/// `PipeExecutor` is linked to its pipes, and a subscription change must
/// find no rows staged in the source's pipe, so the engine suspends
/// (destroys) the executor around every graft and teardown. Suspension
/// first stages every inlet's queued rows and delivers them with the
/// outgoing executor, so a write reaches exactly the queries registered
/// when it was accepted. Otherwise suspension only flushes *staged* output
/// (the executor destructor drains ready pipes without polling sources), so
/// registering or cancelling a query never quiesces the rest of the graph —
/// in-flight elements of other queries keep flowing on the next pump. What
/// a graft stages while suspended (the heartbeat and done signals a late
/// subscriber triggers) waits in its pipe for the next executor. A write is
/// queued at its inlet and never delivered inside the writer's call: the
/// executor's poll stages it (as do a graft and, past the queue bound, the
/// writer), and `Pump` or a graft delivers it.

namespace pipes::engine {

class Engine;

/// What to do with a registration that exceeds the memory budget or a
/// quota.
enum class AdmissionPolicy {
  kReject,  ///< Fail Register with ResourceExhausted.
  kQueue,   ///< Park it; admitted FIFO once capacity frees up.
};

struct EngineOptions {
  /// Budget handed to the engine-owned `memory::MemoryManager`; admission
  /// control rejects/queues registrations while operator state exceeds it.
  /// 0 = unlimited.
  std::size_t memory_budget_bytes = 0;
  /// Budget for the disk spill tier (docs/memory.md): spill-capable
  /// operators page state to disk until the sum of their on-disk runs
  /// reaches this; admission control rejects/queues registrations past it.
  /// 0 = unlimited.
  std::size_t disk_budget_bytes = 0;
  AdmissionPolicy admission = AdmissionPolicy::kReject;
  /// Static admission gate: run the dataflow abstract interpretation over
  /// every plan registration (`analysis::AnalyzeDataflowPlan`) and
  /// reject/queue it when the certified peak state exceeds what remains of
  /// the RAM/disk budgets — before a single element flows. The certificate
  /// is stamped on the query's result sink as `dataflow.cert_*` gauges
  /// (visible in `QuerySnapshot`) and quoted in the ResourceExhausted
  /// message. Runtime admission (observed usage) applies either way.
  /// Pipeline registrations are never certified (no plan to analyze).
  bool certify_admission = false;
  /// Live-query quota per tenant (0 = unlimited).
  std::size_t max_queries_per_tenant = 0;
  /// Live-query quota across all tenants (0 = unlimited).
  std::size_t max_total_queries = 0;
  /// Max work units per executor poll (Aurora-style train size).
  std::size_t batch_size = 64;
  /// Multi-query subplan sharing (off = the E5 baseline instantiator).
  bool sharing = true;
};

struct RegisterOptions {
  std::string tenant = "default";
};

enum class QueryState {
  kQueued,     ///< Parked by admission control, not yet instantiated.
  kRunning,    ///< Grafted onto the live graph.
  kCancelled,  ///< Torn down (or dequeued before admission).
};

/// Per-tenant admission/usage counters, readable at any time.
struct TenantCounters {
  std::uint64_t registered = 0;  ///< Queries ever admitted to the graph.
  std::uint64_t live = 0;        ///< Currently running.
  std::uint64_t queued = 0;      ///< Currently parked by admission control.
  std::uint64_t cancelled = 0;
  std::uint64_t rejected = 0;
  std::uint64_t results_delivered = 0;

  friend bool operator==(const TenantCounters&,
                         const TenantCounters&) = default;
};

/// Engine-wide counters.
struct EngineStats {
  std::uint64_t total_registered = 0;
  std::uint64_t live_queries = 0;
  std::uint64_t queued_queries = 0;
  std::uint64_t cancelled_queries = 0;
  std::uint64_t rejected_queries = 0;
  std::size_t graph_nodes = 0;
  std::size_t operators_created = 0;  ///< PlanManager total.
  std::size_t operators_reused = 0;   ///< PlanManager total.
  std::size_t state_bytes = 0;        ///< Summed ApproxMemoryBytes (RAM).
  std::size_t spilled_bytes = 0;      ///< Disk tier: summed Node spill.
};

/// An externally fed tuple source, and an active node like any other
/// source: `StreamWriter` checks each write against the writer-side state
/// kept with the inlet's queue and appends it under the inlet's own mutex;
/// the executor's poll (`DoWork`) moves whole queued chunks into the inlet's
/// pipe. The pipe and the `Source` bookkeeping are only touched under the
/// engine mutex, the queue only under the inlet mutex, taken in that order.
class InletSource : public Source<relational::Tuple> {
 public:
  using Queue = ChunkQueue<relational::Tuple>;

  /// Units (rows plus control markers) an inlet queues before its writer
  /// takes the engine lock and stages the backlog into the pipe itself.
  static constexpr std::size_t kMaxQueuedUnits = 4 * Queue::kMaxChunkElements;

  explicit InletSource(std::string name) : Source(std::move(name)) {}

  bool is_active() const override { return true; }

  bool HasWork() const override {
    std::lock_guard<std::mutex> lock(mu_);
    return !queue_.empty();
  }

  bool IsFinished() const override {
    std::lock_guard<std::mutex> lock(mu_);
    return queue_.done() && queue_.empty();
  }

  std::size_t queue_size() const override {
    std::lock_guard<std::mutex> lock(mu_);
    return queue_.units();
  }

  std::size_t ApproxMemoryBytes() const override {
    std::lock_guard<std::mutex> lock(mu_);
    return queue_.ApproxMemoryBytes();
  }

  /// Stages whole queued chunks, about one chunk's worth of units per
  /// poll whatever `max_units` says: a chunk is moved into the pipe, never
  /// split or copied.
  std::size_t DoWork(std::size_t /*max_units*/) override {
    return Stage(Queue::kMaxChunkElements);
  }

  NodeDescriptor Describe() const override {
    NodeDescriptor d;
    d.kind = NodeDescriptor::Kind::kSource;
    d.op = "inlet";
    // Queue occupancy depends on scheduling, not on watermark progress.
    d.dataflow.transient_state = true;
    return d;
  }

 private:
  friend class Engine;
  friend class StreamWriter;
  friend Queue;

  /// Moves up to `max_units` queued units, in whole chunks, into the pipe.
  /// Engine mutex held.
  std::size_t Stage(std::size_t max_units) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.Take(max_units, /*whole_chunks=*/true, train_);
    }
    return Queue::Forward(train_, *this);
  }

  mutable std::mutex mu_;
  Queue queue_;  ///< Guarded by mu_.
  std::vector<Queue::Entry> train_;  ///< Stage scratch, engine mutex held.
};

/// Writer for one engine-owned inlet stream. Copyable; copies may write
/// from several threads. Each call checks and queues under the inlet's
/// mutex and returns without waiting for `Pump`; only a write that finds
/// the inlet queue past `InletSource::kMaxQueuedUnits` takes the engine
/// mutex, to stage the backlog into the inlet's pipe. After releasing the
/// inlet mutex, a write wakes a pump parked in `Engine::WaitForWork`, and
/// only then writes anything the engine shares.
class StreamWriter {
 public:
  StreamWriter() = default;

  /// InvalidArgument for an empty or inverted interval (end <= start) or a
  /// start before the stream's last one; FailedPrecondition once closed.
  Status Push(const StreamElement<relational::Tuple>& element);
  /// Pushes the point [t, t + 1); InvalidArgument for t == kMaxTimestamp,
  /// where that interval does not exist.
  Status Push(relational::Tuple tuple, Timestamp t);
  Status Heartbeat(Timestamp t);
  /// Signals end-of-stream (idempotent).
  Status Close();

  explicit operator bool() const { return engine_ != nullptr; }

 private:
  friend class Engine;
  StreamWriter(Engine* engine, InletSource* inlet)
      : engine_(engine), inlet_(inlet) {}

  /// Runs `append(queue)` under the inlet mutex; past the queue bound,
  /// stages the backlog under the engine mutex. Then wakes a parked pump.
  template <typename Append>
  Status Write(Append append);

  Engine* engine_ = nullptr;
  InletSource* inlet_ = nullptr;
};

/// The per-query face of the engine: cancel, fetch/subscribe results, and
/// snapshot metrics for exactly this query's operators. Cheap to copy; all
/// methods serialize on the engine mutex and outlive cancellation (they
/// report state kCancelled / empty results afterwards).
class QueryHandle {
 public:
  using Element = StreamElement<relational::Tuple>;
  using Callback = std::function<void(const Element&)>;

  QueryHandle() = default;

  std::uint64_t id() const { return id_; }
  const std::string& tenant() const { return tenant_; }
  const relational::Schema& schema() const { return schema_; }

  QueryState state() const;

  /// Tears this query down: the engine's result sink detaches, then the
  /// plan manager removes the unshared suffix of the plan (operators other
  /// queries still use stay). The rest of the graph keeps flowing — cancel
  /// never quiesces it.
  Status Cancel();

  /// Takes up to `max_rows` of the oldest results accumulated since the
  /// last Poll (pull mode), all of them by default; the rest stay queued
  /// for the next Poll. Empty once a callback is attached.
  std::vector<Element> Poll(
      std::size_t max_rows = std::numeric_limits<std::size_t>::max());

  /// Switches to push mode: `callback` fires for every result from the
  /// next pump on (with the engine lock held — do not re-enter the
  /// engine, writers included). Pass nullptr to return to pull mode.
  Status OnResult(Callback callback);

  /// Total results this query has delivered (either mode).
  std::uint64_t results_delivered() const;

  /// Metrics snapshot filtered to this query's operators (shared operators
  /// included — they do work for this query too).
  Result<metadata::MetricsSnapshot> Snapshot() const;

  explicit operator bool() const { return engine_ != nullptr; }

 private:
  friend class Engine;
  QueryHandle(Engine* engine, std::uint64_t id, std::string tenant,
              relational::Schema schema)
      : engine_(engine),
        id_(id),
        tenant_(std::move(tenant)),
        schema_(std::move(schema)) {}

  Engine* engine_ = nullptr;
  std::uint64_t id_ = 0;
  std::string tenant_;
  relational::Schema schema_;
};

/// The facade. Owns the graph, catalog, plan manager, memory manager, and
/// executor; see the file comment for the threading and mutation protocol.
class Engine {
 public:
  /// Builds one pipeline query directly against the engine's graph; must
  /// return the query's output source (already added to the graph).
  using PipelineBuilder =
      std::function<Result<Source<relational::Tuple>*>(QueryGraph&)>;
  /// Optional inverse of a PipelineBuilder: unsubscribe and Remove every
  /// node the builder added (the output's engine sink is already gone when
  /// this runs).
  using PipelineTeardown = std::function<Status(QueryGraph&)>;

  explicit Engine(EngineOptions options = {});
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // --- Streams --------------------------------------------------------------

  /// Creates an engine-owned inlet stream: the catalog entry for CQL plus a
  /// writer for the host to push tuples through.
  Result<StreamWriter> AddStream(const std::string& name,
                                 relational::Schema schema,
                                 double rate_hint = 1000.0);

  /// Registers an existing source (already added to `graph()`) under
  /// `name` — for generator-driven deployments (demos, benchmarks).
  Status BindStream(const std::string& name, relational::Schema schema,
                    Source<relational::Tuple>& source,
                    double rate_hint = 1000.0);

  // --- Query registration ---------------------------------------------------

  /// Compiles `cql_text` (through `cql::Compile`) and grafts the optimized
  /// plan onto the live graph, sharing subplans with everything already
  /// running. Admission control may reject (ResourceExhausted) or queue the
  /// query depending on `EngineOptions::admission`.
  Result<QueryHandle> Register(const std::string& cql_text,
                               const RegisterOptions& options = {});

  /// Same, for an already-analyzed logical plan.
  Result<QueryHandle> Register(const optimizer::LogicalPlan& plan,
                               const RegisterOptions& options = {});

  /// Same, for a hand-built pipeline: `builder` runs under the engine's
  /// mutation protocol (executor suspended). Pipeline queries bypass the
  /// plan manager, so cancellation removes only the engine's sink unless a
  /// `teardown` is supplied to undo the builder's wiring.
  Result<QueryHandle> Register(const PipelineBuilder& builder,
                               const RegisterOptions& options = {},
                               PipelineTeardown teardown = nullptr);

  /// Cancels by id (see QueryHandle::Cancel). Queued queries are simply
  /// dequeued. NotFound for unknown ids; cancelling twice is an error.
  Status Cancel(std::uint64_t query_id);

  /// Cancels every live or queued query of `tenant` (a server connection
  /// dropping). Returns how many were cancelled.
  std::size_t CancelAllForTenant(const std::string& tenant);

  // --- Execution ------------------------------------------------------------

  /// Runs up to `max_steps` executor steps (pipe deliveries + source
  /// polls); stops early when the graph has no work. Also admits queued
  /// registrations that now fit. Returns steps actually taken. Stopped by
  /// its budget, it wakes any pump parked in `WaitForWork`.
  std::uint64_t Pump(std::uint64_t max_steps = 1024);

  /// Pumps until the graph fully drains (finite workloads: demos, tests).
  scheduler::RunStats RunToCompletion();

  /// Parks the calling thread until a `Pump` may find work: an inlet holds
  /// queued units, or a graft, an over-bound write or a `Pump` stopped by
  /// its budget left work staged for the next `Pump`. Returns true then,
  /// and false when `stop` is requested first. No timeout: writers, grafts
  /// and the stop request wake it. A bound source that gains work from
  /// outside the engine wakes nothing. For a thread that loops `Pump` and
  /// parks whenever a `Pump` stops short of its step budget; must return
  /// before the engine is destroyed.
  bool WaitForWork(std::stop_token stop);

  // --- Observability --------------------------------------------------------

  /// Whole-graph snapshot (memory gauges included).
  metadata::MetricsSnapshot Snapshot() const;

  /// Snapshot filtered to one tenant's operators, scope-labelled with the
  /// tenant name.
  metadata::MetricsSnapshot TenantSnapshot(const std::string& tenant) const;

  /// Snapshot filtered to one query's operators.
  Result<metadata::MetricsSnapshot> QuerySnapshot(
      std::uint64_t query_id) const;

  TenantCounters tenant_counters(const std::string& tenant) const;
  std::vector<std::string> Tenants() const;
  EngineStats stats() const;

  // --- Infrastructure access (setup phase) ----------------------------------
  // Mutating the graph or catalog directly is the deprecated pre-engine
  // pattern (DESIGN.md §4g migration recipe); do it only before the first
  // Pump, or route through Register/Cancel.

  QueryGraph& graph() { return graph_; }
  const QueryGraph& graph() const { return graph_; }
  cql::Catalog& catalog() { return catalog_; }
  memory::MemoryManager& memory_manager() { return memory_; }
  const optimizer::PlanManager& plan_manager() const { return plan_manager_; }

 private:
  friend class QueryHandle;
  friend class StreamWriter;

  /// The engine-owned terminal sink of one registered query.
  class ResultSink;
  /// The engine lock of a graft; releasing it wakes a parked pump.
  class GraftLock;

  struct QueryRecord {
    std::string tenant;
    QueryState state = QueryState::kQueued;
    std::uint64_t pm_id = 0;  ///< PlanManager id; 0 for pipeline queries.
    Source<relational::Tuple>* output = nullptr;
    ResultSink* sink = nullptr;  ///< Owned by the graph while running.
    relational::Schema schema;
    optimizer::LogicalPlan plan;            ///< Kept while queued.
    std::vector<std::uint64_t> node_ids;    ///< Pipeline queries only.
    PipelineTeardown teardown;              ///< Pipeline queries only.
    std::uint64_t results_delivered = 0;    ///< Final count after teardown.
    /// Static state certificate, valid iff `has_certificate` (plan
    /// registrations under `EngineOptions::certify_admission`).
    analysis::StateCertificate certificate;
    bool has_certificate = false;
  };

  // All private helpers below assume mu_ is held.
  Result<QueryHandle> RegisterPlanLocked(const optimizer::LogicalPlan& plan,
                                         const RegisterOptions& options);
  Status AdmitLocked(std::uint64_t query_id, QueryRecord& record);
  Status CancelLocked(std::uint64_t query_id);
  void AdmitPendingLocked();
  /// Quota/budget verdict for one more query of `tenant`. OK, or the
  /// ResourceExhausted the caller rejects/queues with. A non-null
  /// `certificate` is additionally checked against the budget headroom
  /// (the static gate of `EngineOptions::certify_admission`).
  Status AdmissionCheckLocked(
      const std::string& tenant,
      const analysis::StateCertificate* certificate = nullptr) const;
  std::size_t StateBytesLocked() const;
  std::size_t SpilledBytesLocked() const;
  /// Stages every inlet's queue (the graft boundary), then destroys the
  /// executor, which delivers what is staged.
  void SuspendExecutorLocked();
  void EnsureExecutorLocked();
  /// Moves `inlet`'s whole queue into its pipe, with an executor linked to
  /// deliver it; builds none when nothing is queued.
  void StageBacklogLocked(InletSource& inlet);
  Result<std::vector<std::uint64_t>> QueryNodeIdsLocked(
      std::uint64_t query_id) const;
  static std::string OutputGaugeName(const std::string& tenant);
  /// Wakes every pump parked in `WaitForWork`. mu_ not held.
  void WakePumps();
  /// Whether a parked pump has work: `pump_due_` or an inlet with queued
  /// units. wake_mu_ held.
  bool PumpHasWorkWakeLocked() const;

  mutable std::mutex mu_;
  EngineOptions options_;
  QueryGraph graph_;
  cql::Catalog catalog_;
  memory::MemoryManager memory_;
  optimizer::PlanManager plan_manager_;
  scheduler::RoundRobinStrategy strategy_;
  std::unique_ptr<scheduler::PipeExecutor> executor_;

  /// Owned by the graph. Appended under mu_ and wake_mu_; read under either.
  std::vector<InletSource*> inlets_;
  std::map<std::uint64_t, QueryRecord> queries_;
  std::vector<std::uint64_t> pending_;  ///< Queued ids, FIFO.
  std::map<std::string, TenantCounters> tenants_;
  std::uint64_t next_query_id_ = 1;
  std::uint64_t cancelled_count_ = 0;
  std::uint64_t rejected_count_ = 0;

  // Wake state (see "Waking a pump" in the file comment).
  /// Whether the last holder of mu_ may have left work staged for the next
  /// `Pump`: set by a graft, and by a `Pump` stopped by its step budget;
  /// cleared by a `Pump` that found the graph idle and by
  /// `RunToCompletion`. Written under mu_, read by a parked pump under
  /// wake_mu_.
  std::atomic<bool> pump_due_{false};
  /// Serializes a parking pump's re-check with the wakes that could race it.
  std::mutex wake_mu_;
  std::condition_variable_any wake_cv_;
  /// Pumps parked in `WaitForWork`. Every write loads it, so it has a cache
  /// line of its own, which only a parking or waking pump writes.
  struct alignas(64) ParkedCount {
    std::atomic<std::uint32_t> value{0};
  };
  ParkedCount parked_;
};

}  // namespace pipes::engine

#endif  // PIPES_ENGINE_ENGINE_H_
