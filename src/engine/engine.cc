#include "src/engine/engine.h"

#include <algorithm>
#include <iterator>
#include <limits>
#include <mutex>
#include <set>
#include <utility>

namespace pipes::engine {

// --- ResultSink -------------------------------------------------------------

/// Terminal sink the engine wires onto every registered query's output.
/// Pull mode accumulates into a queue drained by `QueryHandle::Poll`; push
/// mode forwards each element to the handle's callback. Only ever touched
/// with the engine mutex held (deliveries happen inside Pump, accessors
/// inside locked handle methods), so no locking of its own.
class Engine::ResultSink : public Sink<relational::Tuple> {
 public:
  using Element = StreamElement<relational::Tuple>;

  explicit ResultSink(std::string name) : Sink(std::move(name)) {}

  /// Takes up to `max_rows` of the oldest queued results; the rest stay
  /// queued. The consumed prefix is compacted away once it is at least
  /// half the queue, so paging through a backlog stays linear.
  std::vector<Element> Drain(std::size_t max_rows) {
    const std::size_t n = std::min(max_rows, queue_.size() - head_);
    if (head_ == 0 && n == queue_.size()) {
      std::vector<Element> out;
      out.swap(queue_);
      return out;
    }
    const auto first = queue_.begin() + static_cast<std::ptrdiff_t>(head_);
    std::vector<Element> out(
        std::make_move_iterator(first),
        std::make_move_iterator(first + static_cast<std::ptrdiff_t>(n)));
    head_ += n;
    if (head_ * 2 >= queue_.size()) {
      queue_.erase(queue_.begin(),
                   queue_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
    return out;
  }

  std::uint64_t delivered() const { return delivered_; }

  void set_callback(QueryHandle::Callback callback) {
    callback_ = std::move(callback);
    if (callback_) {
      // Anything already queued replays through the new callback, so the
      // subscriber never misses results produced before it attached.
      for (std::size_t i = head_; i < queue_.size(); ++i) callback_(queue_[i]);
      queue_.clear();
      head_ = 0;
    }
  }

  NodeDescriptor Describe() const override {
    NodeDescriptor d = Sink::Describe();
    d.op = "engine-result-sink";
    return d;
  }

 protected:
  void PortRun(int /*port_id*/,
               const ColumnarRun<relational::Tuple>& run) override {
    delivered_ += run.size();
    if (callback_ == nullptr) {
      run.MaterializeTo(queue_);
      return;
    }
    for (std::size_t i = 0; i < run.size(); ++i) callback_(run.ElementAt(i));
  }

 private:
  std::vector<Element> queue_;
  /// Rows before `head_` were already taken by `Drain`.
  std::size_t head_ = 0;
  std::uint64_t delivered_ = 0;
  QueryHandle::Callback callback_;
};

// --- Engine -----------------------------------------------------------------

/// Holds the engine mutex for a graft, and for a writer staging its inlet's
/// backlog. Either may leave work staged in a pipe, where a parked pump's
/// re-check cannot see it, so releasing the lock marks the next `Pump` due
/// and then wakes parked pumps.
class Engine::GraftLock {
 public:
  explicit GraftLock(Engine& engine) : engine_(engine), lock_(engine.mu_) {}
  ~GraftLock() {
    engine_.pump_due_.store(true, std::memory_order_relaxed);
    lock_.unlock();
    engine_.WakePumps();
  }

  GraftLock(const GraftLock&) = delete;
  GraftLock& operator=(const GraftLock&) = delete;

 private:
  Engine& engine_;
  std::unique_lock<std::mutex> lock_;
};

Engine::Engine(EngineOptions options)
    : options_(options),
      memory_(options.memory_budget_bytes,
              std::make_unique<memory::UniformStrategy>()),
      plan_manager_(&graph_, &catalog_, options.sharing) {
  if (options.disk_budget_bytes > 0) {
    memory_.set_disk_budget(options.disk_budget_bytes);
  }
}

Engine::~Engine() {
  PIPES_DCHECK(parked_.value.load() == 0);
  // Deliver queued and staged rows and detach before the graph goes away.
  std::lock_guard<std::mutex> lock(mu_);
  SuspendExecutorLocked();
}

std::string Engine::OutputGaugeName(const std::string& tenant) {
  return "engine.registered_output:" + tenant;
}

void Engine::SuspendExecutorLocked() {
  // Rows accepted before this mutation go to the subscribers of now. The
  // destructor then drains every ready pipe (staged output only — it never
  // polls sources) and detaches. This is the whole "mutate a live graph
  // without quiescing it" protocol.
  for (InletSource* inlet : inlets_) StageBacklogLocked(*inlet);
  executor_.reset();
}

void Engine::EnsureExecutorLocked() {
  if (executor_ == nullptr) {
    executor_ = std::make_unique<scheduler::PipeExecutor>(
        graph_, strategy_, options_.batch_size);
  }
}

void Engine::WakePumps() {
  // A parking pump holds wake_mu_ from its re-check until it sleeps, so
  // once we have held it, the pump is asleep or has yet to re-check.
  { std::lock_guard<std::mutex> lock(wake_mu_); }
  wake_cv_.notify_all();
}

bool Engine::PumpHasWorkWakeLocked() const {
  if (pump_due_.load(std::memory_order_relaxed)) return true;
  return std::any_of(inlets_.begin(), inlets_.end(),
                     [](const InletSource* inlet) { return inlet->HasWork(); });
}

void Engine::StageBacklogLocked(InletSource& inlet) {
  if (!inlet.HasWork()) return;
  EnsureExecutorLocked();
  inlet.Stage(std::numeric_limits<std::size_t>::max());
}

std::size_t Engine::StateBytesLocked() const {
  std::size_t total = 0;
  for (const Node* node : graph_.nodes()) total += node->ApproxMemoryBytes();
  return total;
}

std::size_t Engine::SpilledBytesLocked() const {
  std::size_t total = 0;
  for (const Node* node : graph_.nodes()) total += node->SpilledBytes();
  return total;
}

// --- Streams ----------------------------------------------------------------

Result<StreamWriter> Engine::AddStream(const std::string& name,
                                       relational::Schema schema,
                                       double rate_hint) {
  GraftLock lock(*this);
  SuspendExecutorLocked();
  auto& inlet = graph_.Add<InletSource>(name);
  const Status status =
      catalog_.RegisterStream(name, std::move(schema), &inlet, rate_hint);
  if (!status.ok()) {
    PIPES_CHECK(graph_.Remove(inlet).ok());
    return status;
  }
  {
    std::lock_guard<std::mutex> wake_lock(wake_mu_);
    inlets_.push_back(&inlet);
  }
  return StreamWriter(this, &inlet);
}

Status Engine::BindStream(const std::string& name, relational::Schema schema,
                          Source<relational::Tuple>& source,
                          double rate_hint) {
  GraftLock lock(*this);
  if (!graph_.Contains(source)) {
    return Status::InvalidArgument("source '" + source.name() +
                                   "' is not owned by the engine graph; add "
                                   "it through engine.graph() first");
  }
  SuspendExecutorLocked();
  return catalog_.RegisterStream(name, std::move(schema), &source, rate_hint);
}

namespace {

Status ClosedStream(const InletSource& inlet) {
  return Status::FailedPrecondition("stream '" + inlet.name() +
                                    "' is closed");
}

/// Checks one push against `queue`'s writer-side state and appends it.
/// `Element` is `StreamElement<Tuple>`, taken by const reference (copied
/// in) or by rvalue (moved in).
template <typename Element>
Status CheckAndAppend(const InletSource& inlet, InletSource::Queue& queue,
                      Element&& element) {
  if (queue.done()) return ClosedStream(inlet);
  // TimeInterval's own start < end check is a DCHECK; a pushed interval is
  // outside input and must be refused in every build.
  if (element.end() <= element.start()) {
    return Status::InvalidArgument(
        "empty or inverted interval pushed into stream '" + inlet.name() +
        "': [" + std::to_string(element.start()) + ", " +
        std::to_string(element.end()) + ")");
  }
  if (element.start() < queue.last_start()) {
    return Status::InvalidArgument(
        "out-of-order push into stream '" + inlet.name() +
        "': " + std::to_string(element.start()) + " < " +
        std::to_string(queue.last_start()));
  }
  queue.Append(std::forward<Element>(element));
  return Status::OK();
}

}  // namespace

template <typename Append>
Status StreamWriter::Write(Append append) {
  if (engine_ == nullptr) return Status::FailedPrecondition("empty writer");
  bool over_bound = false;
  {
    std::lock_guard<std::mutex> lock(inlet_->mu_);
    PIPES_RETURN_IF_ERROR(append(inlet_->queue_));
    over_bound = inlet_->queue_.units() > InletSource::kMaxQueuedUnits;
  }
  if (over_bound) {
    Engine::GraftLock lock(*engine_);
    engine_->StageBacklogLocked(*inlet_);
  } else if (engine_->parked_.value.load() != 0) {
    // The inlet mutex ordered this append and a parking pump's re-check of
    // it: if the re-check came first, this load sees the pump counted in.
    engine_->WakePumps();
  }
  return Status::OK();
}

Status StreamWriter::Push(const StreamElement<relational::Tuple>& element) {
  return Write([&](InletSource::Queue& queue) {
    return CheckAndAppend(*inlet_, queue, element);
  });
}

Status StreamWriter::Push(relational::Tuple tuple, Timestamp t) {
  if (t < kMaxTimestamp) {
    auto point = StreamElement<relational::Tuple>::Point(std::move(tuple), t);
    return Write([&](InletSource::Queue& queue) {
      return CheckAndAppend(*inlet_, queue, std::move(point));
    });
  }
  // The point [t, t + 1) does not exist at the last timestamp.
  if (engine_ == nullptr) return Status::FailedPrecondition("empty writer");
  return Status::InvalidArgument("point push into stream '" + inlet_->name() +
                                 "' at the last timestamp: [" +
                                 std::to_string(t) + ", " + std::to_string(t) +
                                 " + 1) does not fit");
}

Status StreamWriter::Heartbeat(Timestamp t) {
  return Write([&](InletSource::Queue& queue) {
    if (queue.done()) return ClosedStream(*inlet_);
    queue.AppendHeartbeat(t);
    return Status::OK();
  });
}

Status StreamWriter::Close() {
  return Write([](InletSource::Queue& queue) {
    if (!queue.done()) queue.AppendDone();
    return Status::OK();
  });
}

// --- Registration -----------------------------------------------------------

namespace {

std::string CertifiedBytes(std::uint64_t bytes) {
  return bytes == analysis::NodeStateBound::kUnknownBytes
             ? std::string("unbounded")
             : std::to_string(bytes);
}

}  // namespace

Status Engine::AdmissionCheckLocked(
    const std::string& tenant,
    const analysis::StateCertificate* certificate) const {
  std::uint64_t live_total = 0;
  for (const auto& [unused, counters] : tenants_) live_total += counters.live;
  if (options_.max_total_queries > 0 &&
      live_total >= options_.max_total_queries) {
    return Status::ResourceExhausted(
        "engine query quota (" + std::to_string(options_.max_total_queries) +
        ") exhausted");
  }
  auto it = tenants_.find(tenant);
  if (options_.max_queries_per_tenant > 0 && it != tenants_.end() &&
      it->second.live >= options_.max_queries_per_tenant) {
    return Status::ResourceExhausted(
        "tenant '" + tenant + "' query quota (" +
        std::to_string(options_.max_queries_per_tenant) + ") exhausted");
  }
  if (options_.memory_budget_bytes > 0) {
    const std::size_t used =
        std::max(StateBytesLocked(), memory_.TotalUsage());
    if (used >= options_.memory_budget_bytes) {
      return Status::ResourceExhausted(
          "memory budget exceeded (" + std::to_string(used) + " of " +
          std::to_string(options_.memory_budget_bytes) + " bytes in use)");
    }
  }
  if (options_.disk_budget_bytes > 0) {
    const std::size_t spilled =
        std::max(SpilledBytesLocked(), memory_.TotalDiskUsage());
    if (spilled >= options_.disk_budget_bytes) {
      return Status::ResourceExhausted(
          "disk budget exceeded (" + std::to_string(spilled) + " of " +
          std::to_string(options_.disk_budget_bytes) +
          " bytes spilled)");
    }
  }
  if (certificate != nullptr) {
    // The static gate: the plan's certified peak state must fit into the
    // budget headroom left by everything already running. Unbounded
    // certificates never fit a finite budget.
    if (options_.memory_budget_bytes > 0) {
      const std::size_t used =
          std::max(StateBytesLocked(), memory_.TotalUsage());
      const std::uint64_t headroom = options_.memory_budget_bytes - used;
      if (!certificate->ram_bounded() ||
          certificate->ram_bytes > headroom) {
        return Status::ResourceExhausted(
            "state certificate exceeds remaining memory budget: certified "
            "ram=" +
            CertifiedBytes(certificate->ram_bytes) +
            " disk=" + CertifiedBytes(certificate->disk_bytes) + " bytes, " +
            std::to_string(headroom) + " of " +
            std::to_string(options_.memory_budget_bytes) + " bytes free");
      }
    }
    if (options_.disk_budget_bytes > 0) {
      const std::size_t spilled =
          std::max(SpilledBytesLocked(), memory_.TotalDiskUsage());
      const std::uint64_t headroom = options_.disk_budget_bytes - spilled;
      if (!certificate->disk_bounded() ||
          certificate->disk_bytes > headroom) {
        return Status::ResourceExhausted(
            "state certificate exceeds remaining disk budget: certified "
            "ram=" +
            CertifiedBytes(certificate->ram_bytes) +
            " disk=" + CertifiedBytes(certificate->disk_bytes) + " bytes, " +
            std::to_string(headroom) + " of " +
            std::to_string(options_.disk_budget_bytes) + " bytes free");
      }
    }
  }
  return Status::OK();
}

Status Engine::AdmitLocked(std::uint64_t query_id, QueryRecord& record) {
  SuspendExecutorLocked();
  PIPES_ASSIGN_OR_RETURN(optimizer::PlanManager::InstalledQuery installed,
                         plan_manager_.InstallPlan(record.plan));
  auto& sink = graph_.Add<ResultSink>("q" + std::to_string(query_id) +
                                      "-results");
  if (record.has_certificate) {
    // Stamp the static certificate on the query's own sink so it rides
    // along in QuerySnapshot (the snapshot capture lifts "dataflow."
    // gauges into NodeSnapshot::gauges). -1 encodes unbounded.
    const auto bytes_gauge = [](std::uint64_t v) {
      return v == analysis::NodeStateBound::kUnknownBytes
                 ? -1.0
                 : static_cast<double>(v);
    };
    sink.metadata().SetGauge("dataflow.cert_ram_bytes",
                             bytes_gauge(record.certificate.ram_bytes));
    sink.metadata().SetGauge("dataflow.cert_disk_bytes",
                             bytes_gauge(record.certificate.disk_bytes));
    sink.metadata().SetGauge("dataflow.cert_progress_ok",
                             record.certificate.progress_ok ? 1.0 : 0.0);
    sink.metadata().SetGauge(
        "dataflow.cert_disorder_bound",
        record.certificate.disorder_bound ==
                NodeDescriptor::Dataflow::kUnknownTime
            ? -1.0
            : static_cast<double>(record.certificate.disorder_bound));
  }
  installed.output->AddSubscriber(sink.input());
  installed.output->metadata().SetGauge(OutputGaugeName(record.tenant),
                                        static_cast<double>(query_id));
  record.pm_id = installed.query_id;
  record.output = installed.output;
  record.sink = &sink;
  record.schema = installed.schema;
  record.plan = nullptr;  // The physical graph is the plan now.
  record.state = QueryState::kRunning;
  TenantCounters& counters = tenants_[record.tenant];
  ++counters.registered;
  ++counters.live;
  return Status::OK();
}

Result<QueryHandle> Engine::RegisterPlanLocked(
    const optimizer::LogicalPlan& plan, const RegisterOptions& options) {
  analysis::StateCertificate certificate;
  bool has_certificate = false;
  if (options_.certify_admission) {
    // The abstract interpretation runs over a scratch materialization of
    // the plan (the engine graph is untouched), seeded from the catalog's
    // per-stream rate hints.
    Result<analysis::DataflowResult> analyzed =
        analysis::AnalyzeDataflowPlan(plan, &catalog_);
    if (!analyzed.ok()) return analyzed.status();
    certificate = analyzed->certificate;
    has_certificate = true;
  }
  const Status admission = AdmissionCheckLocked(
      options.tenant, has_certificate ? &certificate : nullptr);
  if (!admission.ok()) {
    if (options_.admission == AdmissionPolicy::kReject) {
      ++rejected_count_;
      ++tenants_[options.tenant].rejected;
      return admission;
    }
    const std::uint64_t id = next_query_id_++;
    QueryRecord& record = queries_[id];
    record.tenant = options.tenant;
    record.state = QueryState::kQueued;
    record.plan = plan;
    record.schema = plan->schema;
    record.certificate = certificate;
    record.has_certificate = has_certificate;
    pending_.push_back(id);
    ++tenants_[options.tenant].queued;
    return QueryHandle(this, id, options.tenant, plan->schema);
  }
  const std::uint64_t id = next_query_id_++;
  QueryRecord record;
  record.tenant = options.tenant;
  record.plan = plan;
  record.certificate = certificate;
  record.has_certificate = has_certificate;
  const Status status = AdmitLocked(id, record);
  if (!status.ok()) return status;
  queries_[id] = std::move(record);
  return QueryHandle(this, id, options.tenant, queries_[id].schema);
}

Result<QueryHandle> Engine::Register(const std::string& cql_text,
                                     const RegisterOptions& options) {
  GraftLock lock(*this);
  PIPES_ASSIGN_OR_RETURN(cql::CompiledQuery compiled,
                         cql::Compile(cql_text, catalog_));
  return RegisterPlanLocked(compiled.plan, options);
}

Result<QueryHandle> Engine::Register(const optimizer::LogicalPlan& plan,
                                     const RegisterOptions& options) {
  GraftLock lock(*this);
  if (plan == nullptr) return Status::InvalidArgument("null plan");
  return RegisterPlanLocked(plan, options);
}

Result<QueryHandle> Engine::Register(const PipelineBuilder& builder,
                                     const RegisterOptions& options,
                                     PipelineTeardown teardown) {
  GraftLock lock(*this);
  // Pipeline registrations cannot be replayed later, so admission failures
  // always reject (the queue only holds plans).
  PIPES_RETURN_IF_ERROR([&] {
    const Status admission = AdmissionCheckLocked(options.tenant);
    if (!admission.ok()) {
      ++rejected_count_;
      ++tenants_[options.tenant].rejected;
    }
    return admission;
  }());
  SuspendExecutorLocked();

  std::set<std::uint64_t> before;
  for (const Node* node : graph_.nodes()) before.insert(node->id());
  PIPES_ASSIGN_OR_RETURN(Source<relational::Tuple>* output, builder(graph_));
  if (output == nullptr || !graph_.Contains(*output)) {
    return Status::InvalidArgument(
        "pipeline builder must return an output source owned by the engine "
        "graph");
  }

  const std::uint64_t id = next_query_id_++;
  QueryRecord& record = queries_[id];
  record.tenant = options.tenant;
  record.state = QueryState::kRunning;
  record.output = output;
  record.teardown = std::move(teardown);
  for (const Node* node : graph_.nodes()) {
    if (before.find(node->id()) == before.end()) {
      record.node_ids.push_back(node->id());
    }
  }

  auto& sink = graph_.Add<ResultSink>("q" + std::to_string(id) + "-results");
  output->AddSubscriber(sink.input());
  output->metadata().SetGauge(OutputGaugeName(options.tenant),
                              static_cast<double>(id));
  record.sink = &sink;
  record.node_ids.push_back(sink.id());

  TenantCounters& counters = tenants_[options.tenant];
  ++counters.registered;
  ++counters.live;
  return QueryHandle(this, id, options.tenant, record.schema);
}

// --- Cancellation -----------------------------------------------------------

Status Engine::CancelLocked(std::uint64_t query_id) {
  auto it = queries_.find(query_id);
  if (it == queries_.end()) {
    return Status::NotFound("query " + std::to_string(query_id) +
                            " is not registered");
  }
  QueryRecord& record = it->second;
  if (record.state == QueryState::kCancelled) {
    return Status::FailedPrecondition("query " + std::to_string(query_id) +
                                      " is already cancelled");
  }
  TenantCounters& counters = tenants_[record.tenant];
  if (record.state == QueryState::kQueued) {
    pending_.erase(std::remove(pending_.begin(), pending_.end(), query_id),
                   pending_.end());
    record.plan = nullptr;
    record.state = QueryState::kCancelled;
    --counters.queued;
    ++counters.cancelled;
    ++cancelled_count_;
    return Status::OK();
  }

  SuspendExecutorLocked();
  record.output->metadata().Remove(OutputGaugeName(record.tenant));
  record.results_delivered = record.sink->delivered();
  counters.results_delivered += record.sink->delivered();
  PIPES_RETURN_IF_ERROR(record.output->UnsubscribeFrom(record.sink->input()));
  PIPES_RETURN_IF_ERROR(graph_.Remove(*record.sink));
  record.sink = nullptr;

  Status teardown_status = Status::OK();
  if (record.pm_id != 0) {
    // Drops the plan's reference counts and physically removes the suffix
    // no other query shares; shared prefixes stay live and keep flowing.
    teardown_status = plan_manager_.UninstallQuery(record.pm_id);
  } else if (record.teardown != nullptr) {
    teardown_status = record.teardown(graph_);
  }
  record.output = nullptr;
  record.state = QueryState::kCancelled;
  --counters.live;
  ++counters.cancelled;
  ++cancelled_count_;
  AdmitPendingLocked();
  return teardown_status;
}

Status Engine::Cancel(std::uint64_t query_id) {
  GraftLock lock(*this);
  return CancelLocked(query_id);
}

std::size_t Engine::CancelAllForTenant(const std::string& tenant) {
  GraftLock lock(*this);
  std::vector<std::uint64_t> ids;
  for (const auto& [id, record] : queries_) {
    if (record.tenant == tenant && record.state != QueryState::kCancelled) {
      ids.push_back(id);
    }
  }
  std::size_t cancelled = 0;
  for (const std::uint64_t id : ids) {
    if (CancelLocked(id).ok()) ++cancelled;
  }
  return cancelled;
}

void Engine::AdmitPendingLocked() {
  while (!pending_.empty()) {
    const std::uint64_t id = pending_.front();
    auto it = queries_.find(id);
    PIPES_CHECK(it != queries_.end());
    QueryRecord& record = it->second;
    if (!AdmissionCheckLocked(record.tenant, record.has_certificate
                                                 ? &record.certificate
                                                 : nullptr)
             .ok()) {
      return;
    }
    pending_.erase(pending_.begin());
    --tenants_[record.tenant].queued;
    const Status status = AdmitLocked(id, record);
    if (!status.ok()) {
      // The plan stopped being installable (e.g. its stream was rebound);
      // surface that as a cancelled query rather than wedging the queue.
      record.plan = nullptr;
      record.state = QueryState::kCancelled;
      ++tenants_[record.tenant].cancelled;
      ++cancelled_count_;
    }
  }
}

// --- Execution --------------------------------------------------------------

std::uint64_t Engine::Pump(std::uint64_t max_steps) {
  std::uint64_t steps = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    AdmitPendingLocked();
    EnsureExecutorLocked();
    while (steps < max_steps && executor_->Step()) ++steps;
    // A pump stopped by its budget may leave work staged in a pipe, where
    // a parked pump's re-check cannot see it.
    pump_due_.store(steps == max_steps, std::memory_order_relaxed);
  }
  if (steps == max_steps && parked_.value.load() != 0) WakePumps();
  return steps;
}

scheduler::RunStats Engine::RunToCompletion() {
  std::lock_guard<std::mutex> lock(mu_);
  AdmitPendingLocked();
  EnsureExecutorLocked();
  const scheduler::RunStats stats = executor_->RunToCompletion();
  pump_due_.store(false, std::memory_order_relaxed);
  return stats;
}

bool Engine::WaitForWork(std::stop_token stop) {
  std::unique_lock<std::mutex> lock(wake_mu_);
  // Work already queued needs no wake, so writers keep their fast path.
  if (PumpHasWorkWakeLocked()) return true;
  // Count in before the re-check (see "Waking a pump" in engine.h).
  parked_.value.fetch_add(1);
  const bool work = wake_cv_.wait(lock, std::move(stop),
                                  [this] { return PumpHasWorkWakeLocked(); });
  parked_.value.fetch_sub(1);
  return work;
}

// --- Observability ----------------------------------------------------------

metadata::MetricsSnapshot Engine::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  metadata::CaptureOptions options;
  options.memory_manager = &memory_;
  return metadata::CaptureSnapshot(graph_, options);
}

Result<std::vector<std::uint64_t>> Engine::QueryNodeIdsLocked(
    std::uint64_t query_id) const {
  auto it = queries_.find(query_id);
  if (it == queries_.end()) {
    return Status::NotFound("query " + std::to_string(query_id) +
                            " is not registered");
  }
  const QueryRecord& record = it->second;
  if (record.state != QueryState::kRunning) {
    return Status::FailedPrecondition("query " + std::to_string(query_id) +
                                      " is not running");
  }
  std::vector<std::uint64_t> ids;
  if (record.pm_id != 0) {
    PIPES_ASSIGN_OR_RETURN(std::vector<const Node*> nodes,
                           plan_manager_.QueryNodes(record.pm_id));
    for (const Node* node : nodes) ids.push_back(node->id());
    ids.push_back(record.output->id());
    ids.push_back(record.sink->id());
  } else {
    ids = record.node_ids;
  }
  return ids;
}

metadata::MetricsSnapshot Engine::TenantSnapshot(
    const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  metadata::SnapshotOptions options;
  options.scope = tenant;
  for (const auto& [id, record] : queries_) {
    if (record.tenant != tenant || record.state != QueryState::kRunning) {
      continue;
    }
    const auto ids = QueryNodeIdsLocked(id);
    if (!ids.ok()) continue;
    options.node_filter.insert(options.node_filter.end(), ids->begin(),
                               ids->end());
  }
  // A tenant with no running queries sees an empty view, not the whole
  // graph (an empty filter means "keep everything" to the exporters).
  if (options.node_filter.empty()) {
    options.node_filter.push_back(0);  // id 0 is never assigned
  }
  metadata::CaptureOptions capture;
  capture.memory_manager = &memory_;
  return metadata::FilterSnapshot(metadata::CaptureSnapshot(graph_, capture),
                                  options);
}

Result<metadata::MetricsSnapshot> Engine::QuerySnapshot(
    std::uint64_t query_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  PIPES_ASSIGN_OR_RETURN(std::vector<std::uint64_t> ids,
                         QueryNodeIdsLocked(query_id));
  metadata::SnapshotOptions options;
  options.node_filter = std::move(ids);
  options.scope = "query-" + std::to_string(query_id);
  metadata::CaptureOptions capture;
  capture.memory_manager = &memory_;
  return metadata::FilterSnapshot(metadata::CaptureSnapshot(graph_, capture),
                                  options);
}

TenantCounters Engine::tenant_counters(const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) return TenantCounters{};
  TenantCounters counters = it->second;
  // Fold in the live sinks' running totals (the per-record counter is only
  // finalized at cancel).
  for (const auto& [unused, record] : queries_) {
    if (record.tenant == tenant && record.state == QueryState::kRunning) {
      counters.results_delivered += record.sink->delivered();
    }
  }
  return counters;
}

std::vector<std::string> Engine::Tenants() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(tenants_.size());
  for (const auto& [name, unused] : tenants_) names.push_back(name);
  return names;
}

EngineStats Engine::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  EngineStats stats;
  for (const auto& [unused, counters] : tenants_) {
    stats.total_registered += counters.registered;
    stats.live_queries += counters.live;
    stats.queued_queries += counters.queued;
  }
  stats.cancelled_queries = cancelled_count_;
  stats.rejected_queries = rejected_count_;
  stats.graph_nodes = graph_.size();
  stats.operators_created = plan_manager_.total_operators_created();
  stats.operators_reused = plan_manager_.total_operators_reused();
  stats.state_bytes = StateBytesLocked();
  stats.spilled_bytes = std::max(SpilledBytesLocked(), memory_.TotalDiskUsage());
  return stats;
}

// --- QueryHandle ------------------------------------------------------------

QueryState QueryHandle::state() const {
  if (engine_ == nullptr) return QueryState::kCancelled;
  std::lock_guard<std::mutex> lock(engine_->mu_);
  auto it = engine_->queries_.find(id_);
  if (it == engine_->queries_.end()) return QueryState::kCancelled;
  return it->second.state;
}

Status QueryHandle::Cancel() {
  if (engine_ == nullptr) return Status::FailedPrecondition("empty handle");
  return engine_->Cancel(id_);
}

std::vector<QueryHandle::Element> QueryHandle::Poll(std::size_t max_rows) {
  if (engine_ == nullptr) return {};
  std::lock_guard<std::mutex> lock(engine_->mu_);
  auto it = engine_->queries_.find(id_);
  if (it == engine_->queries_.end() ||
      it->second.state != QueryState::kRunning) {
    return {};
  }
  return it->second.sink->Drain(max_rows);
}

Status QueryHandle::OnResult(Callback callback) {
  if (engine_ == nullptr) return Status::FailedPrecondition("empty handle");
  std::lock_guard<std::mutex> lock(engine_->mu_);
  auto it = engine_->queries_.find(id_);
  if (it == engine_->queries_.end() ||
      it->second.state != QueryState::kRunning) {
    return Status::FailedPrecondition("query " + std::to_string(id_) +
                                      " is not running");
  }
  it->second.sink->set_callback(std::move(callback));
  return Status::OK();
}

std::uint64_t QueryHandle::results_delivered() const {
  if (engine_ == nullptr) return 0;
  std::lock_guard<std::mutex> lock(engine_->mu_);
  auto it = engine_->queries_.find(id_);
  if (it == engine_->queries_.end()) return 0;
  const Engine::QueryRecord& record = it->second;
  return record.state == QueryState::kRunning ? record.sink->delivered()
                                              : record.results_delivered;
}

Result<metadata::MetricsSnapshot> QueryHandle::Snapshot() const {
  if (engine_ == nullptr) return Status::FailedPrecondition("empty handle");
  return engine_->QuerySnapshot(id_);
}

}  // namespace pipes::engine
