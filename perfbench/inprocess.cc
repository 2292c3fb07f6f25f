// The in-process system of espbench-enrich and nexmark-fanout: one
// harness pump thread drives the engine while the feeder pushes through
// StreamWriters, results arrive through QueryHandle::OnResult, and a churn
// thread registers and cancels queries through Engine::Register.

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine_rig.h"
#include "harness.h"

namespace perfbench {

namespace {

using pipes::StreamElement;
using pipes::engine::Engine;
using pipes::engine::QueryHandle;
using pipes::engine::StreamWriter;
using pipes::relational::Tuple;

/// What the result callbacks accumulate. Callbacks fire with the engine
/// lock held, so they are serialized and need no lock here.
struct ResultBook {
  std::vector<Fingerprint> outputs;
  LatencySink sink;
  std::uint64_t traced_rows = 0;  ///< Picks the callbacks that get a span.
};

/// Registers every query and subscribes a callback that fingerprints each
/// result row and, for latency-tagged queries, records delivery time minus
/// the due time of the input event the row starts at.
pipes::Status RegisterResident(Engine& engine,
                               const std::vector<QuerySpec>& queries,
                               ResultBook& book) {
  book.outputs.assign(queries.size(), {});
  for (std::size_t q = 0; q < queries.size(); ++q) {
    PIPES_ASSIGN_OR_RETURN(QueryHandle handle,
                           RegisterSpec(engine, queries[q]));
    Fingerprint* out = &book.outputs[q];
    const bool tagged = queries[q].latency_tagged;
    PIPES_RETURN_IF_ERROR(handle.OnResult(
        [&book, out, tagged](const StreamElement<Tuple>& e) {
          const std::int64_t now = NowNs();
          ScopedSpan span(
              SpanKind::kCallback, static_cast<std::uint64_t>(e.start()),
              book.traced_rows++ % kCallbackSampleEvery == 0);
          out->Add(HashTuple(e.payload), e.start(), e.end());
          if (tagged) {
            const std::int64_t due = book.sink.due->DueNs(e.start());
            if (due >= 0) book.sink.latency->Add(now, now - due);
          }
        }));
  }
  return pipes::Status::OK();
}

/// The churn thread: register/cancel pair k is due once k·open_events/pairs
/// open-loop events are pushed; each Register is timed as the caller sees
/// it.
void Churn(Engine& engine, const std::vector<QuerySpec>& specs, int pairs,
           std::size_t open_events, const std::atomic<std::size_t>& pushed,
           LoadBook& book) {
  for (int k = 0; k < pairs; ++k) {
    FollowRotation(Role::kLoad);
    const std::size_t due = open_events * static_cast<std::size_t>(k) /
                            static_cast<std::size_t>(pairs);
    while (pushed.load(std::memory_order_acquire) < due) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    const QuerySpec& spec = specs[static_cast<std::size_t>(k) % specs.size()];
    const std::int64_t t0 = NowNs();
    auto handle = RegisterSpec(engine, spec);
    book.register_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
    book.ops.Add(handle.status());
    if (handle.ok()) {
      ScopedSpan span(SpanKind::kCancel, static_cast<std::uint64_t>(k));
      book.ops.Add(handle->Cancel());
    }
  }
}

/// Member order is teardown order reversed: the threads stop before the
/// engine goes, and the book outlives the engine, whose destruction may
/// still deliver results.
class InProcessTarget : public Target {
 public:
  InProcessTarget(const Workload& w, LatencySink sink, OpCounter& ops) {
    book_.sink = sink;
    engine_ = std::make_unique<Engine>();
    for (const StreamInput& stream : w.streams) {
      auto writer = engine_->AddStream(stream.name, stream.schema);
      ops.Add(writer.status());
      writers_.push_back(writer.ok() ? *writer : StreamWriter());
    }
    ops.Add(RegisterResident(*engine_, w.queries, book_));
  }
  ~InProcessTarget() override {
    if (churn_.joinable()) churn_.join();
  }

  Engine& engine() override { return *engine_; }
  std::vector<StreamWriter>& writers() override { return writers_; }
  std::vector<Fingerprint> outputs() const override { return book_.outputs; }

  void Begin() override { pump_ = std::make_unique<PumpThread>(*engine_); }
  void NotePushed() override { pump_->NotePushed(); }
  void Drain() override { pump_->WaitDrained(); }
  void StartLoad(const std::vector<QuerySpec>& churn, int pairs,
                 std::size_t open_events,
                 const std::atomic<std::size_t>& open_pushed,
                 LoadBook& book) override {
    churn_ = std::thread(Churn, std::ref(*engine_), std::cref(churn), pairs,
                         open_events, std::cref(open_pushed), std::ref(book));
  }
  void EndOpenLoop() override { churn_.join(); }
  void Finish() override {
    pump_->WaitDrained();
    pump_->Stop();
    steps_traced_ = pump_->steps_traced();
    pump_.reset();
    engine_->RunToCompletion();
  }
  void AddCounts(LayerCounts& counts) const override {
    counts.pump_steps = steps_traced_;
  }

 private:
  ResultBook book_;
  std::unique_ptr<Engine> engine_;
  std::vector<StreamWriter> writers_;
  std::unique_ptr<PumpThread> pump_;
  std::thread churn_;
  std::uint64_t steps_traced_ = 0;
};

}  // namespace

std::unique_ptr<Target> BuildInProcess(const Workload& workload,
                                       LatencySink sink, OpCounter& ops) {
  return std::make_unique<InProcessTarget>(workload, sink, ops);
}

}  // namespace perfbench
