// traffic-serve: the paper's traffic demo served by PipesServer over
// loopback. Loop-detector readings are pushed in-process; one client
// thread holds three connections: it FETCHes two resident queries in a
// closed loop with a fixed think time, sends a whole-graph SNAPSHOT at a
// fixed cadence, and runs REGISTER/CANCEL pairs. The only workload through
// the wire codec, the connection threads, FETCH polling and the server's
// pump loop. See README.md.

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine_rig.h"
#include "harness.h"
#include "src/server/client.h"
#include "src/server/server.h"
#include "src/workloads/traffic.h"

namespace perfbench {

namespace {

using pipes::Timestamp;
using pipes::engine::Engine;
using pipes::engine::StreamWriter;
using pipes::relational::Field;
using pipes::relational::Schema;
using pipes::relational::Tuple;
using pipes::relational::Value;
using pipes::relational::ValueType;
using pipes::server::Client;
using pipes::server::PipesServer;

constexpr double kOpenLoopRate = 5'000;  // readings/s
// Saturation readings per second of --seconds. Ingest here runs near
// 2 M readings/s, so the bursts add up to under a second; more rows would
// cost more memory (about 330 MB at --seconds 40) than they gain.
constexpr double kSaturationEventsPerSecond = 25'000;
constexpr std::int64_t kThinkTimeNs = 500'000;
constexpr std::int64_t kSnapshotEveryNs = 100'000'000;

const char* const kCongestion =
    "SELECT detector, lane, speed FROM traffic WHERE speed < 60";
const char* const kHov =
    "SELECT detector, AVG(speed) AS avg_speed FROM traffic "
    "[RANGE 60 SECONDS SLIDE 10 SECONDS] WHERE lane = 0 GROUP BY detector";
const char* const kChurn[] = {
    kHov, "SELECT detector, speed FROM traffic WHERE speed < 45"};

Schema TrafficSchema() {
  return Schema({Field{"detector", ValueType::kInt},
                 Field{"lane", ValueType::kInt},
                 Field{"direction", ValueType::kInt},
                 Field{"speed", ValueType::kDouble},
                 Field{"length", ValueType::kDouble}});
}

enum class ClientPhase { kRun, kFinal };

/// The served system: the engine behind a PipesServer on loopback, with
/// three client connections for the client thread. Member order is
/// teardown order reversed: the client thread ends, the connections close,
/// the server stops, then the engine goes.
class ServedTarget : public Target {
 public:
  ServedTarget(const Workload& w, LatencySink sink, OpCounter& ops)
      : sink_(sink), outputs_(w.queries.size()) {
    engine_ = std::make_unique<Engine>();
    auto writer = engine_->AddStream(w.streams[0].name, w.streams[0].schema);
    ops.Add(writer.status());
    writers_.push_back(writer.ok() ? *writer : StreamWriter());
    server_ = std::make_unique<PipesServer>(*engine_);
    const pipes::Status started = [&] {
      // The server's threads keep off the CPUs the feeder and the client
      // spin on.
      ScopedPinToSpareCpus pin;
      return server_->Start();
    }();
    ops.Add(started);
    if (!started.ok()) return;
    auto connect = [&](const char* tenant) -> std::unique_ptr<Client> {
      auto client = Client::Connect("127.0.0.1", server_->port(), tenant);
      ops.Add(client.status());
      if (!client.ok()) return nullptr;
      return std::make_unique<Client>(std::move(*client));
    };
    ops_ = connect("ops");
    monitor_ = connect("monitor");
    churn_ = connect("churn");
    if (ops_ == nullptr) return;
    for (const QuerySpec& q : w.queries) {
      ScopedSpan span(SpanKind::kServerRegister, 0);
      auto registered = ops_->Register(q.text);
      ops.Add(registered.status());
      query_ids_.push_back(registered.ok() ? registered->query_id : 0);
      tagged_.push_back(q.latency_tagged);
    }
  }
  ~ServedTarget() override {
    if (client_.joinable()) {
      phase_.store(ClientPhase::kFinal);
      client_.join();
    }
    ops_.reset();
    monitor_.reset();
    churn_.reset();
    if (server_) server_->Stop();
  }

  Engine& engine() override { return *engine_; }
  std::vector<StreamWriter>& writers() override { return writers_; }
  std::vector<Fingerprint> outputs() const override { return outputs_; }

  /// Blocks until the engine has no work left: a Pump(1) that finds
  /// nothing to do. Each probe runs at most one executor step.
  void Drain() override {
    for (;;) {
      std::uint64_t steps = 0;
      {
        ScopedSpan span(SpanKind::kDrainProbe, 0);
        steps = engine_->Pump(1);
      }
      if (steps == 0) return;
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
  void StartLoad(const std::vector<QuerySpec>& churn, int pairs,
                 std::size_t open_events,
                 const std::atomic<std::size_t>& open_pushed,
                 LoadBook& book) override {
    client_ = std::thread([this, &churn, pairs, open_events, &open_pushed,
                           &book] {
      ClientLoop(churn, pairs, open_events, open_pushed, book);
    });
  }
  /// The client keeps fetching until the last result is in.
  void Finish() override {
    Drain();
    phase_.store(ClientPhase::kFinal);
    client_.join();
  }
  void AddCounts(LayerCounts& counts) const override {
    counts.fetch_calls = fetch_calls_;
    counts.fetch_empty = fetch_empty_;
    counts.fetch_rows = fetch_rows_;
  }

 private:
  /// The client thread: closed-loop FETCH of every resident query with a
  /// fixed think time, SNAPSHOT at a fixed cadence, REGISTER/CANCEL pair k
  /// due once k·open_events/pairs open-loop events are pushed. Once the
  /// phase turns final and every pair has run, it fetches until every
  /// resident query comes back empty.
  void ClientLoop(const std::vector<QuerySpec>& churn, int pairs,
                  std::size_t open_events,
                  const std::atomic<std::size_t>& open_pushed,
                  LoadBook& book) {
    std::int64_t next_snapshot = NowNs();
    int pair = 0;
    std::uint64_t fetch_seq = 0;
    for (;;) {
      FollowRotation(Role::kLoad);
      const bool final_pass = phase_.load() == ClientPhase::kFinal;
      std::size_t fetched = 0;
      for (std::size_t q = 0; q < query_ids_.size(); ++q) {
        std::int64_t received = 0;
        auto rows = [&] {
          ScopedSpan span(SpanKind::kServerFetch, ++fetch_seq);
          auto reply = ops_->Fetch(query_ids_[q], 4096);
          received = NowNs();
          return reply;
        }();
        book.ops.Add(rows.status());
        if (!rows.ok()) continue;
        if (Tracer::Get().enabled()) {
          ++fetch_calls_;
          if (rows->empty()) ++fetch_empty_;
          fetch_rows_ += rows->size();
        }
        fetched += rows->size();
        for (const Client::Row& row : *rows) {
          outputs_[q].Add(HashText(row.tuple), row.start, row.end);
          if (tagged_[q]) {
            const std::int64_t due = sink_.due->DueNs(row.start);
            if (due >= 0) sink_.latency->Add(received, received - due);
          }
        }
      }
      const std::int64_t now = NowNs();
      if (now >= next_snapshot && !final_pass) {
        ScopedSpan span(SpanKind::kServerSnapshot, 0);
        book.ops.Add(monitor_->SnapshotJson(true).status());
        next_snapshot += kSnapshotEveryNs;
      }
      if (pair < pairs &&
          (final_pass ||
           open_pushed.load(std::memory_order_acquire) >=
               open_events * static_cast<std::size_t>(pair) /
                   static_cast<std::size_t>(pairs))) {
        const QuerySpec& spec = churn[static_cast<std::size_t>(pair) %
                                      churn.size()];
        const std::int64_t t0 = NowNs();
        auto registered = [&] {
          ScopedSpan span(SpanKind::kServerRegister,
                          static_cast<std::uint64_t>(pair));
          return churn_->Register(spec.text);
        }();
        book.register_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
        book.ops.Add(registered.status());
        if (registered.ok()) {
          ScopedSpan span(SpanKind::kServerCancel,
                          static_cast<std::uint64_t>(pair));
          book.ops.Add(churn_->Cancel(registered->query_id));
        }
        ++pair;
      }
      if (final_pass && fetched == 0 && pair == pairs) return;
      if (!final_pass) {
        // Think time: spin to a fixed deadline. A sleep would add the
        // host's timer slack, which moves with its load.
        const std::int64_t resume = NowNs() + kThinkTimeNs;
        while (NowNs() < resume) {
        }
      }
    }
  }

  LatencySink sink_;
  std::unique_ptr<Engine> engine_;
  std::vector<StreamWriter> writers_;
  std::unique_ptr<PipesServer> server_;
  std::unique_ptr<Client> ops_;      // resident queries, FETCH
  std::unique_ptr<Client> monitor_;  // SNAPSHOT
  std::unique_ptr<Client> churn_;    // REGISTER/CANCEL pairs
  std::vector<std::uint64_t> query_ids_;
  std::vector<bool> tagged_;
  // Written by the client thread; read after it has joined.
  std::vector<Fingerprint> outputs_;
  std::uint64_t fetch_calls_ = 0;
  std::uint64_t fetch_empty_ = 0;
  std::uint64_t fetch_rows_ = 0;
  std::atomic<ClientPhase> phase_{ClientPhase::kRun};
  std::thread client_;
};

}  // namespace

int RunTrafficServe(const Args& args, Report& report) {
  Workload w;
  w.name = "traffic-serve";
  w.open_rate = args.tiny ? 5'000 : kOpenLoopRate;
  w.open_events = static_cast<std::size_t>(
      w.open_rate * (args.tiny ? 0.1 : 0.6 * args.seconds));
  w.saturation_events = static_cast<std::size_t>(
      args.tiny ? 2'000 : kSaturationEventsPerSecond * args.seconds);
  if (args.tiny) w.setups = 2;
  w.churn_pairs = args.tiny ? 10 : static_cast<int>(200 * 0.6 * args.seconds);
  w.hash_text = true;
  const std::size_t total = w.open_events + w.saturation_events;

  pipes::workloads::TrafficOptions options;
  options.seed = args.seed;
  options.num_detectors = 16;
  options.num_lanes = 4;
  options.base_rate_per_s = 0.5;  // about 100 readings per second of event time
  options.duration_ms =
      static_cast<Timestamp>(static_cast<double>(total) * 10 * 1.3) + 60'000;
  // Recurring incidents keep the congestion filter producing rows.
  for (Timestamp t = 0, k = 0; t < options.duration_ms;
       t += 600'000, ++k) {
    pipes::workloads::TrafficIncident incident;
    incident.begin = t;
    incident.end = t + 120'000;
    incident.detector = static_cast<std::int32_t>(k % options.num_detectors);
    incident.direction = static_cast<std::int32_t>(k % 2);
    options.incidents.push_back(incident);
  }
  pipes::workloads::TrafficGenerator generator(options);
  std::vector<pipes::StreamElement<Tuple>> readings;
  readings.reserve(total);
  while (readings.size() < total) {
    auto r = generator.Next();
    if (!r.has_value()) break;
    readings.push_back(pipes::StreamElement<Tuple>::Point(
        Tuple({Value(std::int64_t{r->detector}), Value(std::int64_t{r->lane}),
               Value(std::int64_t{r->direction}), Value(r->speed_kmh),
               Value(r->length_m)}),
        r->timestamp));
  }
  w.streams.push_back({"traffic", TrafficSchema(), std::move(readings)});

  w.queries.push_back({"congestion", "ops", kCongestion, nullptr, true});
  w.queries.push_back({"hov-average", "ops", kHov, nullptr, false});
  for (const char* text : kChurn) {
    w.churn.push_back({"churn", "churn", text, nullptr, false});
  }
  // The feeder and the client spin, on CPUs 0 and 2; the server's threads
  // share CPUs 1 and 3 with the memory sampler.
  SetRotationStride(2);
  w.build = [](const Workload& workload, LatencySink sink, OpCounter& ops) {
    return std::unique_ptr<Target>(
        std::make_unique<ServedTarget>(workload, sink, ops));
  };
  return RunWorkload(args, std::move(w), report);
}

}  // namespace perfbench
