#include "harness.h"

#include <malloc.h>
#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace perfbench {

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::uint64_t Mix(std::uint64_t x) {
  // splitmix64 finalizer.
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Kinds the span file keeps one span in 16 of (per thread); wasted polls
/// are not kept at all.
bool Thinned(SpanKind kind) {
  return kind == SpanKind::kPump || kind == SpanKind::kServerFetch ||
         kind == SpanKind::kDrainProbe;
}

/// Kinds too frequent to keep a duration per call; totals only.
bool TotalsOnly(SpanKind kind) {
  return kind == SpanKind::kPumpIdle || kind == SpanKind::kCallback;
}

}  // namespace

// --- Report ------------------------------------------------------------------

void Report::Set(const std::string& name, double value,
                 const std::string& unit, std::int64_t samples) {
  metrics_[name] = Metric{value, unit, samples};
}

void Report::Info(const std::string& key, const std::string& json_value) {
  info_.emplace_back(key, json_value);
}

void Report::Count(std::uint64_t n, std::uint64_t failed) {
  attempted_ += n;
  failed_ += failed;
}

void Report::Fail(const std::string& why) {
  ++failed_;
  failures_.push_back(why);
}

void Report::Print(const std::vector<std::string>& names) const {
  for (const std::string& name : names) {
    if (metrics_.count(name) == 0) {
      std::fprintf(stderr, "perfbench: metric %s was not measured\n",
                   name.c_str());
    }
  }
  for (const auto& [name, m] : metrics_) {
    if (m.samples >= 0) {
      std::printf("%-36s %18.6f %-12s n=%lld\n", name.c_str(), m.value,
                  m.unit.c_str(), static_cast<long long>(m.samples));
    } else {
      std::printf("%-36s %18.6f %s\n", name.c_str(), m.value, m.unit.c_str());
    }
  }
  for (const std::string& f : failures_) {
    std::printf("FAILED: %s\n", f.c_str());
  }
  const double error_ratio =
      attempted_ == 0 ? 0.0
                      : static_cast<double>(failed_) /
                            static_cast<double>(attempted_);
  std::printf("%-36s %18.9f ratio n=%llu\n", "error_ratio", error_ratio,
              static_cast<unsigned long long>(attempted_));

  std::string line = "{\"report\": {";
  for (const auto& [key, value] : info_) {
    line += JsonString(key) + ": " + value + ", ";
  }
  line += "\"error_ratio\": " + JsonNumber(error_ratio) + ", ";
  line += "\"failures\": [";
  for (std::size_t i = 0; i < failures_.size(); ++i) {
    line += (i ? ", " : "") + JsonString(failures_[i]);
  }
  line += "], \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    line += (first ? "" : ", ") + JsonString(name) +
            ": {\"value\": " + JsonNumber(m.value) +
            ", \"unit\": " + JsonString(m.unit) +
            ", \"samples\": " + std::to_string(m.samples) + "}";
    first = false;
  }
  line += "}}}";
  std::printf("%s\n", line.c_str());

  std::string out = "{\"correct\": ";
  out += failed_ == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(
                                   attempted_, 1));
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  // A metric that was not measured is left out, so a consumer that checks
  // the set of names sees it missing.
  first = true;
  for (const std::string& name : names) {
    auto it = metrics_.find(name);
    if (it == metrics_.end()) continue;
    out += (first ? "" : ", ") + JsonString(name) +
           ": {\"value\": " + JsonNumber(it->second.value) +
           ", \"unit\": " + JsonString(it->second.unit) + "}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

const std::vector<std::string>& EndToEndMetricNames() {
  static const std::vector<std::string> kNames = {
      "latency_p50_ms", "sustained_eps", "register_p50_ms", "mem_peak_mb",
      "setup_s"};
  return kNames;
}

const std::vector<std::string>& PerLayerMetricNames() {
  static const std::vector<std::string> kNames = [] {
    std::vector<std::string> names = {
        "engine.push.p50_us",
        "engine.push.p99_us",
        "engine.push.busy_share",
        "engine.pump.steps",
        "engine.pump.idle_ratio",
        "engine.pump.self_ns_per_event",
        "engine.pump.p99_us",
        "engine.results.rows_per_event",
        "engine.results.callback_share",
        "cql.compile.p50_us",
        "engine.register.p99_ms",
        "engine.cancel.p50_ms",
        "optimizer.operators_created",
        "optimizer.share_ratio",
        "engine.graph_nodes_peak",
    };
    for (const char* kind :
         {"window", "filter", "aggregate", "join", "union", "result-sink"}) {
      for (const char* field : {"elements_in", "selectivity",
                                "service_p50_ns", "memory_bytes_peak"}) {
        names.push_back(std::string("op.") + kind + "." + field);
      }
    }
    for (const char* name :
         {"memory.state_bytes_peak", "memory.spilled_bytes",
          "metadata.snapshot.p50_us", "server.fetch.p50_us",
          "server.fetch.p99_us", "server.fetch.empty_ratio",
          "server.fetch.rows_per_call", "server.register.p50_ms",
          "server.snapshot.p50_ms", "server.cancel.p50_ms", "gen.late_p99_ms",
          "gen.late_max_ms", "trace.overhead_share"}) {
      names.push_back(name);
    }
    return names;
  }();
  return kNames;
}

// --- Statistics --------------------------------------------------------------

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

// --- Tracing -----------------------------------------------------------------

const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kPhase: return "harness.phase";
    case SpanKind::kPush: return "engine.push";
    case SpanKind::kPump: return "engine.pump";
    case SpanKind::kPumpIdle: return "engine.pump.idle";
    case SpanKind::kCallback: return "harness.callback";
    case SpanKind::kRegister: return "engine.register";
    case SpanKind::kCancel: return "engine.cancel";
    case SpanKind::kCompile: return "cql.compile";
    case SpanKind::kSnapshot: return "metadata.snapshot";
    case SpanKind::kStats: return "engine.stats";
    case SpanKind::kServerFetch: return "server.fetch";
    case SpanKind::kServerRegister: return "server.register";
    case SpanKind::kServerCancel: return "server.cancel";
    case SpanKind::kServerSnapshot: return "server.snapshot";
    case SpanKind::kDrainProbe: return "harness.drain_probe";
    case SpanKind::kCount: break;
  }
  return "?";
}

struct Tracer::ThreadBuffer {
  std::uint16_t thread = 0;
  std::uint64_t next_seq = 0;
  std::uint64_t parent = 0;
  std::int64_t child_ns = 0;
  std::array<KindStats, static_cast<std::size_t>(SpanKind::kCount)> stats;
  std::vector<Span> kept;
};

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

Tracer::ThreadBuffer& Tracer::Local() {
  thread_local ThreadBuffer* local = nullptr;
  if (local == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<ThreadBuffer>());
    local = buffers_.back().get();
    local->thread = static_cast<std::uint16_t>(buffers_.size());
  }
  return *local;
}

void Tracer::Record(ThreadBuffer& buffer, const Span& span) {
  KindStats& stats = buffer.stats[static_cast<std::size_t>(span.kind)];
  const std::int64_t duration = span.end_ns - span.start_ns;
  ++stats.count;
  stats.total_ns += duration;
  if (!TotalsOnly(span.kind)) stats.durations_ns.push_back(duration);
  if (span.kind == SpanKind::kPumpIdle) return;
  if (!Thinned(span.kind) || stats.count % 16 == 1) buffer.kept.push_back(span);
}

void Tracer::BeginPhase(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  Span span;
  span.id = phases_.size() + 1;
  span.kind = SpanKind::kPhase;
  span.start_ns = NowNs();
  phases_.push_back(span);
  phase_names_.push_back(name);
  phase_id_.store(span.id, std::memory_order_relaxed);
}

void Tracer::EndPhase() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!phases_.empty()) phases_.back().end_ns = NowNs();
  phase_id_.store(0, std::memory_order_relaxed);
}

Tracer::KindStats Tracer::Merged(SpanKind kind) const {
  std::lock_guard<std::mutex> lock(mu_);
  KindStats merged;
  for (const auto& buffer : buffers_) {
    const KindStats& s = buffer->stats[static_cast<std::size_t>(kind)];
    merged.count += s.count;
    merged.total_ns += s.total_ns;
    merged.durations_ns.insert(merged.durations_ns.end(),
                               s.durations_ns.begin(), s.durations_ns.end());
  }
  return merged;
}

bool Tracer::WriteSpans(const std::string& path) const {
  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path(), ec);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(f,
               "# span_id\tparent_id\trequest_id\tthread\tname\tstart_ns\t"
               "end_ns\tchild_ns\n");
  for (std::size_t i = 0; i < phases_.size(); ++i) {
    const Span& s = phases_[i];
    std::fprintf(f, "%llu\t0\t0\t0\tphase:%s\t%lld\t%lld\t0\n",
                 static_cast<unsigned long long>(s.id),
                 phase_names_[i].c_str(), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  for (const auto& buffer : buffers_) {
    for (const Span& s : buffer->kept) {
      std::fprintf(f, "%llu\t%llu\t%llu\t%u\t%s\t%lld\t%lld\t%lld\n",
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.request),
                   static_cast<unsigned>(s.thread), SpanKindName(s.kind),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<long long>(s.child_ns));
    }
  }
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(SpanKind kind, std::uint64_t request, bool sampled) {
  Tracer& tracer = Tracer::Get();
  if (!sampled || !tracer.enabled()) return;
  buffer_ = &tracer.Local();
  span_.kind = kind;
  span_.request = request;
  span_.thread = buffer_->thread;
  span_.id = (static_cast<std::uint64_t>(buffer_->thread) << 40) |
             ++buffer_->next_seq;
  span_.parent = buffer_->parent != 0 ? buffer_->parent
                                      : tracer.current_phase();
  saved_parent_ = buffer_->parent;
  saved_child_ns_ = buffer_->child_ns;
  buffer_->parent = span_.id;
  buffer_->child_ns = 0;
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (buffer_ == nullptr) return;
  span_.end_ns = NowNs();
  span_.child_ns = buffer_->child_ns;
  buffer_->parent = saved_parent_;
  buffer_->child_ns = saved_child_ns_ + (span_.end_ns - span_.start_ns);
  Tracer::Get().Record(*buffer_, span_);
}

// --- Results -------------------------------------------------------------------

void DueTimes::Build(const std::vector<Timestamp>& event_times) {
  times_.clear();
  first_index_.clear();
  for (std::size_t i = 0; i < event_times.size(); ++i) {
    if (times_.empty() || event_times[i] != times_.back()) {
      times_.push_back(event_times[i]);
      first_index_.push_back(i);
    }
  }
  due_ns_.assign(event_times.size(), -1);
}

std::int64_t DueTimes::DueNs(Timestamp t) const {
  auto it = std::lower_bound(times_.begin(), times_.end(), t);
  if (it == times_.end() || *it != t) return -1;
  return due_ns_[first_index_[static_cast<std::size_t>(it - times_.begin())]];
}

void LatencySamples::Reserve(std::size_t n) {
  // Touch the pages now, so the samples do not count as engine memory.
  samples_.assign(n, {0, 0});
  count_ = 0;
}

std::vector<std::vector<double>> LatencySamples::Windows() const {
  const std::size_t n = std::min<std::size_t>(count_, samples_.size());
  std::vector<std::pair<std::int64_t, double>> used;
  for (std::size_t i = 0; i < n; ++i) {
    if (samples_[i].first >= warm_until_ns_) {
      used.emplace_back(samples_[i].first,
                        static_cast<double>(samples_[i].second) / 1e6);
    }
  }
  if (used.empty()) {
    // Nothing after the warm-up (a tiny run): fall back to every sample.
    for (std::size_t i = 0; i < n; ++i) {
      used.emplace_back(samples_[i].first,
                        static_cast<double>(samples_[i].second) / 1e6);
    }
  }
  std::vector<std::vector<double>> windows;
  if (used.empty()) return windows;
  std::int64_t first = used[0].first;
  for (const auto& [at, ms] : used) first = std::min(first, at);
  for (const auto& [at, ms] : used) {
    const auto w = static_cast<std::size_t>((at - first) / 1'000'000'000);
    if (windows.size() <= w) windows.resize(w + 1);
    windows[w].push_back(ms);
  }
  std::vector<std::vector<double>> kept;
  for (auto& w : windows) {
    if (w.size() >= 200) kept.push_back(std::move(w));
  }
  if (kept.empty()) {
    std::vector<double> all;
    for (const auto& [at, ms] : used) all.push_back(ms);
    kept.push_back(std::move(all));
  }
  return kept;
}

std::vector<double> LatencySamples::WindowQuantilesMs(double q) const {
  std::vector<double> per_window;
  if (count_ == 0) return per_window;
  for (const auto& w : Windows()) per_window.push_back(Quantile(w, q));
  return per_window;
}

double LatencySamples::WindowedQuantileMs(double q) const {
  return Quantile(WindowQuantilesMs(q), 0.25);
}

int LatencySamples::windows() const {
  return count_ == 0 ? 0 : static_cast<int>(Windows().size());
}

void Fingerprint::Add(std::uint64_t payload_hash, Timestamp start,
                      Timestamp end) {
  const auto s = static_cast<std::uint64_t>(start);
  const auto e = static_cast<std::uint64_t>(end);
  mass += Mix(payload_hash) * (e - s);
  moment += Mix(payload_hash ^ 0x5851f42d4c957f2dull) * (e * e - s * s);
  ++rows;
}

std::uint64_t HashTuple(const pipes::relational::Tuple& tuple) {
  using pipes::relational::ValueType;
  std::uint64_t h = 0x84222325cbf29ce4ull;
  for (const pipes::relational::Value& v : tuple.values()) {
    std::uint64_t x = static_cast<std::uint64_t>(v.type());
    switch (v.type()) {
      case ValueType::kInt:
        x ^= static_cast<std::uint64_t>(v.AsInt()) << 3;
        break;
      case ValueType::kDouble: {
        const double d = v.AsDouble();
        std::uint64_t bits = 0;
        std::memcpy(&bits, &d, sizeof(bits));
        x ^= bits;
        break;
      }
      case ValueType::kBool:
        x ^= v.AsBool() ? 8 : 0;
        break;
      case ValueType::kString:
        x ^= HashText(v.AsString());
        break;
      case ValueType::kNull:
        break;
    }
    h = Mix(h ^ x);
  }
  return h;
}

std::uint64_t HashText(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

// --- Feeder --------------------------------------------------------------------

void RunOpenLoop(std::size_t begin, std::size_t end, double rate_per_s,
                 DueTimes& due, const std::function<void(std::size_t)>& push,
                 FeederResult& result) {
  const double period_ns = 1e9 / rate_per_s;
  const std::int64_t t0 = NowNs() + 200'000;
  for (std::size_t i = begin; i < end; ++i) {
    const std::int64_t due_ns =
        t0 + static_cast<std::int64_t>(static_cast<double>(i - begin) *
                                       period_ns);
    std::int64_t now = NowNs();
    if (due_ns - now > 200'000) {
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(due_ns - now - 100'000));
      now = NowNs();
    }
    while (now < due_ns) now = NowNs();
    due.Set(i, due_ns);
    result.late_ms.push_back(static_cast<double>(now - due_ns) / 1e6);
    push(i);
  }
  result.seconds += static_cast<double>(NowNs() - t0) / 1e9;
}

void Saturation::RunBurst(std::size_t begin, std::size_t end, bool traced,
                          const std::function<void(std::size_t)>& push,
                          const std::function<void()>& drain) {
  Tracer& tracer = Tracer::Get();
  const bool was_enabled = tracer.enabled();
  tracer.set_enabled(traced);
  const std::int64_t t0 = NowNs();
  for (std::size_t i = begin; i < end; ++i) push(i);
  drain();
  const auto dt = static_cast<double>(NowNs() - t0);
  tracer.set_enabled(was_enabled);
  const double n = static_cast<double>(end - begin);
  seconds_ += dt / 1e9;
  burst_eps_.push_back(n / (dt / 1e9));
  if (traced) {
    traced_seconds_ += dt / 1e9;
    traced_ns_.push_back(dt / n);
  } else {
    untraced_ns_.push_back(dt / n);
    untraced_eps_.push_back(n / (dt / 1e9));
  }
}

double Saturation::overhead_share() const {
  if (traced_ns_.empty() || untraced_ns_.empty()) return 0.0;
  return Median(traced_ns_) / Median(untraced_ns_) - 1.0;
}

double TimeSetup(int repeats, const std::function<void()>& teardown,
                 const std::function<void()>& setup) {
  std::vector<double> times;
  for (int i = 0; i < repeats; ++i) {
    if (i > 0) teardown();
    SetRotation(i);
    FollowRotation(Role::kFeeder);
    const std::int64_t t0 = NowNs();
    setup();
    times.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  return Median(times);
}

// --- Process ----------------------------------------------------------------

namespace {

std::int64_t RssBytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  long long size = 0;
  long long resident = 0;
  const int n = std::fscanf(f, "%lld %lld", &size, &resident);
  std::fclose(f);
  if (n != 2) return 0;
  return resident * static_cast<std::int64_t>(::sysconf(_SC_PAGESIZE));
}

/// Bytes the allocator has handed out and not taken back (glibc
/// mallinfo2: arena chunks in use plus mmapped chunks).
std::int64_t HeapBytes() {
  const struct mallinfo2 info = ::mallinfo2();
  return static_cast<std::int64_t>(info.uordblks + info.hblkhd);
}

}  // namespace

MemorySampler::MemorySampler() {
  checkpoints_mb_.reserve(16);
  heap_baseline_ = HeapBytes();
  heap_peak_ = heap_baseline_;
  Sample();
  thread_ = std::thread([this] {
    int tick = 0;
    while (!stop_.load()) {
      FollowRotation(Role::kSampler);
      Sample();
      if (++tick % 50 == 0) {
        std::lock_guard<std::mutex> lock(hook_mu_);
        if (hook_) hook_();
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
}

MemorySampler::~MemorySampler() { Stop(); }

void MemorySampler::Checkpoint() {
  const std::int64_t heap = HeapBytes();
  heap_peak_ = std::max(heap_peak_, heap);
  checkpoints_mb_.push_back(static_cast<double>(heap - heap_baseline_) / 1e6);
}

void MemorySampler::Sample() {
  const std::int64_t rss = RssBytes();
  if (rss > rss_peak_.load()) rss_peak_.store(rss);
}

void MemorySampler::set_hook(std::function<void()> hook) {
  std::lock_guard<std::mutex> lock(hook_mu_);
  hook_ = std::move(hook);
}

void MemorySampler::Stop() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
  Sample();
}

namespace {

std::atomic<int> g_rotation{0};
int g_stride = 1;

}  // namespace

void SetRotation(int rotation) {
  g_rotation.store(rotation * g_stride, std::memory_order_relaxed);
}

void SetRotationStride(int stride) { g_stride = stride; }

void FollowRotation(Role role) {
  thread_local int pinned = -1;
  const int rotation = g_rotation.load(std::memory_order_relaxed);
  if (rotation == pinned || std::thread::hardware_concurrency() < 4) return;
  pinned = rotation;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET((rotation + static_cast<int>(role)) % 4, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

ScopedPinToSpareCpus::ScopedPinToSpareCpus() {
  if (std::thread::hardware_concurrency() < 4 ||
      pthread_getaffinity_np(pthread_self(), sizeof(saved_), &saved_) != 0) {
    return;
  }
  cpu_set_t spare;
  CPU_ZERO(&spare);
  CPU_SET(1, &spare);
  CPU_SET(3, &spare);
  restore_ =
      pthread_setaffinity_np(pthread_self(), sizeof(spare), &spare) == 0;
}

ScopedPinToSpareCpus::~ScopedPinToSpareCpus() {
  if (restore_) pthread_setaffinity_np(pthread_self(), sizeof(saved_), &saved_);
}

std::string HostJson() {
  std::string model = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
      }
      break;
    }
  }
  return "{\"cores\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"cpu_model\": " + JsonString(model) +
         ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE) +
         ", \"compiler\": " + JsonString(__VERSION__) + "}";
}

std::string JsonArray(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    out += (i ? ", " : "") + JsonNumber(values[i]);
  }
  return out + "]";
}

// --- Engine-level per-layer helpers ------------------------------------------

namespace {

/// Operator kind ("window", "filter", ...) of a snapshot node, from the
/// names the physical planner and engine give them; empty for others.
std::string OpKind(const std::string& name) {
  auto starts = [&](const char* prefix) { return name.rfind(prefix, 0) == 0; };
  if (starts("window(") || starts("slide-window(") || starts("rows-window(") ||
      starts("unbounded-window(")) {
    return "window";
  }
  if (starts("filter[") || name == "join-residual") return "filter";
  if (name == "group-aggregate") return "aggregate";
  if (name == "hash-join" || name == "nl-join" || name == "cross-join") {
    return "join";
  }
  if (name == "union") return "union";
  if (starts("q") && name.size() > 8 &&
      name.compare(name.size() - 8, 8, "-results") == 0) {
    return "result-sink";
  }
  return "";
}

}  // namespace

void EngineGauges::Sample(const pipes::engine::Engine& engine) {
  pipes::engine::EngineStats stats;
  {
    ScopedSpan span(SpanKind::kStats, 0);
    stats = engine.stats();
  }
  state_bytes_peak = std::max(state_bytes_peak, stats.state_bytes);
  graph_nodes_peak = std::max(graph_nodes_peak, stats.graph_nodes);
  pipes::metadata::MetricsSnapshot snapshot;
  {
    ScopedSpan span(SpanKind::kSnapshot, 0);
    snapshot = engine.Snapshot();
  }
  std::map<std::string, std::uint64_t> by_kind;
  for (const auto& node : snapshot.nodes) {
    const std::string kind = OpKind(node.name);
    if (!kind.empty()) by_kind[kind] += node.memory_bytes;
  }
  for (const auto& [kind, bytes] : by_kind) {
    op_memory_peak[kind] = std::max(op_memory_peak[kind], bytes);
  }
}

namespace {

double QuantileNs(const Tracer::KindStats& s, double q) {
  std::vector<double> v(s.durations_ns.begin(), s.durations_ns.end());
  return Quantile(std::move(v), q);
}

/// Median of a merged service-time histogram, interpolated inside the
/// power-of-two bucket that holds it.
double HistogramMedianNs(const pipes::obs::HistogramSnapshot& h) {
  std::uint64_t total = 0;
  for (const std::uint64_t b : h.buckets) total += b;
  if (total == 0) return 0.0;
  const double half = static_cast<double>(total) / 2.0;
  double seen = 0;
  for (std::size_t i = 0; i < h.buckets.size(); ++i) {
    const auto n = static_cast<double>(h.buckets[i]);
    if (seen + n >= half && n > 0) {
      const double upper =
          static_cast<double>(pipes::obs::HistogramSnapshot::BucketUpperNs(i));
      const double lower = i == 0 ? 0.0 : upper / 2.0;
      return lower + (upper - lower) * (half - seen) / n;
    }
    seen += n;
  }
  return 0.0;
}

}  // namespace

void AddLayerMetrics(Report& report,
                     const pipes::metadata::MetricsSnapshot& final_snapshot,
                     const pipes::engine::EngineStats& stats,
                     const EngineGauges& gauges, const LayerCounts& counts) {
  const Tracer& tracer = Tracer::Get();
  const auto ev =
      static_cast<double>(std::max<std::uint64_t>(counts.traced_events, 1));
  const std::int64_t feeder_ns = counts.feeder_ns;
  const auto n = [](const Tracer::KindStats& s) {
    return static_cast<std::int64_t>(s.count);
  };

  const Tracer::KindStats push = tracer.Merged(SpanKind::kPush);
  report.Set("engine.push.p50_us", QuantileNs(push, 0.5) / 1e3, "us", n(push));
  report.Set("engine.push.p99_us", QuantileNs(push, 0.99) / 1e3, "us",
             n(push));
  // One ingest span per kIngestSampleEvery-th event: scale the sampled
  // time up to every traced event.
  report.Set("engine.push.busy_share",
             feeder_ns <= 0 || push.count == 0
                 ? 0.0
                 : static_cast<double>(push.total_ns) /
                       static_cast<double>(push.count) * ev /
                       static_cast<double>(feeder_ns),
             "ratio", n(push));

  const Tracer::KindStats pump = tracer.Merged(SpanKind::kPump);
  const Tracer::KindStats idle = tracer.Merged(SpanKind::kPumpIdle);
  const Tracer::KindStats callback = tracer.Merged(SpanKind::kCallback);
  const std::uint64_t polls = pump.count + idle.count;
  report.Set("engine.pump.idle_ratio",
             polls == 0 ? 0.0
                        : static_cast<double>(idle.count) /
                              static_cast<double>(polls),
             "ratio", static_cast<std::int64_t>(polls));
  // Busy polls only: time in wasted polls tracks how long the run idled.
  const std::int64_t pump_ns = pump.total_ns;
  // Callbacks are traced one row in kCallbackSampleEvery; scale up.
  const auto callback_ns = static_cast<double>(callback.total_ns) *
                           static_cast<double>(kCallbackSampleEvery);
  report.Set("engine.pump.self_ns_per_event",
             (static_cast<double>(pump_ns) - callback_ns) / ev, "ns/event",
             n(pump));
  report.Set("engine.pump.p99_us", QuantileNs(pump, 0.99) / 1e3, "us",
             n(pump));
  report.Set("engine.pump.steps", static_cast<double>(counts.pump_steps) / ev,
             "steps/event", static_cast<std::int64_t>(counts.pump_steps));
  report.Set("engine.results.rows_per_event", counts.rows_per_event,
             "rows/event");
  report.Set("engine.results.callback_share",
             pump_ns == 0 ? 0.0 : callback_ns / static_cast<double>(pump_ns),
             "ratio", n(callback));

  const Tracer::KindStats compile = tracer.Merged(SpanKind::kCompile);
  const Tracer::KindStats reg = tracer.Merged(SpanKind::kRegister);
  const Tracer::KindStats cancel = tracer.Merged(SpanKind::kCancel);
  report.Set("cql.compile.p50_us", QuantileNs(compile, 0.5) / 1e3, "us",
             n(compile));
  report.Set("engine.register.p99_ms", QuantileNs(reg, 0.99) / 1e6, "ms",
             n(reg));
  report.Set("engine.cancel.p50_ms", QuantileNs(cancel, 0.5) / 1e6, "ms",
             n(cancel));
  report.Set("optimizer.operators_created",
             static_cast<double>(stats.operators_created), "count");
  const std::size_t planned = stats.operators_created + stats.operators_reused;
  report.Set("optimizer.share_ratio",
             planned == 0 ? 0.0
                          : static_cast<double>(stats.operators_reused) /
                                static_cast<double>(planned),
             "ratio", static_cast<std::int64_t>(planned));
  report.Set("engine.graph_nodes_peak",
             static_cast<double>(
                 std::max(gauges.graph_nodes_peak, stats.graph_nodes)),
             "count");

  struct KindTotals {
    std::uint64_t in = 0;
    std::uint64_t out = 0;
    std::uint64_t nodes = 0;
    pipes::obs::HistogramSnapshot service;
  };
  std::map<std::string, KindTotals> kinds;
  for (const auto& node : final_snapshot.nodes) {
    const std::string kind = OpKind(node.name);
    if (kind.empty()) continue;
    KindTotals& k = kinds[kind];
    k.in += node.elements_in;
    k.out += node.elements_out;
    ++k.nodes;
    for (std::size_t i = 0; i < k.service.buckets.size(); ++i) {
      k.service.buckets[i] += node.service.buckets[i];
    }
  }
  for (const char* kind :
       {"window", "filter", "aggregate", "join", "union", "result-sink"}) {
    const KindTotals& k = kinds[kind];
    const std::string p = std::string("op.") + kind + ".";
    const auto nodes = static_cast<std::int64_t>(k.nodes);
    report.Set(p + "elements_in", static_cast<double>(k.in), "count", nodes);
    report.Set(p + "selectivity",
               k.in == 0 ? 0.0
                         : static_cast<double>(k.out) /
                               static_cast<double>(k.in),
               "ratio", nodes);
    report.Set(p + "service_p50_ns", HistogramMedianNs(k.service), "ns",
               nodes);
    auto peak = gauges.op_memory_peak.find(kind);
    report.Set(p + "memory_bytes_peak",
               peak == gauges.op_memory_peak.end()
                   ? 0.0
                   : static_cast<double>(peak->second),
               "bytes", nodes);
  }

  report.Set("memory.state_bytes_peak",
             static_cast<double>(
                 std::max(gauges.state_bytes_peak, stats.state_bytes)),
             "bytes");
  report.Set("memory.spilled_bytes", static_cast<double>(stats.spilled_bytes),
             "bytes");
  const Tracer::KindStats snapshot = tracer.Merged(SpanKind::kSnapshot);
  report.Set("metadata.snapshot.p50_us", QuantileNs(snapshot, 0.5) / 1e3,
             "us", n(snapshot));

  const Tracer::KindStats fetch = tracer.Merged(SpanKind::kServerFetch);
  report.Set("server.fetch.p50_us", QuantileNs(fetch, 0.5) / 1e3, "us",
             n(fetch));
  report.Set("server.fetch.p99_us", QuantileNs(fetch, 0.99) / 1e3, "us",
             n(fetch));
  const Tracer::KindStats sreg = tracer.Merged(SpanKind::kServerRegister);
  const Tracer::KindStats ssnap = tracer.Merged(SpanKind::kServerSnapshot);
  const Tracer::KindStats scancel = tracer.Merged(SpanKind::kServerCancel);
  report.Set("server.register.p50_ms", QuantileNs(sreg, 0.5) / 1e6, "ms",
             n(sreg));
  report.Set("server.snapshot.p50_ms", QuantileNs(ssnap, 0.5) / 1e6, "ms",
             n(ssnap));
  report.Set("server.cancel.p50_ms", QuantileNs(scancel, 0.5) / 1e6, "ms",
             n(scancel));
  report.Set("server.fetch.empty_ratio",
             counts.fetch_calls == 0
                 ? 0.0
                 : static_cast<double>(counts.fetch_empty) /
                       static_cast<double>(counts.fetch_calls),
             "ratio", static_cast<std::int64_t>(counts.fetch_calls));
  report.Set("server.fetch.rows_per_call",
             counts.fetch_calls == 0
                 ? 0.0
                 : static_cast<double>(counts.fetch_rows) /
                       static_cast<double>(counts.fetch_calls),
             "rows/call", static_cast<std::int64_t>(counts.fetch_calls));
}

void AddFeederMetrics(Report& report, const std::vector<double>& late_ms) {
  const auto n = static_cast<std::int64_t>(late_ms.size());
  report.Set("gen.late_p99_ms", Quantile(late_ms, 0.99), "ms", n);
  report.Set("gen.late_max_ms",
             late_ms.empty()
                 ? 0.0
                 : *std::max_element(late_ms.begin(), late_ms.end()),
             "ms", n);
}

// --- Pump thread -------------------------------------------------------------

namespace {

/// Longest an idle pump goes without calling Pump: registrations queued
/// for admission are admitted there.
constexpr std::int64_t kIdlePumpNs = 50'000;

}  // namespace

PumpThread::PumpThread(pipes::engine::Engine& engine) : engine_(engine) {
  thread_ = std::thread([this] { Loop(); });
}

PumpThread::~PumpThread() { Stop(); }

void PumpThread::Loop() {
  std::uint64_t seq = 0;
  std::uint64_t idle_at = ~std::uint64_t{0};  // pushes seen when Pump found none
  std::int64_t idle_since = 0;
  while (!stop_.load(std::memory_order_relaxed)) {
    FollowRotation(Role::kPump);
    const std::uint64_t pushed = pushed_.load(std::memory_order_acquire);
    // Nothing pushed since Pump last found no work: yield without taking
    // the engine lock, which the feeder's next Push would otherwise find
    // held and sleep on.
    if (pushed == idle_at && NowNs() - idle_since < kIdlePumpNs) {
      std::this_thread::yield();
      continue;
    }
    std::uint64_t steps = 0;
    {
      ScopedSpan span(SpanKind::kPump, ++seq);
      steps = engine_.Pump();
      if (steps == 0) span.set_kind(SpanKind::kPumpIdle);
    }
    if (Tracer::Get().enabled()) steps_traced_ += steps;
    if (steps == 0) {
      drained_.store(pushed, std::memory_order_release);
      idle_at = pushed;
      idle_since = NowNs();
      std::this_thread::yield();
    }
  }
}

void PumpThread::WaitDrained() {
  const std::uint64_t target = pushed_.load(std::memory_order_acquire);
  while (drained_.load(std::memory_order_acquire) < target) {
    std::this_thread::yield();
  }
}

void PumpThread::Stop() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
}

}  // namespace perfbench
