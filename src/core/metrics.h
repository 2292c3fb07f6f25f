#ifndef PIPES_CORE_METRICS_H_
#define PIPES_CORE_METRICS_H_

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>

/// \file
/// Hot-path observability primitives. The paper's third demo artifact is a
/// monitoring tool fed by secondary metadata ("runtime behaviour of the
/// system ... displayed online"); this header holds the pieces that must be
/// cheap enough to live *inside* the transfer path: relaxed-atomic counters
/// and a fixed-bucket latency histogram. Everything heavier (rates, DOT
/// overlays, dashboards) derives from these in `metadata/snapshot.h`.
///
/// Cost model (see `bench/bench_observability`):
///  * Counters (elements, batches, progress) are always on: one relaxed
///    fetch_add / store per *batch*, amortized to nothing on long runs and
///    bounded on runs of 1.
///  * Latency histograms are gated behind the global `MetricsEnabled()`
///    flag and additionally *sampled* (1 in `kLatencySamplePeriod`
///    deliveries), so the steady-state enabled cost is one relaxed load and
///    one local counter decrement per delivery.
///  * Defining `PIPES_DISABLE_OBSERVABILITY` compiles the gated
///    instrumentation out entirely (the compiled-out baseline).

namespace pipes::obs {

/// Runtime master switch for the sampled instrumentation (latency
/// histograms). Off by default: enabling observability is an explicit act
/// of the monitoring client, exactly like attaching the metadata monitor.
inline std::atomic<bool>& MetricsFlag() {
  static std::atomic<bool> enabled{false};
  return enabled;
}

inline bool MetricsEnabled() {
#ifdef PIPES_DISABLE_OBSERVABILITY
  return false;
#else
  return MetricsFlag().load(std::memory_order_relaxed);
#endif
}

inline void SetMetricsEnabled(bool enabled) {
  MetricsFlag().store(enabled, std::memory_order_relaxed);
}

/// One latency sample is recorded per this many gated deliveries.
inline constexpr std::uint32_t kLatencySamplePeriod = 16;

/// Monotonic nanosecond clock for latency measurements. Wall-clock time is
/// never used for stream semantics (see common/time.h); this clock only
/// feeds monitoring.
inline std::int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Plain (non-atomic) copy of a histogram, as captured by a snapshot.
struct HistogramSnapshot {
  static constexpr std::size_t kBuckets = 16;
  std::array<std::uint64_t, kBuckets> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum_ns = 0;

  double MeanNs() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum_ns) / static_cast<double>(count);
  }

  /// Upper bound (ns) of bucket `i`; the last bucket is unbounded.
  static std::uint64_t BucketUpperNs(std::size_t i) {
    return std::uint64_t{256} << i;
  }

  friend bool operator==(const HistogramSnapshot&,
                         const HistogramSnapshot&) = default;
};

/// Fixed-bucket latency histogram with relaxed-atomic counters. Buckets are
/// exponential: bucket 0 counts samples < 256 ns, bucket i samples in
/// [256·2^(i-1), 256·2^i) ns, and the last bucket everything ≥ ~2 ms.
/// Writers race benignly (relaxed increments); readers get a consistent
/// *enough* view for monitoring, never torn individual counters.
class LatencyHistogram {
 public:
  static constexpr std::size_t kBuckets = HistogramSnapshot::kBuckets;

  void Record(std::uint64_t ns) {
    buckets_[BucketIndex(ns)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_ns_.fetch_add(ns, std::memory_order_relaxed);
  }

  HistogramSnapshot Snapshot() const {
    HistogramSnapshot snap;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      snap.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
    }
    snap.count = count_.load(std::memory_order_relaxed);
    snap.sum_ns = sum_ns_.load(std::memory_order_relaxed);
    return snap;
  }

  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }

  static std::size_t BucketIndex(std::uint64_t ns) {
    const std::uint64_t scaled = ns >> 8;  // 256 ns granularity
    if (scaled == 0) return 0;
    const std::size_t idx = static_cast<std::size_t>(std::bit_width(scaled));
    return idx < kBuckets ? idx : kBuckets - 1;
  }

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_ns_{0};
};

}  // namespace pipes::obs

#endif  // PIPES_CORE_METRICS_H_
