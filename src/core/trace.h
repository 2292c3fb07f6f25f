#ifndef PIPES_CORE_TRACE_H_
#define PIPES_CORE_TRACE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/macros.h"
#include "src/common/time.h"
#include "src/core/metrics.h"

/// \file
/// Element-journey tracing: a bounded, lock-free ring that samples the path
/// of individual elements through a running query graph, one event per hop
/// (a source emitting, a port receiving) with a monotonic timestamp. The
/// paper's monitoring tool displays "runtime behaviour of the system ...
/// online"; counters give aggregate behaviour, the trace ring gives the
/// micro view — where one element went and how long each hop took.
///
/// Sampling is keyed on the element's *application* start timestamp
/// (`start % period == 0`), a pure function of the element, so the same
/// element is sampled at every hop without widening `StreamElement` by a
/// trace id. Journeys are reconstructed by grouping ring events on
/// `element_start` and ordering by `steady_ns`.
///
/// The ring is a fixed-size seqlock with one writer per slot at a time:
/// writers take a ticket with one relaxed fetch_add, claim the ticket's slot
/// by a compare-exchange of its sequence number from even to odd, fill its
/// atomic fields, then publish with a release store of the sequence number.
/// A writer that finds its slot mid-write by another (one that lapped the
/// ring) or already holding a newer ticket drops its event; `Snapshot()`
/// drops slots it catches mid-write. No fences, so ThreadSanitizer checks
/// the protocol. Tracing is off by default and costs one relaxed load per
/// transfer when off.

namespace pipes::trace {

/// What happened at this hop.
enum class Hop : std::uint8_t {
  kEmit = 0,     // a Source transferred the element downstream
  kReceive = 1,  // an InputPort delivered the element to its owner
};

/// One sampled hop.
struct Event {
  std::uint64_t node_id = 0;
  Timestamp element_start = 0;
  std::int64_t steady_ns = 0;
  Hop hop = Hop::kEmit;

  friend bool operator==(const Event&, const Event&) = default;
};

/// Bounded lock-free ring of trace events.
class TraceRing {
 public:
  /// `capacity` is rounded up to a power of two; older events are
  /// overwritten once the ring is full.
  explicit TraceRing(std::size_t capacity = 1u << 14) {
    std::size_t cap = 1;
    while (cap < capacity) cap <<= 1;
    slots_ = std::vector<Slot>(cap);
  }

  std::size_t capacity() const { return slots_.size(); }

  /// Total events ever recorded, dropped ones included (≥ what the ring
  /// still holds).
  std::uint64_t recorded() const {
    return head_.load(std::memory_order_relaxed);
  }

  void Record(std::uint64_t node_id, Timestamp element_start, Hop hop) {
    const std::uint64_t ticket = head_.fetch_add(1, std::memory_order_relaxed);
    Slot& slot = slots_[ticket & (slots_.size() - 1)];
    // Claim the slot (odd = in flight), fill, then publish (even =
    // 2 * ticket + 2). A writer that lapped the ring may share the slot;
    // the claim fails, and the event is dropped, while another write is in
    // flight or once a newer ticket is published, so two writes never
    // interleave and a slot's sequence number only grows. The acquire
    // orders these fields after those of the write they replace; each
    // field is a release store, so a reader that acquires one also sees
    // the odd mark and drops the slot.
    const std::uint64_t in_flight = 2 * ticket + 1;
    std::uint64_t seq = slot.seq.load(std::memory_order_relaxed);
    do {
      if ((seq & 1) != 0 || seq > in_flight) return;
    } while (!slot.seq.compare_exchange_weak(seq, in_flight,
                                             std::memory_order_acquire,
                                             std::memory_order_relaxed));
    slot.node_id.store(node_id, std::memory_order_release);
    slot.element_start.store(element_start, std::memory_order_release);
    slot.steady_ns.store(obs::SteadyNowNs(), std::memory_order_release);
    slot.hop.store(hop, std::memory_order_release);
    slot.seq.store(in_flight + 1, std::memory_order_release);
  }

  /// Copies out every completely written event still in the ring, oldest
  /// first by ticket (a slot published at sequence number `seq` holds ticket
  /// `seq / 2 - 1`), so a wrapped ring reads in recording order too. Events
  /// being overwritten concurrently are skipped, never torn.
  std::vector<Event> Snapshot() const {
    std::vector<std::pair<std::uint64_t, Event>> published;
    published.reserve(slots_.size());
    for (const Slot& slot : slots_) {
      const std::uint64_t seq_before = slot.seq.load(std::memory_order_acquire);
      if (seq_before == 0 || (seq_before & 1) != 0) continue;  // empty/in-flight
      Event copy;
      copy.node_id = slot.node_id.load(std::memory_order_acquire);
      copy.element_start = slot.element_start.load(std::memory_order_acquire);
      copy.steady_ns = slot.steady_ns.load(std::memory_order_acquire);
      copy.hop = slot.hop.load(std::memory_order_acquire);
      if (slot.seq.load(std::memory_order_relaxed) != seq_before) continue;
      published.emplace_back(seq_before, copy);
    }
    std::sort(published.begin(), published.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    std::vector<Event> out;
    out.reserve(published.size());
    for (const auto& entry : published) out.push_back(entry.second);
    return out;
  }

  /// Forgets all recorded events. Not safe concurrently with writers.
  void Clear() {
    head_.store(0, std::memory_order_relaxed);
    for (Slot& slot : slots_) slot.seq.store(0, std::memory_order_relaxed);
  }

 private:
  /// The event's fields are atomics so that a reader racing a writer
  /// reads stale or fresh values, never an undefined one; the sequence
  /// number tells which (Boehm's fence-free seqlock, MSPC 2012). On x86
  /// every access compiles to a plain move.
  struct Slot {
    std::atomic<std::uint64_t> seq{0};
    std::atomic<std::uint64_t> node_id{0};
    std::atomic<Timestamp> element_start{0};
    std::atomic<std::int64_t> steady_ns{0};
    std::atomic<Hop> hop{Hop::kEmit};
  };

  std::vector<Slot> slots_;
  std::atomic<std::uint64_t> head_{0};
};

// --- Global tracing configuration -----------------------------------------
// One process-wide ring keeps the hot-path hook pointer-free; the
// monitoring client owns enabling, period, and draining.

inline std::atomic<bool>& EnabledFlag() {
  static std::atomic<bool> enabled{false};
  return enabled;
}

inline bool Enabled() {
#ifdef PIPES_DISABLE_OBSERVABILITY
  return false;
#else
  return EnabledFlag().load(std::memory_order_relaxed);
#endif
}

inline void SetEnabled(bool enabled) {
  EnabledFlag().store(enabled, std::memory_order_relaxed);
}

inline std::atomic<Timestamp>& SamplePeriodValue() {
  static std::atomic<Timestamp> period{1024};
  return period;
}

/// Elements whose start timestamp is a multiple of the period are traced.
/// Period 1 traces everything (tests); the default of 1024 keeps the ring
/// representative at production rates. Always a power of two so the batch
/// scan is a mask, not a division.
inline Timestamp SamplePeriod() {
  return SamplePeriodValue().load(std::memory_order_relaxed);
}

/// Rounds `period` up to the next power of two.
inline void SetSamplePeriod(Timestamp period) {
  PIPES_CHECK(period > 0);
  Timestamp pow2 = 1;
  while (pow2 < period) pow2 <<= 1;
  SamplePeriodValue().store(pow2, std::memory_order_relaxed);
}

inline TraceRing& GlobalRing() {
  static TraceRing ring;
  return ring;
}

/// True if an element with this start timestamp is in the sample.
inline bool Sampled(Timestamp element_start) {
  const auto mask =
      static_cast<std::uint64_t>(SamplePeriod()) - 1;
  return (static_cast<std::uint64_t>(element_start) & mask) == 0;
}

/// Hot-path hook: record one hop if tracing is on and the element is
/// sampled. The off cost is the `Enabled()` relaxed load.
inline void RecordHop(std::uint64_t node_id, Timestamp element_start,
                      Hop hop) {
  if (!Enabled()) return;
  if (!Sampled(element_start)) return;
  GlobalRing().Record(node_id, element_start, hop);
}

/// Run variant: scans a contiguous column of interval starts for sampled
/// elements only when tracing is enabled; one relaxed load when off.
inline void RecordRunHops(std::uint64_t node_id, const Timestamp* starts,
                          std::size_t n, Hop hop) {
  if (!Enabled()) return;
  const auto mask = static_cast<std::uint64_t>(SamplePeriod()) - 1;
  for (std::size_t i = 0; i < n; ++i) {
    if ((static_cast<std::uint64_t>(starts[i]) & mask) == 0) {
      GlobalRing().Record(node_id, starts[i], hop);
    }
  }
}

}  // namespace pipes::trace

#endif  // PIPES_CORE_TRACE_H_
