#ifndef PIPES_COMMON_TIME_H_
#define PIPES_COMMON_TIME_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>

#include "src/common/macros.h"

/// \file
/// Application time. All stream semantics in PIPES are defined over logical
/// (application) timestamps carried by the data, never over wall-clock time;
/// this keeps execution deterministic and testable.

namespace pipes {

/// Logical application timestamp. The unit is workload-defined (the demo
/// workloads use milliseconds).
using Timestamp = std::int64_t;

/// Sentinel: before every valid timestamp.
inline constexpr Timestamp kMinTimestamp =
    std::numeric_limits<Timestamp>::min();
/// Sentinel: after every valid timestamp (used for "never expires").
inline constexpr Timestamp kMaxTimestamp =
    std::numeric_limits<Timestamp>::max();

/// `t + d` for a duration `d >= 0`, saturating at kMaxTimestamp ("never
/// expires") instead of overflowing.
constexpr Timestamp SaturatingAdd(Timestamp t, Timestamp d) {
  return t > kMaxTimestamp - d ? kMaxTimestamp : t + d;
}

/// Half-open validity interval [start, end) of a stream element.
///
/// The *snapshot* of a stream at time t contains exactly the payloads whose
/// interval contains t. Intervals are never empty (start < end).
struct TimeInterval {
  Timestamp start = 0;
  Timestamp end = 1;

  TimeInterval() = default;
  TimeInterval(Timestamp s, Timestamp e) : start(s), end(e) {
    PIPES_DCHECK(s < e);
  }

  /// Point interval [t, t+1): the canonical validity of a raw stream element
  /// before any window operator widens it.
  static TimeInterval Point(Timestamp t) { return TimeInterval(t, t + 1); }

  bool Contains(Timestamp t) const { return start <= t && t < end; }

  bool Overlaps(const TimeInterval& other) const {
    return start < other.end && other.start < end;
  }

  /// Intersection; valid only if `Overlaps(other)`.
  TimeInterval Intersect(const TimeInterval& other) const {
    PIPES_DCHECK(Overlaps(other));
    return TimeInterval(std::max(start, other.start),
                        std::min(end, other.end));
  }

  Timestamp Length() const { return end - start; }

  friend bool operator==(const TimeInterval&, const TimeInterval&) = default;
};

/// "[start, end)" for debugging.
std::string ToString(const TimeInterval& interval);

}  // namespace pipes

#endif  // PIPES_COMMON_TIME_H_
