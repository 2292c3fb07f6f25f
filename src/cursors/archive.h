#ifndef PIPES_CURSORS_ARCHIVE_H_
#define PIPES_CURSORS_ARCHIVE_H_

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/core/sink.h"
#include "src/cursors/cursor.h"

/// \file
/// Historical queries over streams: a sink that materializes the stream it
/// consumes into a start-indexed store, queryable afterwards (or while the
/// stream still runs) through demand-driven cursors — the role the paper
/// assigns to XXL's index-structure framework ("to enable historical
/// queries over streams"). Explicit materialization is the exception in a
/// DSMS; this is the component for exactly that exception.

namespace pipes::cursors {

/// Archives every received element, ordered by validity start. Queries:
///
///  * `ScanAll()`      — everything, in start order.
///  * `QueryRange(iv)` — all elements whose validity overlaps `iv`.
///  * `SnapshotAt(t)`  — payloads valid at instant t (a historical
///                       snapshot query).
///
/// The index is a multimap over start timestamps; range queries prune by
/// start and filter residually by end, which is effective because element
/// validities are bounded in practice (windowed streams).
template <typename T>
class StreamArchive : public Sink<T> {
 public:
  explicit StreamArchive(std::string name = "archive")
      : Sink<T>(std::move(name)) {}

  std::size_t size() const { return index_.size(); }

  /// Longest validity seen; the range-scan lookback bound.
  Timestamp max_validity() const { return max_validity_; }

  CursorPtr<StreamElement<T>> ScanAll() const {
    std::vector<StreamElement<T>> out;
    out.reserve(index_.size());
    for (const auto& [start, element] : index_) out.push_back(element);
    return std::make_unique<VectorCursor<StreamElement<T>>>(std::move(out));
  }

  /// Elements whose validity overlaps [iv.start, iv.end).
  CursorPtr<StreamElement<T>> QueryRange(TimeInterval iv) const {
    std::vector<StreamElement<T>> out;
    // An overlapping element starts before iv.end and no earlier than
    // iv.start - max_validity (else it would have ended already).
    const Timestamp lookback =
        iv.start == kMinTimestamp || max_validity_ == kMaxTimestamp
            ? kMinTimestamp
            : iv.start - max_validity_;
    for (auto it = index_.lower_bound(lookback);
         it != index_.end() && it->first < iv.end; ++it) {
      if (it->second.interval.Overlaps(iv)) out.push_back(it->second);
    }
    return std::make_unique<VectorCursor<StreamElement<T>>>(std::move(out));
  }

  /// Payloads valid at instant `t` (historical snapshot).
  CursorPtr<T> SnapshotAt(Timestamp t) const {
    std::vector<T> out;
    auto overlapping = QueryRange(TimeInterval(t, t + 1));
    while (auto e = overlapping->Next()) out.push_back(e->payload);
    return std::make_unique<VectorCursor<T>>(std::move(out));
  }

 protected:
  void PortRun(int /*port_id*/, const ColumnarRun<T>& run) override {
    for (std::size_t i = 0; i < run.size(); ++i) {
      const StreamElement<T> e = run.ElementAt(i);
      if (e.end() != kMaxTimestamp) {
        max_validity_ = std::max(max_validity_, e.interval.Length());
      } else {
        max_validity_ = kMaxTimestamp;
      }
      index_.emplace(e.start(), e);
    }
  }

 private:
  std::multimap<Timestamp, StreamElement<T>> index_;
  Timestamp max_validity_ = 0;
};

}  // namespace pipes::cursors

#endif  // PIPES_CURSORS_ARCHIVE_H_
