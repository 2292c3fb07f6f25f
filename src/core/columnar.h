#ifndef PIPES_CORE_COLUMNAR_H_
#define PIPES_CORE_COLUMNAR_H_

#include <cstddef>
#include <vector>

#include "src/common/time.h"
#include "src/core/element.h"

/// \file
/// Columnar (structure-of-arrays) runs: the one batch representation, on
/// the direct publish-subscribe path and the executor-polled path alike. A
/// run is a maximal sequence of stream elements from one producer, ordered
/// by non-decreasing start, carrying no control signals, with the interval
/// starts, interval ends, and payloads stored in three contiguous arrays.
/// Kernels that only touch one column (a filter reads payloads, a window
/// rewrites ends) become tight loops over plain arrays the compiler can
/// vectorize, instead of strided walks over `StreamElement` records.

namespace pipes {

/// One columnar run. Invariants (checked where the run crosses a node
/// boundary, not per mutation): all three columns have equal length and
/// `starts` is non-decreasing.
template <typename T>
struct ColumnarRun {
  std::vector<Timestamp> starts;
  std::vector<Timestamp> ends;
  std::vector<T> payloads;

  std::size_t size() const { return starts.size(); }
  bool empty() const { return starts.empty(); }

  void clear() {
    starts.clear();
    ends.clear();
    payloads.clear();
  }

  void reserve(std::size_t n) {
    starts.reserve(n);
    ends.reserve(n);
    payloads.reserve(n);
  }

  void Append(T payload, Timestamp start, Timestamp end) {
    starts.push_back(start);
    ends.push_back(end);
    payloads.push_back(std::move(payload));
  }

  void Append(const StreamElement<T>& e) {
    Append(e.payload, e.start(), e.end());
  }

  void Append(StreamElement<T>&& e) {
    Append(std::move(e.payload), e.start(), e.end());
  }

  /// Bulk append of a whole run — three range inserts, which degrade to
  /// memcpy for trivially copyable payloads.
  void AppendRun(const ColumnarRun& other) {
    starts.insert(starts.end(), other.starts.begin(), other.starts.end());
    ends.insert(ends.end(), other.ends.begin(), other.ends.end());
    payloads.insert(payloads.end(), other.payloads.begin(),
                    other.payloads.end());
  }

  /// Bulk append of `other`'s [from, to) sub-range.
  void AppendRange(const ColumnarRun& other, std::size_t from,
                   std::size_t to) {
    starts.insert(starts.end(), other.starts.begin() + from,
                  other.starts.begin() + to);
    ends.insert(ends.end(), other.ends.begin() + from,
                other.ends.begin() + to);
    payloads.insert(payloads.end(), other.payloads.begin() + from,
                    other.payloads.begin() + to);
  }

  /// Removes the first `n` elements (shifts the remainder down).
  void EraseFront(std::size_t n) {
    starts.erase(starts.begin(), starts.begin() + n);
    ends.erase(ends.begin(), ends.begin() + n);
    payloads.erase(payloads.begin(), payloads.begin() + n);
  }

  /// Takes `other`'s contents. When this run is empty the columns are
  /// swapped — O(1), and `other` inherits this run's (cleared) capacity, so
  /// a producer that hands its scratch run off and refills it allocates
  /// nothing in steady state. Otherwise falls back to a bulk append.
  /// `other` is empty afterwards either way.
  void TakeFrom(ColumnarRun& other) {
    if (empty()) {
      starts.swap(other.starts);
      ends.swap(other.ends);
      payloads.swap(other.payloads);
    } else {
      AppendRun(other);
    }
    other.clear();
  }

  StreamElement<T> ElementAt(std::size_t i) const {
    return StreamElement<T>(payloads[i], starts[i], ends[i]);
  }

  /// Re-materializes the run as AoS elements, appended to `out` — for sinks
  /// that keep their results as elements (collector, engine result queue).
  /// `out` grows geometrically, so appending many runs stays linear.
  void MaterializeTo(std::vector<StreamElement<T>>& out) const {
    for (std::size_t i = 0; i < size(); ++i) {
      out.emplace_back(payloads[i], starts[i], ends[i]);
    }
  }
};

}  // namespace pipes

#endif  // PIPES_CORE_COLUMNAR_H_
