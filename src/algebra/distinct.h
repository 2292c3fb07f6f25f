#ifndef PIPES_ALGEBRA_DISTINCT_H_
#define PIPES_ALGEBRA_DISTINCT_H_

#include <algorithm>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/core/ordered_buffer.h"
#include "src/core/pipe.h"

/// \file
/// Temporal duplicate elimination: the snapshot of the output at time t is
/// the *set* of payloads in the input snapshot at t. Physically, the
/// operator maintains the coalesced union of validity intervals per
/// distinct payload and emits each maximal finalized piece once the
/// watermark passes its end.

namespace pipes::algebra {

/// Duplicate elimination. `T` must be hashable and equality-comparable.
template <typename T>
class Distinct : public UnaryPipe<T, T> {
 public:
  explicit Distinct(std::string name = "distinct")
      : UnaryPipe<T, T>(std::move(name)) {}

  std::size_t state_size() const {
    std::size_t n = 0;
    for (const auto& [payload, intervals] : pending_) n += intervals.size();
    return n;
  }

  NodeDescriptor Describe() const override {
    NodeDescriptor d = UnaryPipe<T, T>::Describe();
    d.op = "distinct";
    d.blocking = true;
    d.key_partitionable = true;
    // Per input element: at most one map entry, one coalesced interval,
    // and one staged output copy.
    d.dataflow.state_bytes_per_element =
        (sizeof(T) + 64) + sizeof(TimeInterval) +
        (sizeof(StreamElement<T>) + 48);
    // Coalescing abutting intervals can extend validity past any single
    // input element's.
    d.dataflow.extends_validity = true;
    return d;
  }

 protected:
  void PortRun(int /*port_id*/, const ColumnarRun<T>& run) override {
    for (std::size_t i = 0; i < run.size(); ++i) {
      Merge(pending_[run.payloads[i]],
            TimeInterval(run.starts[i], run.ends[i]));
    }
  }

  void PortProgress(int /*port_id*/, Timestamp watermark) override {
    this->TransferHeartbeat(Release(watermark));
  }

  void PortDone(int /*port_id*/) override {
    Release(kMaxTimestamp);
    staged_.FlushAll(
        [this](const StreamElement<T>& e) { this->Transfer(e); });
    this->TransferDone();
  }

 private:
  /// Inserts `iv` into the sorted, disjoint, non-abutting interval list.
  static void Merge(std::vector<TimeInterval>& intervals, TimeInterval iv) {
    // Find the insertion window of intervals that overlap or abut iv.
    auto first = std::lower_bound(
        intervals.begin(), intervals.end(), iv,
        [](const TimeInterval& a, const TimeInterval& b) {
          return a.end < b.start;  // strictly before (not even abutting)
        });
    auto last = first;
    while (last != intervals.end() && last->start <= iv.end) {
      iv.start = std::min(iv.start, last->start);
      iv.end = std::max(iv.end, last->end);
      ++last;
    }
    if (first == last) {
      intervals.insert(first, iv);
    } else {
      *first = iv;
      intervals.erase(std::next(first), last);
    }
  }

  /// Finalizes and releases pieces; returns the safe progress bound (a
  /// piece may only leave once no payload holds an earlier pending start).
  Timestamp Release(Timestamp watermark) {
    for (auto it = pending_.begin(); it != pending_.end();) {
      auto& intervals = it->second;
      std::size_t emitted = 0;
      for (const TimeInterval& iv : intervals) {
        // A piece whose end is below the watermark can no longer grow:
        // future elements start at or after the watermark and could at most
        // abut it, which is snapshot-equivalent to a separate element.
        if (iv.end > watermark) break;
        staged_.Push(StreamElement<T>(it->first, iv));
        ++emitted;
      }
      intervals.erase(intervals.begin(), intervals.begin() + emitted);
      if (intervals.empty()) {
        it = pending_.erase(it);
      } else {
        ++it;
      }
    }
    const Timestamp bound = std::min(watermark, FirstPendingStart());
    staged_.FlushUpTo(bound, [this](const StreamElement<T>& e) {
      this->Transfer(e);
    });
    return bound;
  }

  Timestamp FirstPendingStart() const {
    Timestamp t = kMaxTimestamp;
    for (const auto& [payload, intervals] : pending_) {
      if (!intervals.empty()) t = std::min(t, intervals.front().start);
    }
    return t;
  }

  std::unordered_map<T, std::vector<TimeInterval>> pending_;
  OrderedOutputBuffer<T> staged_;
};

}  // namespace pipes::algebra

#endif  // PIPES_ALGEBRA_DISTINCT_H_
