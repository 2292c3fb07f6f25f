#ifndef PIPES_SWEEPAREA_LIST_SWEEP_AREA_H_
#define PIPES_SWEEPAREA_LIST_SWEEP_AREA_H_

#include <algorithm>
#include <deque>
#include <utility>

#include "src/common/time.h"
#include "src/core/columnar.h"
#include "src/core/element.h"
#include "src/sweeparea/sweep_area.h"

/// \file
/// The baseline SweepArea: a plain insertion-ordered list scanned linearly
/// on every probe. Supports arbitrary join predicates (theta joins); the
/// comparison target for the hash and tree SweepAreas in experiment E3.

namespace pipes::sweeparea {

/// List-based SweepArea for a theta join with predicate
/// `pred(stored_payload, probe_payload)`.
template <typename Stored, typename Probe, typename Pred>
class ListSweepArea {
 public:
  /// Descriptor tag: a probe may match any stored element (arbitrary theta
  /// predicate), so joins over list areas must not be key-replicated.
  static constexpr bool kKeyedEquiProbe = false;
  static constexpr const char* kAreaName = "list";

  explicit ListSweepArea(Pred pred) : pred_(std::move(pred)) {}

  void Insert(StreamElement<Stored> element) {
    bytes_ += ApproxPayloadBytes(element.payload) + kPerElementOverheadBytes;
    elements_.push_back(std::move(element));
  }

  template <typename Emit>
  void Query(const StreamElement<Probe>& probe, Emit&& emit) const {
    for (const StreamElement<Stored>& stored : elements_) {
      if (stored.interval.Overlaps(probe.interval) &&
          pred_(stored.payload, probe.payload)) {
        emit(stored);
      }
    }
  }

  /// Columnar bulk insert.
  void InsertRun(const ColumnarRun<Stored>& run) {
    for (std::size_t i = 0; i < run.size(); ++i) {
      Insert(run.ElementAt(i));
    }
  }

  /// Columnar bulk probe: `emit(probe_index, stored)` per match, in probe
  /// order (each probe scans the whole list, as in `Query`).
  template <typename Emit>
  void QueryRun(const ColumnarRun<Probe>& run, Emit&& emit) const {
    const std::size_t n = run.size();
    for (std::size_t i = 0; i < n; ++i) {
      const TimeInterval probe_iv(run.starts[i], run.ends[i]);
      for (const StreamElement<Stored>& stored : elements_) {
        if (stored.interval.Overlaps(probe_iv) &&
            pred_(stored.payload, run.payloads[i])) {
          emit(i, stored);
        }
      }
    }
  }

  /// Removes expired elements from the front of the insertion-ordered
  /// list. With (near-)constant window sizes the list is also end-ordered,
  /// so this removes everything expired; an element whose validity ends out
  /// of order is retained until it reaches the front, which is safe —
  /// `Query` checks interval overlap, so a dead element can never join —
  /// and only costs its memory for a while.
  std::size_t PurgeBefore(Timestamp t) {
    std::size_t removed = 0;
    while (!elements_.empty() && elements_.front().end() <= t) {
      bytes_ -= ApproxPayloadBytes(elements_.front().payload) +
                kPerElementOverheadBytes;
      elements_.pop_front();
      ++removed;
    }
    return removed;
  }

  /// Removes the oldest element (load shedding). Returns false when empty.
  bool EvictOne(StreamElement<Stored>* evicted = nullptr) {
    if (elements_.empty()) return false;
    bytes_ -= ApproxPayloadBytes(elements_.front().payload) +
              kPerElementOverheadBytes;
    if (evicted != nullptr) *evicted = std::move(elements_.front());
    elements_.pop_front();
    return true;
  }

  std::size_t size() const { return elements_.size(); }
  std::size_t ApproxBytes() const { return bytes_; }

 private:
  Pred pred_;
  std::deque<StreamElement<Stored>> elements_;
  std::size_t bytes_ = 0;
};

}  // namespace pipes::sweeparea

#endif  // PIPES_SWEEPAREA_LIST_SWEEP_AREA_H_
