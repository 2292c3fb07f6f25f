#ifndef PIPES_CORE_ORDERED_BUFFER_H_
#define PIPES_CORE_ORDERED_BUFFER_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/time.h"
#include "src/core/element.h"

/// \file
/// Helper for operators whose raw results are not produced in start order
/// (joins, unions): results are staged behind a binary heap and released —
/// ordered and deterministic — once the operator's input watermark
/// guarantees that no earlier-starting result can still appear.

namespace pipes {

/// Staging buffer that releases stream elements ordered by (start,
/// insertion sequence). The sequence number makes release order
/// deterministic among equal starts. The binary heap orders small
/// `(start, seq, slot)` keys; the elements themselves wait in a slot vector,
/// so each staged element is moved in once and out once, never on a sift.
template <typename T>
class OrderedOutputBuffer {
 public:
  void Push(StreamElement<T> element) {
    const Timestamp start = element.start();
    std::size_t slot = rows_.size();
    if (free_.empty()) {
      rows_.push_back(std::move(element));
    } else {
      slot = free_.back();
      free_.pop_back();
      rows_[slot] = std::move(element);
    }
    heap_.push_back(Key{start, seq_++, slot});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  /// Hands every staged element with `start() < watermark`, in order, to
  /// `emit` as an rvalue (`emit(StreamElement<T>&&)`; a callback taking a
  /// const reference copies only if it keeps the element). Returns the
  /// number emitted.
  template <typename EmitFn>
  std::size_t FlushUpTo(Timestamp watermark, EmitFn&& emit) {
    std::size_t n = 0;
    while (!heap_.empty() && heap_.front().start < watermark) {
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      const std::size_t slot = heap_.back().slot;
      heap_.pop_back();
      emit(std::move(rows_[slot]));
      free_.push_back(slot);
      ++n;
    }
    if (heap_.empty()) {
      // Every slot holds a moved-from element: drop them all at once.
      rows_.clear();
      free_.clear();
    }
    return n;
  }

  /// Emits everything (end-of-stream).
  template <typename EmitFn>
  std::size_t FlushAll(EmitFn&& emit) {
    return FlushUpTo(kMaxTimestamp, std::forward<EmitFn>(emit));
  }

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

 private:
  struct Key {
    Timestamp start;
    std::uint64_t seq;
    std::size_t slot;
  };
  struct Later {
    bool operator()(const Key& a, const Key& b) const {
      if (a.start != b.start) return a.start > b.start;
      return a.seq > b.seq;
    }
  };

  std::vector<Key> heap_;  // a heap under Later: front() is the earliest
  std::vector<StreamElement<T>> rows_;  // indexed by Key::slot
  std::vector<std::size_t> free_;       // slots of released elements
  std::uint64_t seq_ = 0;
};

}  // namespace pipes

#endif  // PIPES_CORE_ORDERED_BUFFER_H_
