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
/// (joins, unions): results are staged in a binary heap and released —
/// ordered and deterministic — once the operator's input watermark
/// guarantees that no earlier-starting result can still appear.

namespace pipes {

/// Min-heap of stream elements keyed by (start, insertion sequence). The
/// sequence number makes release order deterministic among equal starts.
template <typename T>
class OrderedOutputBuffer {
 public:
  void Push(StreamElement<T> element) {
    heap_.push_back(Item{std::move(element), seq_++});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  /// Hands every staged element with `start() < watermark`, in order, to
  /// `emit` as an rvalue (`emit(StreamElement<T>&&)`; a callback taking a
  /// const reference copies only if it keeps the element). Returns the
  /// number emitted.
  template <typename EmitFn>
  std::size_t FlushUpTo(Timestamp watermark, EmitFn&& emit) {
    std::size_t n = 0;
    while (!heap_.empty() && heap_.front().element.start() < watermark) {
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      emit(std::move(heap_.back().element));
      heap_.pop_back();
      ++n;
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
  struct Item {
    StreamElement<T> element;
    std::uint64_t seq;
  };
  struct Later {
    bool operator()(const Item& a, const Item& b) const {
      if (a.element.start() != b.element.start()) {
        return a.element.start() > b.element.start();
      }
      return a.seq > b.seq;
    }
  };

  std::vector<Item> heap_;  // a heap under Later: front() is the earliest
  std::uint64_t seq_ = 0;
};

}  // namespace pipes

#endif  // PIPES_CORE_ORDERED_BUFFER_H_
