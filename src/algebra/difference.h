#ifndef PIPES_ALGEBRA_DIFFERENCE_H_
#define PIPES_ALGEBRA_DIFFERENCE_H_

#include <algorithm>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>

#include "src/core/ordered_buffer.h"
#include "src/core/pipe.h"

/// \file
/// Temporal multiset difference L - R: at every time t the output snapshot
/// contains max(0, mult_L(p, t) - mult_R(p, t)) copies of each payload p.
/// The implementation keeps, per payload, a boundary map of multiplicity
/// deltas from both inputs and sweeps it up to the combined watermark,
/// emitting the surplus copies per constant segment. This is the most
/// blocking-prone relational operator; the watermark mechanism is what
/// keeps it non-blocking.

namespace pipes::algebra {

/// Multiset difference (left minus right). `T` must be hashable and
/// equality-comparable.
template <typename T>
class Difference : public BinaryPipe<T, T, T> {
 public:
  explicit Difference(std::string name = "difference")
      : BinaryPipe<T, T, T>(std::move(name)) {}

  std::size_t state_size() const { return payloads_.size(); }

  NodeDescriptor Describe() const override {
    NodeDescriptor d = BinaryPipe<T, T, T>::Describe();
    d.op = "difference";
    d.blocking = true;
    // Each input element adds at most one payload entry, two delta-map
    // boundaries, and (eventually) one staged surplus segment per boundary.
    d.dataflow.output_factor = 2.0;
    d.dataflow.state_bytes_per_element =
        (sizeof(T) + 64) + 2 * 64 + (sizeof(StreamElement<T>) + 48);
    return d;
  }

 protected:
  void OnRunLeft(const ColumnarRun<T>& run) override {
    for (std::size_t i = 0; i < run.size(); ++i) {
      auto& state = payloads_[run.payloads[i]];
      state.deltas[run.starts[i]].first += 1;
      state.deltas[run.ends[i]].first -= 1;
    }
  }

  void OnRunRight(const ColumnarRun<T>& run) override {
    for (std::size_t i = 0; i < run.size(); ++i) {
      auto& state = payloads_[run.payloads[i]];
      state.deltas[run.starts[i]].second += 1;
      state.deltas[run.ends[i]].second -= 1;
    }
  }

  void OnProgressSide(int /*side*/, Timestamp /*watermark*/) override {
    this->TransferHeartbeat(Release(this->CombinedWatermark()));
  }

  void OnDoneSide(int /*side*/) override {
    if (this->BothDone()) {
      Release(kMaxTimestamp);
      staged_.FlushAll(
          [this](const StreamElement<T>& e) { this->Transfer(e); });
      this->TransferDone();
    } else {
      OnProgressSide(0, this->CombinedWatermark());
    }
  }

 private:
  struct PayloadState {
    // boundary timestamp -> (delta of left multiplicity, delta of right).
    std::map<Timestamp, std::pair<int, int>> deltas;
    // Running multiplicities valid on [carry_from, first remaining boundary).
    int left_count = 0;
    int right_count = 0;
    Timestamp carry_from = kMinTimestamp;
  };

  /// Finalizes segments and releases staged surplus copies; returns the
  /// safe progress bound (results wait for the earliest pending boundary
  /// across all payloads).
  Timestamp Release(Timestamp watermark) {
    for (auto it = payloads_.begin(); it != payloads_.end();) {
      PayloadState& state = it->second;
      // A segment [b_i, b_{i+1}) is final once b_{i+1} <= watermark: both
      // inputs have promised no element starting before the watermark, so
      // no new boundary can appear below it.
      while (state.deltas.size() >= 2) {
        auto first = state.deltas.begin();
        auto second = std::next(first);
        if (second->first > watermark) break;
        state.left_count += first->second.first;
        state.right_count += first->second.second;
        const int surplus = state.left_count - state.right_count;
        for (int i = 0; i < surplus; ++i) {
          staged_.Push(StreamElement<T>(
              it->first, TimeInterval(first->first, second->first)));
        }
        state.deltas.erase(first);
      }
      // The last boundary closes all intervals; once processed the counts
      // return to zero and the entry can be dropped.
      if (state.deltas.size() == 1 &&
          state.deltas.begin()->first <= watermark) {
        state.left_count += state.deltas.begin()->second.first;
        state.right_count += state.deltas.begin()->second.second;
        PIPES_DCHECK(state.left_count == 0 && state.right_count == 0);
        state.deltas.clear();
      }
      if (state.deltas.empty()) {
        it = payloads_.erase(it);
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
    for (const auto& [payload, state] : payloads_) {
      if (!state.deltas.empty()) {
        t = std::min(t, state.deltas.begin()->first);
      }
    }
    return t;
  }

  std::unordered_map<T, PayloadState> payloads_;
  OrderedOutputBuffer<T> staged_;
};

}  // namespace pipes::algebra

#endif  // PIPES_ALGEBRA_DIFFERENCE_H_
