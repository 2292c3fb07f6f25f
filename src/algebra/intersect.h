#ifndef PIPES_ALGEBRA_INTERSECT_H_
#define PIPES_ALGEBRA_INTERSECT_H_

#include <algorithm>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>

#include "src/core/ordered_buffer.h"
#include "src/core/pipe.h"

/// \file
/// Temporal multiset intersection: at every time t the output snapshot
/// contains min(mult_L(p, t), mult_R(p, t)) copies of each payload p — the
/// dual of `Difference` and the remaining member of the extended
/// relational algebra's set operations. Same boundary-sweep machinery:
/// per-payload multiplicity deltas finalized by the combined watermark.

namespace pipes::algebra {

/// Multiset intersection. `T` must be hashable and equality-comparable.
template <typename T>
class Intersect : public BinaryPipe<T, T, T> {
 public:
  explicit Intersect(std::string name = "intersect")
      : BinaryPipe<T, T, T>(std::move(name)) {}

  std::size_t state_size() const { return payloads_.size(); }

  NodeDescriptor Describe() const override {
    NodeDescriptor d = BinaryPipe<T, T, T>::Describe();
    d.op = "intersect";
    d.blocking = true;
    // Same boundary-sweep state shape as Difference; output segments have
    // both multiplicities positive, so validity intersects the inputs'.
    d.dataflow.output_factor = 2.0;
    d.dataflow.intersects_validity = true;
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
    std::map<Timestamp, std::pair<int, int>> deltas;
    int left_count = 0;
    int right_count = 0;
  };

  Timestamp Release(Timestamp watermark) {
    for (auto it = payloads_.begin(); it != payloads_.end();) {
      PayloadState& state = it->second;
      while (state.deltas.size() >= 2) {
        auto first = state.deltas.begin();
        auto second = std::next(first);
        if (second->first > watermark) break;
        state.left_count += first->second.first;
        state.right_count += first->second.second;
        const int copies = std::min(state.left_count, state.right_count);
        for (int i = 0; i < copies; ++i) {
          staged_.Push(StreamElement<T>(
              it->first, TimeInterval(first->first, second->first)));
        }
        state.deltas.erase(first);
      }
      if (state.deltas.size() == 1 &&
          state.deltas.begin()->first <= watermark) {
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

#endif  // PIPES_ALGEBRA_INTERSECT_H_
