#ifndef PIPES_SWEEPAREA_TREE_SWEEP_AREA_H_
#define PIPES_SWEEPAREA_TREE_SWEEP_AREA_H_

#include <algorithm>
#include <map>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/time.h"
#include "src/core/columnar.h"
#include "src/core/element.h"
#include "src/sweeparea/sweep_area.h"

/// \file
/// Ordered (tree-based) SweepArea for band and range joins: stored elements
/// are kept in a multimap over their key; a probe supplies an inclusive key
/// range [lo, hi] and only that range is scanned. The tailored SweepArea
/// for the window band joins of Kang/Naughton/Viglas.

namespace pipes::sweeparea {

/// `KeyS(stored_payload)` gives the stored ordering key;
/// `RangeP(probe_payload)` gives the inclusive probe range as a
/// `std::pair<Key, Key>`.
template <typename Stored, typename Probe, typename KeyS, typename RangeP,
          typename Residual = TruePredicate>
class TreeSweepArea {
 public:
  using Key = std::decay_t<std::invoke_result_t<KeyS, const Stored&>>;

  /// Descriptor tag: probes hit a key *range* (band joins), which crosses
  /// hash-partition boundaries, so tree-area joins must not be
  /// key-replicated.
  static constexpr bool kKeyedEquiProbe = false;
  static constexpr const char* kAreaName = "tree";

  TreeSweepArea(KeyS key_stored, RangeP range_probe,
                Residual residual = Residual())
      : key_stored_(std::move(key_stored)),
        range_probe_(std::move(range_probe)),
        residual_(std::move(residual)) {}

  void Insert(StreamElement<Stored> element) {
    bytes_ += ApproxPayloadBytes(element.payload) + kPerElementOverheadBytes;
    Key key = key_stored_(element.payload);
    expiry_.push_back(Expiry{element.end(), key});
    std::push_heap(expiry_.begin(), expiry_.end(), LaterExpiry{});
    tree_.emplace(std::move(key), std::move(element));
  }

  template <typename Emit>
  void Query(const StreamElement<Probe>& probe, Emit&& emit) const {
    const auto [lo, hi] = range_probe_(probe.payload);
    for (auto it = tree_.lower_bound(lo);
         it != tree_.end() && !(hi < it->first); ++it) {
      const StreamElement<Stored>& stored = it->second;
      if (stored.interval.Overlaps(probe.interval) &&
          residual_(stored.payload, probe.payload)) {
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
  /// order (each probe scans its key range, as in `Query`).
  template <typename Emit>
  void QueryRun(const ColumnarRun<Probe>& run, Emit&& emit) const {
    const std::size_t n = run.size();
    for (std::size_t i = 0; i < n; ++i) {
      const auto [lo, hi] = range_probe_(run.payloads[i]);
      const TimeInterval probe_iv(run.starts[i], run.ends[i]);
      for (auto it = tree_.lower_bound(lo);
           it != tree_.end() && !(hi < it->first); ++it) {
        const StreamElement<Stored>& stored = it->second;
        if (stored.interval.Overlaps(probe_iv) &&
            residual_(stored.payload, run.payloads[i])) {
          emit(i, stored);
        }
      }
    }
  }

  /// Expiry-heap reorganization: cost proportional to the number of
  /// expirations (each pop erases one expired entry under its key).
  std::size_t PurgeBefore(Timestamp t) {
    std::size_t removed = 0;
    while (!expiry_.empty() && expiry_.front().end <= t) {
      std::pop_heap(expiry_.begin(), expiry_.end(), LaterExpiry{});
      const Key key = std::move(expiry_.back().key);
      expiry_.pop_back();
      auto [lo, hi] = tree_.equal_range(key);
      for (auto it = lo; it != hi; ++it) {
        if (it->second.end() <= t) {
          bytes_ -= ApproxPayloadBytes(it->second.payload) +
                    kPerElementOverheadBytes;
          tree_.erase(it);
          ++removed;
          break;
        }
      }
    }
    return removed;
  }

  bool EvictOne(StreamElement<Stored>* evicted = nullptr) {
    if (tree_.empty()) return false;
    auto it = tree_.begin();
    bytes_ -= ApproxPayloadBytes(it->second.payload) +
              kPerElementOverheadBytes;
    if (evicted != nullptr) *evicted = std::move(it->second);
    tree_.erase(it);
    return true;
  }

  std::size_t size() const { return tree_.size(); }
  std::size_t ApproxBytes() const { return bytes_; }

 private:
  struct Expiry {
    Timestamp end;
    Key key;
  };
  struct LaterExpiry {
    bool operator()(const Expiry& a, const Expiry& b) const {
      return a.end > b.end;
    }
  };

  KeyS key_stored_;
  RangeP range_probe_;
  Residual residual_;
  std::multimap<Key, StreamElement<Stored>> tree_;
  // A heap under LaterExpiry, one entry per inserted element; entries of
  // shed elements go stale and are skipped when popped. A plain vector, not
  // a priority_queue, so a popped key is moved out, not copied.
  std::vector<Expiry> expiry_;
  std::size_t bytes_ = 0;
};

}  // namespace pipes::sweeparea

#endif  // PIPES_SWEEPAREA_TREE_SWEEP_AREA_H_
