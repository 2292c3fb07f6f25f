#ifndef PIPES_SWEEPAREA_HASH_SWEEP_AREA_H_
#define PIPES_SWEEPAREA_HASH_SWEEP_AREA_H_

#include <algorithm>
#include <deque>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/macros.h"
#include "src/common/time.h"
#include "src/core/columnar.h"
#include "src/core/element.h"
#include "src/sweeparea/sweep_area.h"

/// \file
/// Hash-based SweepArea for equi-joins: stored elements are bucketed by
/// key, probes touch exactly one bucket. An optional residual predicate
/// supports mixed equi/theta conditions.

namespace pipes::sweeparea {

/// `KeyS(stored_payload)` and `KeyP(probe_payload)` must return the same
/// key type (hashable, equality-comparable).
template <typename Stored, typename Probe, typename KeyS, typename KeyP,
          typename Residual = TruePredicate>
class HashSweepArea {
 public:
  using Key = std::decay_t<std::invoke_result_t<KeyS, const Stored&>>;

  /// Descriptor tag: probes hit exactly one key bucket, so a join over two
  /// hash areas is a keyed equi-join and safe to replicate per key
  /// (`algebra::KeyPartitionable`).
  static constexpr bool kKeyedEquiProbe = true;
  static constexpr const char* kAreaName = "hash";

  HashSweepArea(KeyS key_stored, KeyP key_probe,
                Residual residual = Residual())
      : key_stored_(std::move(key_stored)),
        key_probe_(std::move(key_probe)),
        residual_(std::move(residual)) {}

  void Insert(StreamElement<Stored> element) {
    bytes_ += ApproxPayloadBytes(element.payload) + kPerElementOverheadBytes;
    Key key = key_stored_(element.payload);
    expiry_.push_back(Expiry{element.end(), key});
    std::push_heap(expiry_.begin(), expiry_.end(), LaterExpiry{});
    buckets_[std::move(key)].push_back(std::move(element));
    ++count_;
  }

  template <typename Emit>
  void Query(const StreamElement<Probe>& probe, Emit&& emit) const {
    auto it = buckets_.find(key_probe_(probe.payload));
    if (it == buckets_.end()) return;
    for (const StreamElement<Stored>& stored : it->second) {
      if (stored.interval.Overlaps(probe.interval) &&
          residual_(stored.payload, probe.payload)) {
        emit(stored);
      }
    }
  }

  /// Columnar bulk insert: one pass over the columns, no intermediate AoS
  /// batch.
  void InsertRun(const ColumnarRun<Stored>& run) {
    for (std::size_t i = 0; i < run.size(); ++i) {
      Insert(run.ElementAt(i));
    }
  }

  /// Columnar bulk probe: key extraction and interval checks read the
  /// columns directly; `emit(probe_index, stored)` fires per match, in
  /// probe order.
  template <typename Emit>
  void QueryRun(const ColumnarRun<Probe>& run, Emit&& emit) const {
    const std::size_t n = run.size();
    for (std::size_t i = 0; i < n; ++i) {
      auto it = buckets_.find(key_probe_(run.payloads[i]));
      if (it == buckets_.end()) continue;
      const TimeInterval probe_iv(run.starts[i], run.ends[i]);
      for (const StreamElement<Stored>& stored : it->second) {
        if (stored.interval.Overlaps(probe_iv) &&
            residual_(stored.payload, run.payloads[i])) {
          emit(i, stored);
        }
      }
    }
  }

  /// Reorganization driven by an expiry heap: each heap pop removes exactly
  /// one expired element from its bucket, so the cost is proportional to
  /// the number of expirations, not to the total state.
  std::size_t PurgeBefore(Timestamp t) {
    std::size_t removed = 0;
    while (!expiry_.empty() && expiry_.front().end <= t) {
      std::pop_heap(expiry_.begin(), expiry_.end(), LaterExpiry{});
      const Key key = std::move(expiry_.back().key);
      expiry_.pop_back();
      auto bucket_it = buckets_.find(key);
      if (bucket_it == buckets_.end()) continue;  // evicted by shedding
      auto& bucket = bucket_it->second;
      for (auto it = bucket.begin(); it != bucket.end(); ++it) {
        if (it->end() <= t) {
          bytes_ -=
              ApproxPayloadBytes(it->payload) + kPerElementOverheadBytes;
          bucket.erase(it);
          ++removed;
          --count_;
          break;
        }
      }
      if (bucket.empty()) buckets_.erase(bucket_it);
    }
    return removed;
  }

  bool EvictOne(StreamElement<Stored>* evicted = nullptr) {
    // Evict from the largest bucket: sheds load where the most join state
    // (and the least selective output) accumulates.
    if (buckets_.empty()) return false;
    auto victim = buckets_.begin();
    for (auto it = buckets_.begin(); it != buckets_.end(); ++it) {
      if (it->second.size() > victim->second.size()) victim = it;
    }
    auto& bucket = victim->second;
    bytes_ -= ApproxPayloadBytes(bucket.front().payload) +
              kPerElementOverheadBytes;
    if (evicted != nullptr) *evicted = std::move(bucket.front());
    bucket.pop_front();
    --count_;
    if (bucket.empty()) buckets_.erase(victim);
    return true;
  }

  std::size_t size() const { return count_; }
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
  KeyP key_probe_;
  Residual residual_;
  std::unordered_map<Key, std::deque<StreamElement<Stored>>> buckets_;
  // A heap under LaterExpiry, one entry per inserted element; entries of
  // shed elements go stale and are skipped when popped. A plain vector, not
  // a priority_queue, so a popped key is moved out, not copied.
  std::vector<Expiry> expiry_;
  std::size_t count_ = 0;
  std::size_t bytes_ = 0;
};

}  // namespace pipes::sweeparea

#endif  // PIPES_SWEEPAREA_HASH_SWEEP_AREA_H_
