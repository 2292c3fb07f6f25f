#ifndef PIPES_SWEEPAREA_SPILLABLE_HASH_SWEEP_AREA_H_
#define PIPES_SWEEPAREA_SPILLABLE_HASH_SWEEP_AREA_H_

#include <algorithm>
#include <deque>
#include <memory>
#include <queue>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/macros.h"
#include "src/common/time.h"
#include "src/core/columnar.h"
#include "src/core/element.h"
#include "src/sweeparea/spill.h"
#include "src/sweeparea/sweep_area.h"

/// \file
/// Hash SweepArea with a lossless external-memory tier. The resident (hot)
/// portion is the familiar bucketed hash area; when the owner demands bytes
/// back, the *oldest* elements page out to disk as one sequential sorted
/// run (`spill.h`), never losing state. Probes match the resident portion
/// immediately; probes that could also match spilled state are *staged* as
/// pending probes and answered later in one streamed merge over the runs —
/// deferred, batched, and still exactly-once:
///
///   - Every run carries a monotone epoch `seq`. A pending probe staged at
///     epoch E matches only runs with `seq < E` — exactly the runs that
///     existed when the probe ran against the resident portion. Elements
///     that page out *after* the probe was staged land in runs with
///     `seq >= E`, which the probe skips: it already saw them while they
///     were resident. Elements that *arrive* after the probe find it via
///     their own symmetric probe (the ripple-join invariant: each pair is
///     matched by whichever side arrives second).
///   - The owner must drain pending probes (`ServicePendingProbes`) before
///     purging past the minimum pending start and before emitting output
///     beyond it; `FirstPendingStart()` is the fence.
///
/// RAM accounting (`ApproxBytes`) covers the hot portion plus staged
/// probes; disk accounting (`SpilledBytes`) is separate, so a memory
/// manager can arbitrate the two tiers independently (docs/memory.md).
namespace pipes::sweeparea {

template <typename Stored, typename Probe, typename KeyS, typename KeyP,
          typename Residual = TruePredicate>
class SpillableHashSweepArea {
 public:
  using Key = std::decay_t<std::invoke_result_t<KeyS, const Stored&>>;

  static constexpr bool kKeyedEquiProbe = true;
  /// Descriptor tag: this area can page state to disk losslessly, so
  /// shedding is never required for bounded memory (lint rule P020).
  static constexpr bool kSpillable = true;
  static constexpr const char* kAreaName = "spill-hash";

  SpillableHashSweepArea(KeyS key_stored, KeyP key_probe,
                         Residual residual = Residual(),
                         SpillOptions options = SpillOptions())
      : key_stored_(std::move(key_stored)),
        key_probe_(std::move(key_probe)),
        residual_(std::move(residual)),
        options_(std::move(options)) {}

  // --- Hot-path SweepArea interface ----------------------------------------

  void Insert(const StreamElement<Stored>& element) {
    hot_bytes_ += ApproxPayloadBytes(element.payload) + kPerElementOverheadBytes;
    Key key = key_stored_(element.payload);
    expiry_.push(Expiry{element.end(), key});
    buckets_[std::move(key)].push_back(element);
    ++hot_count_;
  }

  /// Probes the resident portion immediately; if any spilled run's time
  /// range overlaps the probe, also stages the probe for deferred service.
  template <typename Emit>
  void Query(const StreamElement<Probe>& probe, Emit&& emit) {
    QueryHot(probe.payload, probe.interval,
             [&](const StreamElement<Stored>& s) { emit(s); });
    MaybeStagePending(probe);
  }

  void InsertRun(const ColumnarRun<Stored>& run) {
    for (std::size_t i = 0; i < run.size(); ++i) Insert(run.ElementAt(i));
  }

  template <typename Emit>
  void QueryRun(const ColumnarRun<Probe>& run, Emit&& emit) {
    const std::size_t n = run.size();
    for (std::size_t i = 0; i < n; ++i) {
      const TimeInterval iv(run.starts[i], run.ends[i]);
      QueryHot(run.payloads[i], iv,
               [&](const StreamElement<Stored>& s) { emit(i, s); });
      if (AnyRunOverlaps(iv)) {
        StagePending(StreamElement<Probe>(run.payloads[i], iv));
      }
    }
  }

  /// Reorganization: purges expired resident elements one heap pop at a
  /// time, and deletes whole runs whose `max_end` the watermark passed —
  /// without reading them. Elements inside a surviving run whose validity
  /// already ended are expired lazily (interval checks keep them from
  /// matching; their bytes are reclaimed when the run dies).
  ///
  /// Contract: the owner must have serviced pending probes whose start is
  /// below `t` (they may need runs this call deletes).
  std::size_t PurgeBefore(Timestamp t) {
    std::size_t removed = PurgeHotBefore(t);
    for (auto it = runs_.begin(); it != runs_.end();) {
      if ((*it)->max_end() <= t) {
        PIPES_DCHECK(pending_.empty() || FirstPendingStart() >= t);
        spilled_bytes_ -= (*it)->bytes();
        spilled_count_ -= (*it)->size();
        removed += (*it)->size();
        it = runs_.erase(it);
      } else {
        ++it;
      }
    }
    return removed;
  }

  /// Load shedding (opt-in fallback): evicts one resident element from the
  /// largest bucket. Spilled state is never shed — rewriting a run to drop
  /// elements would cost more than it frees.
  bool EvictOne(StreamElement<Stored>* evicted = nullptr) {
    if (buckets_.empty()) return false;
    auto victim = buckets_.begin();
    for (auto it = buckets_.begin(); it != buckets_.end(); ++it) {
      if (it->second.size() > victim->second.size()) victim = it;
    }
    auto& bucket = victim->second;
    hot_bytes_ -= ApproxPayloadBytes(bucket.front().payload) +
                  kPerElementOverheadBytes;
    if (evicted != nullptr) *evicted = std::move(bucket.front());
    bucket.pop_front();
    --hot_count_;
    if (bucket.empty()) buckets_.erase(victim);
    return true;
  }

  /// All stored elements, resident and spilled.
  std::size_t size() const { return hot_count_ + spilled_count_; }

  /// RAM footprint only: resident elements plus staged pending probes.
  /// Disk bytes are reported separately via `SpilledBytes()`.
  std::size_t ApproxBytes() const { return hot_bytes_ + pending_bytes_; }

  // --- Spill tier ----------------------------------------------------------

  /// Pages the oldest `1 - keep_fraction` of the resident elements to disk
  /// as one sequential sorted run. Returns the RAM bytes freed (0 when
  /// there is nothing to spill).
  std::size_t SpillColdest() {
    if (hot_count_ == 0) return 0;
    // Flatten the hot portion in start order; arrival order is already
    // non-decreasing by start, but buckets interleave, so sort explicitly.
    std::vector<StreamElement<Stored>> all;
    all.reserve(hot_count_);
    for (auto& [key, bucket] : buckets_) {
      for (auto& e : bucket) all.push_back(std::move(e));
    }
    std::stable_sort(all.begin(), all.end(),
                     [](const StreamElement<Stored>& a,
                        const StreamElement<Stored>& b) {
                       return a.start() < b.start();
                     });
    const auto keep = static_cast<std::size_t>(
        static_cast<double>(all.size()) * options_.keep_fraction);
    const std::size_t spill_n = all.size() - std::min(keep, all.size() - 1);
    ColumnarRun<Stored> run;
    run.reserve(spill_n);
    for (std::size_t i = 0; i < spill_n; ++i) run.Append(std::move(all[i]));
    runs_.push_back(std::make_unique<SpilledRun<Stored>>(
        run, next_seq_++, options_.dir));
    spilled_bytes_ += runs_.back()->bytes();
    spilled_count_ += spill_n;
    // Rebuild the hot portion from the survivors.
    const std::size_t before = hot_bytes_;
    buckets_.clear();
    expiry_ = {};
    hot_count_ = 0;
    hot_bytes_ = 0;
    for (std::size_t i = spill_n; i < all.size(); ++i) Insert(all[i]);
    return before - hot_bytes_;
  }

  /// Answers every staged probe in one streamed k-way merge over the runs
  /// that existed when each probe was staged. `emit(probe, stored)` fires
  /// per match; order is arbitrary (the join's ordered staging buffer
  /// restores output order). Clears the pending set.
  template <typename Emit>
  void ServicePendingProbes(Emit&& emit) {
    if (pending_.empty()) return;
    if (!runs_.empty()) {
      Timestamp lo = kMaxTimestamp;
      Timestamp hi = kMinTimestamp;
      for (const Pending& p : pending_) {
        lo = std::min(lo, p.probe.start());
        hi = std::max(hi, p.probe.end());
      }
      std::unordered_map<Key, std::vector<const Pending*>> by_key;
      by_key.reserve(pending_.size());
      for (const Pending& p : pending_) {
        by_key[key_probe_(p.probe.payload)].push_back(&p);
      }
      std::vector<const SpilledRun<Stored>*> overlapping;
      for (const auto& run : runs_) {
        if (run->min_start() < hi && lo < run->max_end()) {
          overlapping.push_back(run.get());
        }
      }
      MergedRunCursor<Stored> merge(overlapping);
      while (auto item = merge.Next()) {
        auto it = by_key.find(key_stored_(item->element.payload));
        if (it == by_key.end()) continue;
        for (const Pending* p : it->second) {
          if (item->run_seq < p->epoch &&
              item->element.interval.Overlaps(p->probe.interval) &&
              residual_(item->element.payload, p->probe.payload)) {
            emit(p->probe, item->element);
          }
        }
      }
    }
    pending_.clear();
    pending_bytes_ = 0;
  }

  bool HasPendingProbes() const { return !pending_.empty(); }

  /// Fence for the owner: no output beyond this timestamp may be released
  /// and no purge past it may run until pending probes are serviced.
  /// `kMaxTimestamp` when no probes are staged.
  Timestamp FirstPendingStart() const {
    // Probes arrive in stream order (non-decreasing start), so the oldest
    // staged probe is the front.
    return pending_.empty() ? kMaxTimestamp : pending_.front().probe.start();
  }

  std::size_t HotBytes() const { return hot_bytes_; }
  std::size_t PendingBytes() const { return pending_bytes_; }
  std::size_t SpilledBytes() const { return spilled_bytes_; }
  std::size_t SpilledRunCount() const { return runs_.size(); }
  std::size_t hot_size() const { return hot_count_; }
  std::size_t spilled_size() const { return spilled_count_; }

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
  struct Pending {
    StreamElement<Probe> probe;
    /// Number of runs written when this probe was staged; the probe
    /// matches exactly the runs with `seq < epoch`.
    std::uint64_t epoch;
  };

  template <typename Emit>
  void QueryHot(const Probe& payload, const TimeInterval& iv,
                Emit&& emit) const {
    auto it = buckets_.find(key_probe_(payload));
    if (it == buckets_.end()) return;
    for (const StreamElement<Stored>& stored : it->second) {
      if (stored.interval.Overlaps(iv) && residual_(stored.payload, payload)) {
        emit(stored);
      }
    }
  }

  bool AnyRunOverlaps(const TimeInterval& iv) const {
    for (const auto& run : runs_) {
      if (run->min_start() < iv.end && iv.start < run->max_end()) return true;
    }
    return false;
  }

  void MaybeStagePending(const StreamElement<Probe>& probe) {
    if (AnyRunOverlaps(probe.interval)) StagePending(probe);
  }

  void StagePending(StreamElement<Probe> probe) {
    pending_bytes_ +=
        ApproxPayloadBytes(probe.payload) + kPerElementOverheadBytes;
    pending_.push_back(Pending{std::move(probe), next_seq_});
  }

  std::size_t PurgeHotBefore(Timestamp t) {
    std::size_t removed = 0;
    while (!expiry_.empty() && expiry_.top().end <= t) {
      const Key key = expiry_.top().key;
      expiry_.pop();
      auto bucket_it = buckets_.find(key);
      if (bucket_it == buckets_.end()) continue;  // spilled or shed
      auto& bucket = bucket_it->second;
      for (auto it = bucket.begin(); it != bucket.end(); ++it) {
        if (it->end() <= t) {
          hot_bytes_ -=
              ApproxPayloadBytes(it->payload) + kPerElementOverheadBytes;
          bucket.erase(it);
          ++removed;
          --hot_count_;
          break;
        }
      }
      if (bucket.empty()) buckets_.erase(bucket_it);
    }
    return removed;
  }

  KeyS key_stored_;
  KeyP key_probe_;
  Residual residual_;
  SpillOptions options_;

  // Hot (resident) portion — mirrors HashSweepArea.
  std::unordered_map<Key, std::deque<StreamElement<Stored>>> buckets_;
  std::priority_queue<Expiry, std::vector<Expiry>, LaterExpiry> expiry_;
  std::size_t hot_count_ = 0;
  std::size_t hot_bytes_ = 0;

  // Cold (spilled) tier.
  std::vector<std::unique_ptr<SpilledRun<Stored>>> runs_;
  std::uint64_t next_seq_ = 0;
  std::size_t spilled_bytes_ = 0;
  std::size_t spilled_count_ = 0;

  // Probes awaiting deferred service against the cold tier.
  std::deque<Pending> pending_;
  std::size_t pending_bytes_ = 0;
};

}  // namespace pipes::sweeparea

#endif  // PIPES_SWEEPAREA_SPILLABLE_HASH_SWEEP_AREA_H_
