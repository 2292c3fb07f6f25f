#ifndef PIPES_ALGEBRA_JOIN_H_
#define PIPES_ALGEBRA_JOIN_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>

#include "src/core/ordered_buffer.h"
#include "src/core/pipe.h"
#include "src/memory/memory_user.h"
#include "src/sweeparea/hash_sweep_area.h"
#include "src/sweeparea/list_sweep_area.h"
#include "src/sweeparea/spillable_hash_sweep_area.h"
#include "src/sweeparea/sweep_area.h"
#include "src/sweeparea/tree_sweep_area.h"

/// \file
/// The temporal binary join: a generalized symmetric ripple join over two
/// SweepAreas. Each arriving element probes the opposite SweepArea (every
/// match yields a result valid on the intersection of the two intervals),
/// is inserted into its own area, and areas are reorganized (purged) using
/// the opposite input's watermark. Results are released in start order via
/// an ordered staging buffer.
///
/// Snapshot semantics: payloads p_l, p_r joined at time t iff both are in
/// their stream's snapshot at t and the predicate holds — hence the output
/// element combine(p_l, p_r) with interval l ∩ r.
///
/// The join is a `memory::MemoryUser`. Under a memory limit it walks the
/// RAM → disk → shed ladder (docs/memory.md): with spillable SweepAreas
/// (`kSpillable` below) cold state pages to disk losslessly and shedding is
/// a deliberate opt-in; with resident-only areas it sheds from the larger
/// SweepArea (approximate answers), counting what it drops.

namespace pipes::algebra {

/// What to do when the memory limit is exceeded and spilling is either
/// unavailable or exhausted.
enum class ShedPolicy {
  /// Evict elements from the larger SweepArea until within the limit.
  kEvictFromLargerArea,
  /// Never drop state. For resident-only areas this means measurement-only
  /// mode (the limit is ignored); for spillable areas it is the default —
  /// pressure resolves by paging to disk, and if the disk budget is also
  /// exhausted the RAM bound goes soft rather than lossy.
  kNone,
};

/// Detects SweepAreas with a lossless disk tier (declare
/// `static constexpr bool kSpillable = true`, e.g.
/// `sweeparea::SpillableHashSweepArea`).
template <typename SA, typename = void>
struct IsSpillableArea : std::false_type {};
template <typename SA>
struct IsSpillableArea<SA, std::void_t<decltype(SA::kSpillable)>>
    : std::bool_constant<SA::kSpillable> {};

/// Symmetric temporal join. `Combine(l_payload, r_payload)` produces the
/// output payload; `LeftSA` stores L probed by R, `RightSA` stores R probed
/// by L.
template <typename L, typename R, typename Out, typename LeftSA,
          typename RightSA, typename Combine>
class TemporalJoin : public BinaryPipe<L, R, Out>, public memory::MemoryUser {
 public:
  /// True when both SweepAreas can page state to disk: memory pressure then
  /// resolves by lossless spill and shedding becomes opt-in.
  static constexpr bool kSpillable =
      IsSpillableArea<LeftSA>::value && IsSpillableArea<RightSA>::value;

  TemporalJoin(LeftSA left_sa, RightSA right_sa, Combine combine,
               std::string name = "join")
      : BinaryPipe<L, R, Out>(std::move(name)),
        left_sa_(std::move(left_sa)),
        right_sa_(std::move(right_sa)),
        combine_(std::move(combine)) {
    if constexpr (kSpillable) {
      // Shedding is demoted to an explicit opt-in when a lossless tier
      // exists (set_shed_policy re-enables it; lint P020 flags that).
      shed_policy_ = ShedPolicy::kNone;
    }
  }

  // --- memory::MemoryUser ---------------------------------------------------

  std::size_t MemoryUsage() const override {
    return left_sa_.ApproxBytes() + right_sa_.ApproxBytes();
  }

  void SetMemoryLimit(std::size_t bytes) override {
    memory_limit_ = bytes;
    EnforceBudget();
  }

  bool SpillCapable() const override { return kSpillable; }

  std::size_t DiskUsage() const override {
    if constexpr (kSpillable) {
      return left_sa_.SpilledBytes() + right_sa_.SpilledBytes();
    } else {
      return 0;
    }
  }

  void SetDiskBudget(std::size_t bytes) override { disk_budget_ = bytes; }

  std::size_t disk_budget() const { return disk_budget_; }

  std::size_t memory_limit() const { return memory_limit_; }

  void set_shed_policy(ShedPolicy policy) { shed_policy_ = policy; }

  /// Elements dropped by load shedding so far (accuracy loss indicator).
  std::uint64_t shed_count() const { return shed_count_; }

  std::uint64_t ShedCount() const override { return shed_count_; }

  std::size_t left_state_size() const { return left_sa_.size(); }
  std::size_t right_state_size() const { return right_sa_.size(); }

  /// Metadata-monitor hook: join state = both SweepAreas (RAM only).
  std::size_t ApproxMemoryBytes() const override { return MemoryUsage(); }

  std::uint64_t SpilledBytes() const override { return DiskUsage(); }

  std::uint64_t SpilledPartitions() const override {
    if constexpr (kSpillable) {
      return left_sa_.SpilledRunCount() + right_sa_.SpilledRunCount();
    } else {
      return 0;
    }
  }

  NodeDescriptor Describe() const override {
    NodeDescriptor d = BinaryPipe<L, R, Out>::Describe();
    d.op = std::string(LeftSA::kAreaName) + "-join";
    d.blocking = true;
    // Replicating by key is only sound when both probe directions are keyed
    // equi-probes — must mirror the `algebra::KeyPartitionable` trait
    // specialization (checked in tests/analysis_test.cc).
    d.key_partitionable = LeftSA::kKeyedEquiProbe && RightSA::kKeyedEquiProbe;
    d.spill_capable = kSpillable;
    d.shedding_enabled = shed_policy_ != ShedPolicy::kNone;
    d.dataflow.output_per_pair = true;
    d.dataflow.intersects_validity = true;
    // Each input element is inserted into its own SweepArea once and (on
    // the spill path) may additionally be staged as a deferred probe.
    d.dataflow.state_bytes_per_element =
        2 * (std::max(sizeof(L), sizeof(R)) +
             sweeparea::kPerElementOverheadBytes);
    return d;
  }

 protected:
  /// Columnar kernels: probe the whole run against the opposite SweepArea,
  /// then bulk-insert it and flush once. Probing everything before inserting
  /// is equivalent to the per-row interleave — a run's elements go into
  /// their *own* side's area, which its probes never touch. Under an active
  /// memory limit the kernels fall back to probing row by row so shedding
  /// decisions (which depend on the interleave) match runs of 1.
  void OnRunLeft(const ColumnarRun<L>& run) override {
    if (ShedActive()) {
      for (std::size_t i = 0; i < run.size(); ++i) {
        ProbeLeft(run.ElementAt(i));
      }
      return;
    }
    right_sa_.QueryRun(run, [&](std::size_t i, const StreamElement<R>& r) {
      staged_.Push(StreamElement<Out>(
          combine_(run.payloads[i], r.payload),
          TimeInterval(run.starts[i], run.ends[i]).Intersect(r.interval)));
    });
    left_sa_.InsertRun(run);
    // Spill rides the columnar path: one budget check per run (bounded
    // overshoot of one run) keeps the kernel zero-copy.
    if constexpr (kSpillable) EnforceBudget();
    Flush();
  }

  void OnRunRight(const ColumnarRun<R>& run) override {
    if (ShedActive()) {
      for (std::size_t i = 0; i < run.size(); ++i) {
        ProbeRight(run.ElementAt(i));
      }
      return;
    }
    left_sa_.QueryRun(run, [&](std::size_t i, const StreamElement<L>& l) {
      staged_.Push(StreamElement<Out>(
          combine_(l.payload, run.payloads[i]),
          l.interval.Intersect(TimeInterval(run.starts[i], run.ends[i]))));
    });
    right_sa_.InsertRun(run);
    if constexpr (kSpillable) EnforceBudget();
    Flush();
  }

  void OnProgressSide(int /*side*/, Timestamp /*watermark*/) override {
    // Reorganization: a stored left element can never again match once its
    // validity ended before every future right element's start (and vice
    // versa). Pending probes must be answered first — purge may delete
    // runs they still need.
    if constexpr (kSpillable) {
      if ((left_sa_.HasPendingProbes() &&
           left_sa_.FirstPendingStart() < this->right().watermark()) ||
          (right_sa_.HasPendingProbes() &&
           right_sa_.FirstPendingStart() < this->left().watermark())) {
        ServicePending();
      }
    }
    left_sa_.PurgeBefore(this->right().watermark());
    right_sa_.PurgeBefore(this->left().watermark());
    Flush();
  }

  void OnDoneSide(int /*side*/) override {
    if (this->BothDone()) {
      if constexpr (kSpillable) ServicePending();
      out_run_.clear();
      staged_.FlushAll([this](StreamElement<Out>&& e) {
        out_run_.Append(std::move(e));
      });
      this->TransferRun(std::move(out_run_));
      this->TransferDone();
    } else {
      OnProgressSide(0, this->CombinedWatermark());
    }
  }

 private:
  /// The shed fallback's per-row step: probe, insert, shed, flush.
  void ProbeLeft(const StreamElement<L>& e) {
    right_sa_.Query(e, [&](const StreamElement<R>& r) {
      staged_.Push(StreamElement<Out>(combine_(e.payload, r.payload),
                                      e.interval.Intersect(r.interval)));
    });
    left_sa_.Insert(e);
    EnforceBudget();
    Flush();
  }

  void ProbeRight(const StreamElement<R>& e) {
    left_sa_.Query(e, [&](const StreamElement<L>& l) {
      staged_.Push(StreamElement<Out>(combine_(l.payload, e.payload),
                                      l.interval.Intersect(e.interval)));
    });
    right_sa_.Insert(e);
    EnforceBudget();
    Flush();
  }

  /// True when the memory limit can actually trigger eviction.
  bool ShedActive() const {
    return shed_policy_ != ShedPolicy::kNone &&
           memory_limit_ != std::numeric_limits<std::size_t>::max();
  }

  void Flush() {
    const Timestamp combined = this->CombinedWatermark();
    if constexpr (kSpillable) {
      // Output fence: results a pending probe will still produce have
      // start >= its staging start, so nothing may be released past the
      // minimum pending start until those probes are answered.
      if (combined > FirstPendingStart()) ServicePending();
    }
    out_run_.clear();
    staged_.FlushUpTo(combined, [this](StreamElement<Out>&& e) {
      out_run_.Append(std::move(e));
    });
    this->TransferRun(std::move(out_run_));
    if (combined < kMaxTimestamp) {
      this->TransferHeartbeat(combined);
    }
  }

  /// Resolves memory pressure down the tier ladder: spill (lossless) when
  /// the areas support it and disk remains, then shed if opted in, else
  /// let the RAM bound go soft (never drop state silently).
  void EnforceBudget() {
    if constexpr (kSpillable) {
      if (memory_limit_ == std::numeric_limits<std::size_t>::max()) return;
      // Staged probes count against RAM; answer them once they occupy a
      // meaningful slice of the budget.
      if ((left_sa_.PendingBytes() + right_sa_.PendingBytes()) * 4 >
          memory_limit_) {
        ServicePending();
      }
      while (MemoryUsage() > memory_limit_) {
        std::size_t freed = 0;
        if (DiskUsage() < disk_budget_) {
          const bool left_bigger = left_sa_.HotBytes() >= right_sa_.HotBytes();
          freed = left_bigger ? left_sa_.SpillColdest()
                              : right_sa_.SpillColdest();
          if (freed == 0) {
            freed = left_bigger ? right_sa_.SpillColdest()
                                : left_sa_.SpillColdest();
          }
        }
        if (freed > 0) continue;
        // Disk exhausted (or nothing resident to page): shed only if the
        // user opted in; otherwise the bound goes soft — lossless overrun.
        if (shed_policy_ == ShedPolicy::kNone || !ShedOne()) break;
      }
    } else {
      if (shed_policy_ == ShedPolicy::kNone) return;
      while (MemoryUsage() > memory_limit_) {
        if (!ShedOne()) break;  // both areas empty: nothing sheddable
      }
    }
  }

  bool ShedOne() {
    const bool left_bigger = left_sa_.ApproxBytes() >= right_sa_.ApproxBytes();
    const bool evicted =
        left_bigger ? left_sa_.EvictOne() : right_sa_.EvictOne();
    if (evicted) ++shed_count_;
    return evicted;
  }

  /// Oldest staged probe across both areas; `kMaxTimestamp` when none.
  Timestamp FirstPendingStart() const {
    if constexpr (kSpillable) {
      return std::min(left_sa_.FirstPendingStart(),
                      right_sa_.FirstPendingStart());
    } else {
      return kMaxTimestamp;
    }
  }

  /// Answers every staged probe against the spilled runs (streamed k-way
  /// merge inside the areas) and stages the matches; the ordered buffer
  /// restores emission order.
  void ServicePending() {
    if constexpr (kSpillable) {
      left_sa_.ServicePendingProbes(
          [&](const StreamElement<R>& probe, const StreamElement<L>& stored) {
            staged_.Push(StreamElement<Out>(
                combine_(stored.payload, probe.payload),
                stored.interval.Intersect(probe.interval)));
          });
      right_sa_.ServicePendingProbes(
          [&](const StreamElement<L>& probe, const StreamElement<R>& stored) {
            staged_.Push(StreamElement<Out>(
                combine_(probe.payload, stored.payload),
                probe.interval.Intersect(stored.interval)));
          });
    }
  }

  LeftSA left_sa_;
  RightSA right_sa_;
  Combine combine_;
  OrderedOutputBuffer<Out> staged_;
  ColumnarRun<Out> out_run_;
  std::size_t memory_limit_ = std::numeric_limits<std::size_t>::max();
  std::size_t disk_budget_ = std::numeric_limits<std::size_t>::max();
  ShedPolicy shed_policy_ = ShedPolicy::kEvictFromLargerArea;
  std::uint64_t shed_count_ = 0;
};

// --- Convenience factories --------------------------------------------------
// The SweepArea types are inferred from the parameter functions; use
// `QueryGraph::Add(MakeHashJoin(...))` to put the result in a graph.

/// Equi-join on `key_l(l) == key_r(r)` with hash SweepAreas on both sides.
template <typename L, typename R, typename KeyL, typename KeyR,
          typename Combine>
auto MakeHashJoin(KeyL key_l, KeyR key_r, Combine combine,
                  std::string name = "hash-join") {
  using Out = std::decay_t<std::invoke_result_t<Combine, const L&, const R&>>;
  using LeftSA = sweeparea::HashSweepArea<L, R, KeyL, KeyR>;
  using RightSA = sweeparea::HashSweepArea<R, L, KeyR, KeyL>;
  return std::make_unique<
      TemporalJoin<L, R, Out, LeftSA, RightSA, Combine>>(
      LeftSA(key_l, key_r), RightSA(key_r, key_l), std::move(combine),
      std::move(name));
}

/// Lossless equi-join under bounded RAM: hash SweepAreas that page cold
/// state to disk as sorted runs instead of shedding (docs/memory.md).
/// Shedding stays available but only as an explicit opt-in via
/// `set_shed_policy` — lint rule P020 flags that combination.
template <typename L, typename R, typename KeyL, typename KeyR,
          typename Combine>
auto MakeSpillableHashJoin(KeyL key_l, KeyR key_r, Combine combine,
                           std::string name = "spill-hash-join",
                           sweeparea::SpillOptions options = {}) {
  using Out = std::decay_t<std::invoke_result_t<Combine, const L&, const R&>>;
  using LeftSA = sweeparea::SpillableHashSweepArea<L, R, KeyL, KeyR>;
  using RightSA = sweeparea::SpillableHashSweepArea<R, L, KeyR, KeyL>;
  return std::make_unique<TemporalJoin<L, R, Out, LeftSA, RightSA, Combine>>(
      LeftSA(key_l, key_r, {}, options), RightSA(key_r, key_l, {}, options),
      std::move(combine), std::move(name));
}

/// Theta join on an arbitrary predicate with list SweepAreas.
template <typename L, typename R, typename Pred, typename Combine>
auto MakeNestedLoopsJoin(Pred pred, Combine combine,
                         std::string name = "nl-join") {
  using Out = std::decay_t<std::invoke_result_t<Combine, const L&, const R&>>;
  // The stored/probe argument order differs per side: normalize to (l, r).
  auto pred_lr = [pred](const L& l, const R& r) { return pred(l, r); };
  auto pred_rl = [pred](const R& r, const L& l) { return pred(l, r); };
  using LeftSA = sweeparea::ListSweepArea<L, R, decltype(pred_lr)>;
  using RightSA = sweeparea::ListSweepArea<R, L, decltype(pred_rl)>;
  return std::make_unique<
      TemporalJoin<L, R, Out, LeftSA, RightSA, Combine>>(
      LeftSA(pred_lr), RightSA(pred_rl), std::move(combine), std::move(name));
}

/// Band join: |key_l(l) - key_r(r)| <= band, with tree SweepAreas.
template <typename L, typename R, typename KeyL, typename KeyR,
          typename Combine>
auto MakeBandJoin(KeyL key_l, KeyR key_r,
                  std::invoke_result_t<KeyL, const L&> band, Combine combine,
                  std::string name = "band-join") {
  using Key = std::decay_t<std::invoke_result_t<KeyL, const L&>>;
  using Out = std::decay_t<std::invoke_result_t<Combine, const L&, const R&>>;
  auto range_from_r = [key_r, band](const R& r) {
    const Key k = key_r(r);
    return std::pair<Key, Key>(k - band, k + band);
  };
  auto range_from_l = [key_l, band](const L& l) {
    const Key k = key_l(l);
    return std::pair<Key, Key>(k - band, k + band);
  };
  using LeftSA = sweeparea::TreeSweepArea<L, R, KeyL, decltype(range_from_r)>;
  using RightSA = sweeparea::TreeSweepArea<R, L, KeyR, decltype(range_from_l)>;
  return std::make_unique<
      TemporalJoin<L, R, Out, LeftSA, RightSA, Combine>>(
      LeftSA(key_l, range_from_r), RightSA(key_r, range_from_l),
      std::move(combine), std::move(name));
}

/// Cartesian product (all interval-overlapping pairs).
template <typename L, typename R, typename Combine>
auto MakeCrossProduct(Combine combine, std::string name = "cross") {
  auto always = [](const L&, const R&) { return true; };
  return MakeNestedLoopsJoin<L, R>(always, std::move(combine),
                                   std::move(name));
}

}  // namespace pipes::algebra

#endif  // PIPES_ALGEBRA_JOIN_H_
