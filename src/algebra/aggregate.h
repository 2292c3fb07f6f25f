#ifndef PIPES_ALGEBRA_AGGREGATE_H_
#define PIPES_ALGEBRA_AGGREGATE_H_

#include <algorithm>
#include <optional>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/algebra/aggregates.h"
#include "src/common/macros.h"
#include "src/core/ordered_buffer.h"
#include "src/core/pipe.h"

/// \file
/// Temporal aggregation with the sweep-line algorithm: the time axis is
/// partitioned into segments by the interval endpoints seen so far; each
/// segment carries a partial aggregate of every element whose validity
/// covers it. When the watermark passes a segment's end the segment is
/// final and one output element (aggregate value, segment interval) is
/// emitted — the snapshot of the output at any t is exactly the aggregate
/// of the input snapshot at t. The operator is non-blocking: it emits as
/// progress permits instead of waiting for end-of-stream.

namespace pipes::algebra {

/// The sweep-line core, shared by the scalar and grouped operators (and by
/// anything else that needs interval-partitioned accumulation). It holds
/// only segments; the policy is passed to every call, so a grouped operator
/// keeps one policy for all its groups.
template <typename Agg>
class SweepLineAggregator {
 public:
  using Value = typename Agg::Value;
  using Output = typename Agg::Output;

  /// Accumulates `v` over [start, end).
  void Add(const Agg& agg, Timestamp start, Timestamp end, const Value& v) {
    PIPES_DCHECK(start < end);
    const std::size_t first = EnsureBoundary(start);
    const std::size_t last = EnsureBoundary(end);
    for (std::size_t i = first; i < last; ++i) {
      std::optional<typename Agg::State>& state = segments_[i].state;
      if (!state.has_value()) state = agg.Init();
      agg.Add(*state, v);
    }
  }

  /// Emits every finalized segment with end <= watermark, in start order,
  /// via `emit(Output, TimeInterval)`, then drops them in one erase. Gap
  /// segments produce nothing.
  template <typename EmitFn>
  void EmitUpTo(const Agg& agg, Timestamp watermark, EmitFn&& emit) {
    std::size_t done = 0;
    while (done + 1 < segments_.size() &&
           segments_[done + 1].start <= watermark) {
      const Segment& s = segments_[done];
      if (s.state.has_value()) {
        emit(agg.Result(*s.state),
             TimeInterval(s.start, segments_[done + 1].start));
      }
      ++done;
    }
    segments_.erase(segments_.begin(),
                    segments_.begin() + static_cast<std::ptrdiff_t>(done));
    // A trailing gap boundary carries no information once it is the only
    // entry left.
    if (segments_.size() == 1 && !segments_.front().state.has_value()) {
      segments_.clear();
    }
  }

  bool empty() const { return segments_.empty(); }
  std::size_t num_segments() const { return segments_.size(); }

  /// Smallest segment start still held (kMaxTimestamp when empty); callers
  /// use it to cap heartbeats.
  Timestamp FirstPendingStart() const {
    return segments_.empty() ? kMaxTimestamp : segments_.front().start;
  }

  /// End of the first segment: the smallest watermark at which `EmitUpTo`
  /// finalizes anything (kMaxTimestamp when empty). After `Add` and
  /// `EmitUpTo` the aggregator holds either nothing or at least two
  /// boundaries, so the first segment always has an end.
  Timestamp FirstSegmentEnd() const {
    return segments_.size() < 2 ? kMaxTimestamp : segments_[1].start;
  }

 private:
  /// A segment extends from `start` to the next segment's start; the last
  /// one is always a gap created by some element's end.
  struct Segment {
    Timestamp start;
    std::optional<typename Agg::State> state;  // nullopt = gap: no element
                                               // covers the segment
  };

  /// Splits the segment covering `t` so that a boundary exists exactly at
  /// `t`, and returns its index. The new segment inherits the covering
  /// segment's partial state; before every known boundary it is a gap.
  std::size_t EnsureBoundary(Timestamp t) {
    const auto it = std::lower_bound(
        segments_.begin(), segments_.end(), t,
        [](const Segment& s, Timestamp x) { return s.start < x; });
    const auto pos = static_cast<std::size_t>(it - segments_.begin());
    if (it != segments_.end() && it->start == t) return pos;
    std::optional<typename Agg::State> inherited;
    if (pos > 0) inherited = segments_[pos - 1].state;
    segments_.insert(it, Segment{t, std::move(inherited)});
    return pos;
  }

  // Sorted by start. An insert shifts the segments after it: an element's
  // start lands before the segments its Add loop walks anyway, and for
  // in-order input its end lands at or near the tail.
  std::vector<Segment> segments_;
};

/// Scalar (ungrouped) temporal aggregate. `ValueFn` extracts the aggregated
/// value from the payload.
template <typename In, typename Agg, typename ValueFn>
class TemporalAggregate : public UnaryPipe<In, typename Agg::Output> {
 public:
  using Output = typename Agg::Output;

  TemporalAggregate(ValueFn value_fn, std::string name = "aggregate",
                    Agg agg = Agg())
      : UnaryPipe<In, Output>(std::move(name)),
        value_fn_(std::move(value_fn)),
        agg_(std::move(agg)) {}

  std::size_t state_segments() const { return core_.num_segments(); }

  std::size_t ApproxMemoryBytes() const override {
    return core_.num_segments() * (sizeof(typename Agg::State) + 48);
  }

  NodeDescriptor Describe() const override {
    NodeDescriptor d = UnaryPipe<In, Output>::Describe();
    d.op = "aggregate";
    d.blocking = true;
    // Each input element opens at most two sweep-line boundaries, each a
    // potential output segment; one trailing gap boundary may linger.
    d.dataflow.output_factor = 2.0;
    d.dataflow.state_bytes_per_element =
        2 * (sizeof(typename Agg::State) + 48);
    d.dataflow.state_bytes_fixed = sizeof(typename Agg::State) + 48;
    return d;
  }

 protected:
  /// Columnar kernel: feeds the sweep-line straight from the columns — the
  /// value function walks the payload column while the interval columns are
  /// read positionally, with no `StreamElement` rematerialization.
  void PortRun(int /*port_id*/, const ColumnarRun<In>& run) override {
    const std::size_t n = run.size();
    for (std::size_t i = 0; i < n; ++i) {
      core_.Add(agg_, run.starts[i], run.ends[i], value_fn_(run.payloads[i]));
    }
  }

  void PortProgress(int /*port_id*/, Timestamp watermark) override {
    EmitRun(watermark);
    this->TransferHeartbeat(std::min(watermark, core_.FirstPendingStart()));
  }

  void PortDone(int /*port_id*/) override {
    EmitRun(kMaxTimestamp);
    this->TransferDone();
  }

 private:
  /// Finalized segments leave as one columnar run per progress notification
  /// (`EmitUpTo` releases in start order, so the run invariant holds).
  void EmitRun(Timestamp watermark) {
    out_run_.clear();
    core_.EmitUpTo(agg_, watermark, [this](Output out, TimeInterval iv) {
      out_run_.Append(std::move(out), iv.start, iv.end);
    });
    this->TransferRun(std::move(out_run_));
  }

  ValueFn value_fn_;
  Agg agg_;
  SweepLineAggregator<Agg> core_;
  ColumnarRun<Output> out_run_;
};

/// `GroupedAggregate`'s default `Combine`: the (key, aggregate) pair.
struct KeyAggregatePair {
  template <typename Key, typename Value>
  std::pair<Key, Value> operator()(const Key& key, Value value) const {
    return {key, std::move(value)};
  }
};

/// Grouped temporal aggregate (the algebra behind CQL GROUP BY): one
/// sweep-line per group key; each finalized segment becomes one row
/// `combine(key, aggregate)`. Segments of different groups interleave, so
/// results are re-ordered through a staging buffer before transfer.
///
/// Groups live in a dense table found through a hash index. Beside it sits
/// a clock column — per group, the end of its first segment and its first
/// pending start — so a watermark advance scans that column and touches
/// only the groups with a segment due. Emptied groups leave by
/// swap-and-pop.
template <typename In, typename Agg, typename KeyFn, typename ValueFn,
          typename Combine = KeyAggregatePair>
class GroupedAggregate
    : public UnaryPipe<
          In, std::decay_t<std::invoke_result_t<
                  const Combine&,
                  const std::decay_t<std::invoke_result_t<KeyFn, const In&>>&,
                  typename Agg::Output>>> {
 public:
  using Key = std::decay_t<std::invoke_result_t<KeyFn, const In&>>;
  using Output = std::decay_t<std::invoke_result_t<
      const Combine&, const Key&, typename Agg::Output>>;

  GroupedAggregate(KeyFn key_fn, ValueFn value_fn,
                   std::string name = "group-aggregate", Agg agg = Agg(),
                   Combine combine = Combine())
      : UnaryPipe<In, Output>(std::move(name)),
        key_fn_(std::move(key_fn)),
        value_fn_(std::move(value_fn)),
        agg_(std::move(agg)),
        combine_(std::move(combine)) {}

  std::size_t num_groups() const { return groups_.size(); }

  std::size_t ApproxMemoryBytes() const override {
    std::size_t segments = 0;
    for (const Group& group : groups_) segments += group.core.num_segments();
    return groups_.size() * (sizeof(Key) + 64) +
           segments * (sizeof(typename Agg::State) + 48);
  }

  NodeDescriptor Describe() const override {
    NodeDescriptor d = UnaryPipe<In, Output>::Describe();
    d.op = "group-aggregate";
    d.blocking = true;
    d.key_partitionable = true;
    // Per input element: at most one new group entry plus two sweep-line
    // boundaries in that group's aggregator (see ApproxMemoryBytes).
    d.dataflow.output_factor = 2.0;
    d.dataflow.state_bytes_per_element =
        (sizeof(Key) + 64) + 2 * (sizeof(typename Agg::State) + 48);
    return d;
  }

 protected:
  /// Columnar kernel: group lookup and sweep-line accumulation straight
  /// from the columns.
  void PortRun(int /*port_id*/, const ColumnarRun<In>& run) override {
    const std::size_t n = run.size();
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t g = GroupOf(key_fn_(run.payloads[i]));
      groups_[g].core.Add(agg_, run.starts[i], run.ends[i],
                          value_fn_(run.payloads[i]));
      // Adding only splits segments, so both clocks can only move down.
      const Clock clock = ReadClock(g);
      clocks_[g] = clock;
      next_due_ = std::min(next_due_, clock.due);
      min_pending_ = std::min(min_pending_, clock.pending);
    }
  }

  void PortProgress(int /*port_id*/, Timestamp watermark) override {
    this->TransferHeartbeat(Release(watermark));
  }

  void PortDone(int /*port_id*/) override {
    Release(kMaxTimestamp);
    out_run_.clear();
    staged_.FlushAll(
        [this](StreamElement<Output>&& e) { out_run_.Append(std::move(e)); });
    this->TransferRun(std::move(out_run_));
    this->TransferDone();
  }

 private:
  using Index = std::unordered_map<Key, std::size_t>;

  struct Group {
    // This group's index entry: its key, and its slot in `groups_`.
    // `std::unordered_map` never moves a node, so the pointer stays valid
    // until the entry is erased.
    typename Index::value_type* entry;
    SweepLineAggregator<Agg> core;
  };

  struct Clock {
    Timestamp due;      // FirstSegmentEnd: a watermark here emits something
    Timestamp pending;  // FirstPendingStart: caps the release bound
  };

  Clock ReadClock(std::size_t g) const {
    const SweepLineAggregator<Agg>& core = groups_[g].core;
    return Clock{core.FirstSegmentEnd(), core.FirstPendingStart()};
  }

  /// Slot of `key`'s group, opening an empty one on first sight.
  std::size_t GroupOf(Key key) {
    auto [it, inserted] = index_.try_emplace(std::move(key), groups_.size());
    if (inserted) {
      groups_.push_back(Group{&*it, SweepLineAggregator<Agg>()});
      clocks_.push_back(Clock{kMaxTimestamp, kMaxTimestamp});
    }
    return it->second;
  }

  /// Swap-and-pop: the last group takes slot `g`.
  void RemoveGroup(std::size_t g) {
    index_.erase(index_.find(groups_[g].entry->first));
    if (g + 1 != groups_.size()) {
      groups_[g] = std::move(groups_.back());
      clocks_[g] = clocks_.back();
      groups_[g].entry->second = g;
    }
    groups_.pop_back();
    clocks_.pop_back();
  }

  /// Finalizes segments up to `watermark` and releases staged results as
  /// far as global ordering allows: a result may only leave once no group
  /// still holds a pending segment with an earlier start. Returns the safe
  /// progress bound.
  Timestamp Release(Timestamp watermark) {
    if (watermark >= next_due_) {
      // One pass over the clock column: emit from the due groups and
      // recompute both minima.
      next_due_ = kMaxTimestamp;
      min_pending_ = kMaxTimestamp;
      for (std::size_t g = 0; g < groups_.size();) {
        if (clocks_[g].due <= watermark) {
          const Key& key = groups_[g].entry->first;
          groups_[g].core.EmitUpTo(
              agg_, watermark, [&](typename Agg::Output out, TimeInterval iv) {
                staged_.Push(
                    StreamElement<Output>(combine_(key, std::move(out)), iv));
              });
          if (groups_[g].core.empty()) {
            RemoveGroup(g);  // slot g now holds an unvisited group
            continue;
          }
          clocks_[g] = ReadClock(g);
        }
        next_due_ = std::min(next_due_, clocks_[g].due);
        min_pending_ = std::min(min_pending_, clocks_[g].pending);
        ++g;
      }
    }
    const Timestamp bound = std::min(watermark, min_pending_);
    out_run_.clear();
    staged_.FlushUpTo(bound, [this](StreamElement<Output>&& e) {
      out_run_.Append(std::move(e));
    });
    this->TransferRun(std::move(out_run_));
    return bound;
  }

  KeyFn key_fn_;
  ValueFn value_fn_;
  Agg agg_;
  Combine combine_;
  Index index_;
  std::vector<Group> groups_;
  std::vector<Clock> clocks_;  // parallel to groups_
  // Minima of the clock column's two fields: a watermark below next_due_
  // finalizes nothing, so Release skips the scan.
  Timestamp next_due_ = kMaxTimestamp;
  Timestamp min_pending_ = kMaxTimestamp;
  OrderedOutputBuffer<Output> staged_;
  ColumnarRun<Output> out_run_;
};

}  // namespace pipes::algebra

#endif  // PIPES_ALGEBRA_AGGREGATE_H_
