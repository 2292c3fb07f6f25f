#ifndef PIPES_ALGEBRA_AGGREGATE_H_
#define PIPES_ALGEBRA_AGGREGATE_H_

#include <map>
#include <optional>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>

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
/// anything else that needs interval-partitioned accumulation).
template <typename Agg>
class SweepLineAggregator {
 public:
  using Value = typename Agg::Value;
  using Output = typename Agg::Output;

  /// Policies may carry runtime parameters (e.g. the dynamic tuple
  /// aggregates of the CQL layer); stateless policies default-construct.
  explicit SweepLineAggregator(Agg agg = Agg()) : agg_(std::move(agg)) {}

  /// Accumulates `v` over [start, end).
  void Add(Timestamp start, Timestamp end, const Value& v) {
    PIPES_DCHECK(start < end);
    EnsureBoundary(start);
    EnsureBoundary(end);
    for (auto it = boundaries_.lower_bound(start);
         it != boundaries_.end() && it->first < end; ++it) {
      if (!it->second.has_value()) {
        it->second = agg_.Init();
      }
      agg_.Add(*it->second, v);
    }
  }

  /// Emits every finalized segment with end <= watermark, in start order,
  /// via `emit(Output, TimeInterval)`. Gap segments produce nothing.
  template <typename EmitFn>
  void EmitUpTo(Timestamp watermark, EmitFn&& emit) {
    while (boundaries_.size() >= 2) {
      auto first = boundaries_.begin();
      auto second = std::next(first);
      if (second->first > watermark) break;
      if (first->second.has_value()) {
        emit(agg_.Result(*first->second),
             TimeInterval(first->first, second->first));
      }
      boundaries_.erase(first);
    }
    // A trailing gap boundary carries no information once it is the only
    // entry left.
    if (boundaries_.size() == 1 &&
        !boundaries_.begin()->second.has_value()) {
      boundaries_.clear();
    }
  }

  bool empty() const { return boundaries_.empty(); }
  std::size_t num_segments() const { return boundaries_.size(); }

  /// Smallest segment start still held (kMaxTimestamp when empty); callers
  /// use it to cap heartbeats.
  Timestamp FirstPendingStart() const {
    return boundaries_.empty() ? kMaxTimestamp : boundaries_.begin()->first;
  }

 private:
  /// Splits the segment covering `t` so that a boundary exists exactly at
  /// `t`. The new segment inherits the covering segment's partial state.
  void EnsureBoundary(Timestamp t) {
    auto it = boundaries_.lower_bound(t);
    if (it != boundaries_.end() && it->first == t) return;
    if (it == boundaries_.begin()) {
      // t lies before every known boundary: opens a new (gap) segment.
      boundaries_.emplace(t, std::nullopt);
      return;
    }
    auto prev = std::prev(it);
    boundaries_.emplace_hint(it, t, prev->second);
  }

  Agg agg_;
  // Key = segment start; value = partial aggregate (nullopt = gap, i.e. no
  // element covers the segment). A segment extends to the next key; the
  // last boundary is always a gap created by some element's end.
  std::map<Timestamp, std::optional<typename Agg::State>> boundaries_;
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
        core_(std::move(agg)) {}

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
      core_.Add(run.starts[i], run.ends[i], value_fn_(run.payloads[i]));
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
    core_.EmitUpTo(watermark, [this](Output out, TimeInterval iv) {
      out_run_.Append(std::move(out), iv.start, iv.end);
    });
    this->TransferRun(std::move(out_run_));
  }

  ValueFn value_fn_;
  SweepLineAggregator<Agg> core_;
  ColumnarRun<Output> out_run_;
};

/// Grouped temporal aggregate (the algebra behind CQL GROUP BY): one
/// sweep-line per group key; outputs (key, aggregate) pairs. Segments of
/// different groups interleave, so finalized results are re-ordered through
/// a staging buffer before transfer.
template <typename In, typename Agg, typename KeyFn, typename ValueFn>
class GroupedAggregate
    : public UnaryPipe<
          In, std::pair<std::decay_t<std::invoke_result_t<KeyFn, const In&>>,
                        typename Agg::Output>> {
 public:
  using Key = std::decay_t<std::invoke_result_t<KeyFn, const In&>>;
  using Output = std::pair<Key, typename Agg::Output>;

  GroupedAggregate(KeyFn key_fn, ValueFn value_fn,
                   std::string name = "group-aggregate", Agg agg = Agg())
      : UnaryPipe<In, Output>(std::move(name)),
        key_fn_(std::move(key_fn)),
        value_fn_(std::move(value_fn)),
        agg_(std::move(agg)) {}

  std::size_t num_groups() const { return groups_.size(); }

  std::size_t ApproxMemoryBytes() const override {
    std::size_t segments = 0;
    for (const auto& [key, core] : groups_) segments += core.num_segments();
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
      auto [it, inserted] = groups_.try_emplace(
          key_fn_(run.payloads[i]), SweepLineAggregator<Agg>(agg_));
      it->second.Add(run.starts[i], run.ends[i],
                     value_fn_(run.payloads[i]));
    }
  }

  void PortProgress(int /*port_id*/, Timestamp watermark) override {
    this->TransferHeartbeat(Release(watermark));
  }

  void PortDone(int /*port_id*/) override {
    Release(kMaxTimestamp);
    out_run_.clear();
    staged_.FlushAll(
        [this](const StreamElement<Output>& e) { out_run_.Append(e); });
    this->TransferRun(std::move(out_run_));
    this->TransferDone();
  }

 private:
  /// Finalizes segments up to `watermark` and releases staged results as
  /// far as global ordering allows: a result may only leave once no group
  /// still holds a pending segment with an earlier start. Returns the safe
  /// progress bound.
  Timestamp Release(Timestamp watermark) {
    for (auto it = groups_.begin(); it != groups_.end();) {
      it->second.EmitUpTo(
          watermark, [&](typename Agg::Output out, TimeInterval iv) {
            staged_.Push(StreamElement<Output>(
                Output(it->first, std::move(out)), iv));
          });
      if (it->second.empty()) {
        it = groups_.erase(it);
      } else {
        ++it;
      }
    }
    const Timestamp bound = std::min(watermark, MinPendingStart());
    out_run_.clear();
    staged_.FlushUpTo(bound, [this](const StreamElement<Output>& e) {
      out_run_.Append(e);
    });
    this->TransferRun(std::move(out_run_));
    return bound;
  }

  Timestamp MinPendingStart() const {
    Timestamp t = kMaxTimestamp;
    for (const auto& [key, core] : groups_) {
      t = std::min(t, core.FirstPendingStart());
    }
    return t;
  }

  KeyFn key_fn_;
  ValueFn value_fn_;
  Agg agg_;
  std::unordered_map<Key, SweepLineAggregator<Agg>> groups_;
  OrderedOutputBuffer<Output> staged_;
  ColumnarRun<Output> out_run_;
};

}  // namespace pipes::algebra

#endif  // PIPES_ALGEBRA_AGGREGATE_H_
