#ifndef PIPES_ALGEBRA_WINDOW_H_
#define PIPES_ALGEBRA_WINDOW_H_

#include <algorithm>
#include <deque>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>

#include "src/common/macros.h"
#include "src/core/ordered_buffer.h"
#include "src/core/pipe.h"

/// \file
/// Window operators: the bridge between raw (point-interval) streams and
/// the temporal algebra. A window operator only rewrites validity
/// intervals; CQL's RANGE / RANGE-SLIDE / ROWS / PARTITION-BY-ROWS window
/// specifications each map to one operator here. Downstream stateful
/// operators (join, aggregation, ...) are window-agnostic — they just honor
/// intervals — which is what makes the algebra compositional.

namespace pipes::algebra {

/// Time-based sliding window (CQL `[RANGE w]`): an element with point
/// validity at t becomes valid on [t, t + w). Snapshot at time τ therefore
/// contains exactly the elements with t in (τ - w, τ]. Ends past the last
/// timestamp saturate at kMaxTimestamp.
template <typename T>
class TimeWindow : public UnaryPipe<T, T> {
 public:
  TimeWindow(Timestamp size, std::string name = "time-window")
      : UnaryPipe<T, T>(std::move(name)), size_(size) {
    PIPES_CHECK(size > 0);
  }

  Timestamp size() const { return size_; }

  /// Runtime window shrinking — the load-shedding hook the memory manager
  /// uses (approximate answers under pressure). Affects future elements.
  void set_size(Timestamp size) {
    PIPES_CHECK(size > 0);
    size_ = size;
  }

  NodeDescriptor Describe() const override {
    NodeDescriptor d = UnaryPipe<T, T>::Describe();
    d.op = "time-window";
    d.bounds_validity = true;
    d.dataflow.validity_extent = size_;
    return d;
  }

 protected:
  /// Columnar kernel: payloads and starts are bulk-copied; only the ends
  /// column is rewritten, in a loop over one plain timestamp array.
  void PortRun(int /*port_id*/, const ColumnarRun<T>& run) override {
    run_out_.clear();
    run_out_.starts.assign(run.starts.begin(), run.starts.end());
    run_out_.payloads.assign(run.payloads.begin(), run.payloads.end());
    run_out_.ends.resize(run.size());
    const Timestamp w = size_;
    for (std::size_t i = 0; i < run.size(); ++i) {
      run_out_.ends[i] = SaturatingAdd(run.starts[i], w);
    }
    this->TransferRun(std::move(run_out_));
  }

 private:
  Timestamp size_;
  ColumnarRun<T> run_out_;
};

/// Time-based hopping window (CQL `[RANGE w SLIDE s]`): results are only
/// defined at multiples of the slide `s`. An element at t is visible at
/// evaluation instants τ = k*s with t in (τ - w, τ], i.e. on the interval
/// [ceil(t/s)*s, ceil((t+w)/s)*s). Aligning both endpoints to the slide
/// grid is what *reduces the output rate* of downstream aggregates — their
/// result changes only at grid points (the paper's "special mechanisms
/// that substantially reduce stream rates"). Ends past the last grid point
/// before kMaxTimestamp saturate at kMaxTimestamp.
template <typename T>
class SlideWindow : public UnaryPipe<T, T> {
 public:
  SlideWindow(Timestamp size, Timestamp slide,
              std::string name = "slide-window")
      : UnaryPipe<T, T>(std::move(name)), size_(size), slide_(slide) {
    PIPES_CHECK(size > 0 && slide > 0);
  }

  Timestamp size() const { return size_; }
  Timestamp slide() const { return slide_; }

  NodeDescriptor Describe() const override {
    NodeDescriptor d = UnaryPipe<T, T>::Describe();
    d.op = "slide-window";
    d.bounds_validity = true;
    // AlignUp(t + size) - AlignUp(t) < size + slide.
    d.dataflow.validity_extent = SaturatingAdd(size_, slide_);
    return d;
  }

 protected:
  /// Columnar kernel: grid-aligns both timestamp columns in one pass.
  /// AlignUp is monotone, so survivor starts stay non-decreasing. A row
  /// that falls between grid points entirely is dropped — no instant ever
  /// observes it (cannot happen when size_ >= slide_).
  void PortRun(int /*port_id*/, const ColumnarRun<T>& run) override {
    run_out_.clear();
    run_out_.reserve(run.size());
    for (std::size_t i = 0; i < run.size(); ++i) {
      const Timestamp first = AlignUp(run.starts[i]);
      const Timestamp last = AlignUp(SaturatingAdd(run.starts[i], size_));
      if (first < last) {
        run_out_.Append(run.payloads[i], first, last);
      }
    }
    this->TransferRun(std::move(run_out_));
  }

 private:
  Timestamp AlignUp(Timestamp t) const {
    // Smallest multiple of slide_ that is >= t, or kMaxTimestamp if that
    // multiple does not fit. Division truncates toward zero, which rounds a
    // non-positive t up already.
    if (t <= 0) return (t / slide_) * slide_;
    if (t > kMaxTimestamp - (slide_ - 1)) return kMaxTimestamp;
    return ((t + slide_ - 1) / slide_) * slide_;
  }

  Timestamp size_;
  Timestamp slide_;
  ColumnarRun<T> run_out_;
};

/// Unbounded window (CQL `[UNBOUNDED]`): every element stays valid forever
/// — the semantics of treating the stream as an ever-growing relation.
/// Stateful consumers below an unbounded window never purge; use with the
/// memory manager.
template <typename T>
class UnboundedWindow : public UnaryPipe<T, T> {
 public:
  explicit UnboundedWindow(std::string name = "unbounded-window")
      : UnaryPipe<T, T>(std::move(name)) {}

  NodeDescriptor Describe() const override {
    NodeDescriptor d = UnaryPipe<T, T>::Describe();
    d.op = "unbounded-window";
    d.unbounded_validity = true;
    return d;
  }

 protected:
  /// Columnar kernel: copy starts and payloads, fill ends with +inf.
  void PortRun(int /*port_id*/, const ColumnarRun<T>& run) override {
    run_out_.clear();
    run_out_.starts.assign(run.starts.begin(), run.starts.end());
    run_out_.payloads.assign(run.payloads.begin(), run.payloads.end());
    run_out_.ends.assign(run.size(), kMaxTimestamp);
    this->TransferRun(std::move(run_out_));
  }

 private:
  ColumnarRun<T> run_out_;
};

/// Count-based window (CQL `[ROWS n]`): each element stays valid until `n`
/// further elements have arrived; the last `n` elements at end-of-stream
/// stay valid forever. Emission is delayed by `n` elements because an
/// element's expiry timestamp is the start of its n-th successor.
template <typename T>
class CountWindow : public UnaryPipe<T, T> {
 public:
  CountWindow(std::size_t rows, std::string name = "count-window")
      : UnaryPipe<T, T>(std::move(name)), rows_(rows) {
    PIPES_CHECK(rows > 0);
  }

  std::size_t rows() const { return rows_; }

  NodeDescriptor Describe() const override {
    NodeDescriptor d = UnaryPipe<T, T>::Describe();
    d.op = "count-window";
    // Re-stamps validity, but an element's expiry is the start of its n-th
    // successor — no static time bound (and the last n live forever), so
    // dataflow.validity_extent stays at the unknown sentinel.
    d.bounds_validity = true;
    d.dataflow.state_bytes_fixed =
        (rows_ + 1) * (sizeof(StreamElement<T>) + 48);
    return d;
  }

 protected:
  /// Row at a time: each arrival releases the element `rows_` back.
  void PortRun(int /*port_id*/, const ColumnarRun<T>& run) override {
    for (std::size_t i = 0; i < run.size(); ++i) {
      pending_.push_back(run.ElementAt(i));
      if (pending_.size() > rows_) {
        StreamElement<T> out = std::move(pending_.front());
        pending_.pop_front();
        // Valid from its own start until the start of its n-th successor.
        const Timestamp expiry = std::max(run.starts[i], out.start() + 1);
        this->Transfer(StreamElement<T>(std::move(out.payload), out.start(),
                                        expiry));
      }
    }
  }

  void PortProgress(int /*port_id*/, Timestamp watermark) override {
    // Pending elements have starts below the watermark but are not emitted
    // yet; cap the heartbeat so downstream never sees a start below it.
    Timestamp bound = watermark;
    if (!pending_.empty()) {
      bound = std::min(bound, pending_.front().start());
    }
    if (bound > kMinTimestamp) {
      this->TransferHeartbeat(bound);
    }
  }

  void PortDone(int /*port_id*/) override {
    for (StreamElement<T>& e : pending_) {
      this->Transfer(
          StreamElement<T>(std::move(e.payload), e.start(), kMaxTimestamp));
    }
    pending_.clear();
    this->TransferDone();
  }

 private:
  std::size_t rows_;
  std::deque<StreamElement<T>> pending_;
};

/// Partitioned count window (CQL `[PARTITION BY k ROWS n]`): a ROWS-n
/// window maintained independently per partition key.
template <typename T, typename KeyFn>
class PartitionedWindow : public UnaryPipe<T, T> {
 public:
  PartitionedWindow(KeyFn key_fn, std::size_t rows,
                    std::string name = "partitioned-window")
      : UnaryPipe<T, T>(std::move(name)),
        key_fn_(std::move(key_fn)),
        rows_(rows) {
    PIPES_CHECK(rows > 0);
  }

  NodeDescriptor Describe() const override {
    NodeDescriptor d = UnaryPipe<T, T>::Describe();
    d.op = "partitioned-window";
    // Same unknown-extent caveat as count-window, per partition.
    d.bounds_validity = true;
    d.key_partitionable = true;
    // One retained copy in its partition deque plus one staged copy.
    d.dataflow.state_bytes_per_element =
        2 * (sizeof(StreamElement<T>) + 48);
    return d;
  }

 protected:
  using Key = std::decay_t<decltype(std::declval<KeyFn>()(
      std::declval<const T&>()))>;

  /// Row at a time: each arrival may expire its partition's oldest row,
  /// and staged expiries release as far as the retained starts allow.
  void PortRun(int /*port_id*/, const ColumnarRun<T>& run) override {
    for (std::size_t i = 0; i < run.size(); ++i) {
      auto& partition = partitions_[key_fn_(run.payloads[i])];
      partition.push_back(run.ElementAt(i));
      if (partition.size() > rows_) {
        StreamElement<T> out = std::move(partition.front());
        partition.pop_front();
        const Timestamp expiry = std::max(run.starts[i], out.start() + 1);
        staged_.Push(StreamElement<T>(std::move(out.payload), out.start(),
                                      expiry));
      }
      Release();
    }
  }

  void PortProgress(int /*port_id*/, Timestamp watermark) override {
    Release();
    Timestamp bound = watermark;
    for (const auto& [key, partition] : partitions_) {
      if (!partition.empty()) {
        bound = std::min(bound, partition.front().start());
      }
    }
    if (bound > kMinTimestamp) {
      this->TransferHeartbeat(bound);
    }
  }

  void PortDone(int /*port_id*/) override {
    for (auto& [key, partition] : partitions_) {
      for (StreamElement<T>& e : partition) {
        staged_.Push(StreamElement<T>(std::move(e.payload), e.start(),
                                      kMaxTimestamp));
      }
    }
    partitions_.clear();
    staged_.FlushAll(
        [this](const StreamElement<T>& e) { this->Transfer(e); });
    this->TransferDone();
  }

 private:
  /// Expired elements from different partitions interleave out of start
  /// order; release them only up to the minimum retained start.
  void Release() {
    Timestamp bound = this->input().watermark();
    for (const auto& [key, partition] : partitions_) {
      if (!partition.empty()) {
        bound = std::min(bound, partition.front().start());
      }
    }
    staged_.FlushUpTo(bound,
                      [this](const StreamElement<T>& e) { this->Transfer(e); });
  }

  KeyFn key_fn_;
  std::size_t rows_;
  std::unordered_map<Key, std::deque<StreamElement<T>>> partitions_;
  OrderedOutputBuffer<T> staged_;
};

}  // namespace pipes::algebra

#endif  // PIPES_ALGEBRA_WINDOW_H_
