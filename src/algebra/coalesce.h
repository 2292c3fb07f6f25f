#ifndef PIPES_ALGEBRA_COALESCE_H_
#define PIPES_ALGEBRA_COALESCE_H_

#include <optional>
#include <string>
#include <utility>

#include "src/core/pipe.h"

/// \file
/// Coalescing: merges consecutive elements with equal payloads and abutting
/// or overlapping validity into a single element. Snapshot-equivalent to
/// the identity, but it *reduces the physical stream rate* — the mechanism
/// the paper advertises for keeping rates low downstream of aggregates
/// (whose piecewise output often repeats the same value across adjacent
/// segments).

namespace pipes::algebra {

/// Rate-reducing identity. `T` must be equality-comparable. Input elements
/// with equal payloads must be adjacent to merge (true for aggregate
/// outputs); interleaved equal payloads merge only opportunistically.
template <typename T>
class Coalesce : public UnaryPipe<T, T> {
 public:
  explicit Coalesce(std::string name = "coalesce")
      : UnaryPipe<T, T>(std::move(name)) {}

  std::uint64_t merged_count() const { return merged_; }

  NodeDescriptor Describe() const override {
    NodeDescriptor d = UnaryPipe<T, T>::Describe();
    d.op = "coalesce";
    // Merging abutting equal-payload intervals can extend validity without
    // static bound.
    d.dataflow.extends_validity = true;
    return d;
  }

 protected:
  /// Columnar kernel: runs the merge loop over the whole run against the
  /// held element and emits every released element as one downstream run
  /// (released elements leave in arrival order, which is start order).
  void PortRun(int /*port_id*/, const ColumnarRun<T>& run) override {
    run_out_.clear();
    for (std::size_t i = 0; i < run.size(); ++i) {
      if (MergeIntoHeld(run.payloads[i], run.starts[i], run.ends[i])) continue;
      if (held_.has_value()) run_out_.Append(*held_);
      held_ = run.ElementAt(i);
    }
    this->TransferRun(std::move(run_out_));
  }

  void PortProgress(int /*port_id*/, Timestamp watermark) override {
    // The held element can still be extended by an element starting at or
    // before its end; it is safe to release once the watermark passes that.
    if (held_.has_value()) {
      if (watermark > held_->end()) {
        this->Transfer(*held_);
        held_.reset();
        this->TransferHeartbeat(watermark);
      } else {
        this->TransferHeartbeat(std::min(watermark, held_->start()));
      }
    } else {
      this->TransferHeartbeat(watermark);
    }
  }

  void PortDone(int /*port_id*/) override {
    if (held_.has_value()) {
      this->Transfer(*held_);
      held_.reset();
    }
    this->TransferDone();
  }

 private:
  /// Extends the held element by [start, end) if the payloads are equal and
  /// the intervals abut or overlap; returns whether it merged.
  bool MergeIntoHeld(const T& payload, Timestamp start, Timestamp end) {
    if (!held_.has_value() || !(held_->payload == payload) ||
        start > held_->end() || end < held_->start()) {
      return false;
    }
    held_->interval.end = std::max(held_->end(), end);
    ++merged_;
    return true;
  }

  std::optional<StreamElement<T>> held_;
  std::uint64_t merged_ = 0;
  ColumnarRun<T> run_out_;
};

}  // namespace pipes::algebra

#endif  // PIPES_ALGEBRA_COALESCE_H_
