#ifndef PIPES_CORE_GENERATOR_SOURCE_H_
#define PIPES_CORE_GENERATOR_SOURCE_H_

#include <algorithm>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/macros.h"
#include "src/core/columnar.h"
#include "src/core/element.h"
#include "src/core/source.h"

/// \file
/// Active sources. An active source is driven by the scheduler (`DoWork`)
/// and produces elements from some underlying generator — the adapter that
/// "wraps a raw input stream to a source within a query graph".

namespace pipes {

/// Base class for sources that produce elements on demand. Subclasses
/// implement `Generate`; returning nullopt ends the stream.
///
/// With `batch_size` > 1 the source accumulates up to that many elements
/// per scheduler invocation directly into a columnar scratch run and emits
/// them with a single consuming `TransferRun` — the batching knob of the
/// workload generators (DESIGN.md "Run delivery"). Elements are
/// transposed into columns exactly once, at generation time, and the
/// scratch run's columns are swapped into the pipe (zero copies in steady
/// state). The default of 1 keeps the per-element `Transfer` path.
template <typename T>
class GeneratorSource : public Source<T> {
 public:
  explicit GeneratorSource(std::string name, std::size_t batch_size = 1)
      : Source<T>(std::move(name)), batch_size_(batch_size) {
    PIPES_CHECK(batch_size >= 1);
  }

  std::size_t batch_size() const { return batch_size_; }
  void set_batch_size(std::size_t batch_size) {
    PIPES_CHECK(batch_size >= 1);
    batch_size_ = batch_size;
  }

  bool is_active() const override { return true; }
  bool HasWork() const override { return !exhausted_; }
  bool IsFinished() const override { return exhausted_; }

  /// Declared dataflow feed contract (src/analysis/dataflow.h): total
  /// element count, peak rate in elements per time unit, and max output
  /// validity extent. The static analysis is sound *relative to* these
  /// declarations; workload adapters set them from generator parameters.
  void DeclareTotalElements(std::uint64_t total) {
    declared_.total_elements = total;
  }
  void DeclareRatePerUnit(double rate) { declared_.rate_per_unit = rate; }
  void DeclareValidityExtent(Timestamp extent) {
    declared_.validity_extent = extent;
  }

  NodeDescriptor Describe() const override {
    NodeDescriptor d;
    d.kind = NodeDescriptor::Kind::kSource;
    d.op = "generator-source";
    // Monotone element starts advance downstream watermarks implicitly.
    d.emits_heartbeats = true;
    d.dataflow = declared_;
    return d;
  }

  std::size_t DoWork(std::size_t max_units) override {
    std::size_t n = 0;
    if (batch_size_ <= 1) {
      while (n < max_units && !exhausted_) {
        std::optional<StreamElement<T>> element = Generate();
        ++n;
        if (!element.has_value()) {
          exhausted_ = true;
          this->TransferDone();
          break;
        }
        this->Transfer(*element);
      }
      return n;
    }
    while (n < max_units && !exhausted_) {
      run_.clear();
      const std::size_t want = std::min(batch_size_, max_units - n);
      if (FillRun(run_, want)) {
        exhausted_ = true;
        ++n;  // the end-of-stream signal counts as one unit of work
      }
      n += run_.size();
      this->TransferRun(std::move(run_));
      run_.clear();
      if (exhausted_) this->TransferDone();
    }
    return n;
  }

 protected:
  /// Produces the next element (non-decreasing start), or nullopt at
  /// end-of-stream.
  virtual std::optional<StreamElement<T>> Generate() = 0;

  /// Appends up to `want` elements to `out`; returns true at end-of-stream.
  /// The default loops over `Generate`; sources whose backing store is
  /// already materialized (e.g. `VectorSource`) override it with a bulk
  /// copy.
  virtual bool FillRun(ColumnarRun<T>& out, std::size_t want) {
    while (out.size() < want) {
      std::optional<StreamElement<T>> element = Generate();
      if (!element.has_value()) return true;
      out.Append(std::move(*element));
    }
    return false;
  }

 private:
  std::size_t batch_size_;
  ColumnarRun<T> run_;
  NodeDescriptor::Dataflow declared_;
  bool exhausted_ = false;
};

/// Replays a pre-built, start-ordered vector of elements. The unit-test
/// workhorse.
template <typename T>
class VectorSource : public GeneratorSource<T> {
 public:
  VectorSource(std::vector<StreamElement<T>> elements,
               std::string name = "vector-source", std::size_t batch_size = 1)
      : GeneratorSource<T>(std::move(name), batch_size),
        elements_(std::move(elements)) {
    for (std::size_t i = 1; i < elements_.size(); ++i) {
      PIPES_CHECK_MSG(elements_[i - 1].start() <= elements_[i].start(),
                      "VectorSource input must be ordered by start");
    }
    // The backing store is materialized, so the feed contract is exact.
    this->DeclareTotalElements(elements_.size());
    Timestamp extent = 0;
    for (const StreamElement<T>& e : elements_) {
      if (e.end() == kMaxTimestamp) {
        extent = NodeDescriptor::Dataflow::kUnknownTime;
        break;
      }
      extent = std::max(extent, e.end() - e.start());
    }
    this->DeclareValidityExtent(extent);
  }

  /// Convenience: wraps payloads as point elements at consecutive integer
  /// timestamps t0, t0+1, ...
  static std::vector<StreamElement<T>> Points(std::vector<T> payloads,
                                              Timestamp t0 = 0) {
    std::vector<StreamElement<T>> out;
    out.reserve(payloads.size());
    Timestamp t = t0;
    for (T& p : payloads) {
      out.push_back(StreamElement<T>::Point(std::move(p), t++));
    }
    return out;
  }

 protected:
  std::optional<StreamElement<T>> Generate() override {
    if (next_ >= elements_.size()) return std::nullopt;
    return elements_[next_++];
  }

  /// The backing vector is already materialized: a whole batch transposes
  /// onto `out` in one contiguous-range append instead of element-wise
  /// `Generate` calls. End-of-stream is reported only when the fill comes
  /// up short — exactly when the `Generate` loop would have observed
  /// nullopt — so the done signal lands on the same scheduler poll as with
  /// batch size 1.
  bool FillRun(ColumnarRun<T>& out, std::size_t want) override {
    const std::size_t take = std::min(want, elements_.size() - next_);
    out.reserve(out.size() + take);
    for (std::size_t i = next_; i < next_ + take; ++i) out.Append(elements_[i]);
    next_ += take;
    return take < want;
  }

 private:
  std::vector<StreamElement<T>> elements_;
  std::size_t next_ = 0;
};

/// Adapts a `std::function` generator, for ad-hoc sources in examples.
template <typename T>
class FunctionSource : public GeneratorSource<T> {
 public:
  using Generator = std::function<std::optional<StreamElement<T>>()>;

  FunctionSource(Generator generator, std::string name = "function-source",
                 std::size_t batch_size = 1)
      : GeneratorSource<T>(std::move(name), batch_size),
        generator_(std::move(generator)) {}

 protected:
  std::optional<StreamElement<T>> Generate() override { return generator_(); }

 private:
  Generator generator_;
};

}  // namespace pipes

#endif  // PIPES_CORE_GENERATOR_SOURCE_H_
