#ifndef PIPES_ALGEBRA_FILTER_H_
#define PIPES_ALGEBRA_FILTER_H_

#include <string>
#include <utility>

#include "src/core/pipe.h"

/// \file
/// Selection. Stateless, non-blocking: an element passes iff the predicate
/// holds on its payload; the validity interval is untouched, so snapshot
/// equivalence with relational selection is immediate.

namespace pipes::algebra {

/// Generic selection operator, parameterized by a predicate on payloads
/// (the paper's algebra is "parameterized by functions and predicates" and
/// handles arbitrary objects, not just relational tuples).
template <typename T, typename Pred>
class Filter : public UnaryPipe<T, T> {
 public:
  explicit Filter(Pred pred, std::string name = "filter")
      : UnaryPipe<T, T>(std::move(name)), pred_(std::move(pred)) {}

  NodeDescriptor Describe() const override {
    NodeDescriptor d = UnaryPipe<T, T>::Describe();
    d.op = "filter";
    return d;
  }

 protected:
  /// Columnar kernel: the predicate runs over the payload column alone
  /// (exactly once per element), and each maximal run of survivors is
  /// copied as one contiguous range per column — a selective filter pays
  /// per segment, not per element.
  void PortRun(int /*port_id*/, const ColumnarRun<T>& run) override {
    run_out_.clear();
    const std::size_t n = run.size();
    run_out_.reserve(n);
    std::size_t i = 0;
    while (i < n) {
      while (i < n && !pred_(run.payloads[i])) ++i;
      const std::size_t begin = i;
      while (i < n && pred_(run.payloads[i])) ++i;
      if (i > begin) run_out_.AppendRange(run, begin, i);
    }
    this->TransferRun(std::move(run_out_));
  }

 private:
  Pred pred_;
  ColumnarRun<T> run_out_;
};

/// Deduction helper: `auto& f = graph.Add<Filter<T, decltype(pred)>>(...)`
/// is unwieldy; `MakeFilter<T>(pred)` is used by the plan builders instead.
template <typename T, typename Pred>
Filter<T, Pred> MakeFilter(Pred pred, std::string name = "filter") {
  return Filter<T, Pred>(std::move(pred), std::move(name));
}

}  // namespace pipes::algebra

#endif  // PIPES_ALGEBRA_FILTER_H_
