#ifndef PIPES_ALGEBRA_MAP_H_
#define PIPES_ALGEBRA_MAP_H_

#include <string>
#include <utility>

#include "src/core/pipe.h"

/// \file
/// Mapping (generalized projection). Applies a user function to every
/// payload; validity intervals pass through unchanged.

namespace pipes::algebra {

/// Stateless transformation of payloads from `In` to `Out`.
template <typename In, typename Out, typename Fn>
class Map : public UnaryPipe<In, Out> {
 public:
  explicit Map(Fn fn, std::string name = "map")
      : UnaryPipe<In, Out>(std::move(name)), fn_(std::move(fn)) {}

  NodeDescriptor Describe() const override {
    NodeDescriptor d = UnaryPipe<In, Out>::Describe();
    d.op = "map";
    return d;
  }

 protected:
  /// Columnar kernel: both timestamp columns are bulk-copied (memcpy) and
  /// the user function runs in a tight loop over the payload column only.
  void PortRun(int /*port_id*/, const ColumnarRun<In>& run) override {
    run_out_.clear();
    run_out_.starts.assign(run.starts.begin(), run.starts.end());
    run_out_.ends.assign(run.ends.begin(), run.ends.end());
    run_out_.payloads.reserve(run.size());
    for (const In& p : run.payloads) {
      run_out_.payloads.push_back(fn_(p));
    }
    this->TransferRun(std::move(run_out_));
  }

 private:
  Fn fn_;
  ColumnarRun<Out> run_out_;
};

}  // namespace pipes::algebra

#endif  // PIPES_ALGEBRA_MAP_H_
