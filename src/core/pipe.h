#ifndef PIPES_CORE_PIPE_H_
#define PIPES_CORE_PIPE_H_

#include <algorithm>
#include <string>
#include <utility>

#include "src/core/columnar.h"
#include "src/core/element.h"
#include "src/core/node.h"
#include "src/core/pipe_edge.h"
#include "src/core/port.h"
#include "src/core/source.h"

/// \file
/// Operator (pipe) base classes. A pipe "combines the functionality of a
/// sink and a source: it consumes an incoming element, processes it, and
/// transfers its results to its subscribed sinks". `UnaryPipe` and
/// `BinaryPipe` are the abstract pre-implementations the paper describes;
/// the ready-to-use operator algebra in `src/algebra/` derives from them.
///
/// The *edge* objects of the executor-polled execution model — the
/// `Pipe<T>` that owns a source's staged columnar runs, plus its
/// type-erased `PipeBase` — live in
/// `src/core/pipe_edge.h` (re-exported here): every `Source<T>` owns one
/// and `scheduler::PipeExecutor` polls it, so it sits below these operator
/// bases in the include order.

namespace pipes {

/// An operator with one input of type `In` and one output of type `Out`.
///
/// Subclasses implement `PortRun` and may override `PortProgress` /
/// `PortDone`; the defaults forward progress and end-of-stream downstream,
/// which is correct for stateless operators.
template <typename In, typename Out>
class UnaryPipe : public Source<Out>, public PortOwner<In> {
 public:
  /// Payload types, for generic plan builders (e.g. the keyed-parallel
  /// replication helper) that must name them from a deduced operator type.
  using InputType = In;
  using OutputType = Out;

  explicit UnaryPipe(std::string name)
      : Source<Out>(std::move(name)), input_(this, this, 0) {}

  /// The input to subscribe sources to.
  InputPort<In>& input() { return input_; }

  NodeDescriptor Describe() const override {
    NodeDescriptor d;
    d.kind = NodeDescriptor::Kind::kOperator;
    d.op = "unary-pipe";
    d.port_upstreams = {input_.num_upstreams()};
    return d;
  }

 protected:
  void PortProgress(int /*port_id*/, Timestamp watermark) override {
    this->TransferHeartbeat(watermark);
  }

  void PortDone(int /*port_id*/) override { this->TransferDone(); }

 private:
  InputPort<In> input_;
};

namespace internal_pipe {

/// Dispatch helper turning the per-type `PortOwner` callbacks into
/// side-labelled ones. The primary template (distinct input types) inherits
/// `PortOwner` twice and dispatches on the element type; the `L == R`
/// specialization inherits it once and dispatches on the port id.
template <typename L, typename R>
class BinaryDispatch : public PortOwner<L>, public PortOwner<R> {
 protected:
  static constexpr int kLeft = 0;
  static constexpr int kRight = 1;

  virtual void OnRunLeft(const ColumnarRun<L>& run) = 0;
  virtual void OnRunRight(const ColumnarRun<R>& run) = 0;
  virtual void OnProgressSide(int side, Timestamp watermark) = 0;
  virtual void OnDoneSide(int side) = 0;

 private:
  void PortRun(int /*port_id*/, const ColumnarRun<L>& run) final {
    OnRunLeft(run);
  }
  void PortRun(int /*port_id*/, const ColumnarRun<R>& run) final {
    OnRunRight(run);
  }
  // Identical signature in both bases: this single override covers both.
  void PortProgress(int port_id, Timestamp watermark) final {
    OnProgressSide(port_id, watermark);
  }
  void PortDone(int port_id) final { OnDoneSide(port_id); }
};

template <typename T>
class BinaryDispatch<T, T> : public PortOwner<T> {
 protected:
  static constexpr int kLeft = 0;
  static constexpr int kRight = 1;

  virtual void OnRunLeft(const ColumnarRun<T>& run) = 0;
  virtual void OnRunRight(const ColumnarRun<T>& run) = 0;
  virtual void OnProgressSide(int side, Timestamp watermark) = 0;
  virtual void OnDoneSide(int side) = 0;

 private:
  void PortRun(int port_id, const ColumnarRun<T>& run) final {
    if (port_id == kLeft) {
      OnRunLeft(run);
    } else {
      OnRunRight(run);
    }
  }
  void PortProgress(int port_id, Timestamp watermark) final {
    OnProgressSide(port_id, watermark);
  }
  void PortDone(int port_id) final { OnDoneSide(port_id); }
};

}  // namespace internal_pipe

/// An operator with two inputs (`left`, `right`) and one output.
///
/// Subclasses implement the `OnRun{Left,Right}` hooks plus
/// `OnProgressSide`/`OnDoneSide`. `CombinedWatermark()` gives the merged
/// progress over both inputs — the point up to which stateful operators may
/// finalize results — and `BothDone()` signals global end-of-stream.
template <typename L, typename R, typename Out>
class BinaryPipe : public Source<Out>,
                   public internal_pipe::BinaryDispatch<L, R> {
 public:
  using LeftType = L;
  using RightType = R;
  using OutputType = Out;

  explicit BinaryPipe(std::string name)
      : Source<Out>(std::move(name)),
        left_(this, this, internal_pipe::BinaryDispatch<L, R>::kLeft),
        right_(this, this, internal_pipe::BinaryDispatch<L, R>::kRight) {}

  InputPort<L>& left() { return left_; }
  InputPort<R>& right() { return right_; }

  NodeDescriptor Describe() const override {
    NodeDescriptor d;
    d.kind = NodeDescriptor::Kind::kOperator;
    d.op = "binary-pipe";
    d.port_upstreams = {left_.num_upstreams(), right_.num_upstreams()};
    return d;
  }

 protected:
  /// min over both input watermarks: no future element on either input
  /// starts before this.
  Timestamp CombinedWatermark() const {
    return std::min(left_.watermark(), right_.watermark());
  }

  bool BothDone() const { return left_.done() && right_.done(); }

 private:
  InputPort<L> left_;
  InputPort<R> right_;
};

}  // namespace pipes

#endif  // PIPES_CORE_PIPE_H_
