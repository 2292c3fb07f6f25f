#ifndef PIPES_CORE_SINK_H_
#define PIPES_CORE_SINK_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/core/element.h"
#include "src/core/node.h"
#include "src/core/port.h"

/// \file
/// Terminal sinks: nodes that consume streaming query results and present,
/// store, or transfer them (the paper's applications / PDAs / terminal
/// users). `Sink` is the abstract pre-implementation; the concrete sinks
/// here cover testing and the demo applications.

namespace pipes {

/// A terminal consumer of elements of type `T` with a single input port.
template <typename T>
class Sink : public Node, public PortOwner<T> {
 public:
  explicit Sink(std::string name)
      : Node(std::move(name)), input_(this, this, 0) {}

  InputPort<T>& input() { return input_; }

  /// True once every upstream has signalled end-of-stream.
  bool done() const { return done_; }

  /// Merged input watermark.
  Timestamp watermark() const { return input_.watermark(); }

  NodeDescriptor Describe() const override {
    NodeDescriptor d;
    d.kind = NodeDescriptor::Kind::kSink;
    d.op = "sink";
    d.port_upstreams = {input_.num_upstreams()};
    return d;
  }

 protected:
  void PortProgress(int /*port_id*/, Timestamp /*watermark*/) override {}
  void PortDone(int /*port_id*/) override { done_ = true; }

 private:
  InputPort<T> input_;
  bool done_ = false;
};

/// Stores every received element; the workhorse of the test suite.
template <typename T>
class CollectorSink : public Sink<T> {
 public:
  explicit CollectorSink(std::string name = "collector")
      : Sink<T>(std::move(name)) {}

  const std::vector<StreamElement<T>>& elements() const { return elements_; }
  std::vector<StreamElement<T>>& mutable_elements() { return elements_; }

  NodeDescriptor Describe() const override {
    NodeDescriptor d = Sink<T>::Describe();
    d.op = "collector-sink";
    return d;
  }

 protected:
  void PortRun(int /*port_id*/, const ColumnarRun<T>& run) override {
    run.MaterializeTo(elements_);
  }

 private:
  std::vector<StreamElement<T>> elements_;
};

/// Counts elements without storing them; used by benchmarks to keep the
/// dataflow alive at zero memory cost.
template <typename T>
class CountingSink : public Sink<T> {
 public:
  explicit CountingSink(std::string name = "counter")
      : Sink<T>(std::move(name)) {}

  std::uint64_t count() const { return count_; }

  NodeDescriptor Describe() const override {
    NodeDescriptor d = Sink<T>::Describe();
    d.op = "counting-sink";
    return d;
  }

 protected:
  /// Columnar kernel: one pass over the starts column alone; the checksum
  /// defeats dead-code elimination of the whole upstream pipeline.
  void PortRun(int /*port_id*/, const ColumnarRun<T>& run) override {
    count_ += run.size();
    for (const Timestamp s : run.starts) {
      checksum_ ^= static_cast<std::uint64_t>(s);
    }
  }

 private:
  std::uint64_t count_ = 0;
  std::uint64_t checksum_ = 0;
};

/// Invokes a user function per element — the purpose-built application sink
/// in its simplest form.
template <typename T>
class CallbackSink : public Sink<T> {
 public:
  using Callback = std::function<void(const StreamElement<T>&)>;

  CallbackSink(Callback callback, std::string name = "callback")
      : Sink<T>(std::move(name)), callback_(std::move(callback)) {}

  NodeDescriptor Describe() const override {
    NodeDescriptor d = Sink<T>::Describe();
    d.op = "callback-sink";
    return d;
  }

 protected:
  void PortRun(int /*port_id*/, const ColumnarRun<T>& run) override {
    for (std::size_t i = 0; i < run.size(); ++i) callback_(run.ElementAt(i));
  }

 private:
  Callback callback_;
};

}  // namespace pipes

#endif  // PIPES_CORE_SINK_H_
