#ifndef PIPES_ALGEBRA_RELATION_TO_STREAM_H_
#define PIPES_ALGEBRA_RELATION_TO_STREAM_H_

#include <string>
#include <utility>

#include "src/core/ordered_buffer.h"
#include "src/core/pipe.h"

/// \file
/// CQL's relation-to-stream operators over interval streams. A temporal
/// stream *is* a time-varying relation (its snapshots); these operators
/// project the changes back out as point streams:
///
///  * `IStream` — one point element whenever a payload *enters* the
///    snapshot (at its validity start),
///  * `DStream` — one point element whenever a payload *leaves* the
///    snapshot (at its validity end),
///  * RSTREAM is the identity on interval streams and needs no operator.

namespace pipes::algebra {

/// Insert stream: [s, e) becomes the point [s, s+1). Stateless.
template <typename T>
class IStream : public UnaryPipe<T, T> {
 public:
  explicit IStream(std::string name = "istream")
      : UnaryPipe<T, T>(std::move(name)) {}

  NodeDescriptor Describe() const override {
    NodeDescriptor d = UnaryPipe<T, T>::Describe();
    d.op = "istream";
    d.bounds_validity = true;
    d.dataflow.validity_extent = 1;
    return d;
  }

 protected:
  void PortRun(int /*port_id*/, const ColumnarRun<T>& run) override {
    for (std::size_t i = 0; i < run.size(); ++i) {
      this->Transfer(StreamElement<T>::Point(run.payloads[i], run.starts[i]));
    }
  }
};

/// Delete stream: [s, e) becomes the point [e, e+1). Deletions do not
/// arrive in end order, so results are staged and released by watermark.
/// Elements valid forever (end = kMaxTimestamp) never expire and produce
/// nothing.
template <typename T>
class DStream : public UnaryPipe<T, T> {
 public:
  explicit DStream(std::string name = "dstream")
      : UnaryPipe<T, T>(std::move(name)) {}

  NodeDescriptor Describe() const override {
    NodeDescriptor d = UnaryPipe<T, T>::Describe();
    d.op = "dstream";
    // Output points land at input *ends*: results stage until the
    // watermark passes them, and unbounded inputs produce nothing at all.
    d.blocking = true;
    d.bounds_validity = true;
    d.dataflow.validity_extent = 1;
    // One staged point per bounded input element.
    d.dataflow.state_bytes_per_element = sizeof(StreamElement<T>) + 48;
    return d;
  }

 protected:
  void PortRun(int /*port_id*/, const ColumnarRun<T>& run) override {
    for (std::size_t i = 0; i < run.size(); ++i) {
      if (run.ends[i] == kMaxTimestamp) continue;
      staged_.Push(StreamElement<T>::Point(run.payloads[i], run.ends[i]));
    }
  }

  void PortProgress(int /*port_id*/, Timestamp watermark) override {
    // A future input has start >= watermark, so its deletion lands at its
    // end > watermark: everything staged below the watermark is final.
    staged_.FlushUpTo(watermark, [this](const StreamElement<T>& e) {
      this->Transfer(e);
    });
    this->TransferHeartbeat(watermark);
  }

  void PortDone(int /*port_id*/) override {
    staged_.FlushAll(
        [this](const StreamElement<T>& e) { this->Transfer(e); });
    this->TransferDone();
  }

 private:
  OrderedOutputBuffer<T> staged_;
};

}  // namespace pipes::algebra

#endif  // PIPES_ALGEBRA_RELATION_TO_STREAM_H_
