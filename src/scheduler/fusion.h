#ifndef PIPES_SCHEDULER_FUSION_H_
#define PIPES_SCHEDULER_FUSION_H_

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/core/buffer.h"
#include "src/core/graph.h"

/// \file
/// Layer 1 of the scheduling framework: deciding where virtual nodes end.
/// Operators connected directly execute fused — inside one invocation, with
/// no queue (the paper's merged "virtual node"). Splicing a buffer into an
/// edge *splits* the virtual node there, creating a new scheduling unit;
/// splicing a `ConcurrentBuffer` additionally makes the edge safe to cross
/// a thread boundary (layer 3).

namespace pipes::scheduler {

namespace internal {

/// Splices a new `BufferT` into the edge `source -> port`. The buffer is
/// subscribed before the direct edge goes, so `port` never loses its last
/// upstream (which would jump its watermark to +inf). NotFound, with nothing
/// changed, when `source` is not subscribed to `port`.
template <typename BufferT, typename T, typename... Args>
Result<BufferT*> Splice(QueryGraph& graph, Source<T>& source,
                        InputPort<T>& port, Args&&... args) {
  const std::vector<InputPort<T>*> ports = source.subscribed_ports();
  if (std::find(ports.begin(), ports.end(), &port) == ports.end()) {
    return Status::NotFound("port is not subscribed to source " +
                            source.name());
  }
  auto& buffer = graph.Add<BufferT>(std::forward<Args>(args)...);
  buffer.AddSubscriber(port);
  source.AddSubscriber(buffer.input());
  PIPES_RETURN_IF_ERROR(source.UnsubscribeFrom(port));
  return &buffer;
}

}  // namespace internal

/// Replaces the direct edge `source -> port` with `source -> buffer ->
/// port`, making everything downstream of `port` a separate virtual node.
/// `capacity` bounds the buffer (0 = unbounded; see `Buffer`). Fails with
/// NotFound when `source` is not subscribed to `port`.
template <typename T>
Result<Buffer<T>*> SpliceBuffer(QueryGraph& graph, Source<T>& source,
                                InputPort<T>& port,
                                std::string name = "boundary",
                                std::size_t capacity = 0) {
  return internal::Splice<Buffer<T>>(graph, source, port, std::move(name),
                                     capacity);
}

/// Same, with a thread-safe buffer (for edges that will cross threads).
template <typename T>
Result<ConcurrentBuffer<T>*> SpliceConcurrentBuffer(
    QueryGraph& graph, Source<T>& source, InputPort<T>& port,
    std::string name = "thread-boundary") {
  return internal::Splice<ConcurrentBuffer<T>>(graph, source, port,
                                               std::move(name));
}

}  // namespace pipes::scheduler

#endif  // PIPES_SCHEDULER_FUSION_H_
