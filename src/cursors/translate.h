#ifndef PIPES_CURSORS_TRANSLATE_H_
#define PIPES_CURSORS_TRANSLATE_H_

#include <deque>
#include <functional>
#include <string>
#include <utility>

#include "src/core/generator_source.h"
#include "src/core/sink.h"
#include "src/cursors/cursor.h"

/// \file
/// Dataflow translation operators (after Graefe): the bridges between the
/// demand-driven cursor algebra and the data-driven pipe algebra, which is
/// how PIPES "gracefully combines data-driven and demand-driven query
/// processing".
///
/// * `CursorSource` lifts a cursor into an active stream source
///   (pull -> push).
/// * `StreamBufferSink` parks streamed results so a cursor can consume them
///   on demand (push -> pull).

namespace pipes::cursors {

/// Active source that pulls payloads from a cursor and assigns application
/// timestamps via `ts_fn` (which must be monotone in pull order).
template <typename T>
class CursorSource : public GeneratorSource<T> {
 public:
  using TimestampFn = std::function<Timestamp(const T&)>;

  CursorSource(CursorPtr<T> cursor, TimestampFn ts_fn,
               std::string name = "cursor-source")
      : GeneratorSource<T>(std::move(name)),
        cursor_(std::move(cursor)),
        ts_fn_(std::move(ts_fn)) {}

 protected:
  std::optional<StreamElement<T>> Generate() override {
    std::optional<T> v = cursor_->Next();
    if (!v.has_value()) return std::nullopt;
    const Timestamp t = ts_fn_(*v);
    return StreamElement<T>::Point(std::move(*v), t);
  }

 private:
  CursorPtr<T> cursor_;
  TimestampFn ts_fn_;
};

/// Terminal sink whose collected results are consumable through cursors.
/// `OpenCursor()` yields the elements received so far (a materialized
/// prefix of the result stream); elements handed to a cursor are consumed
/// exactly once across all cursors opened from this sink.
template <typename T>
class StreamBufferSink : public Sink<T> {
 public:
  explicit StreamBufferSink(std::string name = "stream-buffer")
      : Sink<T>(std::move(name)) {}

  /// Cursor that drains the buffered results on demand.
  CursorPtr<StreamElement<T>> OpenCursor() {
    return std::make_unique<DrainCursor>(this);
  }

  std::size_t buffered() const { return buffer_.size(); }

 protected:
  void PortRun(int /*port_id*/, const ColumnarRun<T>& run) override {
    for (std::size_t i = 0; i < run.size(); ++i) {
      buffer_.push_back(run.ElementAt(i));
    }
  }

 private:
  class DrainCursor : public Cursor<StreamElement<T>> {
   public:
    explicit DrainCursor(StreamBufferSink* owner) : owner_(owner) {}
    std::optional<StreamElement<T>> Next() override {
      if (owner_->buffer_.empty()) return std::nullopt;
      StreamElement<T> e = std::move(owner_->buffer_.front());
      owner_->buffer_.pop_front();
      return e;
    }

   private:
    StreamBufferSink* owner_;
  };

  std::deque<StreamElement<T>> buffer_;
};

}  // namespace pipes::cursors

#endif  // PIPES_CURSORS_TRANSLATE_H_
