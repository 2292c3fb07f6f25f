#ifndef PIPES_CORE_BUFFER_H_
#define PIPES_CORE_BUFFER_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "src/core/columnar.h"
#include "src/core/element.h"
#include "src/core/pipe.h"

/// \file
/// Buffers: the only place in PIPES where scheduled inter-operator queues
/// exist. A direct subscription's pipe is delivered as soon as the executor
/// reaches it; a `Buffer` decouples its upstream from its downstream so a
/// scheduler can drive the downstream portion independently. The fusion layer (scheduler layer 1) inserts
/// buffers exactly at virtual-node boundaries; `ConcurrentBuffer` is the
/// thread-safe variant used at thread boundaries (scheduler layer 3). The
/// engine's inlets queue their writers' rows on the same `ChunkQueue`.

namespace pipes {

/// No-op lockable for the single-threaded buffer.
struct NullMutex {
  void lock() {}
  void unlock() {}
};

/// The chunked queue behind `BasicBuffer` and the engine's inlets
/// (`engine::InletSource`): columnar run chunks of at most
/// `kMaxChunkElements` rows interleaved with heartbeat and done markers.
/// Rows enqueue as column appends onto the tail chunk and leave as whole
/// chunks, moved through `TransferRun`, so the queue's cost is per chunk,
/// not per row. Consecutive heartbeats merge, and a heartbeat at or below
/// the last accepted start is dropped, so an idle producer cannot grow the
/// queue. Not thread-safe: the owner locks around every call.
template <typename T>
class ChunkQueue {
 public:
  struct Heartbeat {
    Timestamp t;
  };
  struct Done {};
  using Entry = std::variant<ColumnarRun<T>, Heartbeat, Done>;

  /// Soft cap on one chunk's row count: bounds how much delivered data a
  /// partially drained front chunk can pin via its consumed offset, and
  /// keeps any single enqueue/drain step O(cap).
  static constexpr std::size_t kMaxChunkElements = 4096;

  bool empty() const { return queue_.empty(); }

  /// Queued units: rows (the consumed prefix of the front chunk excluded)
  /// plus control markers.
  std::size_t units() const { return elements_ + controls_; }

  std::size_t ApproxMemoryBytes() const {
    return units() * (sizeof(StreamElement<T>) + 16);
  }

  /// Largest start accepted so far, by a row or a heartbeat.
  Timestamp last_start() const { return last_start_; }

  /// True once a done marker was appended.
  bool done() const { return done_; }

  /// Bulk append: three column appends for the whole run.
  void AppendRun(const ColumnarRun<T>& run) {
    if (run.empty()) return;
    last_start_ = std::max(last_start_, run.starts.back());
    TailChunk(run.starts.front()).AppendRun(run);
    elements_ += run.size();
  }

  void Append(StreamElement<T> element) {
    last_start_ = std::max(last_start_, element.start());
    TailChunk(element.start()).Append(std::move(element));
    ++elements_;
  }

  void AppendHeartbeat(Timestamp t) {
    // A queued row already carries its own progress downstream; only
    // heartbeats beyond everything accepted are worth queueing.
    if (t <= last_start_) return;
    last_start_ = t;
    if (!queue_.empty()) {
      if (auto* hb = std::get_if<Heartbeat>(&queue_.back())) {
        hb->t = t;
        return;
      }
    }
    queue_.push_back(Heartbeat{t});
    ++controls_;
  }

  void AppendDone() {
    done_ = true;
    queue_.push_back(Done{});
    ++controls_;
  }

  /// Detaches queued units onto `train`, in order, until `max_units` are
  /// taken or the queue is empty. With `whole_chunks` a chunk is never
  /// split (the one that crosses the bound leaves whole), so rows are only
  /// ever moved; otherwise an oversized front chunk is split by copying
  /// out a prefix and advancing the consumed offset.
  void Take(std::size_t max_units, bool whole_chunks,
            std::vector<Entry>& train) {
    std::size_t budget = max_units;
    while (budget > 0 && !queue_.empty()) {
      Entry& front = queue_.front();
      auto* run = std::get_if<ColumnarRun<T>>(&front);
      if (run == nullptr) {
        --budget;
        --controls_;
        train.push_back(std::move(front));
        queue_.pop_front();
        continue;
      }
      const std::size_t avail = run->size() - front_offset_;
      if (front_offset_ == 0 && (avail <= budget || whole_chunks)) {
        budget -= std::min(avail, budget);
        elements_ -= avail;
        train.push_back(std::move(front));
        queue_.pop_front();
        continue;
      }
      const std::size_t take = std::min(avail, budget);
      ColumnarRun<T> part;
      part.reserve(take);
      part.AppendRange(*run, front_offset_, front_offset_ + take);
      front_offset_ += take;
      budget -= take;
      elements_ -= take;
      if (front_offset_ == run->size()) {
        queue_.pop_front();
        front_offset_ = 0;
      }
      train.push_back(Entry(std::move(part)));
    }
  }

  /// Drops the oldest queued rows (never control markers) until at most
  /// `capacity` remain; returns how many were dropped.
  std::size_t ShedTo(std::size_t capacity) {
    std::size_t dropped = 0;
    std::size_t i = 0;
    while (elements_ > capacity && i < queue_.size()) {
      auto* run = std::get_if<ColumnarRun<T>>(&queue_[i]);
      if (run == nullptr) {
        ++i;
        continue;
      }
      const std::size_t offset = (i == 0) ? front_offset_ : 0;
      const std::size_t avail = run->size() - offset;
      const std::size_t drop = std::min(elements_ - capacity, avail);
      run->EraseFront(offset + drop);
      if (i == 0) front_offset_ = 0;
      elements_ -= drop;
      dropped += drop;
      if (run->empty()) {
        queue_.erase(queue_.begin() + i);
      } else {
        ++i;
      }
    }
    return dropped;
  }

  /// Hands a detached train to `out`'s output in order (each chunk moved
  /// through `TransferRun`, markers through `TransferHeartbeat` /
  /// `TransferDone`), empties it, and returns the units forwarded. `Out`
  /// is a `Source<T>` that befriends this class.
  template <typename Out>
  static std::size_t Forward(std::vector<Entry>& train, Out& out) {
    std::size_t units = 0;
    for (Entry& entry : train) {
      if (auto* run = std::get_if<ColumnarRun<T>>(&entry)) {
        units += run->size();
        out.TransferRun(std::move(*run));
      } else if (auto* hb = std::get_if<Heartbeat>(&entry)) {
        ++units;
        out.TransferHeartbeat(hb->t);
      } else {
        ++units;
        out.TransferDone();
      }
    }
    train.clear();
    return units;
  }

 private:
  /// The run chunk new rows append to. Starts a fresh chunk when the tail
  /// is a control marker, the tail chunk is full, or `first_start` would
  /// break the tail chunk's internal start order.
  ColumnarRun<T>& TailChunk(Timestamp first_start) {
    if (!queue_.empty()) {
      if (auto* run = std::get_if<ColumnarRun<T>>(&queue_.back())) {
        if (run->size() < kMaxChunkElements &&
            (run->empty() || run->starts.back() <= first_start)) {
          return *run;
        }
      }
    }
    queue_.emplace_back(ColumnarRun<T>());
    return std::get<ColumnarRun<T>>(queue_.back());
  }

  std::deque<Entry> queue_;
  std::size_t elements_ = 0;
  std::size_t controls_ = 0;
  /// Already-taken prefix of the front run chunk (split takes).
  std::size_t front_offset_ = 0;
  Timestamp last_start_ = kMinTimestamp;
  bool done_ = false;
};

/// A queueing identity pipe. Incoming elements and control signals are
/// enqueued on a `ChunkQueue`; `DoWork` dequeues and forwards them.
///
/// With a `capacity`, the buffer is *bounded*: when a fluctuating stream
/// rate outruns the scheduler, the oldest queued element is dropped (and
/// counted) instead of growing memory without limit — buffer-level load
/// shedding. Control signals are never dropped.
template <typename T, typename Mutex = NullMutex>
class BasicBuffer : public UnaryPipe<T, T> {
 public:
  /// `capacity` = 0 means unbounded.
  explicit BasicBuffer(std::string name = "buffer",
                       std::size_t capacity = 0)
      : UnaryPipe<T, T>(std::move(name)), capacity_(capacity) {}

  std::size_t capacity() const { return capacity_; }

  /// Elements dropped because the buffer was full.
  std::uint64_t dropped_count() const {
    std::lock_guard<Mutex> lock(mu_);
    return dropped_;
  }

  std::uint64_t ShedCount() const override { return dropped_count(); }

  bool is_active() const override { return true; }

  NodeDescriptor Describe() const override {
    NodeDescriptor d = UnaryPipe<T, T>::Describe();
    d.kind = NodeDescriptor::Kind::kBuffer;
    d.op = "buffer";
    // Queue occupancy depends on scheduling, not on watermark progress.
    d.dataflow.transient_state = true;
    if (capacity_ > 0) {
      d.notes.push_back(
          "bounded buffer sheds oldest elements under overload (capacity " +
          std::to_string(capacity_) + "); results may silently drop data");
    }
    return d;
  }

  bool HasWork() const override {
    std::lock_guard<Mutex> lock(mu_);
    return !queue_.empty();
  }

  bool IsFinished() const override {
    std::lock_guard<Mutex> lock(mu_);
    return queue_.done() && queue_.empty();
  }

  std::size_t queue_size() const override {
    std::lock_guard<Mutex> lock(mu_);
    return queue_.units();
  }

  std::size_t ApproxMemoryBytes() const override {
    std::lock_guard<Mutex> lock(mu_);
    return queue_.ApproxMemoryBytes();
  }

  /// Drains up to `max_units` queued units (elements + control signals) as
  /// one train: one lock acquisition to detach the train (per-train instead
  /// of per-element — the big win for `ConcurrentBuffer` on cross-thread
  /// scheduler edges), then each run chunk leaves through a single
  /// `TransferRun`; interleaved control signals are forwarded individually
  /// in order.
  std::size_t DoWork(std::size_t max_units) override {
    {
      std::lock_guard<Mutex> lock(mu_);
      queue_.Take(max_units, /*whole_chunks=*/false, train_);
    }
    return ChunkQueue<T>::Forward(train_, *this);
  }

 protected:
  /// Columnar enqueue: one lock acquisition (and one shed pass) and three
  /// bulk column appends for the whole run — the queue stays SoA end to
  /// end.
  void PortRun(int /*port_id*/, const ColumnarRun<T>& run) override {
    if (run.empty()) return;
    std::lock_guard<Mutex> lock(mu_);
    queue_.AppendRun(run);
    if (capacity_ > 0) dropped_ += queue_.ShedTo(capacity_);
  }

  void PortProgress(int /*port_id*/, Timestamp watermark) override {
    std::lock_guard<Mutex> lock(mu_);
    queue_.AppendHeartbeat(watermark);
  }

  void PortDone(int /*port_id*/) override {
    std::lock_guard<Mutex> lock(mu_);
    queue_.AppendDone();
  }

 private:
  friend class ChunkQueue<T>;

  mutable Mutex mu_;
  ChunkQueue<T> queue_;
  /// DoWork scratch: the detached train. Only touched by the (single)
  /// scheduler thread driving this node.
  std::vector<typename ChunkQueue<T>::Entry> train_;
  std::size_t capacity_;
  std::uint64_t dropped_ = 0;
};

/// Single-threaded buffer (virtual-node boundary within one thread).
template <typename T>
using Buffer = BasicBuffer<T, NullMutex>;

/// Thread-safe buffer (edge crossing a thread boundary).
template <typename T>
using ConcurrentBuffer = BasicBuffer<T, std::mutex>;

}  // namespace pipes

#endif  // PIPES_CORE_BUFFER_H_
