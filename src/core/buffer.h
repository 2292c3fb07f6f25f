#ifndef PIPES_CORE_BUFFER_H_
#define PIPES_CORE_BUFFER_H_

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
/// thread-safe variant used at thread boundaries (scheduler layer 3).

namespace pipes {

/// No-op lockable for the single-threaded buffer.
struct NullMutex {
  void lock() {}
  void unlock() {}
};

/// A queueing identity pipe. Incoming elements and control signals are
/// enqueued; `DoWork` dequeues and forwards them. Consecutive heartbeats
/// are coalesced so idle upstreams cannot grow the queue.
///
/// The queue holds columnar run chunks interleaved with control markers:
/// elements enqueue as bulk column appends onto the tail chunk and leave as
/// whole `TransferRun`s, so the buffer's cost is per chunk, not per
/// element. Chunk size is capped so a partially drained front chunk (its
/// consumed prefix is tracked by an offset, not erased) never pins more
/// than a bounded amount of delivered data.
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
    return done_received_ && queue_.empty();
  }

  std::size_t queue_size() const override {
    std::lock_guard<Mutex> lock(mu_);
    return elements_ + controls_;
  }

  std::size_t ApproxMemoryBytes() const override {
    std::lock_guard<Mutex> lock(mu_);
    return (elements_ + controls_) * (sizeof(StreamElement<T>) + 16);
  }

  /// Drains up to `max_units` queued units (elements + control signals) as
  /// one train: one lock acquisition to detach the train (per-train instead
  /// of per-element — the big win for `ConcurrentBuffer` on cross-thread
  /// scheduler edges), then each run chunk leaves through a single
  /// `TransferRun` (whole chunks are *moved* out — no copy); interleaved
  /// control signals are forwarded individually in order. An oversized
  /// front chunk is split by copying out a prefix and advancing the
  /// consumed offset.
  std::size_t DoWork(std::size_t max_units) override {
    train_.clear();
    {
      std::lock_guard<Mutex> lock(mu_);
      std::size_t budget = max_units;
      while (budget > 0 && !queue_.empty()) {
        Entry& front = queue_.front();
        if (auto* run = std::get_if<ColumnarRun<T>>(&front)) {
          const std::size_t avail = run->size() - front_offset_;
          if (avail <= budget && front_offset_ == 0) {
            budget -= avail;
            elements_ -= avail;
            train_.push_back(std::move(front));
            queue_.pop_front();
          } else {
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
            train_.push_back(Entry(std::move(part)));
          }
        } else {
          --budget;
          --controls_;
          train_.push_back(std::move(front));
          queue_.pop_front();
        }
      }
    }
    std::size_t drained = 0;
    for (Entry& entry : train_) {
      if (auto* run = std::get_if<ColumnarRun<T>>(&entry)) {
        drained += run->size();
        this->TransferRun(std::move(*run));
      } else if (auto* hb = std::get_if<Heartbeat>(&entry)) {
        ++drained;
        this->TransferHeartbeat(hb->t);
      } else {
        ++drained;
        this->TransferDone();
      }
    }
    train_.clear();
    return drained;
  }

 protected:
  /// Columnar enqueue: one lock acquisition (and one shed pass) and three
  /// bulk column appends for the whole run — the queue stays SoA end to
  /// end.
  void PortRun(int /*port_id*/, const ColumnarRun<T>& run) override {
    if (run.empty()) return;
    std::lock_guard<Mutex> lock(mu_);
    last_element_start_ = run.starts.back();
    TailChunk(run.starts.front()).AppendRun(run);
    elements_ += run.size();
    if (capacity_ > 0) {
      ShedToCapacity();
    }
  }

  void PortProgress(int /*port_id*/, Timestamp watermark) override {
    std::lock_guard<Mutex> lock(mu_);
    // An enqueued element already carries its own progress downstream; only
    // heartbeats that advance beyond the last element are worth queueing.
    if (watermark <= last_element_start_) return;
    if (!queue_.empty()) {
      if (auto* hb = std::get_if<Heartbeat>(&queue_.back())) {
        hb->t = watermark;
        return;
      }
    }
    queue_.push_back(Heartbeat{watermark});
    ++controls_;
  }

  void PortDone(int /*port_id*/) override {
    std::lock_guard<Mutex> lock(mu_);
    done_received_ = true;
    queue_.push_back(Done{});
    ++controls_;
  }

 private:
  struct Heartbeat {
    Timestamp t;
  };
  struct Done {};
  using Entry = std::variant<ColumnarRun<T>, Heartbeat, Done>;

  /// Soft cap on one chunk's element count: bounds how much delivered data
  /// a partially drained front chunk can pin via its consumed offset, and
  /// keeps any single enqueue/drain step O(cap).
  static constexpr std::size_t kMaxChunkElements = 4096;

  /// The run chunk new elements append to (mu_ held). Starts a fresh chunk
  /// when the tail is a control marker, the tail chunk is full, or
  /// `first_start` would break the tail chunk's internal start order.
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

  /// Drops the oldest queued *elements* (never control signals) until the
  /// element count fits the capacity. Requires mu_ held.
  void ShedToCapacity() {
    std::size_t i = 0;
    while (elements_ > capacity_ && i < queue_.size()) {
      auto* run = std::get_if<ColumnarRun<T>>(&queue_[i]);
      if (run == nullptr) {
        ++i;
        continue;
      }
      const std::size_t offset = (i == 0) ? front_offset_ : 0;
      const std::size_t avail = run->size() - offset;
      const std::size_t drop = std::min(elements_ - capacity_, avail);
      run->EraseFront(offset + drop);
      if (i == 0) front_offset_ = 0;
      elements_ -= drop;
      dropped_ += drop;
      if (run->empty()) {
        queue_.erase(queue_.begin() + i);
      } else {
        ++i;
      }
    }
  }

  mutable Mutex mu_;
  std::deque<Entry> queue_;
  /// Queued element count across all run chunks (the consumed prefix of the
  /// front chunk excluded) and queued control-signal count.
  std::size_t elements_ = 0;
  std::size_t controls_ = 0;
  /// Already-delivered prefix of the front run chunk (split DoWork drains).
  std::size_t front_offset_ = 0;
  /// DoWork scratch: the detached train. Only touched by the (single)
  /// scheduler thread driving this node.
  std::vector<Entry> train_;
  std::size_t capacity_;
  std::uint64_t dropped_ = 0;
  Timestamp last_element_start_ = kMinTimestamp;
  bool done_received_ = false;
};

/// Single-threaded buffer (virtual-node boundary within one thread).
template <typename T>
using Buffer = BasicBuffer<T, NullMutex>;

/// Thread-safe buffer (edge crossing a thread boundary).
template <typename T>
using ConcurrentBuffer = BasicBuffer<T, std::mutex>;

}  // namespace pipes

#endif  // PIPES_CORE_BUFFER_H_
