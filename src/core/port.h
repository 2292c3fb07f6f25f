#ifndef PIPES_CORE_PORT_H_
#define PIPES_CORE_PORT_H_

#include <algorithm>
#include <cstddef>
#include <vector>

#include "src/common/macros.h"
#include "src/common/time.h"
#include "src/core/columnar.h"
#include "src/core/element.h"
#include "src/core/metrics.h"
#include "src/core/node.h"
#include "src/core/trace.h"

/// \file
/// Input ports: the sink half of the publish-subscribe architecture.
///
/// A node that consumes elements of type `T` owns one `InputPort<T>` per
/// logical input. A port can be subscribed to by *multiple* sources
/// (the paper: "a sink can subscribe to multiple sources"); the port merges
/// their progress: its watermark is the minimum heartbeat over all live
/// upstreams, so the owning operator sees a single, monotone notion of time
/// per input.
///
/// Delivery is a virtual call from the source's pipe (DESIGN.md §4f) — the
/// pipe holds only what one producer staged since the executor last
/// reached it. Scheduled queues exist only inside explicit `Buffer` nodes.

namespace pipes {

template <typename T>
class Source;

/// Callback interface a port owner implements, one instantiation per input
/// element type. Multi-input operators with equal input types share one
/// instantiation and dispatch on `port_id`; operators with distinct input
/// types inherit one instantiation per type.
template <typename T>
class PortOwner {
 public:
  virtual ~PortOwner() = default;

  /// A columnar run arrived on port `port_id` — a non-empty run from one
  /// upstream, ordered by non-decreasing start, carrying no control signals
  /// (DESIGN.md "Run delivery"). This is the only way rows reach an owner: a
  /// single row is a run of one. Runs on one port are ordered per upstream;
  /// use `PortProgress` for a cross-upstream ordering guarantee.
  virtual void PortRun(int port_id, const ColumnarRun<T>& run) = 0;

  /// The port's merged watermark advanced to `watermark`: no future element
  /// on this port will have `start() < watermark`.
  virtual void PortProgress(int port_id, Timestamp watermark) = 0;

  /// All upstreams of the port signalled end-of-stream.
  virtual void PortDone(int port_id) = 0;
};

/// One logical input of an operator. Created by the owning node; edges are
/// formed by `InputPort<T>::SubscribeTo(source)` (equivalently
/// `Source<T>::AddSubscriber(port)`).
template <typename T>
class InputPort {
 public:
  /// `owner` receives callbacks tagged with `port_id`; `owner_node` is the
  /// same object viewed as a graph node (used for topology and counters).
  InputPort(PortOwner<T>* owner, Node* owner_node, int port_id)
      : owner_(owner), owner_node_(owner_node), port_id_(port_id) {
    PIPES_CHECK(owner != nullptr && owner_node != nullptr);
  }

  InputPort(const InputPort&) = delete;
  InputPort& operator=(const InputPort&) = delete;

  Node* owner_node() const { return owner_node_; }
  int port_id() const { return port_id_; }

  /// Watermark merged over all upstreams; `kMinTimestamp` until every
  /// upstream has reported progress, `kMaxTimestamp` once all are done.
  /// O(1): the merge is cached and maintained incrementally, so a delivery
  /// does not rescan all upstream slots.
  Timestamp watermark() const { return merged_cache_; }

  /// True once every upstream signalled done (and at least one was ever
  /// subscribed).
  bool done() const { return done_delivered_; }

  std::size_t num_upstreams() const { return live_upstreams_; }

  /// Subscribes this port to `source`: the port will see every element the
  /// source transfers from now on. This is the documented spelling — it
  /// reads in dataflow direction (the *consumer* subscribes to the
  /// *producer*'s output). Defined in source.h.
  void SubscribeTo(Source<T>& source);

  // --- Called by Source<T> --------------------------------------------------

  /// Registers an upstream; returns its slot handle.
  int AddUpstream() {
    Upstream up;
    up.live = true;
    slots_.push_back(up);
    ++live_upstreams_;
    done_delivered_ = false;
    // The new upstream has reported no progress yet: it pins the merge.
    merged_cache_ = kMinTimestamp;
    return static_cast<int>(slots_.size()) - 1;
  }

  /// Unregisters the upstream in `slot` (unsubscribe). Its progress
  /// constraint is lifted, which may advance the merged watermark.
  void RemoveUpstream(int slot) {
    PIPES_CHECK(ValidSlot(slot) && slots_[slot].live);
    slots_[slot].live = false;
    --live_upstreams_;
    RecomputeMergedWatermark();
    NotifyProgress();
    MaybeNotifyDone();
  }

  /// Run delivery: `run` is a non-empty columnar run from one upstream,
  /// ordered by non-decreasing start. Order is validated once, and exactly
  /// one merge + progress notification happens per run, after the owner saw
  /// the rows.
  ///
  /// The slot watermark is raised in two steps: to the *front* start before
  /// delivery (which the front element itself proves) and to the *back*
  /// start only afterwards. Raising to the back up front would let a
  /// stateful owner that consults `watermark()` while consuming the run
  /// (e.g. a join flushing its ordered staging buffer per element) release
  /// results that later elements of the same run can still precede.
  void ReceiveRun(int slot, const ColumnarRun<T>& run) {
    if (run.empty()) return;
    PIPES_DCHECK(ValidSlot(slot) && slots_[slot].live);
    Upstream& up = slots_[slot];
    PIPES_DCHECK(run.starts.front() >= up.watermark ||
                 up.watermark == kMinTimestamp);
    PIPES_DCHECK(std::is_sorted(run.starts.begin(), run.starts.end()));
    PIPES_DCHECK(run.ends.size() == run.starts.size() &&
                 run.payloads.size() == run.starts.size());
    RaiseSlotWatermark(up, run.starts.front());
    owner_node_->CountIn(run.size());
    owner_node_->CountBatchIn();
    trace::RecordRunHops(owner_node_->id(), run.starts.data(), run.size(),
                         trace::Hop::kReceive);
    if (obs::MetricsEnabled() && --latency_countdown_ == 0) {
      latency_countdown_ = obs::kLatencySamplePeriod;
      const std::int64_t t0 = obs::SteadyNowNs();
      owner_->PortRun(port_id_, run);
      owner_node_->service_histogram().Record(
          static_cast<std::uint64_t>(obs::SteadyNowNs() - t0));
    } else {
      owner_->PortRun(port_id_, run);
    }
    RaiseSlotWatermark(up, run.starts.back());
    NotifyProgress();
  }

  void ReceiveHeartbeat(int slot, Timestamp t) {
    PIPES_DCHECK(ValidSlot(slot) && slots_[slot].live);
    Upstream& up = slots_[slot];
    if (t > up.watermark) {
      RaiseSlotWatermark(up, t);
      NotifyProgress();
    }
  }

  void ReceiveDone(int slot) {
    PIPES_DCHECK(ValidSlot(slot) && slots_[slot].live);
    slots_[slot].done = true;
    RecomputeMergedWatermark();
    NotifyProgress();
    MaybeNotifyDone();
  }

 private:
  struct Upstream {
    Timestamp watermark = kMinTimestamp;
    bool done = false;
    bool live = false;
  };

  bool ValidSlot(int slot) const {
    return slot >= 0 && slot < static_cast<int>(slots_.size());
  }

  /// Raises `up.watermark` to `t` and keeps the cached merge consistent.
  /// A full rescan is needed only when the raised slot was (one of) the
  /// minimum — for single-upstream ports the rescan is trivially cheap, and
  /// for fan-in ports the non-minimum upstreams update in O(1).
  void RaiseSlotWatermark(Upstream& up, Timestamp t) {
    if (t <= up.watermark) return;
    const Timestamp old = up.watermark;
    up.watermark = t;
    if (old <= merged_cache_) RecomputeMergedWatermark();
  }

  void RecomputeMergedWatermark() {
    Timestamp min_wm = kMaxTimestamp;
    bool any = false;
    for (const Upstream& up : slots_) {
      if (!up.live || up.done) continue;
      any = true;
      min_wm = std::min(min_wm, up.watermark);
    }
    // No live, unfinished upstream (or none subscribed): time is exhausted.
    merged_cache_ = any ? min_wm : kMaxTimestamp;
  }

  void NotifyProgress() {
    const Timestamp merged = merged_cache_;
    if (merged > last_notified_) {
      last_notified_ = merged;
      owner_node_->AdvanceProgress(merged);
      owner_->PortProgress(port_id_, merged);
    }
  }

  void MaybeNotifyDone() {
    if (done_delivered_) return;
    bool all_done = true;
    bool any_live_ever = false;
    for (const Upstream& up : slots_) {
      if (up.live) {
        any_live_ever = true;
        if (!up.done) all_done = false;
      }
    }
    if (any_live_ever && all_done) {
      done_delivered_ = true;
      owner_->PortDone(port_id_);
    }
  }

  PortOwner<T>* owner_;
  Node* owner_node_;
  int port_id_;
  /// Deliveries until the next service-time sample. Plain member: delivery
  /// into one port is single-threaded (cross-thread edges go through
  /// `ConcurrentBuffer`), and snapshots never read it.
  std::uint32_t latency_countdown_ = 1;
  std::vector<Upstream> slots_;
  std::size_t live_upstreams_ = 0;
  /// min over live, unfinished slots; kMaxTimestamp when there are none.
  Timestamp merged_cache_ = kMaxTimestamp;
  Timestamp last_notified_ = kMinTimestamp;
  bool done_delivered_ = false;
};

}  // namespace pipes

#endif  // PIPES_CORE_PORT_H_
