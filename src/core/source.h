#ifndef PIPES_CORE_SOURCE_H_
#define PIPES_CORE_SOURCE_H_

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "src/common/macros.h"
#include "src/common/status.h"
#include "src/common/time.h"
#include "src/core/columnar.h"
#include "src/core/element.h"
#include "src/core/node.h"
#include "src/core/pipe_edge.h"
#include "src/core/port.h"
#include "src/core/trace.h"

/// \file
/// The source half of the publish-subscribe architecture: a node that
/// transfers elements of type `T` to its set of subscribed input ports
/// (the paper: "a source transfers its elements to a set of subscribed
/// sinks"). Subscriptions can be added and removed at runtime, which is how
/// the multi-query optimizer grafts new query plans onto a running graph.

namespace pipes {

/// A query-graph node with one output of element type `T`.
///
/// `Transfer*` members *stage* into this node's `Pipe<T>` edge, which the
/// node owns from construction; the `PipeExecutor` linked to the pipe later
/// polls it and delivers the staged columnar runs to every subscribed port
/// (DESIGN.md §4f). Output bookkeeping (order check, `last_start_`,
/// counters, trace) happens at staging time. Subclasses must transfer
/// elements in non-decreasing `start()` order and must finish with
/// `TransferDone()`.
///
/// Subscription changes must not happen from inside a delivery, and must
/// find no staged rows in the pipe: a new subscriber must not receive rows
/// staged before it subscribed (staged heartbeats and done markers are
/// harmless — a late subscriber is caught up on both when it subscribes).
template <typename T>
class Source : public Node {
 public:
  using Element = StreamElement<T>;

  explicit Source(std::string name) : Node(std::move(name)), pipe_(this) {}

  /// Subscribes `port` to this source. The subscriber will see all elements
  /// transferred from now on. Equivalent to `port.SubscribeTo(*this)`,
  /// which is the spelling that reads in dataflow direction.
  void AddSubscriber(InputPort<T>& port) {
    PIPES_DCHECK(!pipe_.HasStagedRows());
    const int slot = port.AddUpstream();
    subscriptions_.push_back({&port, slot});
    downstream_.push_back(port.owner_node());
    port.owner_node()->upstream_.push_back(this);
    // A late subscriber must not stall progress behind time that has already
    // elapsed on this source.
    if (last_start_ > kMinTimestamp) {
      port.ReceiveHeartbeat(slot, last_start_);
    }
    if (done_) {
      port.ReceiveDone(slot);
    }
  }

  /// Cancels the subscription of `port`. No-op status if not subscribed.
  Status UnsubscribeFrom(InputPort<T>& port) {
    auto it = std::find_if(
        subscriptions_.begin(), subscriptions_.end(),
        [&](const Subscription& s) { return s.port == &port; });
    if (it == subscriptions_.end()) {
      return Status::NotFound("port is not subscribed to source " + name());
    }
    port.RemoveUpstream(it->slot);
    subscriptions_.erase(it);
    EraseOneTopologyEdge(port.owner_node());
    return Status::OK();
  }

  std::size_t num_subscribers() const { return subscriptions_.size(); }

  /// The subscribed ports, in subscription order.
  std::vector<InputPort<T>*> subscribed_ports() const {
    std::vector<InputPort<T>*> ports;
    ports.reserve(subscriptions_.size());
    for (const Subscription& s : subscriptions_) ports.push_back(s.port);
    return ports;
  }

  PipeBase* output_pipe() override { return &pipe_; }

 protected:
  /// Stages `element` for all subscribers. Enforces (in debug builds) the
  /// non-decreasing start-order invariant.
  void Transfer(const Element& element) {
    PIPES_DCHECK(!done_);
    PIPES_DCHECK(element.start() >= last_start_ ||
                 last_start_ == kMinTimestamp);
    last_start_ = std::max(last_start_, element.start());
    CountOut();
    this->AdvanceProgress(last_start_);
    trace::RecordHop(this->id(), element.start(), trace::Hop::kEmit);
    pipe_.StageElement(element);
  }

  /// Stages a whole columnar run for all subscribers in one call. `run`
  /// must be ordered by non-decreasing start and must not start before
  /// anything already transferred; control signals never ride inside a run
  /// (use TransferHeartbeat / TransferDone). Bookkeeping (`last_start_`,
  /// counters) updates once per run, and each subscriber pays one virtual
  /// dispatch + one watermark merge instead of one per element; two columnar
  /// kernels compose without ever materializing `StreamElement`s between
  /// them.
  ///
  /// The columns are swapped into the pipe's staged entry instead of
  /// copied, and `run` comes back cleared with recycled capacity — so an
  /// operator that keeps one scratch run and hands it off every flush
  /// stages with zero copies and zero allocations in steady state (treat
  /// `run` as unspecified and `clear()` before reuse).
  void TransferRun(ColumnarRun<T>&& run) {
    if (run.empty()) return;
    PIPES_DCHECK(!done_);
    PIPES_DCHECK(run.starts.front() >= last_start_ ||
                 last_start_ == kMinTimestamp);
    PIPES_DCHECK(std::is_sorted(run.starts.begin(), run.starts.end()));
    PIPES_DCHECK(run.ends.size() == run.starts.size() &&
                 run.payloads.size() == run.starts.size());
    last_start_ = std::max(last_start_, run.starts.back());
    CountOut(run.size());
    this->CountBatchOut();
    this->AdvanceProgress(last_start_);
    trace::RecordRunHops(this->id(), run.starts.data(), run.size(),
                         trace::Hop::kEmit);
    pipe_.StageRun(std::move(run));
  }

  /// Promises that no future element will have `start() < t`.
  void TransferHeartbeat(Timestamp t) {
    PIPES_DCHECK(!done_);
    if (t <= last_start_) return;
    last_start_ = t;
    this->AdvanceProgress(t);
    pipe_.StageHeartbeat(t);
  }

  /// Signals end-of-stream to all subscribers. Idempotent.
  void TransferDone() {
    if (done_) return;
    done_ = true;
    // End-of-stream pins this node's progress clock at +inf, matching the
    // kMaxTimestamp watermark the subscribers will report — a drained graph
    // shows zero watermark lag everywhere.
    this->AdvanceProgress(kMaxTimestamp);
    pipe_.StageDone();
  }

 private:
  template <typename U>
  friend class Pipe;

  // --- Delivery (called from Pipe<T>::Deliver) ------------------------------
  // Bookkeeping already happened at staging time; these only run the
  // subscriber loops. The downstream operators they invoke stage into their
  // own pipes, so the call depth is constant regardless of chain length.

  void DeliverStagedRun(const ColumnarRun<T>& run) {
    for (const Subscription& s : subscriptions_) {
      s.port->ReceiveRun(s.slot, run);
    }
  }

  void DeliverStagedHeartbeat(Timestamp t) {
    for (const Subscription& s : subscriptions_) {
      s.port->ReceiveHeartbeat(s.slot, t);
    }
  }

  void DeliverStagedDone() {
    for (const Subscription& s : subscriptions_) {
      s.port->ReceiveDone(s.slot);
    }
  }
  struct Subscription {
    InputPort<T>* port;
    int slot;
  };

  void EraseOneTopologyEdge(Node* down) {
    auto dit = std::find(downstream_.begin(), downstream_.end(), down);
    if (dit != downstream_.end()) downstream_.erase(dit);
    auto& ups = down->upstream_;
    auto uit = std::find(ups.begin(), ups.end(), static_cast<Node*>(this));
    if (uit != ups.end()) ups.erase(uit);
  }

  std::vector<Subscription> subscriptions_;
  Timestamp last_start_ = kMinTimestamp;
  bool done_ = false;
  /// Every `Transfer*` stages here.
  Pipe<T> pipe_;
};

// Out-of-line so port.h (which source.h includes) only needs the forward
// declaration of Source<T>.
template <typename T>
void InputPort<T>::SubscribeTo(Source<T>& source) {
  source.AddSubscriber(*this);
}

// --- Pipe<T> member definitions --------------------------------------------
// Out-of-line here (not in pipe_edge.h) because they call into Source<T>'s
// private delivery methods; every TU that instantiates Source<T> — and
// hence its Pipe<T> member — sees them.

template <typename T>
Pipe<T>::Pipe(Source<T>* source) : PipeBase(source), source_(source) {}

template <typename T>
std::size_t Pipe<T>::Deliver() {
  delivering_.clear();
  delivering_.swap(entries_);
  const std::size_t units = staged_units_;
  staged_units_ = 0;
  for (Entry& entry : delivering_) {
    switch (entry.kind) {
      case Entry::kRun:
        if (!entry.run.empty()) source_->DeliverStagedRun(entry.run);
        entry.run.clear();
        break;
      case Entry::kHeartbeat:
        source_->DeliverStagedHeartbeat(entry.heartbeat);
        break;
      case Entry::kDone:
        source_->DeliverStagedDone();
        break;
    }
  }
  // Recycle the entries (column capacity intact) into the staging pool.
  for (Entry& entry : delivering_) {
    pool_.push_back(std::move(entry));
  }
  delivering_.clear();
  return units;
}

}  // namespace pipes

#endif  // PIPES_CORE_SOURCE_H_
