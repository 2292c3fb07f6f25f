#ifndef PIPES_CORE_PIPE_EDGE_H_
#define PIPES_CORE_PIPE_EDGE_H_

#include <algorithm>
#include <cstddef>
#include <vector>

#include "src/common/macros.h"
#include "src/common/time.h"
#include "src/core/columnar.h"
#include "src/core/element.h"

/// \file
/// The `Pipe` edge object of the executor-polled execution model
/// (DESIGN.md §4f). Every `Source<T>` owns a `Pipe<T>` from construction
/// and *stages* its output there — a stateful edge that owns the staged
/// columnar runs — and a `PipeExecutor` polls ready pipes from a FIFO work
/// queue. Delivery of one pipe's staged content makes the downstream
/// operators stage into *their* pipes, so a chain of any depth drains
/// iteratively with constant stack.
///
/// Staging into an empty pipe puts it in the executor's ready queue, once;
/// `Deliver()` empties it again. The executor's bookkeeping is exactly
/// `in_queue()` and `staged_units()`.
///
/// A pipe is *linked* to at most one executor at a time. Content staged
/// while no executor is linked stays in the pipe; the next executor to link
/// it enqueues it once and delivers it. Outside `Deliver()` a pipe only
/// changes state and notifies its executor — it never calls downstream.
/// That is the entire non-recursion argument.

namespace pipes {

class Node;
class PipeBase;
template <typename T>
class Source;

/// The executor's face toward pipes: a pipe that gained staged content
/// announces itself here (enqueue only — never a downstream call).
class ExecutorLink {
 public:
  virtual ~ExecutorLink() = default;

  /// `pipe` has staged content and is not yet queued. Must only enqueue.
  virtual void PipeReady(PipeBase* pipe) = 0;
};

/// Type-erased base of `Pipe<T>`: what the executor holds and polls.
class PipeBase {
 public:
  explicit PipeBase(Node* producer) : producer_(producer) {
    PIPES_CHECK(producer != nullptr);
  }
  /// A pipe must be unlinked before its node goes away: destroy (or
  /// suspend) the executor before removing or destroying the nodes it
  /// drives.
  virtual ~PipeBase() { PIPES_CHECK(link_ == nullptr); }

  PipeBase(const PipeBase&) = delete;
  PipeBase& operator=(const PipeBase&) = delete;

  /// The node whose output this edge carries.
  Node* producer() const { return producer_; }

  /// True while the pipe sits in the executor's ready queue.
  bool in_queue() const { return in_queue_; }

  /// Staged work units (elements + control signals) awaiting delivery.
  std::size_t staged_units() const { return staged_units_; }

  bool HasStaged() const { return staged_units_ > 0; }

  /// True while an executor is linked.
  bool linked() const { return link_ != nullptr; }

  /// Delivers everything staged to the producer's subscribers, in staging
  /// order, and empties the pipe. Returns the number of units delivered.
  /// Called by the executor only; downstream operators invoked from here
  /// stage into their own pipes instead of recursing further.
  virtual std::size_t Deliver() = 0;

  // --- Executor bookkeeping -------------------------------------------------

  /// Links this pipe to `link` (one executor at a time). Content staged
  /// while the pipe was unlinked is announced now, once.
  void Link(ExecutorLink* link) {
    PIPES_CHECK(link != nullptr && link_ == nullptr);
    link_ = link;
    if (HasStaged()) NotifyReady();
  }

  /// Unlinks the executor and frees the pooled column capacity. Anything
  /// still staged stays for the next executor to deliver.
  void Unlink() {
    link_ = nullptr;
    in_queue_ = false;
    ReleasePool();
  }

  /// The executor dequeued this pipe (immediately before `Deliver`).
  void ClearInQueue() { in_queue_ = false; }

 protected:
  /// Content was staged: a linked executor is notified exactly once until
  /// the pipe is dequeued again.
  void NotifyReady() {
    if (!in_queue_ && link_ != nullptr) {
      in_queue_ = true;
      link_->PipeReady(this);
    }
  }

  /// Drops recycled entries (and their column capacity).
  virtual void ReleasePool() = 0;

  std::size_t staged_units_ = 0;

 private:
  Node* producer_;
  ExecutorLink* link_ = nullptr;
  bool in_queue_ = false;
};

/// The typed pipe edge: owns the staged output of one `Source<T>` as an
/// ordered sequence of columnar runs interleaved with control signals.
/// Consecutive element and run transfers coalesce into the tail run, so
/// delivery is always columnar; heartbeats and done markers keep their
/// position relative to the element runs they arrived between.
template <typename T>
class Pipe final : public PipeBase {
 public:
  explicit Pipe(Source<T>* source);

  // --- Staging (called by Source<T>'s Transfer*) ----------------------------

  void StageElement(const StreamElement<T>& e) {
    TailRun().Append(e);
    staged_units_ += 1;
    NotifyReady();
  }

  /// When the tail entry is a fresh (pool-recycled) run, the columns are
  /// swapped in — zero copy — and the producer gets the pooled capacity
  /// back in `run` for its next output.
  void StageRun(ColumnarRun<T>&& run) {
    staged_units_ += run.size();
    TailRun().TakeFrom(run);
    NotifyReady();
  }

  void StageHeartbeat(Timestamp t) {
    PushEntry(Entry::kHeartbeat).heartbeat = t;
    staged_units_ += 1;
    NotifyReady();
  }

  void StageDone() {
    PushEntry(Entry::kDone);
    staged_units_ += 1;
    NotifyReady();
  }

  std::size_t Deliver() override;

  /// True if any element row is staged (control signals aside).
  bool HasStagedRows() const {
    return std::any_of(entries_.begin(), entries_.end(),
                       [](const Entry& e) {
                         return e.kind == Entry::kRun && !e.run.empty();
                       });
  }

 private:
  struct Entry {
    enum Kind { kRun, kHeartbeat, kDone };
    Kind kind = kRun;
    ColumnarRun<T> run;
    Timestamp heartbeat = kMinTimestamp;
  };

  /// Appends a fresh entry of `kind`, recycling pooled column capacity.
  Entry& PushEntry(typename Entry::Kind kind) {
    if (!pool_.empty()) {
      entries_.push_back(std::move(pool_.back()));
      pool_.pop_back();
    } else {
      entries_.emplace_back();
    }
    Entry& e = entries_.back();
    e.kind = kind;
    return e;
  }

  /// The run entry new elements coalesce into.
  ColumnarRun<T>& TailRun() {
    if (entries_.empty() || entries_.back().kind != Entry::kRun) {
      PushEntry(Entry::kRun);
    }
    return entries_.back().run;
  }

  void ReleasePool() override {
    std::vector<Entry>().swap(pool_);
    std::vector<Entry>().swap(delivering_);
  }

  Source<T>* source_;
  std::vector<Entry> entries_;
  /// Delivered entries come back here with their column capacity intact, so
  /// steady-state staging allocates nothing.
  std::vector<Entry> pool_;
  /// Deliver() swaps `entries_` in here before walking it, so (pathological)
  /// re-staging during delivery cannot invalidate the walk.
  std::vector<Entry> delivering_;
};

// Member definitions live in source.h (below the Source<T> definition),
// which every translation unit that instantiates Source<T> includes.

}  // namespace pipes

#endif  // PIPES_CORE_PIPE_EDGE_H_
