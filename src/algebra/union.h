#ifndef PIPES_ALGEBRA_UNION_H_
#define PIPES_ALGEBRA_UNION_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/core/columnar.h"
#include "src/core/ordered_buffer.h"
#include "src/core/pipe.h"

/// \file
/// Multiset union. The logical operator simply merges the snapshots of both
/// inputs; physically the only work is re-establishing the global
/// start-order of the output, released by the combined watermark.
/// Non-blocking: elements leave as soon as both inputs have progressed past
/// their start.

namespace pipes::algebra {

/// Order-preserving union of two streams of the same payload type. For an
/// n-ary union, chain instances or subscribe several sources to `left()` —
/// the input port merges the progress of all its upstreams.
///
/// Staging is a pair of per-side FIFO queues: with one upstream per port
/// each side arrives in non-decreasing start order, so the globally next
/// element (smallest (start, arrival)) is always at one of the two fronts
/// and release is a plain two-way merge — O(1) per element, no heap. Each
/// queue is columnar (the element columns plus an arrival-sequence column
/// and a consumed-head index): runs stage as bulk column appends, and the
/// merge reads and writes plain arrays without ever materializing AoS
/// elements. If a side ever observes an out-of-order arrival (several
/// upstreams fanned in to one port), the queues are spilled — in arrival
/// order, preserving the release order exactly — into an ordered heap used
/// from then on.
template <typename T>
class Union : public BinaryPipe<T, T, T> {
 public:
  explicit Union(std::string name = "union")
      : BinaryPipe<T, T, T>(std::move(name)) {}

  NodeDescriptor Describe() const override {
    NodeDescriptor d = BinaryPipe<T, T, T>::Describe();
    d.op = "union";
    return d;
  }

 protected:
  /// Columnar kernels: stage straight from the columns — the common case
  /// (run continues the side's start order) is one bulk append per run with
  /// no intermediate `StreamElement` materialization — and the single
  /// per-run progress notification that follows does one flush instead of
  /// one per element.
  void OnRunLeft(const ColumnarRun<T>& run) override { StageRun(0, run); }
  void OnRunRight(const ColumnarRun<T>& run) override { StageRun(1, run); }

  void OnProgressSide(int /*side*/, Timestamp /*watermark*/) override {
    const Timestamp combined = this->CombinedWatermark();
    FlushBatched(combined);
    if (combined < kMaxTimestamp) {
      this->TransferHeartbeat(combined);
    }
  }

  void OnDoneSide(int /*side*/) override {
    if (this->BothDone()) {
      FlushBatched(kMaxTimestamp);
      this->TransferDone();
    } else {
      // One side finished: progress is now governed by the other side only.
      OnProgressSide(0, this->CombinedWatermark());
    }
  }

 private:
  /// One side's staged elements in arrival order: the element columns plus
  /// an arrival-sequence column, consumed from `head`. The fully-drained
  /// case (the common one — a watermark usually releases everything) resets
  /// in O(1) keeping capacity; a long undrained tail is compacted instead.
  struct SideQueue {
    ColumnarRun<T> cols;
    std::vector<std::uint64_t> seqs;
    std::size_t head = 0;

    bool empty() const { return head == cols.size(); }
    Timestamp FrontStart() const { return cols.starts[head]; }
    std::uint64_t FrontSeq() const { return seqs[head]; }

    void Settle() {
      if (head == cols.size()) {
        cols.clear();
        seqs.clear();
        head = 0;
      } else if (head > 1024 && head * 2 >= cols.size()) {
        cols.EraseFront(head);
        seqs.erase(seqs.begin(), seqs.begin() + head);
        head = 0;
      }
    }
  };

  /// Stages a whole columnar run on one side. A run is internally ordered,
  /// so only its first start can break the side's order (fan-in), checked
  /// once; afterwards the columns append in bulk.
  void StageRun(int side, const ColumnarRun<T>& run) {
    if (!spilled_) {
      SideQueue& q = queue_[side];
      if (q.empty() || q.cols.starts.back() <= run.starts.front()) {
        q.cols.AppendRun(run);
        q.seqs.reserve(q.seqs.size() + run.size());
        for (std::size_t i = 0; i < run.size(); ++i) {
          q.seqs.push_back(next_seq_++);
        }
        return;
      }
      SpillToHeap();
    }
    for (std::size_t i = 0; i < run.size(); ++i) {
      staged_.Push(
          StreamElement<T>(run.payloads[i], run.starts[i], run.ends[i]));
    }
  }

  /// Fan-in broke a side's start order: move everything into the heap, in
  /// arrival (seq) order so release order among equal starts is unchanged.
  void SpillToHeap() {
    spilled_ = true;
    SideQueue& l = queue_[0];
    SideQueue& r = queue_[1];
    while (!l.empty() || !r.empty()) {
      SideQueue& q =
          r.empty() || (!l.empty() && l.FrontSeq() < r.FrontSeq()) ? l : r;
      staged_.Push(q.cols.ElementAt(q.head));
      ++q.head;
    }
    l.Settle();
    r.Settle();
  }

  /// First index at or after `q.head` whose start is >= `watermark` —
  /// starts are sorted per side, so the ripe prefix ends at a binary
  /// search, not a scan.
  static std::size_t RipeEnd(const SideQueue& q, Timestamp watermark) {
    const auto& s = q.cols.starts;
    return static_cast<std::size_t>(
        std::lower_bound(s.begin() + q.head, s.end(), watermark) - s.begin());
  }

  /// (start, arrival-seq) of `a[i]` precedes that of `b[j]`.
  static bool Precedes(const SideQueue& a, std::size_t i, const SideQueue& b,
                       std::size_t j) {
    const Timestamp as = a.cols.starts[i];
    const Timestamp bs = b.cols.starts[j];
    return as != bs ? as < bs : a.seqs[i] < b.seqs[j];
  }

  /// Releases everything ripe below `watermark` as one downstream columnar
  /// run — the two-way merge reads the side columns and fills the output
  /// columns directly, without ever materializing AoS elements. The ripe
  /// boundary of each side is found once up front (and the output reserved
  /// exactly), so the merge loop carries no watermark checks or capacity
  /// growth; once either side's ripe prefix drains, the other's remainder
  /// leaves as a single bulk append.
  void FlushBatched(Timestamp watermark) {
    out_run_.clear();
    if (spilled_) {
      staged_.FlushUpTo(watermark, [this](StreamElement<T>&& e) {
        out_run_.Append(std::move(e));
      });
    } else {
      SideQueue& l = queue_[0];
      SideQueue& r = queue_[1];
      std::size_t lh = l.head;
      std::size_t rh = r.head;
      const std::size_t lend = RipeEnd(l, watermark);
      const std::size_t rend = RipeEnd(r, watermark);
      out_run_.reserve(out_run_.size() + (lend - lh) + (rend - rh));
      while (lh < lend && rh < rend) {
        if (Precedes(l, lh, r, rh)) {
          out_run_.Append(l.cols.payloads[lh], l.cols.starts[lh],
                          l.cols.ends[lh]);
          ++lh;
        } else {
          out_run_.Append(r.cols.payloads[rh], r.cols.starts[rh],
                          r.cols.ends[rh]);
          ++rh;
        }
      }
      if (lh < lend) {
        out_run_.AppendRange(l.cols, lh, lend);
        lh = lend;
      }
      if (rh < rend) {
        out_run_.AppendRange(r.cols, rh, rend);
        rh = rend;
      }
      l.head = lh;
      r.head = rh;
      l.Settle();
      r.Settle();
    }
    this->TransferRun(std::move(out_run_));
  }

  SideQueue queue_[2];
  std::uint64_t next_seq_ = 0;
  bool spilled_ = false;
  OrderedOutputBuffer<T> staged_;
  ColumnarRun<T> out_run_;
};

}  // namespace pipes::algebra

#endif  // PIPES_ALGEBRA_UNION_H_
