#ifndef PIPES_SWEEPAREA_MULTIWAY_JOIN_H_
#define PIPES_SWEEPAREA_MULTIWAY_JOIN_H_

#include <algorithm>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "src/common/macros.h"
#include "src/core/ordered_buffer.h"
#include "src/core/port.h"
#include "src/core/source.h"
#include "src/sweeparea/hash_sweep_area.h"

/// \file
/// Multi-way symmetric join (MJoin, after Viglas/Naughton/Burger):
/// n > 2 streams joined in one operator instead of a binary-join tree. Each
/// arriving element probes the other n-1 SweepAreas, cheapest (smallest)
/// first, extending partial results; no intermediate state is materialized
/// between probes, maximizing output rate for streaming inputs.

namespace pipes::sweeparea {

/// Equi-join of `n` same-typed streams on `key_fn`. The output payload is a
/// vector with one payload per input, indexed by input position; the output
/// interval is the intersection of all n validity intervals.
template <typename T, typename KeyFn>
class MultiwayJoin : public Source<std::vector<T>>, public PortOwner<T> {
 public:
  MultiwayJoin(std::size_t n, KeyFn key_fn, std::string name = "mjoin")
      : Source<std::vector<T>>(std::move(name)), key_fn_(key_fn) {
    PIPES_CHECK_MSG(n >= 2, "MultiwayJoin needs at least two inputs");
    ports_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      ports_.push_back(std::make_unique<InputPort<T>>(
          this, this, static_cast<int>(i)));
      areas_.emplace_back(key_fn_, key_fn_);
    }
  }

  std::size_t num_inputs() const { return ports_.size(); }

  InputPort<T>& input(std::size_t i) {
    PIPES_CHECK(i < ports_.size());
    return *ports_[i];
  }

  std::size_t state_size() const {
    std::size_t total = 0;
    for (const auto& area : areas_) total += area.size();
    return total;
  }

  NodeDescriptor Describe() const override {
    NodeDescriptor d;
    d.kind = NodeDescriptor::Kind::kOperator;
    d.op = "multiway-join";
    d.port_upstreams.reserve(ports_.size());
    for (const auto& port : ports_) {
      d.port_upstreams.push_back(port->num_upstreams());
    }
    d.blocking = true;
    // Each input element is inserted into its own SweepArea exactly once.
    d.dataflow.state_bytes_per_element = sizeof(T) + 48;
    d.dataflow.output_per_pair = true;
    d.dataflow.intersects_validity = true;
    return d;
  }

 protected:
  /// Row at a time: each row probes the other areas, then joins its own.
  void PortRun(int port_id, const ColumnarRun<T>& run) override {
    const auto origin = static_cast<std::size_t>(port_id);
    std::vector<std::size_t> order;
    std::vector<const StreamElement<T>*> partial(areas_.size(), nullptr);
    for (std::size_t r = 0; r < run.size(); ++r) {
      StreamElement<T> e = run.ElementAt(r);
      // Probe order: remaining inputs by ascending SweepArea size — the
      // cheapest probe first prunes candidate combinations earliest.
      order.clear();
      for (std::size_t i = 0; i < areas_.size(); ++i) {
        if (i != origin) order.push_back(i);
      }
      std::sort(order.begin(), order.end(),
                [&](std::size_t a, std::size_t b) {
                  return areas_[a].size() < areas_[b].size();
                });
      ExtendProbe(e, origin, order, 0, e.interval, partial);
      areas_[origin].Insert(std::move(e));
      Flush();
    }
  }

  void PortProgress(int /*port_id*/, Timestamp /*watermark*/) override {
    // An element in area i is dead once its validity ends before every
    // other input's future elements.
    for (std::size_t i = 0; i < areas_.size(); ++i) {
      areas_[i].PurgeBefore(MinWatermarkExcept(i));
    }
    Flush();
  }

  void PortDone(int /*port_id*/) override {
    if (AllDone()) {
      staged_.FlushAll([this](const StreamElement<std::vector<T>>& out) {
        this->Transfer(out);
      });
      this->TransferDone();
    } else {
      PortProgress(0, 0);
    }
  }

 private:
  using Area = HashSweepArea<T, T, KeyFn, KeyFn>;

  /// Depth-first extension of the partial combination: probe the SweepArea
  /// of `order[depth]` with the original element's key and the accumulated
  /// interval; a full assignment emits one result.
  void ExtendProbe(const StreamElement<T>& origin_element,
                   std::size_t origin, const std::vector<std::size_t>& order,
                   std::size_t depth, TimeInterval accumulated,
                   std::vector<const StreamElement<T>*>& partial) {
    if (depth == order.size()) {
      std::vector<T> payloads;
      payloads.reserve(areas_.size());
      for (std::size_t i = 0; i < areas_.size(); ++i) {
        payloads.push_back(i == origin ? origin_element.payload
                                       : partial[i]->payload);
      }
      staged_.Push(
          StreamElement<std::vector<T>>(std::move(payloads), accumulated));
      return;
    }
    const std::size_t target = order[depth];
    const StreamElement<T> probe(origin_element.payload, accumulated);
    areas_[target].Query(probe, [&](const StreamElement<T>& match) {
      partial[target] = &match;
      ExtendProbe(origin_element, origin, order, depth + 1,
                  accumulated.Intersect(match.interval), partial);
      partial[target] = nullptr;
    });
  }

  Timestamp MinWatermark() const {
    Timestamp w = kMaxTimestamp;
    for (const auto& port : ports_) w = std::min(w, port->watermark());
    return w;
  }

  Timestamp MinWatermarkExcept(std::size_t skip) const {
    Timestamp w = kMaxTimestamp;
    for (std::size_t i = 0; i < ports_.size(); ++i) {
      if (i != skip) w = std::min(w, ports_[i]->watermark());
    }
    return w;
  }

  bool AllDone() const {
    for (const auto& port : ports_) {
      if (!port->done()) return false;
    }
    return true;
  }

  void Flush() {
    const Timestamp w = MinWatermark();
    staged_.FlushUpTo(w, [this](const StreamElement<std::vector<T>>& out) {
      this->Transfer(out);
    });
    if (w < kMaxTimestamp) {
      this->TransferHeartbeat(w);
    }
  }

  KeyFn key_fn_;
  std::vector<std::unique_ptr<InputPort<T>>> ports_;
  std::vector<Area> areas_;
  OrderedOutputBuffer<std::vector<T>> staged_;
};

}  // namespace pipes::sweeparea

#endif  // PIPES_SWEEPAREA_MULTIWAY_JOIN_H_
