#ifndef PIPES_WORKLOADS_TRAFFIC_QUERIES_H_
#define PIPES_WORKLOADS_TRAFFIC_QUERIES_H_

#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "src/algebra/aggregate.h"
#include "src/algebra/filter.h"
#include "src/algebra/window.h"
#include "src/core/generator_source.h"
#include "src/core/graph.h"
#include "src/workloads/traffic.h"

/// \file
/// The traffic-management query library: typed building blocks for the
/// demo scenario's continuous queries (in the spirit of the Linear Road
/// benchmark the paper references):
///
///  * hourly average HOV speed per direction,
///  * per-segment average speed over short windows,
///  * sustained-condition detection ("average speed below a threshold
///    constantly for 15 minutes" — the incident indicator).
///
/// All pieces are ordinary operators of the generic algebra; this header
/// just packages the workload's types and plan fragments for reuse by
/// examples, tests, and benchmarks.

namespace pipes::workloads {

/// Alarm raised when a keyed condition held continuously long enough.
template <typename Key>
struct Sustained {
  Key key{};
  Timestamp since = 0;     // when the run started
  Timestamp duration = 0;  // run length when the alarm fired

  friend bool operator==(const Sustained&, const Sustained&) = default;
};

/// Detects, per key, runs of contiguous (overlapping or abutting) input
/// validity during which `pred(payload)` holds; fires one alarm per run
/// when the run first reaches `min_duration`. The alarm element carries
/// the triggering element's validity, so output order follows input order.
template <typename In, typename KeyFn, typename Pred>
class SustainedConditionDetector
    : public UnaryPipe<
          In, Sustained<std::decay_t<std::invoke_result_t<KeyFn, const In&>>>> {
 public:
  using Key = std::decay_t<std::invoke_result_t<KeyFn, const In&>>;
  using Alarm = Sustained<Key>;

  SustainedConditionDetector(KeyFn key_fn, Pred pred,
                             Timestamp min_duration,
                             std::string name = "sustained-condition")
      : UnaryPipe<In, Alarm>(std::move(name)),
        key_fn_(std::move(key_fn)),
        pred_(std::move(pred)),
        min_duration_(min_duration) {
    PIPES_CHECK(min_duration > 0);
  }

  NodeDescriptor Describe() const override {
    NodeDescriptor d = UnaryPipe<In, Alarm>::Describe();
    d.op = "sustained-condition";
    // At most one Run entry per key, one key per input element; at most
    // one alarm per run.
    d.dataflow.state_bytes_per_element = sizeof(Key) + 64 + 32;
    return d;
  }

 protected:
  /// Columnar kernel: the alarms a run raises leave as one output run.
  void PortRun(int /*port_id*/, const ColumnarRun<In>& run) override {
    alarms_.clear();
    for (std::size_t i = 0; i < run.size(); ++i) {
      std::optional<Alarm> alarm =
          Observe(run.payloads[i], run.starts[i], run.ends[i]);
      if (alarm) alarms_.Append(*alarm, run.starts[i], run.ends[i]);
    }
    this->TransferRun(std::move(alarms_));
  }

 private:
  struct Run {
    bool active = false;
    bool alarmed = false;
    Timestamp start = 0;
    Timestamp end = 0;
  };

  /// Folds one element into its key's run; returns the alarm it raises.
  std::optional<Alarm> Observe(const In& payload, Timestamp start,
                               Timestamp end) {
    const Key key = key_fn_(payload);
    Run& run = runs_[key];
    if (!pred_(payload)) {
      run.active = false;
      return std::nullopt;
    }
    if (!run.active || start > run.end) {
      // Gap (or first observation): a new run starts.
      run.active = true;
      run.alarmed = false;
      run.start = start;
      run.end = end;
    } else {
      run.end = std::max(run.end, end);
    }
    if (run.alarmed || run.end - run.start < min_duration_) {
      return std::nullopt;
    }
    run.alarmed = true;
    return Alarm{key, run.start, run.end - run.start};
  }

  KeyFn key_fn_;
  Pred pred_;
  Timestamp min_duration_;
  std::unordered_map<Key, Run> runs_;
  ColumnarRun<Alarm> alarms_;
};

/// Wraps a `TrafficGenerator` into an active source of point elements
/// (validity [timestamp, timestamp+1)). `batch_size` > 1 makes the source
/// emit that many readings per `TransferRun` — the batching knob for the
/// traffic workload.
FunctionSource<TrafficReading>& AddTrafficSource(QueryGraph& graph,
                                                 TrafficOptions options,
                                                 std::size_t batch_size = 1);

// --- Plan fragments for the demo queries --------------------------------------

/// Named functors so the fragment builders have spellable operator types.
struct HovLaneOnly {
  bool operator()(const TrafficReading& r) const { return r.lane == 0; }
};
struct DirectionOf {
  std::int32_t operator()(const TrafficReading& r) const {
    return r.direction;
  }
};
struct DetectorOf {
  std::int32_t operator()(const TrafficReading& r) const {
    return r.detector;
  }
};
struct SpeedOf {
  double operator()(const TrafficReading& r) const { return r.speed_kmh; }
};
struct InDirection {
  std::int32_t direction;
  bool operator()(const TrafficReading& r) const {
    return r.direction == direction;
  }
};

/// (direction, average HOV speed) per `slide`-aligned window of `range`.
using HovAverageSpeed =
    algebra::GroupedAggregate<TrafficReading, algebra::AvgAgg<double>,
                              DirectionOf, SpeedOf>;

/// Builds: source -> HOV filter -> slide window -> grouped average.
/// Returns the query output (subscribe a sink to it).
HovAverageSpeed& BuildHovAverageSpeedQuery(
    QueryGraph& graph, Source<TrafficReading>& readings, Timestamp range,
    Timestamp slide);

/// (detector, average speed) in one direction per slide-aligned window.
using SegmentAverageSpeed =
    algebra::GroupedAggregate<TrafficReading, algebra::AvgAgg<double>,
                              DetectorOf, SpeedOf>;

SegmentAverageSpeed& BuildSegmentAverageSpeedQuery(
    QueryGraph& graph, Source<TrafficReading>& readings,
    std::int32_t direction, Timestamp range, Timestamp slide);

/// Predicate on the (detector, avg) pairs of SegmentAverageSpeed.
struct AvgBelow {
  double threshold;
  bool operator()(const std::pair<std::int32_t, double>& p) const {
    return p.second < threshold;
  }
};
struct PairKey {
  std::int32_t operator()(const std::pair<std::int32_t, double>& p) const {
    return p.first;
  }
};

/// Congestion detector: segment averages below `speed_threshold` sustained
/// for at least `min_duration` raise one alarm per congestion episode.
using CongestionDetector =
    SustainedConditionDetector<std::pair<std::int32_t, double>, PairKey,
                               AvgBelow>;

CongestionDetector& BuildCongestionQuery(
    QueryGraph& graph, Source<TrafficReading>& readings,
    std::int32_t direction, Timestamp avg_window, Timestamp avg_slide,
    double speed_threshold, Timestamp min_duration);

}  // namespace pipes::workloads

#endif  // PIPES_WORKLOADS_TRAFFIC_QUERIES_H_
