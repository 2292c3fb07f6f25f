#ifndef PIPES_TESTING_ORACLES_H_
#define PIPES_TESTING_ORACLES_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/core/descriptor.h"
#include "src/core/sink.h"
#include "src/relational/tuple.h"

/// \file
/// The runtime oracles of the simulation harness: the streaming invariants
/// observed at the sink (ordered output, elements never behind the
/// watermark, nothing after end-of-stream) and per-node metrics
/// conservation. The differential oracle — the run against the reference —
/// is `conformance::SnapshotDiff`, the comparator the conformance corpus
/// uses too.

namespace pipes::testing {

using Elem = StreamElement<relational::Tuple>;

/// One oracle violation. `oracle` is a stable short tag (used by the
/// self-check to assert *which* oracle fired), `detail` is for humans.
struct Failure {
  std::string oracle;
  std::string detail;
};

/// A deliberate bug planted between the plan's output and the sink. The
/// self-check runs otherwise-correct cases with each canary in turn and
/// asserts that some oracle catches every kind.
enum class CanaryKind {
  kNone,
  kDropElement,         ///< Silently drops every 17th element.
  kDuplicateElement,    ///< Emits every 13th element twice.
  kCorruptPayload,      ///< Adds 1 to the first field of every 19th element.
  kWidenInterval,       ///< Extends every 11th element's validity by 5.
  kStaleReplay,         ///< Re-emits an old payload at the current instant.
  kHeartbeatOvershoot,  ///< Forwards watermarks 7 ticks into the future.
};
inline constexpr int kNumCanaryKinds =
    static_cast<int>(CanaryKind::kHeartbeatOvershoot) + 1;

const char* CanaryKindName(CanaryKind kind);

/// What the elements-in/out/shed counters of one physical node must satisfy
/// after a fully drained run.
enum class ConservationRule {
  kNone,            // sources, sinks, sweep-expanding binaries
  kExact,           // out == in (maps, windows, union, istream, merge)
  kAtMostIn,        // out <= in (filter, distinct, dstream, slide windows)
  kExactPlusShed,   // in == out + shed (buffers after drain)
  kAtMostDoubleIn,  // out <= 2*in + 1 (sweep-line aggregates' segments)
};

/// The rule for a node, by its descriptor's operator name.
ConservationRule RuleFor(const NodeDescriptor& descriptor);

std::optional<std::string> CheckConservation(ConservationRule rule,
                                             std::uint64_t in,
                                             std::uint64_t out,
                                             std::uint64_t shed,
                                             std::uint64_t queued,
                                             const std::string& node_name);

/// Terminal sink that records the output stream while checking the
/// streaming invariants on the fly:
///   * non-decreasing element starts (per-run ordered output),
///   * no element behind a previously notified watermark,
///   * watermark monotonicity,
///   * silence after end-of-stream.
class OracleSink : public Sink<relational::Tuple> {
 public:
  explicit OracleSink(std::string name = "oracle-sink")
      : Sink<relational::Tuple>(std::move(name)) {}

  const std::vector<Elem>& collected() const { return collected_; }
  const std::vector<Failure>& violations() const { return violations_; }

  NodeDescriptor Describe() const override {
    NodeDescriptor d = Sink<relational::Tuple>::Describe();
    d.op = "oracle-sink";
    return d;
  }

 protected:
  void PortElement(int port_id, const Elem& e) override;
  void PortProgress(int port_id, Timestamp watermark) override;
  void PortDone(int port_id) override;

 private:
  void Violate(const char* oracle, std::string detail);

  std::vector<Elem> collected_;
  std::vector<Failure> violations_;
  Timestamp last_start_ = kMinTimestamp;
  Timestamp max_watermark_ = kMinTimestamp;
  bool done_seen_ = false;
};

}  // namespace pipes::testing

#endif  // PIPES_TESTING_ORACLES_H_
