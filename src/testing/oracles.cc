#include "src/testing/oracles.h"

#include <algorithm>
#include <sstream>

namespace pipes::testing {

namespace {

// Limits how much a misbehaving run can accumulate; the first violation is
// the interesting one anyway.
constexpr std::size_t kMaxRecordedViolations = 8;

std::string FormatElem(const Elem& e) {
  std::ostringstream out;
  out << e.payload.ToString() << "@[" << e.start() << ", ";
  if (e.end() == kMaxTimestamp) {
    out << "inf";
  } else {
    out << e.end();
  }
  out << ")";
  return out.str();
}

}  // namespace

const char* CanaryKindName(CanaryKind kind) {
  switch (kind) {
    case CanaryKind::kNone:
      return "none";
    case CanaryKind::kDropElement:
      return "drop-element";
    case CanaryKind::kDuplicateElement:
      return "duplicate-element";
    case CanaryKind::kCorruptPayload:
      return "corrupt-payload";
    case CanaryKind::kWidenInterval:
      return "widen-interval";
    case CanaryKind::kStaleReplay:
      return "stale-replay";
    case CanaryKind::kHeartbeatOvershoot:
      return "heartbeat-overshoot";
  }
  return "unknown";
}

ConservationRule RuleFor(const NodeDescriptor& descriptor) {
  const std::string& op = descriptor.op;
  if (op == "map" || op == "time-window" || op == "unbounded-window" ||
      op == "count-window" || op == "partitioned-window" || op == "union" ||
      op == "istream" || op == "partition" || op == "merge") {
    return ConservationRule::kExact;
  }
  // Slide windows drop degenerate (first >= last) windows; dstream skips
  // never-expiring elements.
  if (op == "filter" || op == "slide-window" || op == "distinct" ||
      op == "dstream") {
    return ConservationRule::kAtMostIn;
  }
  if (op == "group-aggregate" || op == "aggregate") {
    return ConservationRule::kAtMostDoubleIn;
  }
  if (op == "buffer") return ConservationRule::kExactPlusShed;
  return ConservationRule::kNone;
}

std::optional<std::string> CheckConservation(ConservationRule rule,
                                             std::uint64_t in,
                                             std::uint64_t out,
                                             std::uint64_t shed,
                                             std::uint64_t queued,
                                             const std::string& node_name) {
  bool holds = true;
  const char* law = "";
  switch (rule) {
    case ConservationRule::kNone:
      break;
    case ConservationRule::kExact:
      holds = out == in;
      law = "out == in";
      break;
    case ConservationRule::kAtMostIn:
      holds = out <= in;
      law = "out <= in";
      break;
    case ConservationRule::kExactPlusShed:
      holds = in == out + shed + queued;
      law = "in == out + shed + queued";
      break;
    case ConservationRule::kAtMostDoubleIn:
      holds = out <= 2 * in + 1;
      law = "out <= 2*in + 1";
      break;
  }
  if (holds) return std::nullopt;
  std::ostringstream msg;
  msg << node_name << ": expected " << law << ", got in=" << in
      << " out=" << out << " shed=" << shed << " queued=" << queued;
  return msg.str();
}

void OracleSink::PortRun(int /*port_id*/,
                         const ColumnarRun<relational::Tuple>& run) {
  for (std::size_t i = 0; i < run.size(); ++i) Check(run.ElementAt(i));
}

void OracleSink::Check(const Elem& e) {
  if (done_seen_) {
    Violate("post-done", "element " + FormatElem(e) + " after end-of-stream");
  }
  if (e.start() < last_start_) {
    std::ostringstream out;
    out << "element " << FormatElem(e)
        << " starts before the previous element (start " << last_start_
        << ")";
    Violate("order", out.str());
  }
  if (max_watermark_ > kMinTimestamp && e.start() < max_watermark_) {
    std::ostringstream out;
    out << "element " << FormatElem(e)
        << " starts behind the notified watermark " << max_watermark_;
    Violate("watermark-element", out.str());
  }
  last_start_ = std::max(last_start_, e.start());
  collected_.push_back(e);
}

void OracleSink::PortProgress(int /*port_id*/, Timestamp watermark) {
  if (done_seen_) {
    std::ostringstream out;
    out << "watermark " << watermark << " after end-of-stream";
    Violate("post-done", out.str());
  }
  if (watermark < max_watermark_) {
    std::ostringstream out;
    out << "watermark regressed from " << max_watermark_ << " to "
        << watermark;
    Violate("watermark-monotone", out.str());
  }
  max_watermark_ = std::max(max_watermark_, watermark);
}

void OracleSink::PortDone(int port_id) {
  done_seen_ = true;
  Sink<relational::Tuple>::PortDone(port_id);
}

void OracleSink::Violate(const char* oracle, std::string detail) {
  if (violations_.size() >= kMaxRecordedViolations) return;
  violations_.push_back(Failure{oracle, std::move(detail)});
}

}  // namespace pipes::testing
