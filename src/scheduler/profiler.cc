#include "src/scheduler/profiler.h"

#include <bit>
#include <cstdio>
#include <sstream>

namespace pipes::scheduler {

namespace {

std::size_t TrainBucket(std::size_t units) {
  if (units <= 1) return 0;
  const std::size_t idx =
      static_cast<std::size_t>(std::bit_width(units)) - 1;
  return idx < NodeProfile::kTrainBuckets ? idx
                                          : NodeProfile::kTrainBuckets - 1;
}

}  // namespace

void Profiler::RecordQuantum(const Node& node, std::size_t num_candidates,
                             std::size_t units, std::uint64_t service_ns) {
  NodeProfile& profile = per_node_[node.id()];
  if (profile.quanta == 0) {
    profile.node_id = node.id();
    profile.node_name = node.name();
  }
  ++profile.quanta;
  profile.units += units;
  profile.service_ns += service_ns;
  profile.max_service_ns = std::max(profile.max_service_ns, service_ns);
  profile.candidates_sum += num_candidates;
  ++profile.train_length_buckets[TrainBucket(units)];

  ++decisions_;
  total_units_ += units;
  total_service_ns_ += service_ns;
}

void Profiler::Merge(const Profiler& other) {
  for (const auto& [id, theirs] : other.per_node_) {
    NodeProfile& mine = per_node_[id];
    if (mine.quanta == 0) {
      mine.node_id = theirs.node_id;
      mine.node_name = theirs.node_name;
    }
    mine.quanta += theirs.quanta;
    mine.units += theirs.units;
    mine.service_ns += theirs.service_ns;
    mine.max_service_ns = std::max(mine.max_service_ns, theirs.max_service_ns);
    mine.candidates_sum += theirs.candidates_sum;
    for (std::size_t i = 0; i < NodeProfile::kTrainBuckets; ++i) {
      mine.train_length_buckets[i] += theirs.train_length_buckets[i];
    }
  }
  decisions_ += other.decisions_;
  total_units_ += other.total_units_;
  total_service_ns_ += other.total_service_ns_;
}

std::vector<NodeProfile> Profiler::PerNode() const {
  std::vector<NodeProfile> out;
  out.reserve(per_node_.size());
  for (const auto& [id, profile] : per_node_) out.push_back(profile);
  return out;
}

NodeProfile Profiler::ForNode(const Node& node) const {
  auto it = per_node_.find(node.id());
  if (it == per_node_.end()) {
    NodeProfile empty;
    empty.node_id = node.id();
    empty.node_name = node.name();
    return empty;
  }
  return it->second;
}

std::string Profiler::Summary() const {
  std::ostringstream out;
  char line[256];
  std::snprintf(line, sizeof(line), "%-24s %10s %12s %10s %12s %12s\n",
                "node", "quanta", "units", "units/q", "service-us",
                "max-q-us");
  out << line;
  for (const auto& [id, p] : per_node_) {
    std::snprintf(line, sizeof(line),
                  "%-24s %10llu %12llu %10.1f %12.1f %12.1f\n",
                  p.node_name.c_str(),
                  static_cast<unsigned long long>(p.quanta),
                  static_cast<unsigned long long>(p.units),
                  p.MeanTrainLength(),
                  static_cast<double>(p.service_ns) / 1e3,
                  static_cast<double>(p.max_service_ns) / 1e3);
    out << line;
  }
  std::snprintf(line, sizeof(line),
                "total: %llu decisions, %llu units, %.1f ms in DoWork + "
                "delivery\n",
                static_cast<unsigned long long>(decisions_),
                static_cast<unsigned long long>(total_units_),
                static_cast<double>(total_service_ns_) / 1e6);
  out << line;
  return out.str();
}

}  // namespace pipes::scheduler
