// nexmark-fanout: NEXMark bids through one inlet into 64 resident queries
// of 8 tenants, while a churn tenant registers and cancels family queries.
// The delivery-heavy, sharing-heavy regime. See README.md.

#include <string>
#include <utility>
#include <vector>

#include "engine_rig.h"
#include "harness.h"
#include "src/cql/analyzer.h"
#include "src/optimizer/logical_plan.h"
#include "src/workloads/nexmark.h"

namespace perfbench {

namespace {

using pipes::Timestamp;
using pipes::relational::Field;
using pipes::relational::Schema;
using pipes::relational::Tuple;
using pipes::relational::Value;
using pipes::relational::ValueType;

constexpr double kOpenLoopRate = 2'000;  // bids/s, well under saturation
// Saturation bids per second of --seconds: about fifteen seconds of
// bursts at --seconds 40 on a 4-core Xeon VM. Fewer bids let whole runs
// follow the shared host's speed drift: at 4 k the IQR/median of ten
// runs' throughput was 0.23-0.31, at 6 k 0.11.
constexpr double kSaturationEventsPerSecond = 6'000;
// Warm-up bids: about 650 s of event time, past the mean auction life of
// 600 s, so the number of open auctions (the groups every aggregate holds)
// has levelled off before the first block. Without it the first burst ran
// up to 1.4x faster than the later ones and the early latency windows read
// low.
constexpr std::size_t kWarmupEvents = 60'000;
constexpr int kTenants = 8;
constexpr int kQueriesPerTenant = 8;

Schema BidSchema() {
  return Schema({Field{"auction", ValueType::kInt},
                 Field{"bidder", ValueType::kInt},
                 Field{"price", ValueType::kDouble}});
}

/// The overlapping family: five aggregates over two sliding windows,
/// grouped by auction. Identical texts share every operator.
std::string FamilyText(int j) {
  static const char* const kAggs[] = {"MAX(price)", "MIN(price)",
                                      "AVG(price)", "SUM(price)",
                                      "COUNT(price)"};
  static const char* const kWindows[] = {
      "[RANGE 10 SECONDS SLIDE 1 SECONDS]",
      "[RANGE 60 SECONDS SLIDE 10 SECONDS]"};
  return std::string("SELECT auction, ") + kAggs[j % 5] + " AS v FROM bids " +
         kWindows[(j / 5) % 2] + " GROUP BY auction";
}

/// Two filters united: the one resident plan CQL cannot express.
pipes::Result<pipes::optimizer::LogicalPlan> UnionPlan(
    const pipes::cql::Catalog& catalog) {
  PIPES_ASSIGN_OR_RETURN(
      pipes::cql::CompiledQuery high,
      pipes::cql::Compile("SELECT auction, price FROM bids WHERE price > 400",
                          catalog));
  PIPES_ASSIGN_OR_RETURN(
      pipes::cql::CompiledQuery picked,
      pipes::cql::Compile(
          "SELECT auction, price FROM bids WHERE auction % 10 = 3", catalog));
  return pipes::optimizer::UnionOp(high.plan, picked.plan);
}

}  // namespace

int RunNexmarkFanout(const Args& args, Report& report) {
  Workload w;
  w.name = "nexmark-fanout";
  w.open_rate = args.tiny ? 2'000 : kOpenLoopRate;
  w.warmup_events = args.tiny ? 100 : kWarmupEvents;
  w.open_events = static_cast<std::size_t>(
      w.open_rate * (args.tiny ? 0.1 : 0.6 * args.seconds));
  w.saturation_events = static_cast<std::size_t>(
      args.tiny ? 600 : kSaturationEventsPerSecond * args.seconds);
  if (args.tiny) w.setups = 2;
  w.build = BuildInProcess;

  pipes::workloads::NexmarkOptions options;
  options.seed = args.seed;
  options.num_events =
      (w.warmup_events + w.open_events + w.saturation_events) * 11 / 10 + 100;
  pipes::workloads::NexmarkGenerator generator(options);
  std::vector<pipes::StreamElement<Tuple>> bids;
  while (auto event = generator.Next()) {
    if (event->kind != pipes::workloads::NexmarkKind::kBid) continue;
    const pipes::workloads::Bid& b = event->bid;
    bids.push_back(pipes::StreamElement<Tuple>::Point(
        Tuple({Value(b.auction), Value(b.bidder), Value(b.price)}), b.time));
  }
  w.streams.push_back({"bids", BidSchema(), std::move(bids)});

  int family = 0;
  for (int t = 0; t < kTenants; ++t) {
    const std::string tenant = "tenant-" + std::to_string(t);
    QuerySpec filter;
    filter.name = "filter";
    filter.tenant = tenant;
    filter.text = "SELECT auction, bidder, price FROM bids WHERE bidder % " +
                  std::to_string(kTenants) + " = " + std::to_string(t);
    filter.latency_tagged = true;
    w.queries.push_back(filter);
    for (int k = 1; k < kQueriesPerTenant; ++k) {
      QuerySpec spec;
      spec.tenant = tenant;
      if (t + 1 == kTenants && k + 1 == kQueriesPerTenant) {
        spec.name = "union";
        spec.plan = UnionPlan;
      } else {
        spec.name = "family-" + std::to_string(family);
        spec.text = FamilyText(family++);
      }
      w.queries.push_back(spec);
    }
  }
  for (int j = 0; j < 10; ++j) {
    QuerySpec spec;
    spec.name = "churn-" + std::to_string(j);
    spec.tenant = "churn";
    spec.text = FamilyText(j);
    w.churn.push_back(spec);
  }
  w.churn_pairs = args.tiny ? 20 : static_cast<int>(100 * 0.6 * args.seconds);
  return RunWorkload(args, std::move(w), report);
}

}  // namespace perfbench
