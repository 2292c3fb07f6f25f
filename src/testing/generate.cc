#include "src/testing/generate.h"

#include <algorithm>
#include <utility>

#include "src/common/macros.h"

namespace pipes::testing {

namespace {

using optimizer::AggKind;
using optimizer::LogicalPlan;
using optimizer::WindowKind;
using optimizer::WindowSpec;
using relational::BinaryOp;
using relational::ExprPtr;

/// What one draw adds to the plan.
enum class Draw {
  kFilter,
  kMap,
  kRangeWindow,
  kSlideWindow,
  kUnboundedWindow,
  kRowsWindow,
  kPartitionedWindow,
  kUnion,
  kHashJoin,
  kSum,
  kGroupSum,
  kDistinct,
  kDifference,
  kIntersect,
  kIStream,
  kDStream,
};

struct DrawWeight {
  Draw draw;
  int weight;
};

// Cheap, common shapes dominate; blocking binaries are rare enough that the
// size estimator rarely has to reroll them.
constexpr DrawWeight kWeights[] = {
    {Draw::kFilter, 3},          {Draw::kMap, 3},
    {Draw::kRangeWindow, 2},     {Draw::kSlideWindow, 2},
    {Draw::kUnboundedWindow, 1}, {Draw::kRowsWindow, 1},
    {Draw::kPartitionedWindow, 1}, {Draw::kUnion, 2},
    {Draw::kHashJoin, 1},        {Draw::kSum, 1},
    {Draw::kGroupSum, 1},        {Draw::kDistinct, 2},
    {Draw::kDifference, 1},      {Draw::kIntersect, 1},
    {Draw::kIStream, 1},         {Draw::kDStream, 1},
};

Draw PickDraw(Random& rng) {
  int total = 0;
  for (const DrawWeight& w : kWeights) total += w.weight;
  int roll = static_cast<int>(rng.NextBounded(total));
  for (const DrawWeight& w : kWeights) {
    roll -= w.weight;
    if (roll < 0) return w.draw;
  }
  return Draw::kFilter;
}

bool IsWindow(Draw d) {
  return d == Draw::kRangeWindow || d == Draw::kSlideWindow ||
         d == Draw::kUnboundedWindow || d == Draw::kRowsWindow ||
         d == Draw::kPartitionedWindow;
}

bool IsBinary(Draw d) {
  return d == Draw::kUnion || d == Draw::kHashJoin ||
         d == Draw::kDifference || d == Draw::kIntersect;
}

ExprPtr Int(std::int64_t v) {
  return relational::MakeLiteral(relational::Value(v));
}

ExprPtr Field(const LogicalPlan& plan, std::size_t i) {
  return relational::MakeField(i, plan->schema.field(i).name);
}

ExprPtr Bin(BinaryOp op, ExprPtr l, ExprPtr r) {
  return relational::MakeBinary(op, std::move(l), std::move(r));
}

/// (x + y) % kValModulus.
ExprPtr ModSum(ExprPtr x, ExprPtr y) {
  return Bin(BinaryOp::kMod, Bin(BinaryOp::kAdd, std::move(x), std::move(y)),
             Int(kValModulus));
}

/// (a * x + b) % kValModulus.
ExprPtr Affine(std::int64_t a, ExprPtr x, std::int64_t b) {
  return ModSum(Bin(BinaryOp::kMul, Int(a), std::move(x)), Int(b));
}

/// `child` projected to `(expr AS v)`.
LogicalPlan AsV(const LogicalPlan& child, ExprPtr expr) {
  return optimizer::ProjectOp(child, {std::move(expr)}, {"v"});
}

LogicalPlan Scan(std::size_t stream, WindowSpec window) {
  return optimizer::ScanOp(StreamName(stream), StreamSchema(),
                           std::move(window));
}

/// Equi-join of `l` and `r` on (v % modulus): both sides project the key
/// column, join on it — as an equi-join or, in the CQL analyzer's shape, as
/// a cross join under an equality filter the optimizer turns into a key —
/// and each pair folds back into one value.
LogicalPlan HashJoin(const LogicalPlan& l, const LogicalPlan& r,
                     std::int64_t modulus, bool cross) {
  const auto keyed = [&](const LogicalPlan& side, const std::string& alias) {
    return optimizer::ProjectOp(
        side,
        {Field(side, 0), Bin(BinaryOp::kMod, Field(side, 0), Int(modulus))},
        {alias + ".v", alias + ".k"});
  };
  const LogicalPlan kl = keyed(l, "l");
  const LogicalPlan kr = keyed(r, "r");
  LogicalPlan join;
  if (cross) {
    const LogicalPlan product = optimizer::JoinOp(kl, kr, {}, nullptr);
    join = optimizer::FilterOp(
        product, Bin(BinaryOp::kEq, Field(product, 1), Field(product, 3)));
  } else {
    join = optimizer::JoinOp(kl, kr, {{1, 1}}, nullptr);
  }
  return AsV(join, ModSum(Bin(BinaryOp::kMul, Int(31), Field(join, 0)),
                          Affine(131, Field(join, 2), 7)));
}

/// One pool entry: a subplan with output `(v)` plus its size estimate.
struct Entry {
  LogicalPlan plan;
  std::size_t est = 0;
  /// The subplan contains a Distinct, whose interval decomposition depends
  /// on the schedule (how far it coalesces depends on watermark timing).
  /// IStream/DStream read boundaries, so they never consume one.
  bool resegmented = false;
  bool consumed = false;
};

LogicalPlan DrawPlan(Random& rng, const GenOptions& opts,
                     const std::vector<StreamProfile>& profiles) {
  const std::size_t num_streams = profiles.size();
  std::vector<Entry> pool;
  for (std::size_t s = 0; s < num_streams; ++s) {
    pool.push_back(Entry{Scan(s, WindowSpec{}), profiles[s].num_elements});
  }
  // Folds every accepted draw, so the enrichment appendix below is derived
  // without touching the rng.
  std::uint64_t h = 0x9e3779b97f4a7c15ull;

  const int num_ops =
      static_cast<int>(rng.UniformInt(opts.min_ops, opts.max_ops));
  for (int k = 0; k < num_ops; ++k) {
    for (int attempt = 0; attempt < 8; ++attempt) {
      const Draw d = PickDraw(rng);
      // Windows are scan windows, attached to a stream; everything else
      // consumes any subplan drawn so far.
      const std::size_t in0 = rng.NextBounded(IsWindow(d) ? num_streams
                                                          : pool.size());
      const std::size_t in1 = IsBinary(d) ? rng.NextBounded(pool.size()) : 0;
      const LogicalPlan& a = pool[in0].plan;
      const LogicalPlan& b = pool[in1].plan;
      // Upper-bound estimate of the output cardinality, which keeps the
      // reference's sweeps within budget.
      std::size_t est = pool[in0].est;
      LogicalPlan plan;
      WindowSpec window;
      switch (d) {
        case Draw::kFilter: {
          const std::int64_t p0 = rng.UniformInt(1, 7);
          const std::int64_t p1 = rng.UniformInt(0, 7);
          const std::int64_t p2 = rng.UniformInt(2, 16);
          const std::int64_t p3 = rng.UniformInt(1, p2 - 1);
          plan = optimizer::FilterOp(
              a, Bin(BinaryOp::kLt,
                     Bin(BinaryOp::kMod, Affine(p0, Field(a, 0), p1), Int(p2)),
                     Int(p3)));
          break;
        }
        case Draw::kMap: {
          const std::int64_t p0 = rng.UniformInt(1, 5);
          plan = AsV(a, Affine(p0, Field(a, 0), rng.UniformInt(0, 999)));
          break;
        }
        case Draw::kRangeWindow:
          window.kind = WindowKind::kRange;
          window.range = rng.UniformInt(1, 64);
          break;
        case Draw::kSlideWindow:
          window.kind = WindowKind::kRangeSlide;
          window.range = rng.UniformInt(1, 48);
          window.slide = rng.UniformInt(1, 16);
          break;
        case Draw::kUnboundedWindow:
          window.kind = WindowKind::kUnbounded;
          break;
        case Draw::kRowsWindow:
          window.kind = WindowKind::kRows;
          window.rows = static_cast<std::size_t>(rng.UniformInt(1, 8));
          break;
        case Draw::kPartitionedWindow:
          window.kind = WindowKind::kPartitionedRows;
          window.rows = static_cast<std::size_t>(rng.UniformInt(1, 4));
          window.partition = {0};
          break;
        case Draw::kUnion:
          plan = optimizer::UnionOp(a, b);
          est += pool[in1].est;
          break;
        case Draw::kHashJoin: {
          const std::int64_t modulus = rng.UniformInt(2, 6);
          plan = HashJoin(a, b, modulus, rng.Bernoulli(0.5));
          est = est * pool[in1].est / static_cast<std::size_t>(modulus) + 1;
          break;
        }
        case Draw::kSum: {
          const LogicalPlan sum = optimizer::GroupAggregateOp(
              a, {}, {{AggKind::kSum, Field(a, 0), "s"}});
          plan = AsV(sum, Bin(BinaryOp::kMod, Field(sum, 0), Int(kValModulus)));
          est = 2 * est + 1;
          break;
        }
        case Draw::kGroupSum: {
          const LogicalPlan keyed = optimizer::ProjectOp(
              a, {Bin(BinaryOp::kMod, Field(a, 0), Int(rng.UniformInt(2, 8))),
                  Field(a, 0)},
              {"g", "x"});
          const LogicalPlan sums = optimizer::GroupAggregateOp(
              keyed, {0}, {{AggKind::kSum, Field(keyed, 1), "s"}});
          plan = AsV(sums, ModSum(Bin(BinaryOp::kMul, Int(131071),
                                      Field(sums, 0)),
                                  Field(sums, 1)));
          est = 2 * est + 1;
          break;
        }
        case Draw::kDistinct:
          plan = optimizer::DistinctOp(a);
          break;
        case Draw::kDifference:
          plan = optimizer::DifferenceOp(a, b);
          est = 2 * (est + pool[in1].est) + 1;
          break;
        case Draw::kIntersect:
          plan = optimizer::IntersectOp(a, b);
          est = 2 * (est + pool[in1].est) + 1;
          break;
        case Draw::kIStream:
          plan = optimizer::IStreamOp(a);
          break;
        case Draw::kDStream:
          plan = optimizer::DStreamOp(a);
          break;
      }
      if ((d == Draw::kIStream || d == Draw::kDStream) &&
          pool[in0].resegmented) {
        continue;  // reroll
      }
      if (est > opts.max_est_size) continue;  // reroll: too expensive
      // A window scan consumes its stream's raw scan (pool entry `in0`).
      Entry entry{IsWindow(d) ? Scan(in0, window) : plan, est};
      pool[in0].consumed = true;
      if (IsBinary(d)) pool[in1].consumed = true;
      entry.resegmented = d == Draw::kDistinct || pool[in0].resegmented ||
                          (IsBinary(d) && pool[in1].resegmented);
      pool.push_back(std::move(entry));
      h ^= (static_cast<std::uint64_t>(d) + 1) * 0x100000001b3ull;
      h = (h << 7) | (h >> 57);
      h ^= static_cast<std::uint64_t>(est + 3) +
           static_cast<std::uint64_t>(in0 + 7) * 0xbf58476d1ce4e5b9ull;
      break;
    }
  }

  // ESPBench-shaped enrichment appendix: stream <-> relation join (the
  // telemetry-x-ERP-dimension mix of the enterprise workload). The relation
  // side is a stream held entirely open by an unbounded window — rows stay
  // valid once seen, exactly how the workload feeds dimension relations —
  // and a raw telemetry stream probes it through a modular-key hash join.
  // Parameters are folded out of the draws instead of the rng, so the rng
  // cursor (and with it the input streams) is untouched.
  if (opts.enrichment) {
    for (const StreamProfile& p : profiles) {
      h = h * 0x100000001b3ull ^ static_cast<std::uint64_t>(p.num_elements);
    }
    if ((h & 3) == 0) {  // ~one case in four carries the enrichment mix
      const std::size_t relation = (h >> 2) % num_streams;
      const std::size_t probe = (h >> 9) % num_streams;
      const std::int64_t modulus =
          3 + static_cast<std::int64_t>((h >> 17) % 5);
      const std::size_t est =
          pool[probe].est * pool[relation].est /
              static_cast<std::size_t>(modulus) +
          1;
      if (est <= opts.max_est_size) {
        WindowSpec unbounded;
        unbounded.kind = WindowKind::kUnbounded;
        pool[probe].consumed = true;
        pool.push_back(Entry{HashJoin(pool[probe].plan,
                                      Scan(relation, unbounded), modulus,
                                      ((h >> 23) & 1) == 1),
                             est});
      }
    }
  }

  // Union dangling subplans until exactly one root remains, so every drawn
  // operator is reachable from the root and no generated work is dead.
  std::vector<LogicalPlan> dangling;
  for (const Entry& e : pool) {
    if (!e.consumed) dangling.push_back(e.plan);
  }
  PIPES_CHECK(!dangling.empty());
  while (dangling.size() > 1) {
    LogicalPlan right = std::move(dangling.back());
    dangling.pop_back();
    LogicalPlan left = std::move(dangling.back());
    dangling.pop_back();
    dangling.push_back(optimizer::UnionOp(std::move(left), std::move(right)));
  }
  return dangling.front();
}

}  // namespace

Stream GenerateStream(Random& rng, const StreamProfile& profile) {
  Stream out;
  out.reserve(profile.num_elements);
  ZipfDistribution zipf(
      static_cast<std::size_t>(std::max<std::int64_t>(profile.domain, 1)),
      profile.zipf_theta > 0 ? profile.zipf_theta : 0.5);
  Timestamp t = 0;
  for (std::size_t i = 0; i < profile.num_elements; ++i) {
    std::int64_t payload;
    if (profile.zipf_theta > 0) {
      payload = static_cast<std::int64_t>(zipf.Sample(rng));
    } else {
      payload =
          rng.UniformInt(0, std::max<std::int64_t>(profile.domain - 1, 0));
    }
    out.push_back(StreamElement<relational::Tuple>::Point(
        relational::Tuple{relational::Value(payload)}, t));
    const double roll = rng.UniformDouble();
    if (roll < profile.burst_prob) {
      // Burst: stay on (or right next to) the current instant.
      t += rng.UniformInt(0, 1);
    } else if (roll < profile.burst_prob + profile.lull_prob) {
      t += rng.UniformInt(profile.lull_step / 2,
                          std::max<Timestamp>(profile.lull_step, 1));
    } else {
      t += rng.UniformInt(1, std::max<Timestamp>(profile.max_step, 1));
    }
  }
  if (profile.disorder > 0) {
    for (auto& e : out) {
      const Timestamp back = rng.UniformInt(0, profile.disorder);
      const Timestamp s = std::max<Timestamp>(0, e.start() - back);
      e.interval = TimeInterval(s, s + 1);
    }
  }
  return out;
}

Stream SortByStart(const Stream& raw) {
  Stream out = raw;
  std::stable_sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.start() < b.start();
  });
  return out;
}

std::string StreamName(std::size_t index) {
  return "s" + std::to_string(index);
}

relational::Schema StreamSchema() {
  return relational::Schema({{"v", relational::ValueType::kInt}});
}

GeneratedCase GenerateCase(Random& rng, const GenOptions& opts) {
  GeneratedCase out;
  const int num_streams = static_cast<int>(rng.UniformInt(1, opts.max_streams));
  for (int s = 0; s < num_streams; ++s) {
    StreamProfile p;
    p.num_elements = static_cast<std::size_t>(rng.UniformInt(
        static_cast<std::int64_t>(opts.min_elements),
        static_cast<std::int64_t>(opts.max_elements)));
    p.domain = rng.UniformInt(8, 200);
    p.zipf_theta = rng.Bernoulli(0.4) ? rng.UniformDouble(0.5, 1.2) : 0.0;
    p.burst_prob = rng.UniformDouble(0.0, 0.5);
    p.lull_prob = rng.UniformDouble(0.0, 0.15);
    p.max_step = rng.UniformInt(1, 8);
    p.lull_step = rng.UniformInt(16, 128);
    p.disorder =
        (opts.allow_disorder && rng.Bernoulli(0.3)) ? rng.UniformInt(1, 12) : 0;
    out.profiles.push_back(p);
  }
  out.plan = DrawPlan(rng, opts, out.profiles);
  return out;
}

LogicalPlan GeneratePlan(Random& rng, const GenOptions& opts,
                         const std::vector<StreamProfile>& profiles) {
  return DrawPlan(rng, opts, profiles);
}

}  // namespace pipes::testing
