#ifndef PIPES_TESTING_GENERATE_H_
#define PIPES_TESTING_GENERATE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/core/element.h"
#include "src/optimizer/logical_plan.h"
#include "src/relational/schema.h"
#include "src/relational/tuple.h"

/// \file
/// Seeded fuzz-case generation. `GenerateCase` composes a random
/// `optimizer::LogicalPlan` — the IR the CQL front end, the optimizer, the
/// engine and plan XML share — over the int streams `s0..s2 (v INT)`,
/// together with one `StreamProfile` per stream (bursts, lulls, Zipf skew,
/// bounded disorder). Everything is derived from the `Random` argument, so a
/// case is fully reproducible from its seed.
///
/// Every generated operator keeps payloads a single INT in
/// [0, kValModulus): filters and maps are modular affine expressions, hash
/// joins project computed key columns, join on them (as an equi-join or,
/// in the CQL analyzer's shape, as a cross join under an equality filter)
/// and fold each pair back into one value, and sums fold modulo
/// kValModulus. Windows are scan windows: RANGE, RANGE-SLIDE, UNBOUNDED,
/// ROWS and PARTITIONED_ROWS over a stream.

namespace pipes::testing {

using Stream = std::vector<StreamElement<relational::Tuple>>;

/// Every generated payload lies in [0, kValModulus) (a prime).
inline constexpr std::int64_t kValModulus = 1'000'003;

/// Shape of one generated input stream: traffic/NEXMark-flavoured integer
/// payloads (Zipf-skewed ids) on a timeline with bursts and lulls, plus
/// bounded disorder.
struct StreamProfile {
  std::size_t num_elements = 64;
  /// Payloads are drawn from [0, domain).
  std::int64_t domain = 100;
  /// 0 = uniform payloads; > 0 = Zipf skew (hot keys, like auction ids).
  double zipf_theta = 0.0;
  /// Probability that a step stays at (almost) the same timestamp — bursts.
  double burst_prob = 0.2;
  /// Probability of a large forward jump — lulls between bursts.
  double lull_prob = 0.05;
  Timestamp max_step = 4;
  Timestamp lull_step = 64;
  /// Maximum backward displacement applied after generation (0 = in start
  /// order). Disordered streams are fed through a ReorderingSource with
  /// slack >= disorder, so nothing is ever dropped by the adapter.
  Timestamp disorder = 0;
};

/// Draws a stream of `(v)` point tuples with the profile's shape. With
/// disorder = 0 the result is non-decreasing in start; otherwise starts may
/// be displaced backwards by at most `disorder`.
Stream GenerateStream(Random& rng, const StreamProfile& profile);

/// The arrival order every execution arm (and the reference) agrees on:
/// stable sort by start. A ReorderingSource with sufficient slack releases
/// ties in arrival order, which is exactly this.
Stream SortByStart(const Stream& raw);

/// Name (`s<index>`) and schema (`v INT`) of generated stream `index`.
std::string StreamName(std::size_t index);
relational::Schema StreamSchema();

struct GenOptions {
  /// Number of operators to grow (before dangling-root unions).
  int min_ops = 2;
  int max_ops = 8;
  int max_streams = 3;
  std::size_t min_elements = 16;
  std::size_t max_elements = 80;
  bool allow_disorder = true;
  /// Estimated output-size cap per operator; draws that would exceed it
  /// are rerolled so pathological plans (stacked joins feeding aggregates)
  /// cannot blow up the reference's sweeps.
  std::size_t max_est_size = 3000;
  /// Mix in the ESPBench-shaped stream<->relation enrichment appendix (a
  /// hash join probing a stream held open by an unbounded window) on ~1/4
  /// of cases. Derived draw-free from the operators already drawn, so
  /// toggling it never changes a seed's operator draws or input streams.
  bool enrichment = true;
};

struct GeneratedCase {
  optimizer::LogicalPlan plan;
  std::vector<StreamProfile> profiles;
};

/// Draws input-stream profiles plus a plan over them.
GeneratedCase GenerateCase(Random& rng, const GenOptions& opts = {});

/// Draws one plan over the streams `profiles` describe (the engine arm's
/// co-registered queries).
optimizer::LogicalPlan GeneratePlan(Random& rng, const GenOptions& opts,
                                    const std::vector<StreamProfile>& profiles);

}  // namespace pipes::testing

#endif  // PIPES_TESTING_GENERATE_H_
