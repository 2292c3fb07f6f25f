#include "src/testing/harness.h"

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <sstream>
#include <utility>

#include "src/analysis/dataflow.h"
#include "src/common/random.h"
#include "src/memory/memory_manager.h"
#include "src/metadata/snapshot.h"
#include "src/scheduler/executor.h"
#include "src/scheduler/strategy.h"
#include "src/testing/reference.h"

namespace pipes::testing {

namespace {

using scheduler::ChainStrategy;
using scheduler::FifoStrategy;
using scheduler::LongestQueueStrategy;
using scheduler::PipeExecutor;
using scheduler::RandomStrategy;
using scheduler::RateBasedStrategy;
using scheduler::RoundRobinStrategy;
using scheduler::Strategy;

std::uint64_t SplitMix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

std::unique_ptr<Strategy> MakeStrategy(int id, std::uint64_t seed) {
  switch (id % 6) {
    case 0:
      return std::make_unique<RoundRobinStrategy>();
    case 1:
      return std::make_unique<FifoStrategy>();
    case 2:
      return std::make_unique<LongestQueueStrategy>();
    case 3:
      return std::make_unique<ChainStrategy>();
    case 4:
      return std::make_unique<RateBasedStrategy>();
    default:
      return std::make_unique<RandomStrategy>(seed);
  }
}

bool FaultEnabled(const std::string& mix, const char* fault) {
  if (mix == "none" || mix.empty()) return false;
  if (mix == "all") return true;
  return mix.find(fault) != std::string::npos;
}

/// How the physical output must relate to the reference stream.
enum class CompareMode { kExactMultiset, kSnapshotEqual, kSnapshotSubset,
                         kInvariantsOnly };

struct DriveResult {
  std::vector<Failure> failures;
  bool finished = false;
  /// Per-node peak observed state (RAM / spilled bytes), sampled on a
  /// prime stride plus once after the drain. Only filled when the caller
  /// asked for bound tracking (the static-certificate oracle).
  std::map<std::uint64_t, std::uint64_t> peak_ram;
  std::map<std::uint64_t, std::uint64_t> peak_disk;
};

/// Steps `m`'s graph to completion on a `PipeExecutor`, opening gated
/// sources once the rest of the graph has drained, optionally squeezing
/// the memory budget and capturing metrics snapshots mid-run. Virtual time
/// only — step count is the clock. The executor unlinks (delivering any
/// leftover supply) before `CheckRun` inspects the graph.
DriveResult DriveGraph(Materialized& m, Strategy& strategy,
                       std::size_t batch_size, std::uint64_t max_iterations,
                       bool check_snapshots,
                       memory::MemoryManager* manager = nullptr,
                       std::uint64_t squeeze_at = 0,
                       std::size_t squeeze_budget = 0,
                       bool track_bounds = false) {
  PipeExecutor sched(m.graph, strategy, batch_size);
  DriveResult r;
  bool gates_open = m.gates.empty();
  bool squeezed = manager == nullptr;
  std::uint64_t iterations = 0;
  metadata::MetricsSnapshot prev;
  bool have_prev = false;
  // A prime stride so captures land on varying graph states.
  const std::uint64_t snap_every = 97;
  // Dense prime stride for state-peak sampling (the certificate oracle):
  // sampling can only under-observe the true peak, which keeps the bound
  // check sound — it may miss a violation, never invent one.
  const std::uint64_t bound_every = 7;
  const auto sample_peaks = [&] {
    for (const Node* node : m.graph.nodes()) {
      std::uint64_t& ram = r.peak_ram[node->id()];
      ram = std::max<std::uint64_t>(ram, node->ApproxMemoryBytes());
      std::uint64_t& disk = r.peak_disk[node->id()];
      disk = std::max<std::uint64_t>(disk, node->SpilledBytes());
    }
  };

  while (iterations < max_iterations) {
    if (!sched.Step()) {
      if (!gates_open) {
        m.OpenGates();
        gates_open = true;
        continue;
      }
      break;
    }
    ++iterations;
    if (track_bounds && iterations % bound_every == 0) sample_peaks();
    if (!squeezed && iterations >= squeeze_at) {
      manager->set_budget(squeeze_budget);
      squeezed = true;
    }
    if (check_snapshots && iterations % snap_every == 0) {
      metadata::MetricsSnapshot snap = metadata::CaptureSnapshot(m.graph);
      if (have_prev) {
        if (snap.high_watermark < prev.high_watermark) {
          std::ostringstream out;
          out << "high watermark regressed from " << prev.high_watermark
              << " to " << snap.high_watermark << " between captures";
          r.failures.push_back(Failure{"snapshot-monotone", out.str()});
        }
        for (const metadata::NodeSnapshot& n : snap.nodes) {
          const metadata::NodeSnapshot* p = prev.FindNode(n.id);
          if (p == nullptr) continue;
          if (n.elements_in < p->elements_in ||
              n.elements_out < p->elements_out || n.shed < p->shed) {
            r.failures.push_back(Failure{
                "snapshot-monotone",
                n.name + ": cumulative counters decreased between captures"});
          }
        }
      }
      prev = std::move(snap);
      have_prev = true;
    }
  }
  if (track_bounds) sample_peaks();
  r.finished = m.graph.Finished();
  if (!r.finished) {
    r.failures.push_back(Failure{
        "livelock", "graph not drained after " + std::to_string(iterations) +
                        " scheduling decisions"});
  }
  if (check_snapshots) {
    // Final capture must JSON round-trip exactly (including shed counters).
    metadata::MetricsSnapshot snap = metadata::CaptureSnapshot(m.graph);
    const std::string json = metadata::ToJson(snap);
    auto parsed = metadata::SnapshotFromJson(json);
    if (!parsed.ok()) {
      r.failures.push_back(
          Failure{"snapshot-roundtrip", parsed.status().message()});
    } else if (!(parsed.value() == snap)) {
      r.failures.push_back(Failure{
          "snapshot-roundtrip", "parsed snapshot differs from captured one"});
    }
  }
  return r;
}

/// Everything checked after a drained run: build-time descriptor
/// mismatches, sink invariant violations, per-node conservation, source
/// completeness, and the differential comparison against the reference.
void CheckRun(const Materialized& m, const PlanSpec& spec,
              const std::vector<Stream>& raw_inputs, const Stream& expected,
              CompareMode mode, std::vector<Failure>* failures) {
  for (const Failure& f : m.build_failures) failures->push_back(f);
  for (const Failure& f : m.sink->violations()) failures->push_back(f);

  for (const OpHandle& h : m.ops) {
    std::optional<std::string> bad = CheckConservation(
        h.rule, h.node->elements_in(), h.node->elements_out(),
        h.node->ShedCount(), h.node->queue_size(), h.node->name());
    if (bad.has_value()) {
      failures->push_back(Failure{"conservation", *bad});
    }
    if (h.spec_index >= 0 && h.kind == OpKind::kSource) {
      const int stream = spec.nodes[h.spec_index].stream;
      const std::uint64_t fed = h.node->elements_out() + h.node->ShedCount();
      if (fed != raw_inputs[stream].size()) {
        std::ostringstream out;
        out << h.node->name() << ": emitted " << h.node->elements_out()
            << " + shed " << h.node->ShedCount() << " != stream size "
            << raw_inputs[stream].size();
        failures->push_back(Failure{"conservation", out.str()});
      }
    }
  }
  if (m.sink->elements_in() != m.sink->collected().size()) {
    failures->push_back(
        Failure{"conservation", "sink counter disagrees with collected size"});
  }

  std::optional<std::string> diff;
  switch (mode) {
    case CompareMode::kExactMultiset:
      diff = CompareMultisets(m.sink->collected(), expected);
      break;
    case CompareMode::kSnapshotEqual:
      diff = CompareSnapshots(m.sink->collected(), expected, SnapRel::kEqual);
      break;
    case CompareMode::kSnapshotSubset:
      diff = CompareSnapshots(m.sink->collected(), expected, SnapRel::kSubset);
      break;
    case CompareMode::kInvariantsOnly:
      break;
  }
  if (diff.has_value()) {
    failures->push_back(Failure{"differential", *diff});
  }
}

/// The static-vs-runtime differential oracle: on a drained, non-shedding
/// run, no node's observed peak RAM (or spilled bytes) may exceed the
/// bound the dataflow abstract interpretation certified for it before the
/// run. Transient nodes (buffers, staging) and nodes with no static bound
/// are outside the certificate and skipped.
void CheckStateBounds(const analysis::DataflowResult& certified,
                      const DriveResult& drive,
                      std::vector<Failure>* failures) {
  for (const analysis::NodeFacts& nf : certified.nodes) {
    if (nf.state.transient) continue;
    const auto ram_it = drive.peak_ram.find(nf.node_id);
    const std::uint64_t ram =
        ram_it == drive.peak_ram.end() ? 0 : ram_it->second;
    if (nf.state.ram_bytes != analysis::NodeStateBound::kUnknownBytes &&
        ram > nf.state.ram_bytes) {
      std::ostringstream out;
      out << nf.name << ": observed peak RAM " << ram
          << " B exceeds static certificate bound " << nf.state.ram_bytes
          << " B";
      failures->push_back(Failure{"state-bound", out.str()});
    }
    const auto disk_it = drive.peak_disk.find(nf.node_id);
    const std::uint64_t disk =
        disk_it == drive.peak_disk.end() ? 0 : disk_it->second;
    if (nf.state.disk_bytes != analysis::NodeStateBound::kUnknownBytes &&
        disk > nf.state.disk_bytes) {
      std::ostringstream out;
      out << nf.name << ": observed peak spill " << disk
          << " B exceeds static certificate bound " << nf.state.disk_bytes
          << " B";
      failures->push_back(Failure{"state-bound", out.str()});
    }
  }
}

struct ArmPlan {
  std::string name;
  MaterializeOptions mat;
  int strategy_id = 0;
  std::uint64_t strategy_seed = 0;
  std::size_t batch_size = 1;
  bool snapshots = false;
  /// Memory fault arm.
  bool squeeze_memory = false;
  /// Lossy arms (bounded buffers, memory squeeze): when anything was
  /// actually shed, downgrade the comparison instead of expecting equality.
  bool lossy = false;
};

}  // namespace

std::string CaseResult::Summary() const {
  if (ok()) return "";
  std::ostringstream out;
  out << "arm=" << failing_arm << " oracle=" << failures.front().oracle << ": "
      << failures.front().detail;
  return out.str();
}

std::uint64_t CaseSeed(std::uint64_t base_seed, std::uint64_t index) {
  return SplitMix64(base_seed ^ SplitMix64(index));
}

CaseResult RunCaseOnSpec(const PlanSpec& spec,
                         const std::vector<Stream>& raw_inputs,
                         const std::vector<StreamProfile>& profiles,
                         std::uint64_t schedule_seed,
                         const HarnessOptions& options,
                         std::uint64_t* arms_run) {
  CaseResult result;
  result.case_seed = schedule_seed;

  std::vector<Stream> canonical;
  canonical.reserve(raw_inputs.size());
  std::uint64_t total_elements = 0;
  for (const Stream& s : raw_inputs) {
    canonical.push_back(Canonicalize(s));
    total_elements += s.size();
  }
  const Stream expected = EvalReference(spec, canonical);
  const bool exact = !spec.Resegmenting();
  const CompareMode strict_mode =
      exact ? CompareMode::kExactMultiset : CompareMode::kSnapshotEqual;
  const std::uint64_t max_iterations = 200000 + 500 * total_elements;
  Random rng(SplitMix64(schedule_seed ^ 0xA5A5A5A5A5A5A5A5ULL));

  std::vector<ArmPlan> arms;
  {
    ArmPlan naive;
    naive.name = "naive";
    naive.batch_size = 1;
    naive.snapshots = options.check_snapshots;
    arms.push_back(naive);
  }
  for (std::size_t batch : {std::size_t{4}, std::size_t{32}}) {
    ArmPlan a;
    a.name = "batched-" + std::to_string(batch);
    a.mat.source_batch = batch;
    a.mat.buffer_seed = rng.Next();
    a.mat.buffer_prob = 0.3;
    a.strategy_id = 1;  // FIFO pushes trains through in arrival order
    a.batch_size = batch;
    arms.push_back(a);
  }
  for (int v = 0; v < options.schedule_variants; ++v) {
    ArmPlan a;
    a.name = "schedule-" + std::to_string(v);
    a.mat.source_batch = rng.Bernoulli(0.5) ? 1 : 8;
    a.mat.buffer_seed = rng.Next();
    a.mat.buffer_prob = 0.4;
    a.strategy_id = static_cast<int>(rng.NextBounded(6));
    a.strategy_seed = rng.Next();
    const std::size_t quanta[] = {1, 8, 64};
    a.batch_size = quanta[rng.NextBounded(3)];
    arms.push_back(a);
  }
  {
    // Columnar runs of 32 under a random strategy (the FIFO-driven
    // batched arms above never reorder trains).
    ArmPlan a;
    a.name = "columnar-32";
    a.mat.source_batch = 32;
    a.mat.buffer_seed = rng.Next();
    a.mat.buffer_prob = 0.3;
    a.strategy_id = static_cast<int>(rng.NextBounded(6));
    a.strategy_seed = rng.Next();
    a.batch_size = 32;
    arms.push_back(a);
  }
  bool any_disorder = false;
  for (const StreamProfile& p : profiles) any_disorder |= p.disorder > 0;
  if (any_disorder) {
    ArmPlan a;
    a.name = "reorder";
    a.mat.use_reorder_source = true;
    a.batch_size = 16;
    arms.push_back(a);
  }
  if (options.check_parallel) {
    const std::vector<int> part = spec.PartitionableNodes();
    if (!part.empty()) {
      ArmPlan a;
      a.name = "parallel";
      a.mat.parallel_node = part[rng.NextBounded(part.size())];
      a.mat.parallel_replicas = 2 + rng.NextBounded(2);
      a.batch_size = 8;
      arms.push_back(a);
    }
  }
  if (FaultEnabled(options.fault_mix, "overflow")) {
    ArmPlan a;
    a.name = "fault-overflow";
    a.mat.buffer_seed = rng.Next();
    a.mat.buffer_prob = 0.5;
    a.mat.bounded_capacity = 4 + rng.NextBounded(13);
    a.strategy_id = 2;  // longest-queue maximizes pressure variation
    a.batch_size = 16;
    a.lossy = true;
    arms.push_back(a);
  }
  if (FaultEnabled(options.fault_mix, "memory") &&
      spec.HasKind(OpKind::kHashJoin)) {
    ArmPlan a;
    a.name = "fault-memory";
    a.batch_size = 4;
    a.squeeze_memory = true;
    a.lossy = true;
    arms.push_back(a);

    // The spill arm: the same mid-run budget squeeze, but the joins carry
    // spillable SweepAreas, so pressure resolves to disk runs instead of
    // shedding and the strict (multiset-exact) comparison still applies —
    // a.lossy stays false on purpose.
    ArmPlan s;
    s.name = "fault-spill";
    s.batch_size = 4;
    s.mat.spillable_joins = true;
    s.squeeze_memory = true;
    arms.push_back(s);
  }
  if (FaultEnabled(options.fault_mix, "stall")) {
    ArmPlan a;
    a.name = "fault-stall";
    a.mat.gated_stream = spec.NumStreams() - 1;
    a.batch_size = 8;
    arms.push_back(a);
  }

  for (const ArmPlan& arm : arms) {
    MaterializeOptions mat = arm.mat;
    mat.canary = options.canary;
    std::unique_ptr<Materialized> m =
        Materialize(spec, raw_inputs, profiles, mat);

    // The certificate oracle applies to arms that promise losslessness:
    // the abstract interpretation runs over the physical graph BEFORE any
    // element flows, and the observed per-node peaks must stay under its
    // bounds (skipped post-hoc if the arm shed anything after all).
    const bool bound_oracle =
        !arm.lossy && options.canary == CanaryKind::kNone;
    std::optional<analysis::DataflowResult> certified;
    if (bound_oracle) certified = analysis::AnalyzeDataflow(m->graph);

    std::unique_ptr<memory::MemoryManager> manager;
    std::uint64_t squeeze_at = 0;
    std::size_t squeeze_budget = 0;
    if (arm.squeeze_memory && !m->memory_users.empty()) {
      manager = std::make_unique<memory::MemoryManager>(
          std::size_t{64} << 20, std::make_unique<memory::UniformStrategy>());
      for (memory::MemoryUser* u : m->memory_users) {
        (void)manager->Register(*u);
      }
      squeeze_at = 1 + rng.NextBounded(std::max<std::uint64_t>(
                           total_elements / 2, 1));
      squeeze_budget = 512 + rng.NextBounded(4096);
    }

    std::unique_ptr<Strategy> strategy =
        MakeStrategy(arm.strategy_id, arm.strategy_seed);
    DriveResult drive =
        DriveGraph(*m, *strategy, arm.batch_size, max_iterations,
                   arm.snapshots, manager.get(), squeeze_at, squeeze_budget,
                   bound_oracle);
    if (arms_run != nullptr) ++*arms_run;

    std::vector<Failure> failures = std::move(drive.failures);
    if (drive.finished) {
      CompareMode mode = strict_mode;
      if (arm.lossy && m->TotalShed() > 0) {
        // Loss is only a sub-multiset relation when every operator maps
        // smaller inputs to smaller snapshots; difference/aggregates can
        // amplify loss, so only invariants remain checkable there.
        mode = spec.Monotone() ? CompareMode::kSnapshotSubset
                               : CompareMode::kInvariantsOnly;
      }
      CheckRun(*m, spec, raw_inputs, expected, mode, &failures);
      if (certified.has_value() && m->TotalShed() == 0) {
        CheckStateBounds(*certified, drive, &failures);
      }
    }
    if (!failures.empty()) {
      result.failing_arm = arm.name;
      result.failures = std::move(failures);
      return result;
    }
  }

  // Rewrite arm: the rewritten plan must be snapshot-equivalent to the
  // original at the reference level, and its physical execution must match
  // its own reference.
  if (options.check_rewrites) {
    Random rewrite_rng(SplitMix64(schedule_seed ^ 0x5EED5EED5EED5EEDULL));
    const PlanSpec rewritten = ApplyRandomRewrites(rewrite_rng, spec, 4);
    const Stream rewritten_expected = EvalReference(rewritten, canonical);
    std::optional<std::string> unsound = CompareSnapshots(
        rewritten_expected, expected, SnapRel::kEqual);
    if (unsound.has_value()) {
      result.failing_arm = "rewrite-reference";
      result.failures.push_back(Failure{"rewrite", *unsound});
      return result;
    }
    MaterializeOptions mat;
    mat.canary = options.canary;
    mat.buffer_seed = rng.Next();
    mat.buffer_prob = 0.3;
    std::unique_ptr<Materialized> m =
        Materialize(rewritten, raw_inputs, profiles, mat);
    std::unique_ptr<Strategy> strategy = MakeStrategy(0, 0);
    DriveResult drive = DriveGraph(*m, *strategy, 8, max_iterations, false);
    if (arms_run != nullptr) ++*arms_run;
    std::vector<Failure> failures = std::move(drive.failures);
    if (drive.finished) {
      CheckRun(*m, rewritten, raw_inputs, rewritten_expected,
               rewritten.Resegmenting() ? CompareMode::kSnapshotEqual
                                        : CompareMode::kExactMultiset,
               &failures);
    }
    if (!failures.empty()) {
      result.failing_arm = "rewrite";
      result.failures = std::move(failures);
      return result;
    }
  }

  return result;
}

CaseResult RunCase(std::uint64_t case_seed, const HarnessOptions& options) {
  Random rng(case_seed);
  GeneratedCase gc = GenerateCase(rng, options.gen);
  std::vector<Stream> raw;
  raw.reserve(gc.profiles.size());
  for (const StreamProfile& profile : gc.profiles) {
    raw.push_back(GenerateStream(rng, profile));
  }
  return RunCaseOnSpec(gc.spec, raw, gc.profiles, case_seed, options);
}

FuzzStats RunFuzz(std::uint64_t base_seed, std::uint64_t num_cases,
                  const HarnessOptions& options, std::ostream* log) {
  FuzzStats stats;
  for (std::uint64_t i = 0; i < num_cases; ++i) {
    const std::uint64_t seed = CaseSeed(base_seed, i);
    std::uint64_t arms = 0;
    Random rng(seed);
    GeneratedCase gc = GenerateCase(rng, options.gen);
    std::vector<Stream> raw;
    for (const StreamProfile& profile : gc.profiles) {
      raw.push_back(GenerateStream(rng, profile));
    }
    CaseResult r = RunCaseOnSpec(gc.spec, raw, gc.profiles, seed, options,
                                 &arms);
    ++stats.cases_run;
    stats.arms_run += arms;
    if (!r.ok()) {
      ++stats.failed_cases;
      stats.first_failure = r;
      if (log != nullptr) {
        *log << "FAIL case " << i << " seed " << seed << ": " << r.Summary()
             << "\nplan:\n"
             << gc.spec.ToString();
      }
      return stats;
    }
    if (log != nullptr && (i + 1) % 500 == 0) {
      *log << "  " << (i + 1) << "/" << num_cases << " cases ok ("
           << stats.arms_run << " arms)\n";
    }
  }
  return stats;
}

namespace {

/// Bypasses node `j` (replacing it by its child `target`), pruning
/// unreachable nodes. Returns nullopt when the bypass would violate a
/// structural constraint (source-attached consumers must keep a source
/// child).
std::optional<PlanSpec> BypassNode(const PlanSpec& spec, int j, int target) {
  if (spec.nodes[j].kind == OpKind::kSource) return std::nullopt;
  for (std::size_t c = 0; c < spec.nodes.size(); ++c) {
    const SpecNode& n = spec.nodes[c];
    const bool consumes = n.in0 == j || n.in1 == j;
    if (consumes && TraitsOf(n.kind).source_attached &&
        spec.nodes[target].kind != OpKind::kSource) {
      return std::nullopt;
    }
  }
  PlanSpec out;
  out.root = spec.root == j ? target : spec.root;
  std::vector<SpecNode> rewired = spec.nodes;
  for (SpecNode& n : rewired) {
    if (n.in0 == j) n.in0 = target;
    if (n.in1 == j) n.in1 = target;
  }
  // Prune everything unreachable from the new root, preserving order (the
  // vector stays a topo order).
  std::vector<bool> keep(rewired.size(), false);
  std::vector<int> stack = {out.root};
  while (!stack.empty()) {
    const int i = stack.back();
    stack.pop_back();
    if (keep[i]) continue;
    keep[i] = true;
    if (rewired[i].in0 >= 0) stack.push_back(rewired[i].in0);
    if (rewired[i].in1 >= 0) stack.push_back(rewired[i].in1);
  }
  keep[j] = false;
  std::vector<int> remap(rewired.size(), -1);
  for (std::size_t i = 0; i < rewired.size(); ++i) {
    if (!keep[i]) continue;
    remap[i] = static_cast<int>(out.nodes.size());
    SpecNode n = rewired[i];
    if (n.in0 >= 0) n.in0 = remap[n.in0];
    if (n.in1 >= 0) n.in1 = remap[n.in1];
    out.nodes.push_back(n);
  }
  out.root = remap[out.root];
  out.CheckValid();
  return out;
}

}  // namespace

ShrinkResult Shrink(const PlanSpec& spec, const std::vector<Stream>& raw_inputs,
                    const std::vector<StreamProfile>& profiles,
                    std::uint64_t schedule_seed, const HarnessOptions& options,
                    int max_reruns) {
  ShrinkResult best;
  best.spec = spec;
  best.inputs = raw_inputs;
  best.profiles = profiles;
  best.result = RunCaseOnSpec(spec, raw_inputs, profiles, schedule_seed,
                              options);
  best.reruns = 1;
  if (best.result.ok()) return best;  // nothing to shrink

  auto still_fails = [&](const PlanSpec& s, const std::vector<Stream>& in)
      -> std::optional<CaseResult> {
    if (best.reruns >= max_reruns) return std::nullopt;
    ++best.reruns;
    CaseResult r = RunCaseOnSpec(s, in, profiles, schedule_seed, options);
    if (r.ok()) return std::nullopt;
    return r;
  };

  // Phase 1: greedy node bypassing until no single bypass keeps the
  // failure.
  bool improved = true;
  while (improved && best.reruns < max_reruns) {
    improved = false;
    for (std::size_t j = 0; j < best.spec.nodes.size() && !improved; ++j) {
      const SpecNode& n = best.spec.nodes[j];
      for (int target : {n.in0, n.in1}) {
        if (target < 0) continue;
        std::optional<PlanSpec> candidate =
            BypassNode(best.spec, static_cast<int>(j), target);
        if (!candidate.has_value()) continue;
        std::optional<CaseResult> r = still_fails(*candidate, best.inputs);
        if (r.has_value()) {
          best.spec = *candidate;
          best.result = *r;
          improved = true;
          break;
        }
      }
    }
  }

  // Phase 2: ddmin on each input stream (drop contiguous chunks, halving
  // the chunk size).
  for (std::size_t s = 0; s < best.inputs.size() && best.reruns < max_reruns;
       ++s) {
    std::size_t chunk = (best.inputs[s].size() + 1) / 2;
    while (chunk >= 1 && best.reruns < max_reruns) {
      bool removed = false;
      for (std::size_t at = 0; at < best.inputs[s].size();) {
        std::vector<Stream> candidate = best.inputs;
        Stream& stream = candidate[s];
        const std::size_t take = std::min(chunk, stream.size() - at);
        stream.erase(stream.begin() + static_cast<std::ptrdiff_t>(at),
                     stream.begin() + static_cast<std::ptrdiff_t>(at + take));
        std::optional<CaseResult> r = still_fails(best.spec, candidate);
        if (r.has_value()) {
          best.inputs = std::move(candidate);
          best.result = *r;
          removed = true;
          // `at` now points at the element after the removed chunk.
        } else {
          at += chunk;
        }
        if (best.reruns >= max_reruns) break;
      }
      if (chunk == 1 && !removed) break;
      chunk = std::max<std::size_t>(chunk / 2, 1);
      if (chunk == 1 && !removed && best.inputs[s].empty()) break;
    }
  }
  return best;
}

bool SelfCheck(std::uint64_t seed, std::ostream* log) {
  // Control: clean cases must pass, or detections below mean nothing.
  HarnessOptions clean;
  clean.fault_mix = "none";
  clean.check_rewrites = false;
  clean.schedule_variants = 1;
  for (std::uint64_t i = 0; i < 3; ++i) {
    CaseResult r = RunCase(CaseSeed(seed, i), clean);
    if (!r.ok()) {
      if (log != nullptr) {
        *log << "self-check: clean control case failed: " << r.Summary()
             << "\n";
      }
      return false;
    }
  }

  constexpr CanaryKind kKinds[] = {
      CanaryKind::kDropElement,      CanaryKind::kDuplicateElement,
      CanaryKind::kCorruptPayload,   CanaryKind::kWidenInterval,
      CanaryKind::kStaleReplay,      CanaryKind::kHeartbeatOvershoot,
  };
  bool all_caught = true;
  for (CanaryKind kind : kKinds) {
    HarnessOptions options = clean;
    options.canary = kind;
    bool caught = false;
    std::uint64_t attempts = 0;
    for (; attempts < 25 && !caught; ++attempts) {
      const std::uint64_t case_seed =
          CaseSeed(seed ^ (0x100 + static_cast<std::uint64_t>(kind)),
                   attempts);
      caught = !RunCase(case_seed, options).ok();
    }
    if (log != nullptr) {
      *log << "self-check canary " << CanaryKindName(kind) << ": "
           << (caught ? "caught" : "MISSED") << " (after " << attempts
           << " case(s))\n";
    }
    all_caught &= caught;
  }
  return all_caught;
}

}  // namespace pipes::testing
