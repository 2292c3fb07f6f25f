// Tests for the lossless spill-to-disk state tier (docs/memory.md): run
// write / merge-read round-trips, crash-safe temp files, the spillable
// hash SweepArea's epoch-gated deferred probing, the RAM → disk → shed
// ladder inside the temporal join (100% recall under budgets far below
// state size), memory-manager disk arbitration, and the spill fields of
// the metrics snapshot.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "src/algebra/join.h"
#include "src/core/generator_source.h"
#include "src/core/graph.h"
#include "src/core/sink.h"
#include "src/engine/engine.h"
#include "src/memory/memory_manager.h"
#include "src/metadata/snapshot.h"
#include "src/scheduler/scheduler.h"
#include "src/sweeparea/spill.h"
#include "src/sweeparea/spillable_hash_sweep_area.h"

namespace pipes::sweeparea {
namespace {

using Elem = StreamElement<std::int64_t>;

ColumnarRun<std::int64_t> MakeRun(const std::vector<Elem>& elements) {
  ColumnarRun<std::int64_t> run;
  run.reserve(elements.size());
  for (const Elem& e : elements) run.Append(e);
  return run;
}

std::vector<Elem> ReadAll(const SpilledRun<std::int64_t>& run) {
  std::vector<Elem> out;
  RunReader<std::int64_t> reader(run);
  while (auto e = reader.Next()) out.push_back(*e);
  return out;
}

bool SameElement(const Elem& a, const Elem& b) {
  return a.payload == b.payload && a.start() == b.start() &&
         a.end() == b.end();
}

// --- Run write / read round-trip ---------------------------------------------

TEST(SpilledRun, WriteReadRoundTrip) {
  std::vector<Elem> elements;
  // More than one reader page, so the paged fseek/fread path is exercised.
  const std::size_t n = 3 * RunReader<std::int64_t>::kPageElements + 17;
  elements.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    elements.emplace_back(static_cast<std::int64_t>(i * 7),
                          static_cast<Timestamp>(i),
                          static_cast<Timestamp>(i + 100));
  }
  SpilledRun<std::int64_t> run(MakeRun(elements), /*seq=*/4, "/tmp");

  EXPECT_EQ(run.size(), n);
  EXPECT_EQ(run.seq(), 4u);
  EXPECT_EQ(run.min_start(), 0);
  EXPECT_EQ(run.max_end(), static_cast<Timestamp>(n - 1 + 100));
  EXPECT_EQ(run.bytes(), n * (2 * sizeof(Timestamp) + sizeof(std::int64_t)));

  const std::vector<Elem> back = ReadAll(run);
  ASSERT_EQ(back.size(), elements.size());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(SameElement(back[i], elements[i])) << "element " << i;
  }
}

TEST(MergedRunCursor, GlobalStartOrderAcrossRuns) {
  // Two runs with interleaved starts; ties broken by run epoch.
  std::vector<Elem> a, b;
  for (int i = 0; i < 50; ++i) a.emplace_back(1000 + i, 2 * i, 2 * i + 10);
  for (int i = 0; i < 50; ++i) b.emplace_back(2000 + i, 2 * i + 1, 2 * i + 11);
  b[0] = Elem(2000, 0, 10);  // start tie with a[0]: epoch must break it
  SpilledRun<std::int64_t> run_a(MakeRun(a), /*seq=*/0, "/tmp");
  SpilledRun<std::int64_t> run_b(MakeRun(b), /*seq=*/1, "/tmp");

  MergedRunCursor<std::int64_t> merge({&run_a, &run_b});
  std::vector<SpillScanItem<std::int64_t>> items;
  while (auto item = merge.Next()) items.push_back(*item);

  ASSERT_EQ(items.size(), 100u);
  for (std::size_t i = 1; i < items.size(); ++i) {
    const auto prev = std::make_tuple(items[i - 1].element.start(),
                                      items[i - 1].run_seq);
    const auto cur = std::make_tuple(items[i].element.start(),
                                     items[i].run_seq);
    EXPECT_LE(prev, cur) << "merge order violated at " << i;
  }
  // The tied pair comes out lower-epoch first.
  EXPECT_EQ(items[0].element.payload, 1000);
  EXPECT_EQ(items[1].element.payload, 2000);
}

// --- Crash-safe temp files ---------------------------------------------------

TEST(SpillFile, UnlinkedAfterOpenButStillReadable) {
  SpillFile file("/tmp");
  // The name is gone from the filesystem the moment the constructor
  // returns: a crash leaks nothing and no cleanup pass is ever needed.
  std::FILE* by_name = std::fopen(file.unlinked_path().c_str(), "rb");
  EXPECT_EQ(by_name, nullptr);
  if (by_name != nullptr) std::fclose(by_name);

  // The open handle still works for a full write/read cycle.
  const std::int64_t magic = 0x5150455350494C4C;
  ASSERT_EQ(std::fwrite(&magic, sizeof(magic), 1, file.handle()), 1u);
  std::fflush(file.handle());
  ASSERT_EQ(std::fseek(file.handle(), 0, SEEK_SET), 0);
  std::int64_t back = 0;
  ASSERT_EQ(std::fread(&back, sizeof(back), 1, file.handle()), 1u);
  EXPECT_EQ(back, magic);
}

// --- SpillableHashSweepArea --------------------------------------------------

struct KeyMod4 {
  std::int64_t operator()(const std::int64_t& v) const { return v % 4; }
};

using Area =
    SpillableHashSweepArea<std::int64_t, std::int64_t, KeyMod4, KeyMod4>;

TEST(SpillableHashSweepArea, SpillColdestMovesBytesToDisk) {
  Area area(KeyMod4{}, KeyMod4{});
  for (int i = 0; i < 10; ++i) area.Insert(Elem(i, i, i + 100));
  const std::size_t ram_before = area.ApproxBytes();
  EXPECT_EQ(area.SpilledBytes(), 0u);

  const std::size_t freed = area.SpillColdest();
  EXPECT_GT(freed, 0u);
  EXPECT_EQ(area.ApproxBytes(), ram_before - freed);
  EXPECT_GT(area.SpilledBytes(), 0u);
  EXPECT_EQ(area.SpilledRunCount(), 1u);
  // Nothing was lost: hot + spilled still covers all ten elements.
  EXPECT_EQ(area.size(), 10u);
  EXPECT_EQ(area.hot_size() + area.spilled_size(), 10u);
  // Default keep_fraction 0.5: the oldest half paged out.
  EXPECT_EQ(area.spilled_size(), 5u);
}

TEST(SpillableHashSweepArea, DeferredProbeFindsSpilledMatches) {
  Area area(KeyMod4{}, KeyMod4{});
  for (int i = 0; i < 8; ++i) area.Insert(Elem(i, i, i + 100));
  area.SpillColdest();  // starts 0..3 now on disk

  // Probe key 0 (matches stored 0 and 4): the hot match comes back now,
  // the spilled one is staged for deferred service.
  std::vector<std::int64_t> hot;
  Elem probe(8, 10, 20);  // key 0, overlaps every stored interval
  area.Query(probe, [&](const Elem& s) { hot.push_back(s.payload); });
  EXPECT_EQ(hot, (std::vector<std::int64_t>{4}));
  EXPECT_TRUE(area.HasPendingProbes());
  EXPECT_EQ(area.FirstPendingStart(), 10);

  std::vector<std::int64_t> deferred;
  area.ServicePendingProbes(
      [&](const Elem& p, const Elem& s) {
        EXPECT_EQ(p.payload, 8);
        deferred.push_back(s.payload);
      });
  EXPECT_EQ(deferred, (std::vector<std::int64_t>{0}));
  EXPECT_FALSE(area.HasPendingProbes());
}

TEST(SpillableHashSweepArea, EpochGateSkipsRunsSpilledAfterStaging) {
  Area area(KeyMod4{}, KeyMod4{});
  for (int i = 0; i < 8; ++i) area.Insert(Elem(i, i, i + 100));
  area.SpillColdest();  // run seq 0: starts 0..3

  // Stage a probe at epoch 1, collecting its hot matches immediately.
  std::vector<std::int64_t> hot;
  area.Query(Elem(8, 10, 20),
             [&](const Elem& s) { hot.push_back(s.payload); });
  EXPECT_EQ(hot, (std::vector<std::int64_t>{4}));

  // Spill again: 4 pages out into run seq 1 — but the probe already
  // matched it while resident, so deferred service must skip that run.
  area.SpillColdest();
  ASSERT_EQ(area.SpilledRunCount(), 2u);

  std::vector<std::int64_t> deferred;
  area.ServicePendingProbes(
      [&](const Elem&, const Elem& s) { deferred.push_back(s.payload); });
  // Exactly once overall: 0 from run seq 0, and 4 NOT repeated from seq 1.
  EXPECT_EQ(deferred, (std::vector<std::int64_t>{0}));
}

TEST(SpillableHashSweepArea, PurgeDropsDeadRunsUnread) {
  Area area(KeyMod4{}, KeyMod4{});
  for (int i = 0; i < 6; ++i) area.Insert(Elem(i, i, 50));
  area.SpillColdest();
  ASSERT_EQ(area.SpilledRunCount(), 1u);
  const std::size_t disk = area.SpilledBytes();
  EXPECT_GT(disk, 0u);

  // Watermark below max_end: the run survives.
  area.PurgeBefore(49);
  EXPECT_EQ(area.SpilledRunCount(), 1u);
  // Watermark at max_end: the whole run dies without being read.
  const std::size_t removed = area.PurgeBefore(50);
  EXPECT_EQ(area.SpilledRunCount(), 0u);
  EXPECT_EQ(area.SpilledBytes(), 0u);
  EXPECT_EQ(area.size(), 0u);
  EXPECT_EQ(removed, 6u);
}

}  // namespace
}  // namespace pipes::sweeparea

namespace pipes::algebra {
namespace {

struct KeyMod8 {
  std::int64_t operator()(const std::int64_t& v) const { return v % 8; }
};
struct CombinePair {
  std::int64_t operator()(const std::int64_t& l, const std::int64_t& r) const {
    return l * 100000 + r;
  }
};

using OutElem = StreamElement<std::int64_t>;

std::vector<std::tuple<Timestamp, Timestamp, std::int64_t>> Canon(
    const std::vector<OutElem>& elements) {
  std::vector<std::tuple<Timestamp, Timestamp, std::int64_t>> out;
  out.reserve(elements.size());
  for (const OutElem& e : elements) {
    out.emplace_back(e.start(), e.end(), e.payload);
  }
  std::sort(out.begin(), out.end());
  return out;
}

struct SpillJoinRun {
  std::vector<OutElem> out;
  std::uint64_t shed = 0;
  /// High-water marks sampled every scheduler step: spilled runs hold the
  /// coldest state, so the watermark reaps them quickly and the end-of-run
  /// gauges read zero even when the join paged heavily.
  std::uint64_t peak_spilled_bytes = 0;
  std::uint64_t peak_spilled_partitions = 0;
  metadata::MetricsSnapshot snapshot;
};

/// Drives source -> join <- source to completion. `memory_limit` == max
/// means unmanaged; `spillable` selects the SweepArea flavour.
SpillJoinRun RunJoin(bool spillable, std::size_t memory_limit) {
  std::vector<StreamElement<std::int64_t>> left, right;
  for (std::int64_t i = 0; i < 400; ++i) {
    left.emplace_back(i, i, i + 80);
    right.emplace_back(i + 1, i, i + 80);
  }

  QueryGraph graph;
  auto& src_l =
      graph.Add<VectorSource<std::int64_t>>(left, "left", /*batch_size=*/16);
  auto& src_r =
      graph.Add<VectorSource<std::int64_t>>(right, "right", /*batch_size=*/16);
  auto* join_node = static_cast<Node*>(nullptr);
  memory::MemoryUser* user = nullptr;
  CollectorSink<std::int64_t>* sink = nullptr;
  if (spillable) {
    auto& join = graph.Add(MakeSpillableHashJoin<std::int64_t, std::int64_t>(
        KeyMod8{}, KeyMod8{}, CombinePair{}, "join"));
    src_l.AddSubscriber(join.left());
    src_r.AddSubscriber(join.right());
    auto& s = graph.Add<CollectorSink<std::int64_t>>("sink");
    join.AddSubscriber(s.input());
    join.SetMemoryLimit(memory_limit);
    join_node = &join;
    user = &join;
    sink = &s;
  } else {
    auto& join = graph.Add(MakeHashJoin<std::int64_t, std::int64_t>(
        KeyMod8{}, KeyMod8{}, CombinePair{}, "join"));
    src_l.AddSubscriber(join.left());
    src_r.AddSubscriber(join.right());
    auto& s = graph.Add<CollectorSink<std::int64_t>>("sink");
    join.AddSubscriber(s.input());
    join_node = &join;
    user = &join;
    sink = &s;
  }

  scheduler::RoundRobinStrategy strategy;
  scheduler::PipeExecutor driver(graph, strategy, /*batch_size=*/16);
  SpillJoinRun r;
  while (driver.Step()) {
    r.peak_spilled_bytes =
        std::max<std::uint64_t>(r.peak_spilled_bytes, join_node->SpilledBytes());
    r.peak_spilled_partitions = std::max<std::uint64_t>(
        r.peak_spilled_partitions, join_node->SpilledPartitions());
  }

  r.out = sink->elements();
  r.shed = join_node->ShedCount();
  r.snapshot = metadata::CaptureSnapshot(graph);
  (void)user;
  return r;
}

TEST(SpillableJoin, FullRecallUnderTightBudget) {
  const SpillJoinRun reference =
      RunJoin(/*spillable=*/false, std::numeric_limits<std::size_t>::max());
  ASSERT_GT(reference.out.size(), 0u);
  const std::size_t state_bytes = 2 * 400 * 56;  // rough: both areas full

  // A budget ~10x below peak state: the join must page, not shed, and the
  // output multiset must be exactly the unmanaged reference.
  const SpillJoinRun spilled = RunJoin(/*spillable=*/true, state_bytes / 10);
  EXPECT_EQ(spilled.shed, 0u);
  EXPECT_GT(spilled.peak_spilled_bytes, 0u);
  EXPECT_GT(spilled.peak_spilled_partitions, 0u);
  EXPECT_EQ(Canon(spilled.out), Canon(reference.out));
}

TEST(SpillableJoin, NoPressureMeansNoSpill) {
  const SpillJoinRun reference =
      RunJoin(/*spillable=*/false, std::numeric_limits<std::size_t>::max());
  const SpillJoinRun roomy =
      RunJoin(/*spillable=*/true, std::numeric_limits<std::size_t>::max());
  EXPECT_EQ(roomy.peak_spilled_bytes, 0u);
  EXPECT_EQ(roomy.shed, 0u);
  EXPECT_EQ(Canon(roomy.out), Canon(reference.out));
}

TEST(SpillableJoin, SheddingIsOptInAndCountsAgain) {
  // Explicitly opting back into shedding restores the lossy behaviour —
  // exactly the combination lint rule P020 warns about.
  std::vector<StreamElement<std::int64_t>> left, right;
  for (std::int64_t i = 0; i < 200; ++i) {
    left.emplace_back(i, i, i + 60);
    right.emplace_back(i + 1, i, i + 60);
  }
  QueryGraph graph;
  auto& src_l = graph.Add<VectorSource<std::int64_t>>(left, "left");
  auto& src_r = graph.Add<VectorSource<std::int64_t>>(right, "right");
  auto& join = graph.Add(MakeSpillableHashJoin<std::int64_t, std::int64_t>(
      KeyMod8{}, KeyMod8{}, CombinePair{}, "join"));
  auto& sink = graph.Add<CountingSink<std::int64_t>>("sink");
  src_l.AddSubscriber(join.left());
  src_r.AddSubscriber(join.right());
  join.AddSubscriber(sink.input());

  // Descriptor before opt-in: spill-capable, shedding off (the default).
  EXPECT_TRUE(join.Describe().spill_capable);
  EXPECT_FALSE(join.Describe().shedding_enabled);

  join.set_shed_policy(ShedPolicy::kEvictFromLargerArea);
  join.SetDiskBudget(0);  // disk tier exhausted: pressure falls to shed
  join.SetMemoryLimit(2048);
  EXPECT_TRUE(join.Describe().shedding_enabled);

  scheduler::RoundRobinStrategy strategy;
  scheduler::PipeExecutor driver(graph, strategy);
  driver.RunToCompletion();
  EXPECT_GT(join.ShedCount(), 0u);
}

TEST(SpillableJoin, SnapshotReportsAndRoundTripsSpillFields) {
  const std::size_t tight = 2 * 400 * 56 / 10;
  const SpillJoinRun spilled = RunJoin(/*spillable=*/true, tight);

  // CaptureSnapshot happened after the drain; spilled runs may already be
  // purged by then, so capture mid-state instead: re-check via the node
  // fields recorded before capture when present, else skip.
  const metadata::NodeSnapshot* join_snap = spilled.snapshot.FindNode("join");
  ASSERT_NE(join_snap, nullptr);

  // JSON round-trip must preserve the spill fields exactly (whatever their
  // values), and documents without spill stay byte-identical to pre-spill
  // output: no "spilled_" keys appear when both fields are zero.
  const std::string json = metadata::ToJson(spilled.snapshot);
  auto parsed = metadata::SnapshotFromJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed.value() == spilled.snapshot);

  const SpillJoinRun clean =
      RunJoin(/*spillable=*/false, std::numeric_limits<std::size_t>::max());
  const std::string clean_json = metadata::ToJson(clean.snapshot);
  EXPECT_EQ(clean_json.find("spilled_bytes"), std::string::npos);
  EXPECT_EQ(clean_json.find("disk_budget_bytes"), std::string::npos);
  auto clean_parsed = metadata::SnapshotFromJson(clean_json);
  ASSERT_TRUE(clean_parsed.ok()) << clean_parsed.status().ToString();
  EXPECT_TRUE(clean_parsed.value() == clean.snapshot);
}

TEST(SpillableJoin, MidRunSnapshotShowsSpilledState) {
  // Step the scheduler partway so spilled runs are still live at capture
  // time, then check the snapshot surfaces them (node fields + DOT).
  std::vector<StreamElement<std::int64_t>> left, right;
  for (std::int64_t i = 0; i < 400; ++i) {
    left.emplace_back(i, i, i + 80);
    right.emplace_back(i + 1, i, i + 80);
  }
  QueryGraph graph;
  auto& src_l = graph.Add<VectorSource<std::int64_t>>(left, "left");
  auto& src_r = graph.Add<VectorSource<std::int64_t>>(right, "right");
  auto& join = graph.Add(MakeSpillableHashJoin<std::int64_t, std::int64_t>(
      KeyMod8{}, KeyMod8{}, CombinePair{}, "join"));
  auto& sink = graph.Add<CountingSink<std::int64_t>>("sink");
  src_l.AddSubscriber(join.left());
  src_r.AddSubscriber(join.right());
  join.AddSubscriber(sink.input());
  join.SetMemoryLimit(4096);

  // Step until the first spilled run exists (the watermark reaps cold runs
  // quickly, so capture must happen the moment one is live).
  scheduler::RoundRobinStrategy strategy;
  scheduler::PipeExecutor driver(graph, strategy);
  while (join.SpilledBytes() == 0 && driver.Step()) {
  }
  ASSERT_GT(join.SpilledBytes(), 0u);

  const metadata::MetricsSnapshot snap = metadata::CaptureSnapshot(graph);
  const metadata::NodeSnapshot* js = snap.FindNode("join");
  ASSERT_NE(js, nullptr);
  EXPECT_EQ(js->spilled_bytes, join.SpilledBytes());
  EXPECT_EQ(js->spilled_partitions, join.SpilledPartitions());
  EXPECT_GT(js->spilled_bytes, 0u);
  // RAM gauge stays RAM-only.
  EXPECT_EQ(js->memory_bytes, join.ApproxMemoryBytes());

  const std::string json = metadata::ToJson(snap);
  EXPECT_NE(json.find("\"spilled_bytes\""), std::string::npos);
  auto parsed = metadata::SnapshotFromJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed.value() == snap);

  const std::string dot = metadata::ToDot(snap);
  EXPECT_NE(dot.find("spill"), std::string::npos);

  driver.RunToCompletion();
}

}  // namespace
}  // namespace pipes::algebra

namespace pipes::memory {
namespace {

/// Scripted spill-capable user.
class FakeSpillUser : public MemoryUser {
 public:
  explicit FakeSpillUser(std::size_t disk_usage) : disk_(disk_usage) {}

  std::size_t MemoryUsage() const override { return 0; }
  void SetMemoryLimit(std::size_t) override {}
  bool SpillCapable() const override { return true; }
  std::size_t DiskUsage() const override { return disk_; }
  void SetDiskBudget(std::size_t bytes) override { disk_budget_ = bytes; }

  std::size_t disk_budget() const { return disk_budget_; }

 private:
  std::size_t disk_;
  std::size_t disk_budget_ = std::numeric_limits<std::size_t>::max();
};

/// Resident-only user: must never receive a disk budget call.
class ResidentUser : public MemoryUser {
 public:
  std::size_t MemoryUsage() const override { return 100; }
  void SetMemoryLimit(std::size_t) override {}
  void SetDiskBudget(std::size_t) override { ++disk_calls_; }

  int disk_calls() const { return disk_calls_; }

 private:
  int disk_calls_ = 0;
};

TEST(MemoryManagerDisk, UnlimitedByDefault) {
  MemoryManager manager(1 << 20, std::make_unique<UniformStrategy>());
  FakeSpillUser user(500);
  ASSERT_TRUE(manager.Register(user).ok());
  EXPECT_EQ(manager.disk_budget(), std::numeric_limits<std::size_t>::max());
  EXPECT_EQ(user.disk_budget(), std::numeric_limits<std::size_t>::max());
  EXPECT_EQ(manager.TotalDiskUsage(), 500u);
  EXPECT_EQ(manager.num_spill_capable_users(), 1u);
}

TEST(MemoryManagerDisk, BoundedBudgetSplitsByUsage) {
  MemoryManager manager(1 << 20, std::make_unique<UniformStrategy>());
  FakeSpillUser big(900), small(100);
  ResidentUser resident;
  ASSERT_TRUE(manager.Register(big).ok());
  ASSERT_TRUE(manager.Register(small).ok());
  ASSERT_TRUE(manager.Register(resident).ok());

  manager.set_disk_budget(10000);
  EXPECT_EQ(manager.TotalDiskUsage(), 1000u);
  // The heavy spiller gets the larger share; together they get the budget.
  EXPECT_GT(big.disk_budget(), small.disk_budget());
  EXPECT_LE(big.disk_budget() + small.disk_budget(), 10000u);
  EXPECT_GT(big.disk_budget() + small.disk_budget(), 9000u);
  // Non-spillable users are left out of disk arbitration entirely.
  EXPECT_EQ(resident.disk_calls(), 0);
}

TEST(MemoryManagerDisk, UnregisterLiftsDiskBudget) {
  MemoryManager manager(1 << 20, std::make_unique<UniformStrategy>());
  FakeSpillUser user(100);
  ASSERT_TRUE(manager.Register(user).ok());
  manager.set_disk_budget(4096);
  EXPECT_LT(user.disk_budget(), std::numeric_limits<std::size_t>::max());
  ASSERT_TRUE(manager.Unregister(user).ok());
  EXPECT_EQ(user.disk_budget(), std::numeric_limits<std::size_t>::max());
  EXPECT_EQ(manager.num_spill_capable_users(), 0u);
}

TEST(EngineDisk, OptionsWireIntoManagerAndStats) {
  engine::EngineOptions options;
  options.disk_budget_bytes = 12345;
  engine::Engine engine(options);
  EXPECT_EQ(engine.memory_manager().disk_budget(), 12345u);
  EXPECT_EQ(engine.stats().spilled_bytes, 0u);
}

}  // namespace
}  // namespace pipes::memory
