// Tests for the adaptive memory manager and its assignment strategies, and
// for end-to-end load shedding when the manager denies a join the memory it
// wants (the graceful-degradation contract the fuzz harness's fault-memory
// arm leans on).

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "src/algebra/join.h"
#include "src/core/generator_source.h"
#include "src/core/graph.h"
#include "src/core/sink.h"
#include "src/memory/memory_manager.h"
#include "src/metadata/snapshot.h"
#include "src/scheduler/scheduler.h"

namespace pipes::memory {
namespace {

/// Scripted memory user for manager tests.
class FakeUser : public MemoryUser {
 public:
  explicit FakeUser(std::size_t usage, std::size_t min_bytes = 0,
                    std::size_t preferred =
                        std::numeric_limits<std::size_t>::max())
      : usage_(usage), min_(min_bytes), preferred_(preferred) {}

  std::size_t MemoryUsage() const override { return usage_; }
  void SetMemoryLimit(std::size_t bytes) override {
    limit_ = bytes;
    if (usage_ > bytes) usage_ = bytes;  // "shed" to fit
  }
  std::size_t MinMemoryBytes() const override { return min_; }
  std::size_t PreferredMemoryBytes() const override { return preferred_; }

  std::size_t limit() const { return limit_; }
  void set_usage(std::size_t usage) { usage_ = usage; }

 private:
  std::size_t usage_;
  std::size_t min_;
  std::size_t preferred_;
  std::size_t limit_ = std::numeric_limits<std::size_t>::max();
};

TEST(MemoryManager, UniformSplitsEvenly) {
  MemoryManager manager(1000, std::make_unique<UniformStrategy>());
  FakeUser a(0), b(0);
  ASSERT_TRUE(manager.Register(a).ok());
  ASSERT_TRUE(manager.Register(b).ok());
  EXPECT_EQ(a.limit(), 500u);
  EXPECT_EQ(b.limit(), 500u);
}

TEST(MemoryManager, UniformRespectsPreferredCapAndReoffers) {
  MemoryManager manager(1000, std::make_unique<UniformStrategy>());
  FakeUser capped(0, 0, /*preferred=*/100);
  FakeUser hungry(0);
  ASSERT_TRUE(manager.Register(capped).ok());
  ASSERT_TRUE(manager.Register(hungry).ok());
  EXPECT_EQ(capped.limit(), 100u);
  EXPECT_EQ(hungry.limit(), 900u);
}

TEST(MemoryManager, MinimaAreGrantedEvenOverBudget) {
  MemoryManager manager(100, std::make_unique<UniformStrategy>());
  FakeUser a(0, /*min=*/80), b(0, /*min=*/80);
  ASSERT_TRUE(manager.Register(a).ok());
  ASSERT_TRUE(manager.Register(b).ok());
  EXPECT_GE(a.limit(), 80u);
  EXPECT_GE(b.limit(), 80u);
}

TEST(MemoryManager, ProportionalFollowsUsage) {
  MemoryManager manager(900, std::make_unique<ProportionalStrategy>());
  FakeUser big(600), small(200);
  ASSERT_TRUE(manager.Register(big).ok());
  ASSERT_TRUE(manager.Register(small).ok());
  manager.Redistribute();
  EXPECT_GT(big.limit(), small.limit());
  // 3:1 usage ratio -> roughly 3:1 assignment.
  EXPECT_NEAR(static_cast<double>(big.limit()) /
                  static_cast<double>(small.limit()),
              3.0, 0.2);
}

TEST(MemoryManager, PriorityFollowsWeights) {
  MemoryManager manager(1000, std::make_unique<PriorityStrategy>());
  FakeUser gold(0), bronze(0);
  ASSERT_TRUE(manager.Register(gold, /*priority=*/4.0).ok());
  ASSERT_TRUE(manager.Register(bronze, /*priority=*/1.0).ok());
  EXPECT_EQ(gold.limit(), 800u);
  EXPECT_EQ(bronze.limit(), 200u);
}

TEST(MemoryManager, DoubleRegisterFails) {
  MemoryManager manager(1000, std::make_unique<UniformStrategy>());
  FakeUser a(0);
  ASSERT_TRUE(manager.Register(a).ok());
  EXPECT_EQ(manager.Register(a).code(), StatusCode::kAlreadyExists);
}

TEST(MemoryManager, UnregisterLiftsLimitAndRedistributes) {
  MemoryManager manager(1000, std::make_unique<UniformStrategy>());
  FakeUser a(0), b(0);
  ASSERT_TRUE(manager.Register(a).ok());
  ASSERT_TRUE(manager.Register(b).ok());
  ASSERT_TRUE(manager.Unregister(a).ok());
  EXPECT_EQ(a.limit(), std::numeric_limits<std::size_t>::max());
  EXPECT_EQ(b.limit(), 1000u);
  EXPECT_EQ(manager.Unregister(a).code(), StatusCode::kNotFound);
}

TEST(MemoryManager, ShrinkingBudgetShrinksAssignments) {
  MemoryManager manager(1000, std::make_unique<UniformStrategy>());
  FakeUser a(400), b(400);
  ASSERT_TRUE(manager.Register(a).ok());
  ASSERT_TRUE(manager.Register(b).ok());
  manager.set_budget(400);
  EXPECT_EQ(a.limit(), 200u);
  EXPECT_EQ(b.limit(), 200u);
  // FakeUser sheds to its limit.
  EXPECT_LE(manager.TotalUsage(), 400u);
}

TEST(MemoryManager, StrategySwapTakesEffect) {
  MemoryManager manager(1000, std::make_unique<UniformStrategy>());
  FakeUser big(900), small(100);
  ASSERT_TRUE(manager.Register(big).ok());
  ASSERT_TRUE(manager.Register(small).ok());
  EXPECT_EQ(big.limit(), small.limit());
  manager.set_strategy(std::make_unique<ProportionalStrategy>());
  EXPECT_GT(big.limit(), small.limit());
}

// --- Load shedding under allocation denial ----------------------------------

struct JoinKeyMod8 {
  int operator()(int v) const { return v % 8; }
};
struct CombinePair {
  int operator()(int l, int r) const { return l * 1000 + r; }
};

struct JoinRunResult {
  std::uint64_t out = 0;
  std::uint64_t shed = 0;
  std::uint64_t snapshot_shed = 0;
};

/// Drives source -> hash-join <- source to completion under a manager
/// budget (or unmanaged when budget == 0) and reports the join's output
/// count plus its shed counter as seen live and via CaptureSnapshot.
JoinRunResult RunJoinWithBudget(std::size_t budget) {
  std::vector<StreamElement<int>> left, right;
  for (int i = 0; i < 300; ++i) {
    // Long validity intervals keep both SweepAreas populated, so a denied
    // allocation has state to shed.
    left.emplace_back(i, i, i + 60);
    right.emplace_back(i + 1, i, i + 60);
  }

  QueryGraph graph;
  auto& src_l = graph.Add<VectorSource<int>>(left, "left");
  auto& src_r = graph.Add<VectorSource<int>>(right, "right");
  auto& join = graph.Add(algebra::MakeHashJoin<int, int>(
      JoinKeyMod8{}, JoinKeyMod8{}, CombinePair{}, "join"));
  auto& sink = graph.Add<CountingSink<int>>("sink");
  src_l.AddSubscriber(join.left());
  src_r.AddSubscriber(join.right());
  join.AddSubscriber(sink.input());

  std::unique_ptr<MemoryManager> manager;
  if (budget > 0) {
    manager = std::make_unique<MemoryManager>(
        budget, std::make_unique<UniformStrategy>());
    EXPECT_TRUE(manager->Register(join).ok());
  }

  scheduler::RoundRobinStrategy strategy;
  scheduler::PipeExecutor driver(graph, strategy);
  driver.RunToCompletion();

  JoinRunResult r;
  r.out = sink.count();
  r.shed = join.ShedCount();
  const metadata::MetricsSnapshot snap = metadata::CaptureSnapshot(graph);
  const metadata::NodeSnapshot* js = snap.FindNode("join");
  EXPECT_NE(js, nullptr);
  if (js != nullptr) r.snapshot_shed = js->shed;
  return r;
}

TEST(LoadShedding, SufficientMemoryMeansNoShedding) {
  const JoinRunResult unmanaged = RunJoinWithBudget(0);
  const JoinRunResult roomy = RunJoinWithBudget(64u << 20);
  // A budget the join never reaches must not change the answer at all.
  EXPECT_EQ(roomy.shed, 0u);
  EXPECT_EQ(roomy.snapshot_shed, 0u);
  EXPECT_EQ(roomy.out, unmanaged.out);
  EXPECT_GT(roomy.out, 0u);
}

TEST(LoadShedding, AllocationDenialShedsAndIsObservable) {
  const JoinRunResult unmanaged = RunJoinWithBudget(0);
  const JoinRunResult starved = RunJoinWithBudget(2048);
  // The join kept running (graceful degradation), but shed state...
  EXPECT_GT(starved.shed, 0u);
  // ...and the loss shows up as missing join results, never as extras.
  EXPECT_LT(starved.out, unmanaged.out);
  EXPECT_GT(starved.out, 0u);
  // The metrics snapshot reports exactly the observed shed count, so an
  // operator can attribute the output loss without touching the node.
  EXPECT_EQ(starved.snapshot_shed, starved.shed);
}

}  // namespace
}  // namespace pipes::memory
