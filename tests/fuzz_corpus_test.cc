// Replays every seed in tests/fuzz_corpus.txt through the full simulation
// harness (all schedule arms, all fault injections, all oracles). The
// corpus pins structurally diverse cases plus shrunk repros of past
// findings, so a regression in any operator/scheduler/oracle combination
// fails here deterministically — no fuzzing luck required.
//
// FUZZ_CORPUS_PATH is injected by tests/CMakeLists.txt and points at the
// checked-in corpus file.

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/testing/harness.h"

namespace pipes::testing {
namespace {

std::vector<std::uint64_t> LoadCorpus(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << "cannot open corpus at " << path;
  std::vector<std::uint64_t> seeds;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream tokens(line);
    std::string first;
    if (!(tokens >> first)) continue;       // blank line
    if (first[0] == '#') continue;          // comment line
    seeds.push_back(std::stoull(first));    // trailing "# ..." is ignored
  }
  return seeds;
}

TEST(FuzzCorpus, HasDiverseSeeds) {
  const std::vector<std::uint64_t> seeds = LoadCorpus(FUZZ_CORPUS_PATH);
  EXPECT_GE(seeds.size(), 20u) << "corpus shrank; keep it structurally "
                                  "diverse (see the file header)";
}

TEST(FuzzCorpus, EverySeedReplaysClean) {
  const std::vector<std::uint64_t> seeds = LoadCorpus(FUZZ_CORPUS_PATH);
  ASSERT_FALSE(seeds.empty());
  for (const std::uint64_t seed : seeds) {
    const CaseResult r = RunCase(seed);
    EXPECT_TRUE(r.ok()) << "corpus seed " << seed << " failed: "
                        << r.Summary()
                        << "\nreproduce with: pipes_fuzz --replay " << seed;
  }
}

// The corpus must stay replayable byte-for-byte: the same seed must derive
// the same case and verdict twice (generator and harness are pure functions
// of the seed — no wall-clock, no global state).
TEST(FuzzCorpus, ReplayIsDeterministic) {
  const std::vector<std::uint64_t> seeds = LoadCorpus(FUZZ_CORPUS_PATH);
  ASSERT_FALSE(seeds.empty());
  const std::uint64_t seed = seeds.front();
  const CaseResult a = RunCase(seed);
  const CaseResult b = RunCase(seed);
  EXPECT_EQ(a.ok(), b.ok());
  EXPECT_EQ(a.failing_arm, b.failing_arm);
  EXPECT_EQ(a.Summary(), b.Summary());
}

}  // namespace
}  // namespace pipes::testing
