#include "src/testing/conformance.h"

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/time.h"
#include "src/relational/tuple.h"

namespace pipes::testing::conformance {
namespace {

using relational::Tuple;
using relational::Value;

std::vector<Corpus> LoadAll() {
  Result<std::vector<Corpus>> corpora = LoadCorpusDir(CONFORMANCE_CORPUS_DIR);
  EXPECT_TRUE(corpora.ok()) << corpora.status().ToString();
  return corpora.ok() ? *corpora : std::vector<Corpus>{};
}

/// Runs every corpus case under one arm and reports each failure with its
/// rendered expected/actual interval tables.
void ExpectArmClean(Arm arm) {
  const std::vector<Corpus> corpora = LoadAll();
  ASSERT_FALSE(corpora.empty());
  const CorpusRunStats stats = RunCorpora(corpora, {arm}, nullptr);
  EXPECT_GT(stats.cases_run, 0u);
  for (const CaseResult& failure : stats.failures) {
    ADD_FAILURE() << failure.file << "/" << failure.name << " ["
                  << failure.failing_arm << "]: " << failure.message
                  << "\nexpected:\n"
                  << failure.expected_rendered << "actual:\n"
                  << failure.actual_rendered;
  }
}

// --- Corpus format -----------------------------------------------------------

TEST(CorpusFormat, LoadsCheckedInCorpus) {
  const std::vector<Corpus> corpora = LoadAll();
  std::size_t cases = 0;
  for (const Corpus& corpus : corpora) {
    EXPECT_FALSE(corpus.streams.empty()) << corpus.file;
    cases += corpus.cases.size();
  }
  EXPECT_GE(corpora.size(), 6u);
  EXPECT_GE(cases, 40u) << "the conformance corpus must keep >= 40 cases";
}

TEST(CorpusFormat, ParsesStreamsCasesAndValues) {
  const std::string text = R"(
# comment
stream s (a:int, b:string, c:double, d:bool)
  0 5 | 1 'hello world' 2.5 true
  3 inf | null 'x' null false
end
case one
query SELECT a FROM s
  WHERE a > 0
expect (a:int)
  0 5 | 1
end
)";
  Result<Corpus> corpus = ParseCorpus(text, "inline");
  ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
  ASSERT_EQ(corpus->streams.size(), 1u);
  const CorpusStream& s = corpus->streams[0];
  ASSERT_EQ(s.rows.size(), 2u);
  EXPECT_EQ(s.rows[0].payload.field(1), Value("hello world"));
  EXPECT_EQ(s.rows[0].payload.field(3), Value(true));
  EXPECT_TRUE(s.rows[1].payload.field(0).is_null());
  EXPECT_EQ(s.rows[1].end(), kMaxTimestamp);
  ASSERT_EQ(corpus->cases.size(), 1u);
  // Continuation lines fold into one query string.
  EXPECT_EQ(corpus->cases[0].query, "SELECT a FROM s WHERE a > 0");
}

TEST(CorpusFormat, RejectsMalformedInput) {
  EXPECT_FALSE(ParseCorpus("stream s (a:int)\n  0 5 | 1\n", "f").ok())
      << "unterminated stream block";
  EXPECT_FALSE(ParseCorpus("stream s (a:int)\n  5 5 | 1\nend\n", "f").ok())
      << "empty interval";
  EXPECT_FALSE(
      ParseCorpus("stream s (a:int)\n  0 5 | 1 2\nend\n", "f").ok())
      << "value count mismatch";
  EXPECT_FALSE(
      ParseCorpus("stream s (a:int)\n  3 5 | 1\n  0 5 | 2\nend\n", "f").ok())
      << "rows out of start order";
  // Numbers parse whole: trailing characters are errors, not truncated.
  for (const char* row : {"10x 20 | 5abc 1.5zz", "0 20 | 5abc 1.5",
                          "0 20 | 5 1.5zz", "0 20x | 5 1.5"}) {
    EXPECT_FALSE(ParseCorpus("stream s (a:int, b:double)\n  " +
                                 std::string(row) + "\nend\n",
                             "f")
                     .ok())
        << row;
  }
  EXPECT_TRUE(
      ParseCorpus("stream s (a:int, b:double)\n  0 20 | 5 1.5\nend\n", "f")
          .ok());
  EXPECT_FALSE(ParseCorpus("bogus directive\n", "f").ok());
  EXPECT_FALSE(ParseCorpus("stream s (a:int)\n  0 5 | 1\nend\n"
                           "case c\nexpect (a:int)\nend\n",
                           "f")
                   .ok())
      << "case without a query";
}

// --- Canonicalization & snapshot comparison ---------------------------------

IntervalTable TableOf(std::vector<TupleElement> rows) {
  IntervalTable t;
  t.rows = std::move(rows);
  return t;
}

TEST(SnapshotCompare, CoalescingInsensitive) {
  // One row [0,10) vs. the same payload split at 4: snapshot-equal.
  const Tuple p({Value(std::int64_t{1})});
  const IntervalTable whole = TableOf({{p, 0, 10}});
  const IntervalTable split = TableOf({{p, 0, 4}, {p, 4, 10}});
  EXPECT_TRUE(SnapshotDiff(whole, split).equivalent);
  EXPECT_TRUE(SnapshotDiff(split, whole).equivalent);
  // And both canonicalize to the single maximal row.
  const IntervalTable canonical = Canonicalize(split);
  ASSERT_EQ(canonical.rows.size(), 1u);
  EXPECT_EQ(canonical.rows[0].interval, TimeInterval(0, 10));
}

TEST(SnapshotCompare, MultiplicityMatters) {
  const Tuple p({Value(std::int64_t{1})});
  const IntervalTable once = TableOf({{p, 0, 10}});
  const IntervalTable twice = TableOf({{p, 0, 10}, {p, 0, 10}});
  EXPECT_FALSE(SnapshotDiff(once, twice).equivalent);
  // Canonicalize keeps multiplicity: two rows for the doubled payload.
  EXPECT_EQ(Canonicalize(twice).rows.size(), 2u);
}

TEST(SnapshotCompare, DetectsPayloadAndTimingDrift) {
  const Tuple p({Value(std::int64_t{1})});
  const Tuple q({Value(std::int64_t{2})});
  EXPECT_FALSE(
      SnapshotDiff(TableOf({{p, 0, 10}}), TableOf({{q, 0, 10}})).equivalent);
  EXPECT_FALSE(
      SnapshotDiff(TableOf({{p, 0, 10}}), TableOf({{p, 0, 9}})).equivalent);
  const TableDiff diff =
      SnapshotDiff(TableOf({{p, 0, 10}}), TableOf({{p, 1, 10}}));
  EXPECT_FALSE(diff.equivalent);
  EXPECT_NE(diff.message.find("t=0"), std::string::npos) << diff.message;
}

TEST(SnapshotCompare, DoubleTolerance) {
  const Tuple a({Value(1.0 / 3.0)});
  const Tuple b({Value(0.3333333333333333)});
  EXPECT_TRUE(
      SnapshotDiff(TableOf({{a, 0, 5}}), TableOf({{b, 0, 5}})).equivalent);
  const Tuple c({Value(0.3334)});
  EXPECT_FALSE(
      SnapshotDiff(TableOf({{a, 0, 5}}), TableOf({{c, 0, 5}})).equivalent);
}

TEST(SnapshotCompare, RenderTableShowsCanonicalRows) {
  const Tuple p({Value(std::int64_t{7})});
  const std::string rendered =
      RenderTable(TableOf({{p, 0, 4}, {p, 4, kMaxTimestamp}}));
  EXPECT_EQ(rendered, "0 inf | (7)\n");
}

// --- The corpus, one arm at a time ------------------------------------------
//
// Each arm is an independent execution path; every corpus case must be
// snapshot-equivalent to its expected interval table under all of them.

TEST(ConformanceReference, AllCases) { ExpectArmClean(Arm::kReference); }

TEST(ConformanceEngine, AllCases) { ExpectArmClean(Arm::kEngine); }

TEST(ConformancePerElement, AllCases) { ExpectArmClean(Arm::kPerElement); }

TEST(ConformanceColumnar, AllCases) { ExpectArmClean(Arm::kColumnar); }

TEST(ConformanceKeyedParallel, AllCases) {
  ExpectArmClean(Arm::kKeyedParallel);
}

TEST(ConformanceRunner, LogsOneLinePerCase) {
  const std::vector<Corpus> corpora = LoadAll();
  ASSERT_FALSE(corpora.empty());
  std::ostringstream log;
  const CorpusRunStats stats =
      RunCorpora({corpora[0]}, {Arm::kReference}, &log);
  EXPECT_EQ(stats.cases_run, corpora[0].cases.size());
  std::size_t lines = 0;
  std::string line;
  std::istringstream in(log.str());
  while (std::getline(in, line)) ++lines;
  EXPECT_EQ(lines, stats.cases_run);
}

}  // namespace
}  // namespace pipes::testing::conformance
