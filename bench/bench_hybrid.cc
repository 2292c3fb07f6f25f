// E9 — Hybrid data-driven / demand-driven processing.
//
// Paper demo: PIPES joins streams with persistent data by combining the
// data-driven pipe algebra with XXL's demand-driven cursors (dataflow
// translation).
//
// Harness: NEXMark-style bids joined with a persons relation of varying
// size, (a) via the cursor-probing StreamRelationJoin and (b) by feeding
// the relation through as an UNBOUNDED stream into a temporal hash join.
//
// Expected shape: the cursor probe wins — it touches exactly the matching
// relation rows per element and keeps no temporal state; the all-stream
// join pays insertion and interval bookkeeping for the whole relation.

#include <string>

#include <benchmark/benchmark.h>

#include "src/algebra/join.h"
#include "src/common/random.h"
#include "src/core/generator_source.h"
#include "src/core/graph.h"
#include "src/core/sink.h"
#include "src/cursors/relation.h"
#include "src/scheduler/scheduler.h"

namespace {

using namespace pipes;  // NOLINT

constexpr int kBids = 50'000;

struct BidRecord {
  std::int64_t bidder;
  double price;
};

struct PersonRecord {
  std::int64_t id;
  std::string name;
};

std::vector<StreamElement<BidRecord>> MakeBids(std::int64_t num_persons) {
  Random rng(5);
  std::vector<StreamElement<BidRecord>> bids;
  bids.reserve(kBids);
  for (int i = 0; i < kBids; ++i) {
    bids.push_back(StreamElement<BidRecord>::Point(
        BidRecord{static_cast<std::int64_t>(
                      rng.NextBounded(static_cast<std::uint64_t>(num_persons))),
                  rng.UniformDouble(1, 1000)},
        i));
  }
  return bids;
}

void BM_CursorProbeJoin(benchmark::State& state) {
  const std::int64_t num_persons = state.range(0);
  const auto bids = MakeBids(num_persons);
  cursors::IndexedRelation<std::int64_t, PersonRecord> persons;
  for (std::int64_t i = 0; i < num_persons; ++i) {
    persons.Insert(i, PersonRecord{i, "person-" + std::to_string(i)});
  }

  std::uint64_t results = 0;
  for (auto _ : state) {
    QueryGraph graph;
    auto& source = graph.Add<VectorSource<BidRecord>>(bids);
    auto key = [](const BidRecord& b) { return b.bidder; };
    auto combine = [](const BidRecord& b, const PersonRecord& p) {
      return std::make_pair(p.id, b.price);
    };
    auto& join = graph.Add<cursors::StreamRelationJoin<
        BidRecord, std::int64_t, PersonRecord, decltype(key),
        decltype(combine)>>(&persons, key, combine);
    auto& sink = graph.Add<CountingSink<std::pair<std::int64_t, double>>>();
    source.AddSubscriber(join.input());
    join.AddSubscriber(sink.input());
    scheduler::RoundRobinStrategy strategy;
    scheduler::PipeExecutor driver(graph, strategy, 256);
    driver.RunToCompletion();
    results = sink.count();
    benchmark::DoNotOptimize(results);
  }
  state.counters["results"] =
      benchmark::Counter(static_cast<double>(results));
  state.SetItemsProcessed(state.iterations() * kBids);
}

void BM_AllStreamJoin(benchmark::State& state) {
  const std::int64_t num_persons = state.range(0);
  const auto bids = MakeBids(num_persons);
  std::vector<StreamElement<PersonRecord>> person_stream;
  person_stream.reserve(static_cast<std::size_t>(num_persons));
  for (std::int64_t i = 0; i < num_persons; ++i) {
    // The "relation as stream": valid forever from time 0.
    person_stream.push_back(StreamElement<PersonRecord>(
        PersonRecord{i, "person-" + std::to_string(i)}, 0, kMaxTimestamp));
  }

  std::uint64_t results = 0;
  for (auto _ : state) {
    QueryGraph graph;
    auto& bid_source = graph.Add<VectorSource<BidRecord>>(bids);
    auto& person_source =
        graph.Add<VectorSource<PersonRecord>>(person_stream);
    auto bid_key = [](const BidRecord& b) { return b.bidder; };
    auto person_key = [](const PersonRecord& p) { return p.id; };
    auto combine = [](const BidRecord& b, const PersonRecord& p) {
      return std::make_pair(p.id, b.price);
    };
    auto& join = graph.Add(
        algebra::MakeHashJoin<BidRecord, PersonRecord>(bid_key, person_key,
                                                       combine));
    auto& sink = graph.Add<CountingSink<std::pair<std::int64_t, double>>>();
    bid_source.AddSubscriber(join.left());
    person_source.AddSubscriber(join.right());
    join.AddSubscriber(sink.input());
    scheduler::RoundRobinStrategy strategy;
    scheduler::PipeExecutor driver(graph, strategy, 256);
    driver.RunToCompletion();
    results = sink.count();
    benchmark::DoNotOptimize(results);
  }
  state.counters["results"] =
      benchmark::Counter(static_cast<double>(results));
  state.SetItemsProcessed(state.iterations() * kBids);
}

}  // namespace

BENCHMARK(BM_CursorProbeJoin)->Arg(100)->Arg(1000)->Arg(10000);
BENCHMARK(BM_AllStreamJoin)->Arg(100)->Arg(1000)->Arg(10000);
