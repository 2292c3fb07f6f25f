// Hybrid processing: the dataflow translation operators in action.
//
//   1. A demand-driven cursor over an order table is *lifted* into a
//      data-driven stream (CursorSource, pull -> push).
//   2. The stream runs through windowed data-driven operators.
//   3. Results land in a StreamBufferSink whose contents are consumed
//      *on demand* by the cursor algebra (push -> pull): a GroupByCursor
//      computes per-customer totals using the same online aggregation
//      policies the data-driven operators use.
//
// This is the code-reuse story of the paper: one aggregation package,
// both processing styles, plus persistent-relation access via cursors.

#include <cstdio>
#include <string>

#include "src/algebra/aggregates.h"
#include "src/algebra/filter.h"
#include "src/common/random.h"
#include "src/core/graph.h"
#include "src/cursors/cursor.h"
#include "src/cursors/relation.h"
#include "src/cursors/translate.h"
#include "src/scheduler/scheduler.h"

namespace {

struct Order {
  int customer_id;
  double amount;
  pipes::Timestamp at;
};

}  // namespace

int main() {
  using namespace pipes;  // NOLINT: example brevity

  // A persistent relation: customer id -> name, accessed through cursors.
  cursors::IndexedRelation<int, std::string> customers;
  customers.Insert(1, "ada");
  customers.Insert(2, "grace");
  customers.Insert(3, "edgar");

  // The "archive": orders stored in a demand-driven container.
  std::vector<Order> archive;
  Random rng(11);
  for (Timestamp t = 0; t < 500; ++t) {
    archive.push_back(Order{static_cast<int>(rng.NextBounded(3)) + 1,
                            rng.UniformDouble(5.0, 200.0), t * 10});
  }

  QueryGraph graph;

  // pull -> push: lift the archive cursor into a stream source.
  auto& source = graph.Add<cursors::CursorSource<Order>>(
      std::make_unique<cursors::VectorCursor<Order>>(archive),
      [](const Order& order) { return order.at; }, "order-archive");

  // Data-driven part: keep only substantial orders.
  auto big = [](const Order& o) { return o.amount >= 50.0; };
  auto& filter =
      graph.Add<algebra::Filter<Order, decltype(big)>>(big, "big-orders");

  // push -> pull: buffer results for on-demand consumption.
  auto& buffer = graph.Add<cursors::StreamBufferSink<Order>>("result-buffer");

  source.AddSubscriber(filter.input());
  filter.AddSubscriber(buffer.input());

  scheduler::RoundRobinStrategy strategy;
  scheduler::PipeExecutor driver(graph, strategy);
  driver.RunToCompletion();

  std::printf("stream phase done: %zu big orders buffered\n",
              buffer.buffered());

  // Demand-driven part: group the buffered results with the shared
  // aggregation policies.
  auto payload_cursor =
      std::make_unique<cursors::MapCursor<StreamElement<Order>, Order>>(
          buffer.OpenCursor(),
          [](const StreamElement<Order>& e) { return e.payload; });
  auto key = [](const Order& o) { return o.customer_id; };
  auto value = [](const Order& o) { return o.amount; };
  cursors::GroupByCursor<Order, algebra::SumAgg<double>, decltype(key),
                         decltype(value)>
      totals(std::move(payload_cursor), key, value);

  std::printf("per-customer totals (cursor group-by + relation lookup):\n");
  while (auto row = totals.Next()) {
    auto names = customers.Lookup(row->first);
    std::string name = "?";
    if (auto n = names->Next()) name = *n;
    std::printf("  customer %d (%s): %.2f\n", row->first, name.c_str(),
                row->second);
  }
  return 0;
}
