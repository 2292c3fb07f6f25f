#ifndef PIPES_TESTING_LOWERING_H_
#define PIPES_TESTING_LOWERING_H_

#include <cstddef>

#include "src/common/status.h"
#include "src/core/graph.h"
#include "src/core/source.h"
#include "src/cql/catalog.h"
#include "src/optimizer/logical_plan.h"
#include "src/relational/tuple.h"

/// \file
/// The keyed-parallel lowering: the one `LogicalPlan` lowering besides
/// `optimizer::PhysicalBuilder`, for the execution arms that need physical
/// shapes the builder does not make. It lowers every operator as the
/// builder does, except that each key-partitionable one (grouped aggregate,
/// distinct, partitioned-rows window, hash equi-join) is replicated across
/// keyed replicas through `algebra::MakeKeyedParallel` /
/// `MakeParallelHashJoin`, and equi-joins can be built with spillable
/// SweepAreas. The conformance corpus's keyed-parallel arm and the fuzzer's
/// parallel and spill arms use it.

namespace pipes::testing {

struct KeyedLowering {
  /// Keyed replicas per partitionable operator; 1 builds them unreplicated.
  std::size_t replicas = 2;
  /// Build unreplicated equi-joins whose inputs hold at most four
  /// non-string fields with spillable SweepAreas (`MakeSpillableHashJoin`
  /// over a trivially copyable packing of the rows), so a memory squeeze
  /// pages join state to disk instead of shedding it.
  bool spillable_joins = false;
};

/// Lowers `plan` into `graph`, resolving scans through `catalog`, and
/// returns its output. Subplans shared within `plan` are built once.
Result<Source<relational::Tuple>*> LowerKeyed(
    QueryGraph& graph, const cql::Catalog& catalog,
    const optimizer::LogicalPlan& plan, const KeyedLowering& options = {});

}  // namespace pipes::testing

#endif  // PIPES_TESTING_LOWERING_H_
