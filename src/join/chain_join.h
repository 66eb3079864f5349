#ifndef SJSEL_JOIN_CHAIN_JOIN_H_
#define SJSEL_JOIN_CHAIN_JOIN_H_

#include <cstdint>
#include <vector>

#include "geom/dataset.h"
#include "util/result.h"

namespace sjsel {

/// Predicate on one edge of a chain query.
enum class ChainPredicate {
  kIntersects,
  /// Chebyshev distance <= eps between consecutive elements.
  kWithinDistance,
};

/// One element of a chain query R1 ⋈ R2 ⋈ ... ⋈ Rk, where a result tuple
/// (t1, ..., tk) requires the step's predicate between t_{i-1} and t_i.
/// The predicate applies between this dataset and the previous one
/// (ignored on the first step). The dataset is borrowed for the call.
struct ChainStep {
  const Dataset* dataset = nullptr;
  ChainPredicate predicate = ChainPredicate::kIntersects;
  double eps = 0.0;
};

/// Result of executing a chain join.
struct ChainJoinResult {
  uint64_t result_tuples = 0;
  /// Actual cardinality after each join step (size k-1).
  std::vector<uint64_t> step_cardinalities;
  /// Tuples examined across steps (probes plus rows produced); the
  /// executor's work measure.
  uint64_t work = 0;
  /// Wall time of the call, R-tree builds included.
  double seconds = 0.0;
};

struct ExecuteOptions {
  /// Worker threads for the R-tree probe steps; <= 1 runs serially. Each
  /// probe step partitions the partial-tuple id range into fixed blocks,
  /// accumulates per-block match-count vectors, and sums them in block
  /// order — integer sums, so results are identical for every thread
  /// count. The pool lives for the duration of one call.
  int threads = 1;
};

/// Exact chain join, executed in the given order: every element of the
/// first dataset starts a partial tuple, and each later step extends the
/// tuples by probing the next dataset's STR R-tree (built per call) with
/// the tuple's last rectangle — expanded by eps on a within-distance
/// edge, the exact reduction for Chebyshev distance. Tuple counts are
/// tracked per distinct last element, so memory stays O(max dataset
/// size). The order is part of the query: a chain's answer changes when
/// its steps are reordered. Inputs are used as given; validate them
/// first (geom/validate.h) if they may hold non-finite rects.
Result<ChainJoinResult> ExecuteChainJoin(const std::vector<ChainStep>& steps,
                                         const ExecuteOptions& options = {});

}  // namespace sjsel

#endif  // SJSEL_JOIN_CHAIN_JOIN_H_
