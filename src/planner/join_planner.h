#ifndef SJSEL_PLANNER_JOIN_PLANNER_H_
#define SJSEL_PLANNER_JOIN_PLANNER_H_

// Selectivity-driven multi-way spatial join planning (docs/PLANNER.md).
//
// This is the first real *consumer* of the estimator stack: given k
// datasets, it asks the guarded fallback chain (GH → PH → sampling →
// parametric, src/core/guarded_estimator.h) for every pairwise join
// selectivity and searches join trees with dynamic programming over
// dataset subsets, minimizing the classic C_out cost — the sum of
// estimated intermediate-result cardinalities. Per-pair provenance
// (answering rung, degradation_reason) rides along into the plan, so a
// plan built on degraded estimates says so.
//
// It targets the clique multi-way spatial join — every result tuple
// intersects pairwise, so every join tree computes the same query — costs
// bushy trees, and runs on the guarded chain so it degrades instead of
// failing. Planning is two halves: pair estimation and a planning core
// over the k(k-1)/2 estimates (PlanFromPairEstimates). PlanMultiJoin runs
// both; the server feeds the core from its estimate cache instead, so
// `estimate` and `plan` share one cache.

#include <cstddef>
#include <string>
#include <vector>

#include "core/guarded_estimator.h"
#include "geom/dataset.h"
#include "util/result.h"

namespace sjsel {

struct PlannerOptions {
  /// Options handed verbatim to GuardedEstimator for every pair. The
  /// defaults match the CLI `estimate` command, so a plan's per-pair
  /// numbers are bit-for-bit the standalone estimates.
  GuardedEstimatorOptions estimator;
  /// Fan-out for pairwise estimation. Never changes any output — pair
  /// results are merged by pair index, not completion order.
  int threads = 1;
  /// Inputs up to this count get exhaustive bushy DP (optimal under the
  /// cost model); beyond it the planner switches to greedy pairing.
  int dp_limit = 12;
};

/// One pairwise estimate, with the guarded chain's provenance.
struct PairSelectivity {
  /// Indices into MultiJoinPlan::inputs, i < j.
  size_t i = 0;
  size_t j = 0;
  double estimated_pairs = 0.0;
  double selectivity = 0.0;
  EstimatorRung rung = EstimatorRung::kGh;
  std::string rung_label;
  /// Same contract as EstimateResult::degradation_reason; empty when the
  /// GH rung answered.
  std::string degradation_reason;
  bool clamped = false;
};

/// One join in bottom-up execution order.
struct PlanStep {
  std::string left;   ///< rendered subtree, e.g. "(TS * TCB)" or "CAS"
  std::string right;
  /// Estimated rows out of this join under the clique independence model.
  double output_cardinality = 0.0;
};

/// One planner input: the dataset plus the label the plan refers to it
/// by. Labels (CLI and server pass the dataset file path) must be unique
/// and non-empty — Dataset::name() is not required to be either.
struct PlannerInput {
  std::string label;
  const Dataset* dataset = nullptr;
};

struct MultiJoinPlan {
  /// Input labels in caller order (what pair indices refer to).
  std::vector<std::string> inputs;
  std::vector<size_t> input_sizes;
  /// All k*(k-1)/2 pairs, ordered by (i, j).
  std::vector<PairSelectivity> pairs;
  /// The chosen tree rendered as a parenthesized expression,
  /// e.g. "((TS * TCB) * CAS)".
  std::string tree;
  /// Joins of the chosen tree, bottom-up, left subtree first.
  std::vector<PlanStep> steps;
  /// Sum of step output cardinalities (C_out).
  double cost = 0.0;
  /// "dp" (exhaustive over bushy trees) or "greedy".
  std::string algorithm;

  /// True when any pair's estimate came from below the GH rung.
  bool degraded() const;
};

/// OK when `inputs` can be planned: 2 to 24 entries, each with a dataset
/// and a unique non-empty label.
Status ValidatePlannerInputs(const std::vector<PlannerInput>& inputs);

/// The planning core: plans from one estimate per pair (i, j), i < j,
/// ordered by (i, j). Only `options.dp_limit` is read.
Result<MultiJoinPlan> PlanFromPairEstimates(
    const std::vector<PlannerInput>& inputs,
    const std::vector<EstimateResult>& pair_estimates,
    const PlannerOptions& options = {});

/// Plans a multi-way spatial join over `inputs` (datasets borrowed; at
/// least two, unique non-empty labels): every pair's guarded-chain
/// estimate, on `options.threads` workers with `options.estimator`, then
/// PlanFromPairEstimates. The first failing pair in (i, j) order fails
/// the call. Deterministic: identical inputs and options produce an
/// identical plan for every `threads` value.
Result<MultiJoinPlan> PlanMultiJoin(const std::vector<PlannerInput>& inputs,
                                    const PlannerOptions& options = {});

/// Human-readable rendering. Per-pair numbers use the same formatting as
/// the CLI `estimate` command (pairs to 1 decimal, selectivity to 6), so
/// the two outputs can be diffed directly.
std::string RenderPlanText(const MultiJoinPlan& plan);

/// Machine-readable rendering (deterministic; numbers round-trip at full
/// precision). Schema in docs/PLANNER.md.
std::string RenderPlanJson(const MultiJoinPlan& plan);

}  // namespace sjsel

#endif  // SJSEL_PLANNER_JOIN_PLANNER_H_
