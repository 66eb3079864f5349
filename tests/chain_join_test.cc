// Tests of the exact chain-join executor (src/join/chain_join.h): every
// order and every predicate mix agrees with a brute-force count, and the
// estimators' pair numbers track what the executor measures.

#include "join/chain_join.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/distance_estimate.h"
#include "datagen/generators.h"
#include "join/nested_loop.h"
#include "planner/join_planner.h"

namespace sjsel {
namespace {

const Rect kUnit(0, 0, 1, 1);

Dataset MakeNamed(const std::string& name, size_t n, double cx, double cy,
                  uint64_t seed, double mean_size = 0.02) {
  gen::SizeDist size{gen::SizeDist::Kind::kUniform, mean_size, mean_size,
                     0.5};
  return gen::GaussianClusterRects(name, n, kUnit, {{cx, cy}, 0.1, 0.1, 1.0},
                                   size, seed);
}

// Counts tuples (t1..tk) with DistanceLInf(t_i, t_{i+1}) <= eps_between[i]
// (0 means plain intersection) by explicit dynamic programming over
// multiplicities.
uint64_t BruteForceChainCount(const std::vector<const Dataset*>& chain,
                              const std::vector<double>& eps_between) {
  std::vector<uint64_t> counts(chain[0]->size(), 1);
  const Dataset* last = chain[0];
  for (size_t step = 1; step < chain.size(); ++step) {
    const Dataset* next = chain[step];
    const double eps = eps_between[step - 1];
    std::vector<uint64_t> next_counts(next->size(), 0);
    for (size_t i = 0; i < last->size(); ++i) {
      if (counts[i] == 0) continue;
      for (size_t j = 0; j < next->size(); ++j) {
        if ((*last)[i].DistanceLInf((*next)[j]) <= eps) {
          next_counts[j] += counts[i];
        }
      }
    }
    counts = std::move(next_counts);
    last = next;
  }
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  return total;
}

TEST(ChainJoinTest, TwoWayMatchesExactJoin) {
  const Dataset a = MakeNamed("a", 600, 0.5, 0.5, 31);
  const Dataset b = MakeNamed("b", 600, 0.52, 0.48, 32);
  const auto result = ExecuteChainJoin({{&a}, {&b}});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->result_tuples, NestedLoopJoinCount(a, b));
}

TEST(ChainJoinTest, ThreeWayMatchesBruteForceChain) {
  const Dataset a = MakeNamed("a", 250, 0.5, 0.5, 41);
  const Dataset b = MakeNamed("b", 250, 0.52, 0.5, 42);
  const Dataset c = MakeNamed("c", 250, 0.5, 0.52, 43);
  const auto result = ExecuteChainJoin({{&a}, {&b}, {&c}});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->result_tuples,
            BruteForceChainCount({&a, &b, &c}, {0.0, 0.0}));
  ASSERT_EQ(result->step_cardinalities.size(), 2u);
  EXPECT_GT(result->seconds, 0.0);
}

TEST(ChainJoinTest, EveryOrderMatchesBruteForceChain) {
  // A chain's count depends on its order; what must hold is that the
  // executor agrees with brute force for *every* order.
  const Dataset a = MakeNamed("a", 150, 0.5, 0.5, 51);
  const Dataset b = MakeNamed("b", 150, 0.55, 0.5, 52);
  const Dataset c = MakeNamed("c", 150, 0.5, 0.55, 53);
  const std::vector<const Dataset*> ds = {&a, &b, &c};
  std::vector<size_t> perm = {0, 1, 2};
  do {
    const std::vector<const Dataset*> chain = {ds[perm[0]], ds[perm[1]],
                                               ds[perm[2]]};
    const auto result =
        ExecuteChainJoin({{chain[0]}, {chain[1]}, {chain[2]}});
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->result_tuples, BruteForceChainCount(chain, {0.0, 0.0}))
        << perm[0] << perm[1] << perm[2];
  } while (std::next_permutation(perm.begin(), perm.end()));
}

TEST(ChainJoinTest, WithinDistanceEdgeMatchesBruteForce) {
  const Dataset a = MakeNamed("a", 300, 0.45, 0.5, 93);
  const Dataset b = MakeNamed("b", 300, 0.55, 0.5, 94);
  const Dataset c = MakeNamed("c", 300, 0.5, 0.55, 95);
  const double eps = 0.03;
  const auto result = ExecuteChainJoin(
      {{&a}, {&b, ChainPredicate::kWithinDistance, eps}, {&c}});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->result_tuples,
            BruteForceChainCount({&a, &b, &c}, {eps, 0.0}));
}

TEST(ChainJoinTest, ZeroEpsilonEdgeMatchesIntersectEdge) {
  // Closed-interval semantics: distance 0 is exactly "intersects".
  const Dataset a = MakeNamed("a", 400, 0.5, 0.5, 91);
  const Dataset b = MakeNamed("b", 400, 0.52, 0.5, 92);
  const auto within =
      ExecuteChainJoin({{&a}, {&b, ChainPredicate::kWithinDistance, 0.0}});
  const auto plain = ExecuteChainJoin({{&a}, {&b}});
  ASSERT_TRUE(within.ok());
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(within->result_tuples, plain->result_tuples);
}

TEST(ChainJoinTest, WiderEpsilonNeverShrinksTheResult) {
  const Dataset a = MakeNamed("a", 250, 0.4, 0.5, 96);
  const Dataset b = MakeNamed("b", 250, 0.6, 0.5, 97);
  uint64_t prev = 0;
  for (const double eps : {0.0, 0.02, 0.1, 0.3}) {
    const auto result =
        ExecuteChainJoin({{&a}, {&b, ChainPredicate::kWithinDistance, eps}});
    ASSERT_TRUE(result.ok());
    EXPECT_GE(result->result_tuples, prev) << "eps " << eps;
    prev = result->result_tuples;
  }
}

TEST(ChainJoinTest, PlannerPairEstimatesTrackExecutedPairs) {
  // End-to-end optimizer sanity: every pair estimate the planner costs
  // with is within a factor of 2 of the executed pair join on
  // well-behaved data.
  const Dataset a = MakeNamed("a", 700, 0.45, 0.5, 61);
  const Dataset b = MakeNamed("b", 700, 0.5, 0.5, 62);
  const Dataset c = MakeNamed("c", 700, 0.55, 0.5, 63);
  const std::vector<const Dataset*> ds = {&a, &b, &c};
  const auto plan = PlanMultiJoin({{"a", &a}, {"b", &b}, {"c", &c}});
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  for (const PairSelectivity& pair : plan->pairs) {
    const auto executed = ExecuteChainJoin({{ds[pair.i]}, {ds[pair.j]}});
    ASSERT_TRUE(executed.ok());
    const double actual = static_cast<double>(executed->result_tuples);
    ASSERT_GT(actual, 100.0);
    EXPECT_LT(pair.estimated_pairs, actual * 2.0) << pair.i << pair.j;
    EXPECT_GT(pair.estimated_pairs, actual / 2.0) << pair.i << pair.j;
  }
}

TEST(ChainJoinTest, WithinDistanceEstimateTracksExecution) {
  const Dataset a = MakeNamed("a", 600, 0.45, 0.5, 98);
  const Dataset b = MakeNamed("b", 600, 0.55, 0.5, 99);
  const double eps = 0.05;
  const auto estimate = EstimateWithinDistancePairs(a, b, eps, 6);
  const auto result =
      ExecuteChainJoin({{&a}, {&b, ChainPredicate::kWithinDistance, eps}});
  ASSERT_TRUE(estimate.ok()) << estimate.status().ToString();
  ASSERT_TRUE(result.ok());
  const double actual = static_cast<double>(result->result_tuples);
  ASSERT_GT(actual, 100.0);
  EXPECT_LT(*estimate, actual * 1.5);
  EXPECT_GT(*estimate, actual / 1.5);
}

TEST(ChainJoinTest, ValidatesInput) {
  const Dataset a = MakeNamed("a", 50, 0.5, 0.5, 100);
  const Dataset b = MakeNamed("b", 50, 0.5, 0.5, 101);
  EXPECT_FALSE(ExecuteChainJoin({}).ok());
  EXPECT_FALSE(ExecuteChainJoin({{&a}}).ok());
  EXPECT_FALSE(ExecuteChainJoin({{&a}, {nullptr}}).ok());
  EXPECT_FALSE(
      ExecuteChainJoin({{&a}, {&b, ChainPredicate::kWithinDistance, -1.0}})
          .ok());
}

}  // namespace
}  // namespace sjsel
