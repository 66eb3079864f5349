// The determinism contract of the concurrency layer (docs/ARCHITECTURE.md):
// every parallel path — GH/PH histogram build, PBSM and R-tree ground-truth
// joins, the sampling estimator, the chain-join executor — produces output
// bit-identical (histograms) or exactly equal (integer counts) to its
// serial run, for any thread count, on uniform and skewed data alike.

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "core/gh_histogram.h"
#include "core/ph_histogram.h"
#include "core/sampling.h"
#include "datagen/generators.h"
#include "join/chain_join.h"
#include "join/pbsm.h"
#include "join/rtree_join.h"
#include "rtree/rtree.h"

namespace sjsel {
namespace {

const Rect kUnit(0, 0, 1, 1);
const int kThreadCounts[] = {2, 3, 4, 8};
const uint64_t kSeeds[] = {1, 7, 2001};

Dataset MakeUniform(size_t n, uint64_t seed) {
  gen::SizeDist size{gen::SizeDist::Kind::kUniform, 0.005, 0.005, 0.5};
  return gen::UniformRects("u", n, kUnit, size, seed);
}

// Heavily skewed: one tight Gaussian cluster, so cell populations are very
// unbalanced across the parallel chunks.
Dataset MakeSkewed(size_t n, uint64_t seed) {
  gen::SizeDist size{gen::SizeDist::Kind::kUniform, 0.005, 0.005, 0.5};
  return gen::GaussianClusterRects("skew", n, kUnit,
                                   {{0.2, 0.8}, 0.03, 0.03, 1.0}, size, seed);
}

std::vector<Dataset> TestDatasets(uint64_t seed) {
  std::vector<Dataset> out;
  out.push_back(MakeUniform(6000, seed));
  out.push_back(MakeSkewed(6000, seed + 100));
  return out;
}

void ExpectGhBitIdentical(const GhHistogram& a, const GhHistogram& b) {
  EXPECT_EQ(a.dataset_size(), b.dataset_size());
  EXPECT_EQ(a.c(), b.c());
  EXPECT_EQ(a.o(), b.o());
  EXPECT_EQ(a.h(), b.h());
  EXPECT_EQ(a.v(), b.v());
}

void ExpectPhBitIdentical(const PhHistogram& a, const PhHistogram& b) {
  EXPECT_EQ(a.dataset_size(), b.dataset_size());
  // avg_span is derived from the two global sums; comparing them catches
  // reordered crossing-rect accumulation.
  EXPECT_EQ(a.crossing_count(), b.crossing_count());
  EXPECT_EQ(a.avg_span(), b.avg_span());
  ASSERT_EQ(a.cells().size(), b.cells().size());
  for (size_t i = 0; i < a.cells().size(); ++i) {
    const PhHistogram::Cell& x = a.cells()[i];
    const PhHistogram::Cell& y = b.cells()[i];
    ASSERT_EQ(x.num, y.num) << "cell " << i;
    ASSERT_EQ(x.area_sum, y.area_sum) << "cell " << i;
    ASSERT_EQ(x.w_sum, y.w_sum) << "cell " << i;
    ASSERT_EQ(x.h_sum, y.h_sum) << "cell " << i;
    ASSERT_EQ(x.num_x, y.num_x) << "cell " << i;
    ASSERT_EQ(x.area_sum_x, y.area_sum_x) << "cell " << i;
    ASSERT_EQ(x.w_sum_x, y.w_sum_x) << "cell " << i;
    ASSERT_EQ(x.h_sum_x, y.h_sum_x) << "cell " << i;
  }
}

TEST(ParDeterminismTest, GhParallelBuildBitIdenticalToSerial) {
  for (const uint64_t seed : kSeeds) {
    for (const Dataset& ds : TestDatasets(seed)) {
      for (const GhVariant variant :
           {GhVariant::kRevised, GhVariant::kBasic}) {
        const auto serial = GhHistogram::Build(ds, kUnit, 6, variant);
        ASSERT_TRUE(serial.ok());
        for (const int threads : kThreadCounts) {
          const auto parallel =
              GhHistogram::Build(ds, kUnit, 6, variant, threads);
          ASSERT_TRUE(parallel.ok());
          ExpectGhBitIdentical(*serial, *parallel);
        }
      }
    }
  }
}

TEST(ParDeterminismTest, PhParallelBuildBitIdenticalToSerial) {
  for (const uint64_t seed : kSeeds) {
    for (const Dataset& ds : TestDatasets(seed)) {
      for (const PhVariant variant :
           {PhVariant::kSplitCrossing, PhVariant::kNaive}) {
        const auto serial = PhHistogram::Build(ds, kUnit, 6, variant);
        ASSERT_TRUE(serial.ok());
        for (const int threads : kThreadCounts) {
          const auto parallel =
              PhHistogram::Build(ds, kUnit, 6, variant, threads);
          ASSERT_TRUE(parallel.ok());
          ExpectPhBitIdentical(*serial, *parallel);
        }
      }
    }
  }
}

TEST(ParDeterminismTest, GhParallelBuildEstimatesMatchSerial) {
  // End-to-end: estimates computed from parallel-built histograms equal
  // those from serial-built ones bit-for-bit.
  const Dataset a = MakeUniform(6000, 3);
  const Dataset b = MakeSkewed(6000, 4);
  const auto sa = GhHistogram::Build(a, kUnit, 6);
  const auto sb = GhHistogram::Build(b, kUnit, 6);
  const auto pa = GhHistogram::Build(a, kUnit, 6, GhVariant::kRevised, 4);
  const auto pb = GhHistogram::Build(b, kUnit, 6, GhVariant::kRevised, 4);
  EXPECT_EQ(EstimateGhJoinPairs(*sa, *sb).value(),
            EstimateGhJoinPairs(*pa, *pb).value());
}

TEST(ParDeterminismTest, PbsmParallelCountMatchesSerial) {
  for (const uint64_t seed : kSeeds) {
    const Dataset a = MakeUniform(5000, seed);
    const Dataset b = MakeSkewed(5000, seed + 50);
    const uint64_t serial = PbsmJoinCount(a, b);
    for (const int threads : kThreadCounts) {
      PbsmOptions options;
      options.threads = threads;
      EXPECT_EQ(PbsmJoinCount(a, b, options), serial)
          << "seed " << seed << " threads " << threads;
    }
  }
}

TEST(ParDeterminismTest, PbsmParallelEmitsSamePairsInSameOrder) {
  const Dataset a = MakeUniform(3000, 11);
  const Dataset b = MakeSkewed(3000, 12);
  using Pairs = std::vector<std::pair<int64_t, int64_t>>;
  Pairs serial;
  PbsmJoin(a, b,
           [&serial](int64_t x, int64_t y) { serial.emplace_back(x, y); });
  PbsmOptions options;
  options.threads = 4;
  Pairs parallel;
  PbsmJoin(
      a, b,
      [&parallel](int64_t x, int64_t y) { parallel.emplace_back(x, y); },
      options);
  EXPECT_EQ(serial, parallel);
}

TEST(ParDeterminismTest, RTreeParallelCountMatchesSerial) {
  for (const uint64_t seed : kSeeds) {
    const Dataset a = MakeUniform(5000, seed);
    const Dataset b = MakeSkewed(5000, seed + 50);
    // Bulk-loaded and insertion-built trees have different shapes; cover
    // both against the parallel traversal.
    const RTree ta = RTree::BulkLoadStr(RTree::DatasetEntries(a));
    const RTree tb = RTree::BuildByInsertion(b);
    const uint64_t serial = RTreeJoinCount(ta, tb);
    for (const int threads : kThreadCounts) {
      EXPECT_EQ(RTreeJoinCount(ta, tb, threads), serial)
          << "seed " << seed << " threads " << threads;
    }
  }
}

TEST(ParDeterminismTest, RTreeParallelCountTinyTrees) {
  // Leaf roots and empty trees must fall back safely.
  Dataset small("small");
  small.Add(Rect(0.1, 0.1, 0.2, 0.2));
  small.Add(Rect(0.15, 0.15, 0.3, 0.3));
  const RTree ta = RTree::BuildByInsertion(small);
  const RTree tb = RTree::BuildByInsertion(small);
  EXPECT_EQ(RTreeJoinCount(ta, tb, 4), RTreeJoinCount(ta, tb));
  const RTree empty = RTree::BuildByInsertion(Dataset("empty"));
  EXPECT_EQ(RTreeJoinCount(ta, empty, 4), 0u);
}

TEST(ParDeterminismTest, SamplingParallelEstimateMatchesSerial) {
  const Dataset a = MakeUniform(5000, 21);
  const Dataset b = MakeSkewed(5000, 22);
  for (const SamplingMethod method :
       {SamplingMethod::kRegular, SamplingMethod::kRandomWithReplacement,
        SamplingMethod::kSorted}) {
    SamplingOptions options;
    options.method = method;
    const auto serial = EstimateBySampling(a, b, options);
    ASSERT_TRUE(serial.ok());
    for (const int threads : kThreadCounts) {
      options.threads = threads;
      const auto parallel = EstimateBySampling(a, b, options);
      ASSERT_TRUE(parallel.ok());
      EXPECT_EQ(parallel->sample_pairs, serial->sample_pairs);
      EXPECT_EQ(parallel->sample_a_size, serial->sample_a_size);
      EXPECT_EQ(parallel->sample_b_size, serial->sample_b_size);
      EXPECT_EQ(parallel->estimated_pairs, serial->estimated_pairs);
    }
    options.threads = 1;
  }
}

TEST(ParDeterminismTest, ExecutorParallelChainJoinMatchesSerial) {
  const Dataset u = MakeUniform(2000, 31);
  const Dataset skew = MakeSkewed(2000, 32);
  const Dataset u2 = MakeUniform(2000, 33);

  const std::vector<ChainStep> order = {{&u}, {&skew}, {&u2}};
  const auto serial = ExecuteChainJoin(order);
  ASSERT_TRUE(serial.ok());
  for (const int threads : kThreadCounts) {
    ExecuteOptions options;
    options.threads = threads;
    const auto parallel = ExecuteChainJoin(order, options);
    ASSERT_TRUE(parallel.ok());
    EXPECT_EQ(parallel->result_tuples, serial->result_tuples);
    EXPECT_EQ(parallel->step_cardinalities, serial->step_cardinalities);
    EXPECT_EQ(parallel->work, serial->work);
  }
}

}  // namespace
}  // namespace sjsel
