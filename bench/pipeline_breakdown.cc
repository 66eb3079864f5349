// End-to-end pipeline breakdown: how long each phase of a full estimation
// run takes — dataset generation, GH histogram builds, the pure GH combine
// of the two built histograms (the paper's O(cells) estimation step), the
// guarded estimate end to end (which validates and builds both histograms
// again before it combines), and the exact plane-sweep join that grounds
// it. Each phase is timed with a ScopedTimer reporting into a
// pipeline.*_us metrics histogram, and the emitted BENCH_pipeline.json
// embeds the whole metrics snapshot, so the per-phase wall clock and the
// engine's own counters (hist.gh.builds, join.plane_sweep.pairs,
// estimator.answered.*) come from one instrumented run rather than
// separate stopwatches.
//
// `--smoke` shrinks the inputs and is the ctest `pipeline_smoke` entry
// point.

#include <cstdio>
#include <cstring>
#include <string>

#include "bench_common.h"
#include "core/gh_histogram.h"
#include "core/guarded_estimator.h"
#include "datagen/generators.h"
#include "join/plane_sweep.h"
#include "obs/metrics.h"
#include "util/timer.h"

namespace sjsel {
namespace {

const Rect kUnit(0, 0, 1, 1);
constexpr int kLevel = 7;

struct PhaseRow {
  const char* name;
  double micros = 0.0;
  uint64_t items = 0;
};

int Run(bool smoke) {
  const size_t n = smoke ? 2000 : 50000;
  obs::MetricsRegistry::Arm();

  PhaseRow gen_row{"pipeline/gen"};
  PhaseRow build_row{"pipeline/gh_build"};
  PhaseRow combine_row{"pipeline/combine"};
  PhaseRow estimate_row{"pipeline/estimate"};
  PhaseRow join_row{"pipeline/exact_join"};

  Dataset a;
  Dataset b;
  {
    ScopedTimer t(bench::BenchHistogram("pipeline.gen_us"));
    gen::SizeDist size{gen::SizeDist::Kind::kUniform, 0.005, 0.005, 0.5};
    a = gen::UniformRects("uniform", n, kUnit, size, 1);
    b = gen::GaussianClusterRects("clustered", n, kUnit,
                                  {{0.4, 0.7}, 0.1, 0.1, 1.0}, size, 2);
    gen_row.micros = static_cast<double>(t.ElapsedMicros());
    gen_row.items = a.size() + b.size();
  }

  Rect extent = a.ComputeExtent();
  extent.Extend(b.ComputeExtent());
  Result<GhHistogram> ha = Status::Internal("not built");
  Result<GhHistogram> hb = Status::Internal("not built");
  {
    ScopedTimer t(bench::BenchHistogram("pipeline.build_us"));
    ha = GhHistogram::Build(a, extent, kLevel);
    hb = GhHistogram::Build(b, extent, kLevel);
    if (!ha.ok() || !hb.ok()) {
      std::fprintf(stderr, "histogram build failed\n");
      return 1;
    }
    build_row.micros = static_cast<double>(t.ElapsedMicros());
    build_row.items = a.size() + b.size();
  }

  // Normalized per grid cell, not per rect: the combine is one pass over
  // the cells and never touches a rect.
  double combined_pairs = 0.0;
  {
    ScopedTimer t(bench::BenchHistogram("pipeline.combine_us"));
    const auto pairs = EstimateGhJoinPairs(*ha, *hb);
    if (!pairs.ok()) {
      std::fprintf(stderr, "combine failed: %s\n",
                   pairs.status().ToString().c_str());
      return 1;
    }
    combined_pairs = *pairs;
    combine_row.micros = static_cast<double>(t.ElapsedMicros());
    combine_row.items = static_cast<uint64_t>(ha->grid().num_cells());
  }

  double estimated_pairs = 0.0;
  {
    ScopedTimer t(bench::BenchHistogram("pipeline.estimate_us"));
    const GuardedEstimator estimator{GuardedEstimatorOptions{}};
    const auto result = estimator.Estimate(a, b);
    if (!result.ok()) {
      std::fprintf(stderr, "estimate failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    estimated_pairs = result->outcome.estimated_pairs;
    estimate_row.micros = static_cast<double>(t.ElapsedMicros());
    estimate_row.items = a.size() + b.size();
  }

  uint64_t actual_pairs = 0;
  {
    ScopedTimer t(bench::BenchHistogram("pipeline.exact_join_us"));
    actual_pairs = PlaneSweepJoinCount(a, b);
    join_row.micros = static_cast<double>(t.ElapsedMicros());
    join_row.items = a.size() + b.size();
  }

  std::printf("%-22s %12s %10s\n", "phase", "micros", "items");
  bench::BenchJsonWriter writer("pipeline");
  for (const PhaseRow& row :
       {gen_row, build_row, combine_row, estimate_row, join_row}) {
    std::printf("%-22s %12.0f %10llu\n", row.name, row.micros,
                static_cast<unsigned long long>(row.items));
    const double ns_per_op =
        row.items == 0 ? 0.0
                       : row.micros * 1e3 / static_cast<double>(row.items);
    writer.Add(row.name, ns_per_op, 0.0, 1, row.items);
  }
  std::printf("combined pairs: %.1f  estimated pairs: %.1f  actual pairs: "
              "%llu\n",
              combined_pairs, estimated_pairs,
              static_cast<unsigned long long>(actual_pairs));

  writer.AddMetadata("rects_per_side", std::to_string(n));
  writer.AddMetadata("gh_level", std::to_string(kLevel));
  writer.AddMetadata("mode", smoke ? "smoke" : "full");
  writer.EmbedMetrics();
  obs::MetricsRegistry::Disarm();
  return writer.Write() ? 0 : 1;
}

}  // namespace
}  // namespace sjsel

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  return sjsel::Run(smoke);
}
