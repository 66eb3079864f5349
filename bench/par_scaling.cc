// Parallel scaling harness: build/join throughput of the threaded hot
// paths at 1/2/4/8 threads, reported as speedup over the 1-thread run of
// the same code path. Not a paper figure — this measures the concurrency
// layer (docs/ARCHITECTURE.md, "Threading model") that the paper-scale
// workloads ride on.
//
// Workloads:
//   gh-build    GhHistogram::Build, level 7, revised variant
//   ph-build    PhHistogram::Build, level 7, split-crossing variant
//   pbsm-join   PbsmJoinCount, uniform x clustered
//   rtree-join  RTreeJoinCount, STR bulk-loaded trees
//   sample-est  EstimateBySampling, RSWR 10%/10%
//
// The histogram builds run on two dimensions besides threads: kernel
// backend (forced scalar vs the best SIMD backend, rows .../scalar/... and
// .../simd/...) and dataset size (100k and 1M rects). The build regime
// follows cache residency alone, and a level-7 grid is cache-resident, so
// every build row takes the fused serial path whatever its thread count:
// the threads > 1 columns check that asking for threads costs nothing on
// a resident grid (the same bits, no slower than t1). JSON entry
// names encode every dimension (`gh-build/simd/n1000000/t4`) so the drift
// gate (scripts/check_bench.py) diffs each configuration individually;
// the recorded hardware_threads header says how many cores the numbers
// actually had available.
//
// `--smoke` shrinks the inputs to 5k rects, runs one rep and only the
// portable backend rows — the fast ctest / drift-baseline configuration
// (bench/baselines/BENCH_par_scaling.json), stable across machines with
// different vector extensions.
//
// Every parallel result is checked against the serial result before a row
// is printed — a speedup that changes the answer is a bug, not a win.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/gh_histogram.h"
#include "core/kernels.h"
#include "core/ph_histogram.h"
#include "core/sampling.h"
#include "datagen/generators.h"
#include "join/pbsm.h"
#include "join/rtree_join.h"
#include "rtree/rtree.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace sjsel {
namespace {

const Rect kUnit(0, 0, 1, 1);
const int kThreadCounts[] = {1, 2, 4, 8};
constexpr int kLevel = 7;

// Reps per thread count. A multiple of 4, so over the run every thread
// count goes first (and last) equally often.
int g_reps = 16;

struct Row {
  std::string name;
  double seconds[4] = {0, 0, 0, 0};
  bool identical = true;  ///< parallel output matched serial output
};

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

// Fills row->seconds with the median over g_reps of `run(threads)`'s
// wall-clock time at each thread count. Rep r starts at thread count r mod
// 4, so drift over the run (clock ramp, cache warm-up, a noisy neighbour)
// lands on every column alike rather than on t1. Only `run` is timed:
// `same(result)` checks each result against the serial answer after the
// timer stops.
template <typename Run, typename Same>
void TimeRow(Row* row, Run&& run, Same&& same) {
  std::vector<double> samples[4];
  for (int rep = 0; rep < g_reps; ++rep) {
    for (int k = 0; k < 4; ++k) {
      const int i = (rep + k) % 4;
      Timer timer;
      const auto result = run(kThreadCounts[i]);
      samples[i].push_back(timer.ElapsedSeconds());
      if (!same(result)) row->identical = false;
    }
  }
  for (int i = 0; i < 4; ++i) row->seconds[i] = Median(samples[i]);
}

void PrintRow(const Row& row) {
  std::printf("%-24s", row.name.c_str());
  for (int i = 0; i < 4; ++i) {
    std::printf("  %8.4fs (%4.2fx)", row.seconds[i],
                row.seconds[i] > 0.0 ? row.seconds[0] / row.seconds[i] : 0.0);
  }
  std::printf("  %s\n", row.identical ? "bit-identical" : "MISMATCH!");
}

// One JSON entry per thread count, named `<row>/t<threads>`; speedup is vs
// this row's 1-thread run (the stdout table's baseline, not the
// kernel-scalar baseline).
void AddRowJson(bench::BenchJsonWriter* json, const Row& row, size_t items,
                const char* backend = nullptr) {
  for (int i = 0; i < 4; ++i) {
    json->Add(row.name + "/t" + std::to_string(kThreadCounts[i]),
              row.seconds[i] * 1e9 / static_cast<double>(items),
              row.seconds[i] > 0.0 ? row.seconds[0] / row.seconds[i] : 0.0,
              kThreadCounts[i], items, backend);
  }
}

}  // namespace
}  // namespace sjsel

int main(int argc, char** argv) {
  using namespace sjsel;

  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  if (smoke) g_reps = 1;

  const size_t base_n = smoke ? 5000 : 100000;
  // The build workloads also run at 1M rects (full mode only). At level 7
  // the grid stays cache-resident, so those rows run the fused serial
  // path at every thread count too; only the input is larger.
  std::vector<size_t> build_sizes{base_n};
  if (!smoke) build_sizes.push_back(1000000);

  // Backend dimension for the build rows: forced scalar plus the detected
  // backend under the portable "simd" label (the alias the kernels bench
  // uses too, so baselines survive machines with different vector
  // extensions). Smoke keeps only "simd" — one portable row set.
  std::vector<std::pair<const char*, KernelBackend>> backends;
  if (!smoke) backends.emplace_back("scalar", KernelBackend::kScalar);
  backends.emplace_back("simd", DetectKernelBackend());

  gen::SizeDist size{gen::SizeDist::Kind::kUniform, 0.005, 0.005, 0.5};
  const Dataset uniform = gen::UniformRects("uniform", base_n, kUnit, size, 1);
  const Dataset clustered = gen::GaussianClusterRects(
      "clustered", base_n, kUnit, {{0.4, 0.7}, 0.1, 0.1, 1.0}, size, 2);

  std::printf("parallel scaling, %zu rects/input, %d hardware threads\n",
              base_n, ThreadPool::DefaultThreads());
  std::printf("(median of %d reps, thread-count order rotated per rep;\n"
              " speedup vs the 1-thread run of the same code path; every\n"
              " parallel result is verified against serial before printing)\n\n",
              g_reps);
  std::printf("%-24s  %18s  %18s  %18s  %18s\n", "workload", "1 thread",
              "2 threads", "4 threads", "8 threads");

  bench::BenchJsonWriter json("par_scaling");
  json.AddMetadata("base_items", std::to_string(base_n));
  json.AddMetadata("mode", smoke ? "smoke" : "full");
  json.AddMetadata("reps", std::to_string(g_reps));
  json.AddMetadata("statistic", "median");
  bool all_identical = true;

  // Histogram builds: backend x size x threads.
  for (const size_t n : build_sizes) {
    Dataset gh_gen;
    Dataset ph_gen;
    if (n != base_n) {
      gh_gen = gen::UniformRects("uniform", n, kUnit, size, 1);
      ph_gen = gen::GaussianClusterRects(
          "clustered", n, kUnit, {{0.4, 0.7}, 0.1, 0.1, 1.0}, size, 2);
    }
    const Dataset& gh_input = n == base_n ? uniform : gh_gen;
    const Dataset& ph_input = n == base_n ? clustered : ph_gen;
    for (const auto& [backend_name, backend] : backends) {
      SetKernelBackendOverride(backend);
      const std::string tag =
          std::string("/") + backend_name + "/n" + std::to_string(n);

      {
        Row row{"gh-build" + tag, {}, true};
        const auto serial =
            GhHistogram::Build(gh_input, kUnit, kLevel, GhVariant::kRevised);
        TimeRow(
            &row,
            [&](int threads) {
              return GhHistogram::Build(gh_input, kUnit, kLevel,
                                        GhVariant::kRevised, threads);
            },
            [&](const Result<GhHistogram>& hist) {
              return hist->c() == serial->c() && hist->o() == serial->o() &&
                     hist->h() == serial->h() && hist->v() == serial->v();
            });
        PrintRow(row);
        AddRowJson(&json, row, n, backend_name);
        all_identical = all_identical && row.identical;
      }

      {
        Row row{"ph-build" + tag, {}, true};
        const auto serial = PhHistogram::Build(ph_input, kUnit, kLevel,
                                               PhVariant::kSplitCrossing);
        TimeRow(
            &row,
            [&](int threads) {
              return PhHistogram::Build(ph_input, kUnit, kLevel,
                                        PhVariant::kSplitCrossing, threads);
            },
            [&](const Result<PhHistogram>& hist) {
              if (hist->avg_span() != serial->avg_span() ||
                  hist->cells().size() != serial->cells().size()) {
                return false;
              }
              for (size_t c = 0; c < hist->cells().size(); ++c) {
                const auto& x = hist->cells()[c];
                const auto& y = serial->cells()[c];
                if (x.num != y.num || x.area_sum != y.area_sum ||
                    x.num_x != y.num_x || x.area_sum_x != y.area_sum_x) {
                  return false;
                }
              }
              return true;
            });
        PrintRow(row);
        AddRowJson(&json, row, n, backend_name);
        all_identical = all_identical && row.identical;
      }

      ClearKernelBackendOverride();
    }
  }

  // PBSM ground-truth join.
  {
    Row row{"pbsm-join", {}, true};
    const uint64_t serial = PbsmJoinCount(uniform, clustered);
    TimeRow(
        &row,
        [&](int threads) {
          PbsmOptions options;
          options.threads = threads;
          return PbsmJoinCount(uniform, clustered, options);
        },
        [&](uint64_t count) { return count == serial; });
    PrintRow(row);
    AddRowJson(&json, row, base_n);
    all_identical = all_identical && row.identical;
  }

  // R-tree ground-truth join (trees built once; the join is the workload).
  {
    Row row{"rtree-join", {}, true};
    const RTree ta = RTree::BulkLoadStr(RTree::DatasetEntries(uniform));
    const RTree tb = RTree::BulkLoadStr(RTree::DatasetEntries(clustered));
    const uint64_t serial = RTreeJoinCount(ta, tb);
    TimeRow(
        &row, [&](int threads) { return RTreeJoinCount(ta, tb, threads); },
        [&](uint64_t count) { return count == serial; });
    PrintRow(row);
    AddRowJson(&json, row, base_n);
    all_identical = all_identical && row.identical;
  }

  // Sampling estimator (draw + build + join; only build/join parallelize).
  {
    Row row{"sample-est", {}, true};
    SamplingOptions options;
    options.frac_a = 0.1;
    options.frac_b = 0.1;
    const auto serial = EstimateBySampling(uniform, clustered, options);
    TimeRow(
        &row,
        [&](int threads) {
          options.threads = threads;
          return EstimateBySampling(uniform, clustered, options);
        },
        [&](const Result<SamplingEstimate>& est) {
          return est->sample_pairs == serial->sample_pairs;
        });
    PrintRow(row);
    AddRowJson(&json, row, base_n);
    all_identical = all_identical && row.identical;
  }

  std::printf("\nresults %s\n",
              all_identical ? "bit-identical" : "MISMATCH!");
  json.Write();
  return all_identical ? 0 : 1;
}
