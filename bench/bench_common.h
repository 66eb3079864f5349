#ifndef SJSEL_BENCH_BENCH_COMMON_H_
#define SJSEL_BENCH_BENCH_COMMON_H_

// Shared plumbing for the figure/table reproduction harnesses: dataset
// caching (several pairs share a layer), joint-extent computation and the
// paper's cost-metric denominators (actual join time, R-tree build time,
// R-tree size).

#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/kernels.h"
#include "datagen/workloads.h"
#include "geom/dataset.h"
#include "join/rtree_join.h"
#include "obs/metrics.h"
#include "rtree/rtree.h"
#include "util/timer.h"

namespace sjsel {
namespace bench {

/// Generates paper datasets once per (dataset, scale) and reuses them.
class DatasetCache {
 public:
  explicit DatasetCache(double scale, uint64_t seed = 2001)
      : scale_(scale), seed_(seed) {}

  const Dataset& Get(gen::PaperDataset which) {
    const std::string key = gen::PaperDatasetName(which);
    auto it = cache_.find(key);
    if (it == cache_.end()) {
      it = cache_.emplace(key, gen::MakePaperDataset(which, scale_, seed_))
               .first;
    }
    return it->second;
  }

  double scale() const { return scale_; }

 private:
  double scale_;
  uint64_t seed_;
  std::map<std::string, Dataset> cache_;
};

/// The per-pair ground truth and cost denominators of Section 4.2.
struct PairBaseline {
  Rect extent;
  uint64_t actual_pairs = 0;
  double rtree_build_seconds = 0.0;  ///< building both R-trees (insertion)
  double rtree_join_seconds = 0.0;   ///< R-tree join given the trees
  uint64_t rtree_bytes = 0;          ///< nominal size of both R-trees
  /// "Actual join" total when indexes must be built first (Est. Time 1
  /// denominator); rtree_join_seconds alone is the Est. Time 2 denominator.
  double JoinWithBuildSeconds() const {
    return rtree_build_seconds + rtree_join_seconds;
  }
};

/// Resolves a metrics histogram for a bench phase timer — but only when
/// metrics are armed, so an unarmed run registers no instruments.
inline obs::Histogram* BenchHistogram(const char* name) {
  return obs::MetricsArmed() ? obs::MetricsRegistry::Global().GetHistogram(name)
                             : nullptr;
}

/// Builds both R-trees by insertion (as the paper's baseline does), joins
/// them, and records the timing/size denominators. With metrics armed the
/// phase durations also land in the bench.rtree_*_us histograms.
inline PairBaseline ComputeBaseline(const Dataset& a, const Dataset& b) {
  PairBaseline baseline;
  baseline.extent = a.ComputeExtent();
  baseline.extent.Extend(b.ComputeExtent());

  std::optional<RTree> ta;
  std::optional<RTree> tb;
  {
    ScopedTimer build_timer(BenchHistogram("bench.rtree_build_us"));
    ta.emplace(RTree::BuildByInsertion(a));
    tb.emplace(RTree::BuildByInsertion(b));
    baseline.rtree_build_seconds = build_timer.ElapsedSeconds();
  }
  baseline.rtree_bytes = ta->NominalBytes() + tb->NominalBytes();
  {
    ScopedTimer join_timer(BenchHistogram("bench.rtree_join_us"));
    baseline.actual_pairs = RTreeJoinCount(*ta, *tb);
    baseline.rtree_join_seconds = join_timer.ElapsedSeconds();
  }
  return baseline;
}

/// Machine-readable companion to a bench's stdout table: collects one
/// entry per measured configuration and writes `BENCH_<bench>.json` so
/// perf regressions can be diffed across commits without parsing text.
///
/// The file is a single JSON object:
///
///   {
///     "bench": "kernels",
///     "kernel_backend": "avx2",          // active dispatch choice
///     "kernel_dispatch": "detected",     // override | env | detected
///     "avx2_available": true,
///     "hardware_threads": 8,
///     "entries": [
///       {"name": "gh_build/scalar", "ns_per_op": 123.4,
///        "speedup_vs_scalar": 1.0, "threads": 1, "items": 100000,
///        "backend": "scalar"},
///       ...
///     ]
///   }
///
/// `speedup_vs_scalar` is scalar_ns / this_ns for entries that have a
/// scalar counterpart (1.0 for the scalar rows themselves, 0.0 when no
/// baseline applies). `threads` is the thread count the entry actually
/// ran with and `backend` the kernel backend it actually dispatched to —
/// both recorded at Add time, not inferred at Write time, so forced-
/// backend and thread-sweep rows stay attributable. `items` is the
/// dataset size the per-op normalization divided by.
class BenchJsonWriter {
 public:
  explicit BenchJsonWriter(std::string bench_name)
      : bench_name_(std::move(bench_name)) {}

  /// `backend` defaults to the backend active at Add time.
  void Add(const std::string& name, double ns_per_op,
           double speedup_vs_scalar, int threads, uint64_t items,
           const char* backend = nullptr) {
    entries_.push_back(Entry{
        name, ns_per_op, speedup_vs_scalar, threads, items,
        backend != nullptr ? backend
                           : KernelBackendName(ActiveKernelBackend())});
  }

  /// Attaches a run-metadata string (emitted under "run": {...}). Built-in
  /// keys (build_type, compiler) are filled automatically; use this for
  /// bench-specific facts like the configured thread count or dataset
  /// scale.
  void AddMetadata(const std::string& key, const std::string& value) {
    metadata_[key] = value;
  }

  /// Captures the current metrics snapshot (obs/metrics.h) and embeds it
  /// under "metrics" in the written file. Call after the measured work,
  /// while the registry still holds the run's values.
  void EmbedMetrics() {
    metrics_json_ = obs::MetricsRegistry::Global().SnapshotJson();
  }

  /// Writes BENCH_<bench>.json into `dir` (default: current directory).
  /// Returns true on success.
  bool Write(const std::string& dir = ".") const {
    const std::string path = dir + "/BENCH_" + bench_name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "BenchJsonWriter: cannot open %s\n", path.c_str());
      return false;
    }
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"bench\": \"%s\",\n", bench_name_.c_str());
    const KernelDispatchInfo dispatch = GetKernelDispatchInfo();
    std::fprintf(f, "  \"kernel_backend\": \"%s\",\n",
                 KernelBackendName(dispatch.active));
    std::fprintf(f, "  \"kernel_dispatch\": \"%s\",\n", dispatch.source);
    std::fprintf(f, "  \"avx2_available\": %s,\n",
                 KernelBackendAvailable(KernelBackend::kAvx2) ? "true"
                                                             : "false");
    std::fprintf(f, "  \"hardware_threads\": %u,\n",
                 std::thread::hardware_concurrency());
    std::fprintf(f, "  \"run\": {\n");
    std::fprintf(f, "    \"build_type\": \"%s\",\n",
#ifdef NDEBUG
                 "release"
#else
                 "debug"
#endif
    );
    std::fprintf(f, "    \"compiler\": \"%s\"", CompilerId());
    for (const auto& [key, value] : metadata_) {
      std::fprintf(f, ",\n    \"%s\": \"%s\"", key.c_str(), value.c_str());
    }
    std::fprintf(f, "\n  },\n");
    if (!metrics_json_.empty()) {
      // SnapshotJson is already valid JSON; whitespace nesting is cosmetic.
      std::string trimmed = metrics_json_;
      while (!trimmed.empty() && trimmed.back() == '\n') trimmed.pop_back();
      std::fprintf(f, "  \"metrics\": %s,\n", trimmed.c_str());
    }
    std::fprintf(f, "  \"entries\": [");
    for (size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      std::fprintf(f,
                   "%s\n    {\"name\": \"%s\", \"ns_per_op\": %.3f, "
                   "\"speedup_vs_scalar\": %.3f, \"threads\": %d, "
                   "\"items\": %llu, \"backend\": \"%s\"}",
                   i == 0 ? "" : ",", e.name.c_str(), e.ns_per_op,
                   e.speedup_vs_scalar, e.threads,
                   static_cast<unsigned long long>(e.items),
                   e.backend.c_str());
    }
    std::fprintf(f, "\n  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s (%zu entries)\n", path.c_str(), entries_.size());
    return true;
  }

 private:
  struct Entry {
    std::string name;
    double ns_per_op = 0.0;
    double speedup_vs_scalar = 0.0;
    int threads = 1;
    uint64_t items = 0;
    std::string backend;
  };

  static const char* CompilerId() {
#if defined(__clang__)
    return "clang " __clang_version__;
#elif defined(__GNUC__)
    return "gcc " __VERSION__;
#else
    return "unknown";
#endif
  }

  std::string bench_name_;
  std::map<std::string, std::string> metadata_;
  std::string metrics_json_;
  std::vector<Entry> entries_;
};

/// Environment-driven metrics capture for bench binaries, which have no
/// flag parser of their own: when SJSEL_METRICS_JSON names a file, metrics
/// are armed for the whole process lifetime and a JSON snapshot
/// (obs::MetricsRegistry::SnapshotJson) is written there at exit.
/// scripts/run_experiments.sh sets it to keep a machine-readable metrics
/// file next to every bench's text output.
class MetricsEnvScope {
 public:
  MetricsEnvScope() {
    const char* path = std::getenv("SJSEL_METRICS_JSON");
    if (path != nullptr && path[0] != '\0') {
      path_ = path;
      obs::MetricsRegistry::Arm();
    }
  }
  ~MetricsEnvScope() {
    if (path_.empty()) return;
    obs::MetricsRegistry::Disarm();
    if (obs::MetricsRegistry::Global().WriteJson(path_)) {
      std::printf("wrote %s\n", path_.c_str());
    } else {
      std::fprintf(stderr, "MetricsEnvScope: cannot write %s\n",
                   path_.c_str());
    }
  }
  MetricsEnvScope(const MetricsEnvScope&) = delete;
  MetricsEnvScope& operator=(const MetricsEnvScope&) = delete;

 private:
  std::string path_;
};

// One instance per process (inline variable): armed before main() runs,
// flushed after it returns.
inline const MetricsEnvScope kMetricsEnvScope{};

inline void PrintHeader(const std::string& title, double scale) {
  std::printf("=====================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("dataset scale: %.0f%% of paper cardinality "
              "(set SJSEL_FULL=1 or SJSEL_SCALE=<f> to change)\n",
              scale * 100);
  std::printf("=====================================================\n\n");
}

}  // namespace bench
}  // namespace sjsel

#endif  // SJSEL_BENCH_BENCH_COMMON_H_
