#ifndef SJSEL_SERVER_CATALOG_H_
#define SJSEL_SERVER_CATALOG_H_

// The catalog: datasets loaded once per file path, each with the GH
// histograms built from it once per grid, and guarded-chain pair
// estimates (provenance included) computed once per (a, b), all kept for
// the server's lifetime so an optimizer calling `estimate`, `plan` or
// `stream_estimate` millions of times pays the load/build cost once.
// `plan` reads and fills the same estimate cache as `estimate`. Thread-safe;
// see docs/SERVER.md "The catalog".

#include <array>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "core/gh_histogram.h"
#include "core/guarded_estimator.h"
#include "geom/dataset.h"
#include "stream/ingest.h"
#include "util/result.h"

namespace sjsel {
namespace server {

class ServerCatalog {
 public:
  explicit ServerCatalog(GuardedEstimatorOptions options = {})
      : estimator_(options) {}

  /// The dataset at `path`, loading and caching it on first use.
  /// Counts `server.catalog.dataset_hits` / `.dataset_misses`.
  Result<std::shared_ptr<const Dataset>> GetDataset(const std::string& path);

  /// The default-variant GH histogram of the dataset at `path` on a
  /// `level`-deep grid over `extent`, built on first use and cached in the
  /// dataset's entry (keyed by the extent's bits and the level), so it
  /// lives exactly as long as that entry. Bit-for-bit
  /// `GhHistogram::Build(dataset, extent, level)`. Failed builds are not
  /// cached. Counts `server.catalog.hist_hits` / `.hist_misses`.
  Result<std::shared_ptr<const GhHistogram>> GetGhHistogram(
      const std::string& path, const Rect& extent, int level);

  /// The guarded-chain estimate for the dataset pair, cached by path
  /// pair. The estimator runs with the options this catalog was built
  /// with (defaults match the CLI `estimate` command, so cached answers
  /// are bit-for-bit the standalone ones). Counts
  /// `server.catalog.estimate_hits` / `.estimate_misses`.
  Result<EstimateResult> Estimate(const std::string& a, const std::string& b);

  /// The open stream ingest at directory `dir`, recovering it on first
  /// use and keeping it open (with its WAL writer) for the server's
  /// lifetime. Counts `server.catalog.stream_opens`.
  Result<std::shared_ptr<stream::StreamIngest>> GetStream(
      const std::string& dir);

  /// Creates + opens a stream directory (op `ingest` with `extent`).
  /// Fails if it is already initialized.
  Result<std::shared_ptr<stream::StreamIngest>> InitStream(
      const std::string& dir, const stream::StreamOptions& options);

  const GuardedEstimator& estimator() const { return estimator_; }

  /// Cache occupancy for the `health` op (docs/SERVER.md). Counts are a
  /// consistent point-in-time snapshot under the catalog lock;
  /// `poisoned_streams` is how many open streams have a failed WAL (their
  /// mutating ops return FailedPrecondition until reopened);
  /// `histogram_bytes` sums the cached histograms' cell payloads.
  struct CacheStats {
    size_t datasets = 0;
    size_t estimates = 0;
    size_t histograms = 0;
    uint64_t histogram_bytes = 0;
    size_t streams = 0;
    size_t poisoned_streams = 0;
  };
  CacheStats Stats() const;

 private:
  // A histogram's grid: the extent's four coordinates as bits, then the
  // level. Bits, not doubles: two extents name the same grid only when
  // Build would see the same bits, and NaN would break a double key's
  // ordering.
  using GridKey = std::pair<std::array<uint64_t, 4>, int>;

  struct DatasetEntry {
    std::shared_ptr<const Dataset> dataset;
    std::map<GridKey, std::shared_ptr<const GhHistogram>> gh;
  };

  GuardedEstimator estimator_;
  mutable std::mutex mu_;
  std::map<std::string, DatasetEntry> datasets_;
  std::map<std::pair<std::string, std::string>, EstimateResult> estimates_;
  std::map<std::string, std::shared_ptr<stream::StreamIngest>> streams_;
};

}  // namespace server
}  // namespace sjsel

#endif  // SJSEL_SERVER_CATALOG_H_
