#include "server/catalog.h"

#include <cstring>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace sjsel {
namespace server {
namespace {

std::array<uint64_t, 4> ExtentBits(const Rect& extent) {
  const double coords[4] = {extent.min_x, extent.min_y, extent.max_x,
                            extent.max_y};
  std::array<uint64_t, 4> bits;
  std::memcpy(bits.data(), coords, sizeof(coords));
  return bits;
}

}  // namespace

Result<std::shared_ptr<const Dataset>> ServerCatalog::GetDataset(
    const std::string& path) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = datasets_.find(path);
    if (it != datasets_.end()) {
      SJSEL_METRIC_INC("server.catalog.dataset_hits");
      return it->second.dataset;
    }
  }
  SJSEL_METRIC_INC("server.catalog.dataset_misses");
  SJSEL_TRACE_SPAN("server.catalog.load_dataset");
  auto loaded = Dataset::Load(path);
  if (!loaded.ok()) return loaded.status();
  auto shared = std::make_shared<const Dataset>(std::move(loaded).value());
  std::lock_guard<std::mutex> lock(mu_);
  // Two workers may race to load the same path; both get the same bytes,
  // so first-in wins and the loser's copy is dropped.
  const auto [it, inserted] =
      datasets_.emplace(path, DatasetEntry{std::move(shared), {}});
  (void)inserted;
  return it->second.dataset;
}

Result<std::shared_ptr<const GhHistogram>> ServerCatalog::GetGhHistogram(
    const std::string& path, const Rect& extent, int level) {
  const GridKey key(ExtentBits(extent), level);
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = datasets_.find(path);
    if (it != datasets_.end()) {
      const auto hist = it->second.gh.find(key);
      if (hist != it->second.gh.end()) {
        SJSEL_METRIC_INC("server.catalog.hist_hits");
        return hist->second;
      }
    }
  }
  SJSEL_METRIC_INC("server.catalog.hist_misses");
  std::shared_ptr<const Dataset> ds;
  SJSEL_ASSIGN_OR_RETURN(ds, GetDataset(path));
  SJSEL_TRACE_SPAN("server.catalog.build_histogram");
  auto built = GhHistogram::Build(*ds, extent, level);
  if (!built.ok()) return built.status();
  std::shared_ptr<const GhHistogram> shared =
      std::make_shared<const GhHistogram>(std::move(built).value());
  std::lock_guard<std::mutex> lock(mu_);
  // Cached only in the entry of the dataset it was built from, so it goes
  // wherever that entry goes. Concurrent first builds of the same grid
  // produce the same bits (Build is deterministic): first-in wins.
  const auto it = datasets_.find(path);
  if (it == datasets_.end() || it->second.dataset != ds) return shared;
  return it->second.gh.emplace(key, std::move(shared)).first->second;
}

Result<EstimateResult> ServerCatalog::Estimate(const std::string& a,
                                               const std::string& b) {
  const std::pair<std::string, std::string> key(a, b);
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = estimates_.find(key);
    if (it != estimates_.end()) {
      SJSEL_METRIC_INC("server.catalog.estimate_hits");
      return it->second;
    }
  }
  SJSEL_METRIC_INC("server.catalog.estimate_misses");
  std::shared_ptr<const Dataset> da;
  SJSEL_ASSIGN_OR_RETURN(da, GetDataset(a));
  std::shared_ptr<const Dataset> db;
  SJSEL_ASSIGN_OR_RETURN(db, GetDataset(b));
  // Estimated outside the lock: concurrent first requests for the same
  // pair may both compute, but the chain is deterministic, so whichever
  // result lands in the cache is the same value.
  auto result = estimator_.Estimate(*da, *db);
  if (!result.ok()) return result.status();
  std::lock_guard<std::mutex> lock(mu_);
  const auto [it, inserted] = estimates_.emplace(key, std::move(result).value());
  (void)inserted;
  return it->second;
}

Result<std::shared_ptr<stream::StreamIngest>> ServerCatalog::GetStream(
    const std::string& dir) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = streams_.find(dir);
    if (it != streams_.end()) return it->second;
  }
  SJSEL_METRIC_INC("server.catalog.stream_opens");
  SJSEL_TRACE_SPAN("server.catalog.open_stream");
  auto opened = stream::StreamIngest::Open(dir);
  if (!opened.ok()) return opened.status();
  std::shared_ptr<stream::StreamIngest> shared = std::move(opened).value();
  std::lock_guard<std::mutex> lock(mu_);
  // Two workers may race to open the same directory. Only one ingest may
  // own the WAL writer, so first-in wins and the loser is discarded.
  const auto [it, inserted] = streams_.emplace(dir, std::move(shared));
  (void)inserted;
  return it->second;
}

Result<std::shared_ptr<stream::StreamIngest>> ServerCatalog::InitStream(
    const std::string& dir, const stream::StreamOptions& options) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (streams_.count(dir) != 0) {
      return Status::FailedPrecondition("stream already open: " + dir);
    }
  }
  SJSEL_RETURN_IF_ERROR(stream::StreamIngest::Init(dir, options));
  return GetStream(dir);
}

ServerCatalog::CacheStats ServerCatalog::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  CacheStats stats;
  stats.datasets = datasets_.size();
  stats.estimates = estimates_.size();
  for (const auto& [path, entry] : datasets_) {
    stats.histograms += entry.gh.size();
    for (const auto& [key, hist] : entry.gh) {
      stats.histogram_bytes += hist->NominalBytes();
    }
  }
  stats.streams = streams_.size();
  for (const auto& [dir, ingest] : streams_) {
    if (ingest->poisoned()) ++stats.poisoned_streams;
  }
  return stats;
}

}  // namespace server
}  // namespace sjsel
