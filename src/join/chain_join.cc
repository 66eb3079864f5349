#include "join/chain_join.h"

#include <memory>

#include "rtree/rtree.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace sjsel {
namespace {

// Ids probed per ParallelFor block in a threaded probe step. Fixed (not
// derived from the thread count) so the block decomposition — and the
// block-order merge below — gives the same sums for every thread count.
constexpr int64_t kProbeChunk = 1024;

// One chain-join probe step: extends every partial tuple (counts[id] > 0)
// by the matches of `probe_rect(id)` in `next_tree`, producing the match
// counts of the next dataset. Serial when pool is null; otherwise each
// block accumulates into its own vector and the vectors are summed in
// block order (integer sums — thread-count independent).
template <typename ProbeRect>
void ProbeStep(const std::vector<uint64_t>& counts, const RTree& next_tree,
               size_t next_size, ThreadPool* pool, ProbeRect&& probe_rect,
               std::vector<uint64_t>* next_counts, uint64_t* next_rows,
               uint64_t* probes) {
  next_counts->assign(next_size, 0);
  *next_rows = 0;

  if (pool == nullptr) {
    for (size_t id = 0; id < counts.size(); ++id) {
      if (counts[id] == 0) continue;
      const uint64_t multiplicity = counts[id];
      next_tree.RangeQuery(probe_rect(id), [&](int64_t match, const Rect&) {
        (*next_counts)[static_cast<size_t>(match)] += multiplicity;
        *next_rows += multiplicity;
      });
      ++*probes;
    }
    return;
  }

  const int64_t n = static_cast<int64_t>(counts.size());
  const int64_t blocks = ParallelForNumBlocks(n, kProbeChunk);
  std::vector<std::vector<uint64_t>> partials(static_cast<size_t>(blocks));
  std::vector<uint64_t> block_rows(static_cast<size_t>(blocks), 0);
  std::vector<uint64_t> block_probes(static_cast<size_t>(blocks), 0);
  ParallelFor(pool, n, kProbeChunk,
              [&](int64_t block, int64_t begin, int64_t end) {
                auto& local = partials[static_cast<size_t>(block)];
                local.assign(next_size, 0);
                uint64_t rows = 0;
                uint64_t done = 0;
                for (int64_t id = begin; id < end; ++id) {
                  if (counts[static_cast<size_t>(id)] == 0) continue;
                  const uint64_t multiplicity =
                      counts[static_cast<size_t>(id)];
                  next_tree.RangeQuery(
                      probe_rect(static_cast<size_t>(id)),
                      [&](int64_t match, const Rect&) {
                        local[static_cast<size_t>(match)] += multiplicity;
                        rows += multiplicity;
                      });
                  ++done;
                }
                block_rows[static_cast<size_t>(block)] = rows;
                block_probes[static_cast<size_t>(block)] = done;
              });
  for (int64_t block = 0; block < blocks; ++block) {
    const auto& local = partials[static_cast<size_t>(block)];
    for (size_t i = 0; i < next_size; ++i) (*next_counts)[i] += local[i];
    *next_rows += block_rows[static_cast<size_t>(block)];
    *probes += block_probes[static_cast<size_t>(block)];
  }
}

}  // namespace

Result<ChainJoinResult> ExecuteChainJoin(const std::vector<ChainStep>& steps,
                                         const ExecuteOptions& options) {
  if (steps.size() < 2) {
    return Status::InvalidArgument("a join needs at least 2 datasets");
  }
  for (const ChainStep& step : steps) {
    if (step.dataset == nullptr) return Status::InvalidArgument("null dataset");
    if (step.predicate == ChainPredicate::kWithinDistance && step.eps < 0.0) {
      return Status::InvalidArgument("within-distance eps must be >= 0");
    }
  }

  Timer timer;
  ChainJoinResult result;
  std::unique_ptr<ThreadPool> pool;
  if (options.threads > 1) pool = std::make_unique<ThreadPool>(options.threads);

  // Seed: every element of the first dataset is a partial tuple.
  const Dataset* last_ds = steps[0].dataset;
  std::vector<uint64_t> counts(last_ds->size(), 1);

  for (size_t step_index = 1; step_index < steps.size(); ++step_index) {
    const ChainStep& step = steps[step_index];
    const Dataset* next_ds = step.dataset;
    const RTree next_tree =
        RTree::BulkLoadStr(RTree::DatasetEntries(*next_ds));
    const double margin =
        step.predicate == ChainPredicate::kWithinDistance ? step.eps : 0.0;

    std::vector<uint64_t> next_counts;
    uint64_t next_rows = 0;
    ProbeStep(
        counts, next_tree, next_ds->size(), pool.get(),
        [&](size_t id) { return (*last_ds)[id].Expanded(margin); },
        &next_counts, &next_rows, &result.work);
    counts = std::move(next_counts);
    last_ds = next_ds;
    result.step_cardinalities.push_back(next_rows);
    result.work += next_rows;
  }

  result.result_tuples = result.step_cardinalities.back();
  result.seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace sjsel
