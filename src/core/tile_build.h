#ifndef SJSEL_CORE_TILE_BUILD_H_
#define SJSEL_CORE_TILE_BUILD_H_

// Shared plumbing of the cache-blocked bin-then-accumulate histogram
// builds (GH and PH, docs/ARCHITECTURE.md "Data-level parallelism"):
//
//   pass 1 (bin):        vectorized cell ranges for the whole dataset,
//                        then a stable counting sort that materializes
//                        each rect's coordinates and cell range once per
//                        overlapped tile of grid cells (BinRectsByTile) —
//                        pass 2 streams sequentially instead of gathering.
//   pass 2 (accumulate): per tile, walk that tile's rects — in ascending
//                        dataset order, by stability of the sort — expand
//                        them into (rect, cell) entries clamped to the
//                        tile, run the vectorized per-cell clip kernels
//                        over the entry run, and book the amounts with a
//                        scalar in-order loop (ForEachTile + per-scheme
//                        accumulation in gh_histogram.cc/ph_histogram.cc).
//
// Why this is bit-identical to the streaming AddRect loop: every
// histogram statistic is an independent per-cell accumulator, so only the
// per-cell, per-statistic addition order matters. Within one rect, all
// additions a single cell receives into one statistic carry the SAME
// amount (e.g. each corner books 1.0; both edge rows book the same
// clipped fraction), so reordering within a rect cannot change bits.
// Across rects, the stable sort keeps each tile's rect list in dataset
// order and every cell is owned by exactly one tile, so each cell sees
// its rects in the serial AddRect order. The amounts come from the batch
// kernels, which are bit-identical to the scalar clipping by the
// kernel-equivalence contract. Tiles own disjoint cells, which makes
// pass 2 safely tile-parallel with no replay step — the same property
// that keeps the accumulation working set one tile wide (L1-resident)
// instead of scattering read-modify-writes over the whole grid.
//
// Small grids need no blocking at all: when the histogram arrays are
// cache-resident, whatever the thread count, the schemes skip the binning
// pass and run the same expand-clip-accumulate engine once over the whole
// dataset in place (identical per-cell order, so identical bits).

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "geom/soa_dataset.h"
#include "util/aligned.h"
#include "util/thread_pool.h"

namespace sjsel {
namespace tile_build {

/// Counting-sort output with the per-rect build inputs materialized in
/// binned order: rows offsets[t] .. offsets[t+1] describe the rects
/// touching tile t, in ascending dataset order. Rects spanning several
/// tiles appear in each of them.
struct TileBins {
  int tiles_per_axis = 1;
  std::vector<uint64_t> offsets;          ///< num_tiles + 1 entries
  AlignedVector<int32_t> x0, y0, x1, y1;  ///< cell ranges, binned order
  AlignedVector<double> min_x, min_y, max_x, max_y;  ///< coords, binned

  int64_t num_tiles() const {
    return static_cast<int64_t>(tiles_per_axis) * tiles_per_axis;
  }

  /// Coordinate view over one tile's rows [lo, hi).
  SoaSlice CoordSlice(uint64_t lo, uint64_t hi) const {
    return SoaSlice{min_x.data() + lo, min_y.data() + lo, max_x.data() + lo,
                    max_y.data() + lo, static_cast<size_t>(hi - lo)};
  }
};

/// Stable counting sort of rects by overlapped tile, from the precomputed
/// cell ranges (CellRangeBatch output, dataset order). Both passes stream
/// the inputs sequentially; the fill writes one ascending cursor per tile,
/// so pass 2 never has to gather rect data by index.
inline TileBins BinRectsByTile(const SoaSlice& rects, int per_axis,
                               int tile_cells, const int32_t* x0,
                               const int32_t* y0, const int32_t* x1,
                               const int32_t* y1) {
  const std::size_t n = rects.size;
  TileBins bins;
  bins.tiles_per_axis = (per_axis + tile_cells - 1) / tile_cells;
  const std::size_t num_tiles = static_cast<std::size_t>(
      bins.tiles_per_axis) * static_cast<std::size_t>(bins.tiles_per_axis);
  bins.offsets.assign(num_tiles + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const int tx0 = x0[i] / tile_cells;
    const int tx1 = x1[i] / tile_cells;
    const int ty0 = y0[i] / tile_cells;
    const int ty1 = y1[i] / tile_cells;
    for (int ty = ty0; ty <= ty1; ++ty) {
      for (int tx = tx0; tx <= tx1; ++tx) {
        ++bins.offsets[static_cast<std::size_t>(ty) * bins.tiles_per_axis +
                       tx + 1];
      }
    }
  }
  for (std::size_t t = 0; t < num_tiles; ++t) {
    bins.offsets[t + 1] += bins.offsets[t];
  }
  const std::size_t total = static_cast<std::size_t>(bins.offsets[num_tiles]);
  bins.x0.resize(total);
  bins.y0.resize(total);
  bins.x1.resize(total);
  bins.y1.resize(total);
  bins.min_x.resize(total);
  bins.min_y.resize(total);
  bins.max_x.resize(total);
  bins.max_y.resize(total);
  std::vector<uint64_t> cursor(bins.offsets.begin(), bins.offsets.end() - 1);
  for (std::size_t i = 0; i < n; ++i) {
    const int tx0 = x0[i] / tile_cells;
    const int tx1 = x1[i] / tile_cells;
    const int ty0 = y0[i] / tile_cells;
    const int ty1 = y1[i] / tile_cells;
    for (int ty = ty0; ty <= ty1; ++ty) {
      for (int tx = tx0; tx <= tx1; ++tx) {
        const std::size_t t =
            static_cast<std::size_t>(ty) * bins.tiles_per_axis + tx;
        const std::size_t pos = static_cast<std::size_t>(cursor[t]++);
        bins.x0[pos] = x0[i];
        bins.y0[pos] = y0[i];
        bins.x1[pos] = x1[i];
        bins.y1[pos] = y1[i];
        bins.min_x[pos] = rects.min_x[i];
        bins.min_y[pos] = rects.min_y[i];
        bins.max_x[pos] = rects.max_x[i];
        bins.max_y[pos] = rects.max_y[i];
      }
    }
  }
  return bins;
}

/// One tile's cell bounds in grid-cell coordinates. Pass 2 clamps each
/// rect's cell loops to these, so tile-spanning rects expand exactly the
/// entries this tile owns — no per-contribution filtering.
struct TileBounds {
  int cx0 = 0, cy0 = 0, cx1 = 0, cy1 = 0;
};

/// Bounds of tile t of a `tiles_per_axis`-wide tiling over a
/// `per_axis`-wide grid (the last tile row/column may be narrower).
inline TileBounds BoundsOfTile(int64_t t, int tiles_per_axis, int tile_cells,
                               int per_axis) {
  TileBounds b;
  const int tx = static_cast<int>(t % tiles_per_axis);
  const int ty = static_cast<int>(t / tiles_per_axis);
  b.cx0 = tx * tile_cells;
  b.cy0 = ty * tile_cells;
  b.cx1 = std::min(b.cx0 + tile_cells, per_axis) - 1;
  b.cy1 = std::min(b.cy0 + tile_cells, per_axis) - 1;
  return b;
}

/// Bounds covering the whole grid — the unblocked (serial, cache-resident)
/// build runs the expansion engine once with these.
inline TileBounds FullBounds(int per_axis) {
  return TileBounds{0, 0, per_axis - 1, per_axis - 1};
}

/// Runs run_tile(t) for every tile, serially or across a pool. The block
/// decomposition never affects results — tiles write disjoint cells — so
/// the grain may depend on the thread count without breaking the
/// bit-identity contract.
template <typename TileFn>
void ForEachTile(int64_t num_tiles, int threads, TileFn&& run_tile) {
  if (threads <= 1 || num_tiles <= 1) {
    for (int64_t t = 0; t < num_tiles; ++t) run_tile(t);
    return;
  }
  const int64_t grain =
      std::max<int64_t>(1, num_tiles / (4 * static_cast<int64_t>(threads)));
  ThreadPool pool(threads);
  ParallelFor(&pool, num_tiles, grain,
              [&](int64_t, int64_t begin, int64_t end) {
                for (int64_t t = begin; t < end; ++t) run_tile(t);
              });
}

}  // namespace tile_build
}  // namespace sjsel

#endif  // SJSEL_CORE_TILE_BUILD_H_
