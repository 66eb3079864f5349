#ifndef SJSEL_CORE_KERNELS_H_
#define SJSEL_CORE_KERNELS_H_

// Batch geometry kernels: the branch-free, data-parallel inner loops behind
// the histogram builds (GH/PH clipping), the partition-sweep join filters
// (PBSM, plane sweep) and the sampling estimator's sample join.
//
// Layering: despite living in src/core/, this module depends only on
// src/geom/ and src/util/ — it sits directly above the geometry layer in
// the module map (docs/ARCHITECTURE.md) so the join algorithms in
// src/join/ may use it too. It mirrors the grid geometry it needs in a
// plain GridGeom POD instead of including core/grid.h.
//
// Dispatch contract (see docs/ARCHITECTURE.md, "Data-level parallelism"):
//  - Every kernel has a portable scalar implementation and, on x86-64, an
//    AVX2 implementation selected once at runtime (cpuid probe, cached).
//  - Both backends produce BIT-IDENTICAL results: the same IEEE-754
//    operations in the same per-lane order as the scalar code. Vector
//    min/max operand order is chosen to reproduce std::min/std::max tie
//    semantics exactly (minpd/maxpd return the SECOND operand on ties, so
//    arguments are swapped), and no FMA contraction is used.
//  - The dispatch choice can be forced three ways, in precedence order:
//    SetKernelBackendOverride (programmatic; the CLI's --kernel-backend
//    flag lands here), the SJSEL_KERNEL_BACKEND environment variable, and
//    runtime detection. CI uses the env knob to run the whole suite on the
//    scalar backend as well as the detected one.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>

#include "geom/rect.h"
#include "geom/soa_dataset.h"

namespace sjsel {

/// Which implementation the batch kernels run with.
enum class KernelBackend {
  kScalar,  ///< portable, auto-vectorizable C++
  kAvx2,    ///< hand-vectorized 4-lane double kernels (x86-64 with AVX2)
};

/// The best backend this CPU supports (probed once, cached).
KernelBackend DetectKernelBackend();

/// True if `backend` can actually run on this machine (kScalar always;
/// kAvx2 needs the cpuid feature).
bool KernelBackendAvailable(KernelBackend backend);

/// The backend kernels currently dispatch to: the programmatic override if
/// one is set, else a valid SJSEL_KERNEL_BACKEND environment value, else
/// DetectKernelBackend().
KernelBackend ActiveKernelBackend();

/// Forces every kernel onto `backend` until cleared. The caller is
/// responsible for availability — forcing kAvx2 on a CPU without it is
/// the caller's crash to keep (the CLI checks KernelBackendAvailable
/// before calling this).
void SetKernelBackendOverride(KernelBackend backend);

/// Clears the programmatic override, restoring env/runtime detection.
void ClearKernelBackendOverride();

/// Short lowercase name ("scalar", "avx2") for logs and bench JSON.
const char* KernelBackendName(KernelBackend backend);

/// Parses a backend name as accepted by --kernel-backend /
/// SJSEL_KERNEL_BACKEND. Returns false (and leaves *out alone) for
/// unknown names.
bool ParseKernelBackend(const std::string& name, KernelBackend* out);

/// How the active backend was chosen, for stats/observability surfaces.
struct KernelDispatchInfo {
  KernelBackend active;    ///< what kernels run with right now
  KernelBackend detected;  ///< what runtime detection alone would pick
  /// "override" (SetKernelBackendOverride / --kernel-backend), "env"
  /// (SJSEL_KERNEL_BACKEND), or "detected".
  const char* source;
};

/// The current dispatch decision and where it came from.
KernelDispatchInfo GetKernelDispatchInfo();

/// Plain-old-data mirror of the uniform-grid geometry the cell kernels
/// need (core/Grid exposes the same values; callers copy them over so this
/// header does not depend on core/grid.h).
struct GridGeom {
  double min_x = 0.0;   ///< extent origin
  double min_y = 0.0;
  double cell_w = 0.0;  ///< cell width (extent width / per_axis)
  double cell_h = 0.0;
  int per_axis = 1;     ///< cells per axis
};

/// Length of [lo, hi] ∩ [cell_lo, cell_hi], never negative. The one
/// clipping primitive both histogram schemes are built on (previously
/// duplicated file-locally in gh_histogram.cc / ph_histogram.cc).
inline double OverlapLen(double lo, double hi, double cell_lo,
                         double cell_hi) {
  return std::max(0.0, std::min(hi, cell_hi) - std::max(lo, cell_lo));
}

/// Batch cell-range kernel: for every rect i of `rects` computes the
/// column/row span of overlapped grid cells,
///   x0[i] = clamp(floor((min_x[i] - g.min_x) / g.cell_w), 0, per_axis-1)
/// and likewise y0/x1/y1 — lane-for-lane identical to Grid::CellRange.
/// Output arrays must hold rects.size entries.
void CellRangeBatch(const GridGeom& g, const SoaSlice& rects, int32_t* x0,
                    int32_t* y0, int32_t* x1, int32_t* y1);

/// Batch GH revised-variant terms over (rect, cell) entries with the clip
/// overlaps w[i]/h[i] already computed (the expansion loop of the blocked
/// build produces them scalar — they are min/max arithmetic; the divisions
/// below are what vectorization buys):
///   out_area[i] = (w[i] * h[i]) / (g.cell_w * g.cell_h)
///   out_hf[i]   = w[i] / g.cell_w
///   out_vf[i]   = h[i] / g.cell_h
void GhEntryTermsBatch(const GridGeom& g, std::size_t n, const double* w,
                       const double* h, double* out_area, double* out_hf,
                       double* out_vf);

/// Output arrays of GhRectTermsBatch: the rect's cell range plus every
/// revised-variant amount a rect spanning at most 2x2 cells can book. All
/// cells of such a rect lie in columns {x0, x0+1} and rows {y0, y0+1}, so
/// two column overlaps (w0, w1) and two row overlaps (h0, h1) cover the
/// whole expansion; the kernel emits their clipped fractions
///   aCR    = (wC * hR) / (cell_w * cell_h)   (C, R in {0, 1})
///   hfC    = wC / cell_w
///   vfR    = hR / cell_h
/// For rects spanning more than two columns (rows) the *1 values describe
/// column x0+1 (row y0+1), NOT the last column (row) — callers detect the
/// span from x0..y1 and take a per-cell path for those rects.
struct GhRectTermsOut {
  int32_t* x0;  ///< cell range, identical to CellRangeBatch
  int32_t* y0;
  int32_t* x1;
  int32_t* y1;
  double* a00;  ///< clipped area fraction of cell (x0, y0)
  double* a01;  ///< ... of cell (x0, y0+1)
  double* a10;  ///< ... of cell (x0+1, y0)
  double* a11;  ///< ... of cell (x0+1, y0+1)
  double* hf0;  ///< w0 / cell_w (horizontal-edge fraction, column x0)
  double* hf1;  ///< w1 / cell_w (column x0+1)
  double* vf0;  ///< h0 / cell_h (vertical-edge fraction, row y0)
  double* vf1;  ///< h1 / cell_h (row y0+1)
};

/// Fused GH build kernel over AoS rects (no SoA copy): cell ranges plus
/// the 8 division terms of GhRectTermsOut in one vectorized pass. This is
/// the pass-1 kernel of the serial cache-resident GH build — the scatter
/// pass then books the precomputed amounts rect by rect.
///
/// Precondition (all fused batch kernels): the output arrays must not
/// overlap each other, the input rects, or `g` — the backends hoist the
/// pointers as restrict so stores can overlap the next rect's loads.
void GhRectTermsBatch(const GridGeom& g, const Rect* rects, std::size_t n,
                      const GhRectTermsOut& out);

/// Output arrays of PhRectClipBatch: the rect's cell range plus the raw
/// column/row overlaps of the first two columns/rows (same x0+1 / y0+1
/// caveat as GhRectTermsOut). PH books w, h and w*h directly — there are
/// no divisions — so the kernel stops at the overlaps and the scatter
/// pass forms the products scalar.
struct PhRectClipOut {
  int32_t* x0;
  int32_t* y0;
  int32_t* x1;
  int32_t* y1;
  double* w0;  ///< overlap with column x0
  double* w1;  ///< overlap with column x0+1
  double* h0;  ///< overlap with row y0
  double* h1;  ///< overlap with row y0+1
};

/// Fused PH build kernel over AoS rects: cell ranges plus clip overlaps in
/// one vectorized pass (pass 1 of the serial cache-resident PH build).
void PhRectClipBatch(const GridGeom& g, const Rect* rects, std::size_t n,
                     const PhRectClipOut& out);

/// Join-filter kernel: bit k of the result is set iff `probe` intersects
/// rect begin + k (closed-interval convention, identical to
/// Rect::Intersects). `n` must be <= 64.
uint64_t IntersectMask64(const SoaSlice& rects, std::size_t begin,
                         std::size_t n, const Rect& probe);

/// Length of the prefix of keys[begin, end) with keys[k] <= bound — the
/// forward-scan run length of a min_x-sorted sweep. Scans sequentially and
/// stops at the first violating key, so on sorted input it equals the
/// number of keys <= bound.
std::size_t SortedPrefixLeq(const double* keys, std::size_t begin,
                            std::size_t end, double bound);

}  // namespace sjsel

#endif  // SJSEL_CORE_KERNELS_H_
