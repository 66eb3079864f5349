#include "core/kernels.h"

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define SJSEL_KERNELS_X86 1
#include <immintrin.h>
#else
#define SJSEL_KERNELS_X86 0
#endif

namespace sjsel {
namespace {

// -1 = no override; otherwise the int value of the forced KernelBackend.
std::atomic<int> g_backend_override{-1};

KernelBackend ProbeBackend() {
#if SJSEL_KERNELS_X86
  if (__builtin_cpu_supports("avx2")) return KernelBackend::kAvx2;
#endif
  return KernelBackend::kScalar;
}

// SJSEL_KERNEL_BACKEND, parsed and validated once. -1 = unset or invalid
// (invalid values warn to stderr and fall back to detection rather than
// aborting a long-running daemon over a typo; the CLI flag is strict).
int EnvBackendOverride() {
  static const int cached = [] {
    const char* env = std::getenv("SJSEL_KERNEL_BACKEND");
    if (env == nullptr || env[0] == '\0') return -1;
    KernelBackend backend;
    if (!ParseKernelBackend(env, &backend)) {
      std::fprintf(stderr,
                   "sjsel: ignoring unknown SJSEL_KERNEL_BACKEND '%s' "
                   "(want scalar|avx2)\n",
                   env);
      return -1;
    }
    if (!KernelBackendAvailable(backend)) {
      std::fprintf(stderr,
                   "sjsel: SJSEL_KERNEL_BACKEND=%s not available on this "
                   "CPU, using %s\n",
                   env, KernelBackendName(DetectKernelBackend()));
      return -1;
    }
    return static_cast<int>(backend);
  }();
  return cached;
}

// One grid-cell coordinate, identical to Grid::CellX / Grid::CellY: floor
// of the scaled offset, clamped into [0, per_axis).
inline int32_t CellCoordScalar(double v, double origin, double cell_size,
                               int per_axis) {
  int c = static_cast<int>(std::floor((v - origin) / cell_size));
  if (c < 0) c = 0;
  if (c >= per_axis) c = per_axis - 1;
  return c;
}

// ---------------------------------------------------------------------------
// Scalar backends. These are the semantic reference: every SIMD kernel must
// reproduce them bit-for-bit, lane by lane.
// ---------------------------------------------------------------------------

void CellRangeBatchScalar(const GridGeom& g, const SoaSlice& rects,
                          int32_t* x0, int32_t* y0, int32_t* x1,
                          int32_t* y1) {
  for (std::size_t i = 0; i < rects.size; ++i) {
    x0[i] = CellCoordScalar(rects.min_x[i], g.min_x, g.cell_w, g.per_axis);
    y0[i] = CellCoordScalar(rects.min_y[i], g.min_y, g.cell_h, g.per_axis);
    x1[i] = CellCoordScalar(rects.max_x[i], g.min_x, g.cell_w, g.per_axis);
    y1[i] = CellCoordScalar(rects.max_y[i], g.min_y, g.cell_h, g.per_axis);
  }
}

void GhEntryTermsBatchScalar(const GridGeom& g, std::size_t n,
                             const double* w, const double* h,
                             double* out_area, double* out_hf,
                             double* out_vf) {
  const double cell_area = g.cell_w * g.cell_h;
  for (std::size_t i = 0; i < n; ++i) {
    out_area[i] = (w[i] * h[i]) / cell_area;
    out_hf[i] = w[i] / g.cell_w;
    out_vf[i] = h[i] / g.cell_h;
  }
}

// Offsets every pointer of a fused-kernel output struct by `i` — the SIMD
// loops hand their remainders to the scalar reference through this.
inline GhRectTermsOut Advance(const GhRectTermsOut& o, std::size_t i) {
  return {o.x0 + i,  o.y0 + i,  o.x1 + i,  o.y1 + i,
          o.a00 + i, o.a01 + i, o.a10 + i, o.a11 + i,
          o.hf0 + i, o.hf1 + i, o.vf0 + i, o.vf1 + i};
}

inline PhRectClipOut Advance(const PhRectClipOut& o, std::size_t i) {
  return {o.x0 + i, o.y0 + i, o.x1 + i, o.y1 + i,
          o.w0 + i, o.w1 + i, o.h0 + i, o.h1 + i};
}

void GhRectTermsBatchScalar(const GridGeom& gg, const Rect* rects,
                            std::size_t n, const GhRectTermsOut& o) {
  // By-value copy: through the reference, every double store below could
  // alias a GridGeom field and force the compiler to reload it — a local
  // whose address never escapes provably cannot.
  const GridGeom g = gg;
  // The struct members are opaque pointers: without restrict the compiler
  // must assume a store through o.a00 can hit rects[i + 1] and serialize
  // the next iteration's loads behind this one's 8 stores. The no-overlap
  // precondition (kernels.h) makes the hoisted restrict copies legal.
  const Rect* __restrict__ in = rects;
  int32_t* __restrict__ ox0 = o.x0;
  int32_t* __restrict__ oy0 = o.y0;
  int32_t* __restrict__ ox1 = o.x1;
  int32_t* __restrict__ oy1 = o.y1;
  double* __restrict__ oa00 = o.a00;
  double* __restrict__ oa01 = o.a01;
  double* __restrict__ oa10 = o.a10;
  double* __restrict__ oa11 = o.a11;
  double* __restrict__ ohf0 = o.hf0;
  double* __restrict__ ohf1 = o.hf1;
  double* __restrict__ ovf0 = o.vf0;
  double* __restrict__ ovf1 = o.vf1;
  const double cell_area = g.cell_w * g.cell_h;
  for (std::size_t i = 0; i < n; ++i) {
    const Rect& r = in[i];
    const int32_t cx0 = CellCoordScalar(r.min_x, g.min_x, g.cell_w,
                                        g.per_axis);
    const int32_t cy0 = CellCoordScalar(r.min_y, g.min_y, g.cell_h,
                                        g.per_axis);
    ox0[i] = cx0;
    oy0[i] = cy0;
    ox1[i] = CellCoordScalar(r.max_x, g.min_x, g.cell_w, g.per_axis);
    oy1[i] = CellCoordScalar(r.max_y, g.min_y, g.cell_h, g.per_axis);
    // The same cell-bound arithmetic as Grid::CellRect for columns cx0 and
    // cx0+1 (rows cy0, cy0+1): the shared bound is one expression, so
    // adjacent cells partition the rect exactly as the per-cell path sees
    // them.
    const double col_lo = g.min_x + cx0 * g.cell_w;
    const double col_mid = g.min_x + (cx0 + 1) * g.cell_w;
    const double col_hi = g.min_x + (cx0 + 2) * g.cell_w;
    const double row_lo = g.min_y + cy0 * g.cell_h;
    const double row_mid = g.min_y + (cy0 + 1) * g.cell_h;
    const double row_hi = g.min_y + (cy0 + 2) * g.cell_h;
    const double w0 = OverlapLen(r.min_x, r.max_x, col_lo, col_mid);
    const double w1 = OverlapLen(r.min_x, r.max_x, col_mid, col_hi);
    const double h0 = OverlapLen(r.min_y, r.max_y, row_lo, row_mid);
    const double h1 = OverlapLen(r.min_y, r.max_y, row_mid, row_hi);
    oa00[i] = (w0 * h0) / cell_area;
    oa01[i] = (w0 * h1) / cell_area;
    oa10[i] = (w1 * h0) / cell_area;
    oa11[i] = (w1 * h1) / cell_area;
    ohf0[i] = w0 / g.cell_w;
    ohf1[i] = w1 / g.cell_w;
    ovf0[i] = h0 / g.cell_h;
    ovf1[i] = h1 / g.cell_h;
  }
}

void PhRectClipBatchScalar(const GridGeom& gg, const Rect* rects,
                           std::size_t n, const PhRectClipOut& o) {
  // By-value copy + hoisted restrict pointers, for the same reasons as
  // GhRectTermsBatchScalar: keep the geometry in registers and let the
  // stores of iteration i overlap the loads of iteration i + 1.
  const GridGeom g = gg;
  const Rect* __restrict__ in = rects;
  int32_t* __restrict__ ox0 = o.x0;
  int32_t* __restrict__ oy0 = o.y0;
  int32_t* __restrict__ ox1 = o.x1;
  int32_t* __restrict__ oy1 = o.y1;
  double* __restrict__ ow0 = o.w0;
  double* __restrict__ ow1 = o.w1;
  double* __restrict__ oh0 = o.h0;
  double* __restrict__ oh1 = o.h1;
  for (std::size_t i = 0; i < n; ++i) {
    const Rect& r = in[i];
    const int32_t cx0 = CellCoordScalar(r.min_x, g.min_x, g.cell_w,
                                        g.per_axis);
    const int32_t cy0 = CellCoordScalar(r.min_y, g.min_y, g.cell_h,
                                        g.per_axis);
    ox0[i] = cx0;
    oy0[i] = cy0;
    ox1[i] = CellCoordScalar(r.max_x, g.min_x, g.cell_w, g.per_axis);
    oy1[i] = CellCoordScalar(r.max_y, g.min_y, g.cell_h, g.per_axis);
    const double col_lo = g.min_x + cx0 * g.cell_w;
    const double col_mid = g.min_x + (cx0 + 1) * g.cell_w;
    const double col_hi = g.min_x + (cx0 + 2) * g.cell_w;
    const double row_lo = g.min_y + cy0 * g.cell_h;
    const double row_mid = g.min_y + (cy0 + 1) * g.cell_h;
    const double row_hi = g.min_y + (cy0 + 2) * g.cell_h;
    ow0[i] = OverlapLen(r.min_x, r.max_x, col_lo, col_mid);
    ow1[i] = OverlapLen(r.min_x, r.max_x, col_mid, col_hi);
    oh0[i] = OverlapLen(r.min_y, r.max_y, row_lo, row_mid);
    oh1[i] = OverlapLen(r.min_y, r.max_y, row_mid, row_hi);
  }
}

uint64_t IntersectMask64Scalar(const SoaSlice& rects, std::size_t begin,
                               std::size_t n, const Rect& probe) {
  uint64_t mask = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t i = begin + k;
    const bool hit = probe.min_x <= rects.max_x[i] &&
                     rects.min_x[i] <= probe.max_x &&
                     probe.min_y <= rects.max_y[i] &&
                     rects.min_y[i] <= probe.max_y;
    mask |= static_cast<uint64_t>(hit) << k;
  }
  return mask;
}

std::size_t SortedPrefixLeqScalar(const double* keys, std::size_t begin,
                                  std::size_t end, double bound) {
  std::size_t k = begin;
  while (k < end && keys[k] <= bound) ++k;
  return k - begin;
}

// ---------------------------------------------------------------------------
// AVX2 backends, 4 double lanes per iteration. Bit-identity notes:
//  - vminpd/vmaxpd return the SECOND operand on ties (and on ±0.0, which
//    compare equal), so arguments are swapped relative to std::min(a, b) /
//    std::max(a, b), which return the FIRST.
//  - No FMA: the avx2 target does not enable contraction, keeping the
//    mul-then-div sequences identical to scalar.
//  - Clamps run in the double domain before the int conversion; for every
//    value whose scalar int cast is defined this matches CellCoordScalar.
// ---------------------------------------------------------------------------

#if SJSEL_KERNELS_X86

__attribute__((target("avx2"))) inline __m128i CellCoordAvx2(
    const double* v, __m256d origin, __m256d cell, __m256d hi_clamp) {
  const __m256d t =
      _mm256_div_pd(_mm256_sub_pd(_mm256_loadu_pd(v), origin), cell);
  __m256d f = _mm256_floor_pd(t);
  f = _mm256_max_pd(f, _mm256_setzero_pd());
  f = _mm256_min_pd(f, hi_clamp);
  return _mm256_cvttpd_epi32(f);
}

__attribute__((target("avx2"))) void CellRangeBatchAvx2(
    const GridGeom& g, const SoaSlice& rects, int32_t* x0, int32_t* y0,
    int32_t* x1, int32_t* y1) {
  const __m256d ox = _mm256_set1_pd(g.min_x);
  const __m256d oy = _mm256_set1_pd(g.min_y);
  const __m256d cw = _mm256_set1_pd(g.cell_w);
  const __m256d ch = _mm256_set1_pd(g.cell_h);
  const __m256d hi = _mm256_set1_pd(static_cast<double>(g.per_axis - 1));
  std::size_t i = 0;
  for (; i + 4 <= rects.size; i += 4) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(x0 + i),
                     CellCoordAvx2(rects.min_x + i, ox, cw, hi));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(y0 + i),
                     CellCoordAvx2(rects.min_y + i, oy, ch, hi));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(x1 + i),
                     CellCoordAvx2(rects.max_x + i, ox, cw, hi));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(y1 + i),
                     CellCoordAvx2(rects.max_y + i, oy, ch, hi));
  }
  for (; i < rects.size; ++i) {
    x0[i] = CellCoordScalar(rects.min_x[i], g.min_x, g.cell_w, g.per_axis);
    y0[i] = CellCoordScalar(rects.min_y[i], g.min_y, g.cell_h, g.per_axis);
    x1[i] = CellCoordScalar(rects.max_x[i], g.min_x, g.cell_w, g.per_axis);
    y1[i] = CellCoordScalar(rects.max_y[i], g.min_y, g.cell_h, g.per_axis);
  }
}

// std::min(a, b) == vminpd(b, a); std::max(a, b) == vmaxpd(b, a).
__attribute__((target("avx2"))) inline __m256d OverlapLenAvx2(__m256d lo,
                                                              __m256d hi,
                                                              __m256d cell_lo,
                                                              __m256d cell_hi) {
  const __m256d top = _mm256_min_pd(cell_hi, hi);     // std::min(hi, cell_hi)
  const __m256d bot = _mm256_max_pd(cell_lo, lo);     // std::max(lo, cell_lo)
  const __m256d d = _mm256_sub_pd(top, bot);
  return _mm256_max_pd(d, _mm256_setzero_pd());       // std::max(0.0, d)
}

__attribute__((target("avx2"))) void GhEntryTermsBatchAvx2(
    const GridGeom& g, std::size_t n, const double* w, const double* h,
    double* out_area, double* out_hf, double* out_vf) {
  const double cell_area = g.cell_w * g.cell_h;
  const __m256d vca = _mm256_set1_pd(cell_area);
  const __m256d vcw = _mm256_set1_pd(g.cell_w);
  const __m256d vch = _mm256_set1_pd(g.cell_h);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d vw = _mm256_loadu_pd(w + i);
    const __m256d vh = _mm256_loadu_pd(h + i);
    _mm256_storeu_pd(out_area + i,
                     _mm256_div_pd(_mm256_mul_pd(vw, vh), vca));
    _mm256_storeu_pd(out_hf + i, _mm256_div_pd(vw, vcw));
    _mm256_storeu_pd(out_vf + i, _mm256_div_pd(vh, vch));
  }
  if (i < n) {
    GhEntryTermsBatchScalar(g, n - i, w + i, h + i, out_area + i, out_hf + i,
                            out_vf + i);
  }
}

// Loads 4 consecutive Rects (16 contiguous doubles) and transposes them
// in-register into SoA lanes: one 32-byte load per rect, then the
// standard unpack + 128-bit-permute 4x4 transpose.
__attribute__((target("avx2"))) inline void LoadRects4Avx2(
    const Rect* rects, __m256d* minx, __m256d* miny, __m256d* maxx,
    __m256d* maxy) {
  const double* p = reinterpret_cast<const double*>(rects);
  const __m256d r0 = _mm256_loadu_pd(p);       // mnx0 mny0 mxx0 mxy0
  const __m256d r1 = _mm256_loadu_pd(p + 4);
  const __m256d r2 = _mm256_loadu_pd(p + 8);
  const __m256d r3 = _mm256_loadu_pd(p + 12);
  const __m256d t0 = _mm256_unpacklo_pd(r0, r1);  // mnx0 mnx1 mxx0 mxx1
  const __m256d t1 = _mm256_unpackhi_pd(r0, r1);  // mny0 mny1 mxy0 mxy1
  const __m256d t2 = _mm256_unpacklo_pd(r2, r3);
  const __m256d t3 = _mm256_unpackhi_pd(r2, r3);
  *minx = _mm256_permute2f128_pd(t0, t2, 0x20);
  *maxx = _mm256_permute2f128_pd(t0, t2, 0x31);
  *miny = _mm256_permute2f128_pd(t1, t3, 0x20);
  *maxy = _mm256_permute2f128_pd(t1, t3, 0x31);
}

// CellCoordAvx2 on a register input, returning the clamped floor still in
// the double domain (it is exactly the stored int32 value, so the cell
// bounds below can reuse it without a separate int-to-double conversion).
__attribute__((target("avx2"))) inline __m256d CellCoordKeepAvx2(
    __m256d v, __m256d origin, __m256d cell, __m256d hi_clamp,
    int32_t* out) {
  const __m256d t = _mm256_div_pd(_mm256_sub_pd(v, origin), cell);
  __m256d f = _mm256_floor_pd(t);
  f = _mm256_max_pd(f, _mm256_setzero_pd());
  f = _mm256_min_pd(f, hi_clamp);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out), _mm256_cvttpd_epi32(f));
  return f;
}

__attribute__((target("avx2"))) void GhRectTermsBatchAvx2(
    const GridGeom& g, const Rect* rects, std::size_t n,
    const GhRectTermsOut& o) {
  const __m256d ox = _mm256_set1_pd(g.min_x);
  const __m256d oy = _mm256_set1_pd(g.min_y);
  const __m256d cw = _mm256_set1_pd(g.cell_w);
  const __m256d ch = _mm256_set1_pd(g.cell_h);
  const __m256d hi = _mm256_set1_pd(static_cast<double>(g.per_axis - 1));
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d cell_area = _mm256_set1_pd(g.cell_w * g.cell_h);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d minx, miny, maxx, maxy;
    LoadRects4Avx2(rects + i, &minx, &miny, &maxx, &maxy);
    const __m256d x0d = CellCoordKeepAvx2(minx, ox, cw, hi, o.x0 + i);
    const __m256d y0d = CellCoordKeepAvx2(miny, oy, ch, hi, o.y0 + i);
    CellCoordKeepAvx2(maxx, ox, cw, hi, o.x1 + i);
    CellCoordKeepAvx2(maxy, oy, ch, hi, o.y1 + i);
    const __m256d x0p1 = _mm256_add_pd(x0d, one);
    const __m256d y0p1 = _mm256_add_pd(y0d, one);
    const __m256d col_lo = _mm256_add_pd(ox, _mm256_mul_pd(x0d, cw));
    const __m256d col_mid = _mm256_add_pd(ox, _mm256_mul_pd(x0p1, cw));
    const __m256d col_hi =
        _mm256_add_pd(ox, _mm256_mul_pd(_mm256_add_pd(x0p1, one), cw));
    const __m256d row_lo = _mm256_add_pd(oy, _mm256_mul_pd(y0d, ch));
    const __m256d row_mid = _mm256_add_pd(oy, _mm256_mul_pd(y0p1, ch));
    const __m256d row_hi =
        _mm256_add_pd(oy, _mm256_mul_pd(_mm256_add_pd(y0p1, one), ch));
    const __m256d w0 = OverlapLenAvx2(minx, maxx, col_lo, col_mid);
    const __m256d w1 = OverlapLenAvx2(minx, maxx, col_mid, col_hi);
    const __m256d h0 = OverlapLenAvx2(miny, maxy, row_lo, row_mid);
    const __m256d h1 = OverlapLenAvx2(miny, maxy, row_mid, row_hi);
    _mm256_storeu_pd(o.a00 + i,
                     _mm256_div_pd(_mm256_mul_pd(w0, h0), cell_area));
    _mm256_storeu_pd(o.a01 + i,
                     _mm256_div_pd(_mm256_mul_pd(w0, h1), cell_area));
    _mm256_storeu_pd(o.a10 + i,
                     _mm256_div_pd(_mm256_mul_pd(w1, h0), cell_area));
    _mm256_storeu_pd(o.a11 + i,
                     _mm256_div_pd(_mm256_mul_pd(w1, h1), cell_area));
    _mm256_storeu_pd(o.hf0 + i, _mm256_div_pd(w0, cw));
    _mm256_storeu_pd(o.hf1 + i, _mm256_div_pd(w1, cw));
    _mm256_storeu_pd(o.vf0 + i, _mm256_div_pd(h0, ch));
    _mm256_storeu_pd(o.vf1 + i, _mm256_div_pd(h1, ch));
  }
  if (i < n) GhRectTermsBatchScalar(g, rects + i, n - i, Advance(o, i));
}

__attribute__((target("avx2"))) void PhRectClipBatchAvx2(
    const GridGeom& g, const Rect* rects, std::size_t n,
    const PhRectClipOut& o) {
  const __m256d ox = _mm256_set1_pd(g.min_x);
  const __m256d oy = _mm256_set1_pd(g.min_y);
  const __m256d cw = _mm256_set1_pd(g.cell_w);
  const __m256d ch = _mm256_set1_pd(g.cell_h);
  const __m256d hi = _mm256_set1_pd(static_cast<double>(g.per_axis - 1));
  const __m256d one = _mm256_set1_pd(1.0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d minx, miny, maxx, maxy;
    LoadRects4Avx2(rects + i, &minx, &miny, &maxx, &maxy);
    const __m256d x0d = CellCoordKeepAvx2(minx, ox, cw, hi, o.x0 + i);
    const __m256d y0d = CellCoordKeepAvx2(miny, oy, ch, hi, o.y0 + i);
    CellCoordKeepAvx2(maxx, ox, cw, hi, o.x1 + i);
    CellCoordKeepAvx2(maxy, oy, ch, hi, o.y1 + i);
    const __m256d x0p1 = _mm256_add_pd(x0d, one);
    const __m256d y0p1 = _mm256_add_pd(y0d, one);
    const __m256d col_lo = _mm256_add_pd(ox, _mm256_mul_pd(x0d, cw));
    const __m256d col_mid = _mm256_add_pd(ox, _mm256_mul_pd(x0p1, cw));
    const __m256d col_hi =
        _mm256_add_pd(ox, _mm256_mul_pd(_mm256_add_pd(x0p1, one), cw));
    const __m256d row_lo = _mm256_add_pd(oy, _mm256_mul_pd(y0d, ch));
    const __m256d row_mid = _mm256_add_pd(oy, _mm256_mul_pd(y0p1, ch));
    const __m256d row_hi =
        _mm256_add_pd(oy, _mm256_mul_pd(_mm256_add_pd(y0p1, one), ch));
    _mm256_storeu_pd(o.w0 + i, OverlapLenAvx2(minx, maxx, col_lo, col_mid));
    _mm256_storeu_pd(o.w1 + i, OverlapLenAvx2(minx, maxx, col_mid, col_hi));
    _mm256_storeu_pd(o.h0 + i, OverlapLenAvx2(miny, maxy, row_lo, row_mid));
    _mm256_storeu_pd(o.h1 + i, OverlapLenAvx2(miny, maxy, row_mid, row_hi));
  }
  if (i < n) PhRectClipBatchScalar(g, rects + i, n - i, Advance(o, i));
}

__attribute__((target("avx2"))) uint64_t IntersectMask64Avx2(
    const SoaSlice& rects, std::size_t begin, std::size_t n,
    const Rect& probe) {
  const __m256d p_min_x = _mm256_set1_pd(probe.min_x);
  const __m256d p_min_y = _mm256_set1_pd(probe.min_y);
  const __m256d p_max_x = _mm256_set1_pd(probe.max_x);
  const __m256d p_max_y = _mm256_set1_pd(probe.max_y);
  uint64_t mask = 0;
  std::size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    const std::size_t i = begin + k;
    const __m256d c0 =
        _mm256_cmp_pd(p_min_x, _mm256_loadu_pd(rects.max_x + i), _CMP_LE_OQ);
    const __m256d c1 =
        _mm256_cmp_pd(_mm256_loadu_pd(rects.min_x + i), p_max_x, _CMP_LE_OQ);
    const __m256d c2 =
        _mm256_cmp_pd(p_min_y, _mm256_loadu_pd(rects.max_y + i), _CMP_LE_OQ);
    const __m256d c3 =
        _mm256_cmp_pd(_mm256_loadu_pd(rects.min_y + i), p_max_y, _CMP_LE_OQ);
    const __m256d hit = _mm256_and_pd(_mm256_and_pd(c0, c1),
                                      _mm256_and_pd(c2, c3));
    mask |= static_cast<uint64_t>(_mm256_movemask_pd(hit)) << k;
  }
  if (k < n) {
    mask |= IntersectMask64Scalar(rects, begin + k, n - k, probe) << k;
  }
  return mask;
}

__attribute__((target("avx2"))) std::size_t SortedPrefixLeqAvx2(
    const double* keys, std::size_t begin, std::size_t end, double bound) {
  const __m256d b = _mm256_set1_pd(bound);
  std::size_t k = begin;
  for (; k + 4 <= end; k += 4) {
    const int m = _mm256_movemask_pd(
        _mm256_cmp_pd(_mm256_loadu_pd(keys + k), b, _CMP_LE_OQ));
    if (m != 0xF) {
      return k - begin +
             static_cast<std::size_t>(std::countr_zero(~static_cast<unsigned>(m)));
    }
  }
  return k - begin + SortedPrefixLeqScalar(keys, k, end, bound);
}

#endif  // SJSEL_KERNELS_X86

}  // namespace

KernelBackend DetectKernelBackend() {
  static const KernelBackend detected = ProbeBackend();
  return detected;
}

bool KernelBackendAvailable(KernelBackend backend) {
  switch (backend) {
    case KernelBackend::kScalar:
      return true;
    case KernelBackend::kAvx2:
#if SJSEL_KERNELS_X86
      return __builtin_cpu_supports("avx2");
#else
      return false;
#endif
  }
  return false;
}

KernelBackend ActiveKernelBackend() {
  const int forced = g_backend_override.load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<KernelBackend>(forced);
  const int env = EnvBackendOverride();
  if (env >= 0) return static_cast<KernelBackend>(env);
  return DetectKernelBackend();
}

void SetKernelBackendOverride(KernelBackend backend) {
  g_backend_override.store(static_cast<int>(backend),
                           std::memory_order_relaxed);
}

void ClearKernelBackendOverride() {
  g_backend_override.store(-1, std::memory_order_relaxed);
}

const char* KernelBackendName(KernelBackend backend) {
  switch (backend) {
    case KernelBackend::kScalar:
      return "scalar";
    case KernelBackend::kAvx2:
      return "avx2";
  }
  return "?";
}

bool ParseKernelBackend(const std::string& name, KernelBackend* out) {
  if (name == "scalar") {
    *out = KernelBackend::kScalar;
  } else if (name == "avx2") {
    *out = KernelBackend::kAvx2;
  } else {
    return false;
  }
  return true;
}

KernelDispatchInfo GetKernelDispatchInfo() {
  KernelDispatchInfo info;
  info.detected = DetectKernelBackend();
  info.active = ActiveKernelBackend();
  if (g_backend_override.load(std::memory_order_relaxed) >= 0) {
    info.source = "override";
  } else if (EnvBackendOverride() >= 0) {
    info.source = "env";
  } else {
    info.source = "detected";
  }
  return info;
}

void CellRangeBatch(const GridGeom& g, const SoaSlice& rects, int32_t* x0,
                    int32_t* y0, int32_t* x1, int32_t* y1) {
#if SJSEL_KERNELS_X86
  if (ActiveKernelBackend() == KernelBackend::kAvx2) {
    CellRangeBatchAvx2(g, rects, x0, y0, x1, y1);
    return;
  }
#endif
  CellRangeBatchScalar(g, rects, x0, y0, x1, y1);
}

void GhEntryTermsBatch(const GridGeom& g, std::size_t n, const double* w,
                       const double* h, double* out_area, double* out_hf,
                       double* out_vf) {
#if SJSEL_KERNELS_X86
  if (ActiveKernelBackend() == KernelBackend::kAvx2) {
    GhEntryTermsBatchAvx2(g, n, w, h, out_area, out_hf, out_vf);
    return;
  }
#endif
  GhEntryTermsBatchScalar(g, n, w, h, out_area, out_hf, out_vf);
}

void GhRectTermsBatch(const GridGeom& g, const Rect* rects, std::size_t n,
                      const GhRectTermsOut& out) {
#if SJSEL_KERNELS_X86
  if (ActiveKernelBackend() == KernelBackend::kAvx2) {
    GhRectTermsBatchAvx2(g, rects, n, out);
    return;
  }
#endif
  GhRectTermsBatchScalar(g, rects, n, out);
}

void PhRectClipBatch(const GridGeom& g, const Rect* rects, std::size_t n,
                     const PhRectClipOut& out) {
#if SJSEL_KERNELS_X86
  if (ActiveKernelBackend() == KernelBackend::kAvx2) {
    PhRectClipBatchAvx2(g, rects, n, out);
    return;
  }
#endif
  PhRectClipBatchScalar(g, rects, n, out);
}

uint64_t IntersectMask64(const SoaSlice& rects, std::size_t begin,
                         std::size_t n, const Rect& probe) {
#if SJSEL_KERNELS_X86
  if (ActiveKernelBackend() == KernelBackend::kAvx2) {
    return IntersectMask64Avx2(rects, begin, n, probe);
  }
#endif
  return IntersectMask64Scalar(rects, begin, n, probe);
}

std::size_t SortedPrefixLeq(const double* keys, std::size_t begin,
                            std::size_t end, double bound) {
#if SJSEL_KERNELS_X86
  if (ActiveKernelBackend() == KernelBackend::kAvx2) {
    return SortedPrefixLeqAvx2(keys, begin, end, bound);
  }
#endif
  return SortedPrefixLeqScalar(keys, begin, end, bound);
}

}  // namespace sjsel
