#ifndef SJSEL_GEOM_SOA_DATASET_H_
#define SJSEL_GEOM_SOA_DATASET_H_

#include <cstddef>

#include "geom/dataset.h"
#include "geom/rect.h"
#include "util/aligned.h"

namespace sjsel {

/// A non-owning view over four parallel coordinate arrays — the unit every
/// batch kernel consumes. Produced by SoaDataset::Slice (or hand-assembled
/// over scratch buffers, as the join sweeps do).
struct SoaSlice {
  const double* min_x = nullptr;
  const double* min_y = nullptr;
  const double* max_x = nullptr;
  const double* max_y = nullptr;
  std::size_t size = 0;

  Rect RectAt(std::size_t i) const {
    return Rect(min_x[i], min_y[i], max_x[i], max_y[i]);
  }
};

/// Structure-of-arrays geometry layout: the same bag of MBRs a Dataset
/// holds, stored as four cache-aligned coordinate arrays instead of an
/// array of Rect structs.
///
/// Why it exists: the hot loops (histogram build clipping, join filters)
/// read one coordinate of many rectangles per step. In AoS layout that is
/// a strided gather — every Rect load drags the three unused doubles
/// through the cache — and the per-rect branches defeat vectorization. In
/// SoA layout the same loops are contiguous streams the batch kernels in
/// src/core/kernels.h process 4 lanes per instruction (see
/// docs/ARCHITECTURE.md, "Data-level parallelism").
///
/// SoaDataset is a derived, read-mostly representation: build it once from
/// a Dataset (FromDataset) or append rows; it never replaces Dataset as the
/// canonical owner of geometry (names, serialization, mutation stay there).
class SoaDataset {
 public:
  SoaDataset() = default;

  /// Copies every MBR of `ds` into the four coordinate arrays.
  static SoaDataset FromDataset(const Dataset& ds);

  std::size_t size() const { return min_x_.size(); }
  bool empty() const { return min_x_.empty(); }

  void Reserve(std::size_t n);
  void Append(const Rect& r);
  void Clear();

  Rect RectAt(std::size_t i) const {
    return Rect(min_x_[i], min_y_[i], max_x_[i], max_y_[i]);
  }

  /// View over all rows.
  SoaSlice Slice() const {
    return SoaSlice{min_x_.data(), min_y_.data(), max_x_.data(),
                    max_y_.data(), size()};
  }

  /// View over rows [begin, end).
  SoaSlice Slice(std::size_t begin, std::size_t end) const {
    return SoaSlice{min_x_.data() + begin, min_y_.data() + begin,
                    max_x_.data() + begin, max_y_.data() + begin,
                    end - begin};
  }

  /// Tight bounding box of all rows (Rect::Empty() when empty) — matches
  /// Dataset::ComputeExtent on the same geometry.
  Rect ComputeExtent() const;

  const AlignedVector<double>& min_x() const { return min_x_; }
  const AlignedVector<double>& min_y() const { return min_y_; }
  const AlignedVector<double>& max_x() const { return max_x_; }
  const AlignedVector<double>& max_y() const { return max_y_; }

 private:
  AlignedVector<double> min_x_;
  AlignedVector<double> min_y_;
  AlignedVector<double> max_x_;
  AlignedVector<double> max_y_;
};

}  // namespace sjsel

#endif  // SJSEL_GEOM_SOA_DATASET_H_
