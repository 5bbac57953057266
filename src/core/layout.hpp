// Memory layout of a dat's storage (the AoS / SoA axis).
//
// The paper's vectorized paths (sections 6.1-6.4) pay a strided-access tax
// on every multi-component dat because storage is locked to AoS: a W-wide
// gather of component c touches W cache lines dim elements apart. Sulyok et
// al. (arXiv:1802.03749) show AoS<->SoA selection is a first-order win for
// exactly these loops. This header is the single source of truth for the
// two addressing schemes. A context picks one layout for all its
// multi-component dats (set_default_layout); each dat is declared as AoS
// rows and built once, at context finalize, in its final numbering and
// layout (DatBase::materialize), and fetch() stays declaration-order
// AoS-transparent.
//
//   AoS    value(e, c) = data[e*dim + c]           (the historical layout)
//   SoA    value(e, c) = data[c*plane + e]          plane = padded_rows(n)
//
// `plane` is the padded row count (rounded up to kPlaneAlign) so every SoA
// plane stays 64-byte aligned for the widest lane count; the padding rows
// are zero-initialized and never addressed by valid element ids.
#pragma once

#include <cstddef>

#include "core/set.hpp"

namespace opv {

/// Physical memory layout of a dat's element-major storage.
enum class Layout {
  AoS,  ///< array-of-structures: element rows (the default)
  SoA,  ///< structure-of-arrays: one contiguous plane per component
};

constexpr const char* layout_name(Layout l) {
  switch (l) {
    case Layout::AoS: return "AoS";
    case Layout::SoA: return "SoA";
  }
  return "?";
}

/// SoA plane row granularity: a multiple of every supported vector width
/// (4/8/16), so a plane of doubles starts on a 64-byte boundary.
inline constexpr idx_t kPlaneAlign = 16;

/// Rows of padded storage backing n elements under SoA.
constexpr idx_t padded_rows(idx_t n) {
  return (n + kPlaneAlign - 1) & ~(kPlaneAlign - 1);
}

/// Flat index of (element e, component c) under a layout. `plane` is the
/// padded row count (padded_rows of the dat's total size); AoS ignores it.
constexpr std::size_t layout_offset(Layout l, idx_t e, int c, int dim, idx_t plane) {
  if (l == Layout::SoA) return static_cast<std::size_t>(c) * plane + static_cast<std::size_t>(e);
  return static_cast<std::size_t>(e) * dim + c;
}

}  // namespace opv
