// Portable (ISA-independent) implementation of the fixed-width vector
// classes described in the paper's Figure 4. Every operation is a plain
// element loop; GCC/Clang typically lower these to vector instructions, but
// the semantics never depend on it. The intrinsic specializations in
// vec_avx2.hpp / vec_avx512.hpp implement the identical interface, and the
// test suite asserts bit-for-bit (or ULP-level) agreement between the two.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <type_traits>

namespace opv::simd {

/// Portable lane mask: one bool per lane.
template <class T, int W>
struct MaskP {
  using value_type = T;
  static constexpr int width = W;
  bool m[W];

  MaskP() {
    for (int i = 0; i < W; ++i) m[i] = false;
  }
  explicit MaskP(bool b) {
    for (int i = 0; i < W; ++i) m[i] = b;
  }
  bool operator[](int i) const { return m[i]; }

  friend MaskP operator&(MaskP a, MaskP b) {
    MaskP r;
    for (int i = 0; i < W; ++i) r.m[i] = a.m[i] && b.m[i];
    return r;
  }
  friend MaskP operator|(MaskP a, MaskP b) {
    MaskP r;
    for (int i = 0; i < W; ++i) r.m[i] = a.m[i] || b.m[i];
    return r;
  }
  friend MaskP operator^(MaskP a, MaskP b) {
    MaskP r;
    for (int i = 0; i < W; ++i) r.m[i] = a.m[i] != b.m[i];
    return r;
  }
  friend MaskP operator!(MaskP a) {
    MaskP r;
    for (int i = 0; i < W; ++i) r.m[i] = !a.m[i];
    return r;
  }
};

template <class T, int W>
inline bool any(MaskP<T, W> m) {
  for (int i = 0; i < W; ++i)
    if (m.m[i]) return true;
  return false;
}
template <class T, int W>
inline bool all(MaskP<T, W> m) {
  for (int i = 0; i < W; ++i)
    if (!m.m[i]) return false;
  return true;
}
/// Bitmask of set lanes (lane i -> bit i); used by host-side lane loops.
template <class T, int W>
inline unsigned to_bits(MaskP<T, W> m) {
  unsigned b = 0;
  for (int i = 0; i < W; ++i)
    if (m.m[i]) b |= 1u << i;
  return b;
}

template <class T, int W>
struct VecP;

/// Convert a mask between element types of the same width (e.g. the result
/// of an int32 comparison driving a select() on doubles).
template <class VTo, class T, int W>
inline typename VTo::mask_type mask_cast(MaskP<T, W> m) {
  static_assert(VTo::width == W, "mask width mismatch");
  typename VTo::mask_type r;
  for (int i = 0; i < W; ++i) r.m[i] = m.m[i];
  return r;
}

/// Portable fixed-width vector of W lanes of T.
template <class T, int W>
struct VecP {
  static_assert(W > 0 && (W & (W - 1)) == 0, "width must be a power of two");
  using value_type = T;
  using mask_type = MaskP<T, W>;
  using index_type = VecP<std::int32_t, W>;
  static constexpr int width = W;

  T v[W];

  VecP() {
    for (int i = 0; i < W; ++i) v[i] = T(0);
  }
  VecP(T x) {  // NOLINT(google-explicit-constructor) broadcast, mirrors dvec.h
    for (int i = 0; i < W; ++i) v[i] = x;
  }

  static VecP loadu(const T* p) {
    VecP r;
    for (int i = 0; i < W; ++i) r.v[i] = p[i];
    return r;
  }
  static VecP loada(const T* p) { return loadu(p); }
  /// Mapping-driven gather: r[i] = base[idx[i]]. Accepts any index vector
  /// with lane access (so a portable value vector can pair with an
  /// intrinsic index vector when only one of the two has an ISA type).
  template <class IVec>
  static VecP gather(const T* base, IVec idx) {
    VecP r;
    for (int i = 0; i < W; ++i) r.v[i] = base[idx[i]];
    return r;
  }
  /// Masked gather: inactive lanes take `fallback` lanes, no memory access.
  template <class IVec, class M>
  static VecP gather_masked(const T* base, IVec idx, M m, VecP fallback) {
    VecP r;
    for (int i = 0; i < W; ++i) r.v[i] = m[i] ? base[idx[i]] : fallback.v[i];
    return r;
  }
  /// Strided load: r[i] = p[i*stride] (direct AoS component access).
  static VecP strided(const T* p, int stride) {
    VecP r;
    for (int i = 0; i < W; ++i) r.v[i] = p[i * stride];
    return r;
  }
  /// Lane-index vector {start, start+1, ...}.
  static VecP iota(T start = T(0)) {
    VecP r;
    for (int i = 0; i < W; ++i) r.v[i] = start + T(i);
    return r;
  }

  T operator[](int i) const { return v[i]; }
  void set_lane(int i, T x) { v[i] = x; }

  std::array<T, W> to_array() const {
    std::array<T, W> a;
    for (int i = 0; i < W; ++i) a[i] = v[i];
    return a;
  }

  VecP& operator+=(VecP o) {
    for (int i = 0; i < W; ++i) v[i] += o.v[i];
    return *this;
  }
  VecP& operator-=(VecP o) {
    for (int i = 0; i < W; ++i) v[i] -= o.v[i];
    return *this;
  }
  VecP& operator*=(VecP o) {
    for (int i = 0; i < W; ++i) v[i] *= o.v[i];
    return *this;
  }
  VecP& operator/=(VecP o) {
    for (int i = 0; i < W; ++i) v[i] /= o.v[i];
    return *this;
  }

  friend VecP operator+(VecP a, VecP b) { return a += b; }
  friend VecP operator-(VecP a, VecP b) { return a -= b; }
  friend VecP operator*(VecP a, VecP b) { return a *= b; }
  friend VecP operator/(VecP a, VecP b) { return a /= b; }
  friend VecP operator-(VecP a) {
    VecP r;
    for (int i = 0; i < W; ++i) r.v[i] = -a.v[i];
    return r;
  }

  friend mask_type operator<(VecP a, VecP b) {
    mask_type r;
    for (int i = 0; i < W; ++i) r.m[i] = a.v[i] < b.v[i];
    return r;
  }
  friend mask_type operator<=(VecP a, VecP b) {
    mask_type r;
    for (int i = 0; i < W; ++i) r.m[i] = a.v[i] <= b.v[i];
    return r;
  }
  friend mask_type operator>(VecP a, VecP b) { return b < a; }
  friend mask_type operator>=(VecP a, VecP b) { return b <= a; }
  friend mask_type operator==(VecP a, VecP b) {
    mask_type r;
    for (int i = 0; i < W; ++i) r.m[i] = a.v[i] == b.v[i];
    return r;
  }
  friend mask_type operator!=(VecP a, VecP b) { return !(a == b); }
};

// ---- stores -----------------------------------------------------------

template <class T, int W>
inline void storeu(T* p, VecP<T, W> a) {
  for (int i = 0; i < W; ++i) p[i] = a.v[i];
}
template <class T, int W>
inline void storea(T* p, VecP<T, W> a) {
  storeu(p, a);
}
/// Strided store: p[i*stride] = a[i].
template <class T, int W>
inline void store_strided(T* p, int stride, VecP<T, W> a) {
  for (int i = 0; i < W; ++i) p[i * stride] = a.v[i];
}
/// Serial scatter (assignment). Safe for duplicate indices: later lanes win,
/// matching sequential execution order.
template <class T, int W, class IVec>
inline void scatter_serial(T* base, IVec idx, VecP<T, W> a) {
  for (int i = 0; i < W; ++i) base[idx[i]] = a.v[i];
}
/// Serial scatter-add. Safe for duplicate indices (the paper's "sequentially
/// scattering data out of the vector register" for the two-level coloring).
template <class T, int W, class IVec>
inline void scatter_add_serial(T* base, IVec idx, VecP<T, W> a) {
  for (int i = 0; i < W; ++i) base[idx[i]] += a.v[i];
}
/// Hardware-style scatter-add (gather + add + scatter). ONLY legal when all
/// lane indices are distinct — guaranteed by the full/block permute
/// colorings. Duplicate lanes lose updates, exactly like a real scatter.
template <class T, int W, class IVec>
inline void scatter_add_hw(T* base, IVec idx, VecP<T, W> a) {
  VecP<T, W> cur = VecP<T, W>::gather(base, idx);
  cur += a;
  scatter_serial(base, idx, cur);
}
/// Masked serial scatter-add: only active lanes update memory.
template <class T, int W, class IVec, class M>
inline void scatter_add_serial_masked(T* base, IVec idx, VecP<T, W> a, M m) {
  for (int i = 0; i < W; ++i)
    if (m[i]) base[idx[i]] += a.v[i];
}

// ---- select & math ----------------------------------------------------

template <class T, int W>
inline VecP<T, W> select(MaskP<T, W> m, VecP<T, W> a, VecP<T, W> b) {
  VecP<T, W> r;
  for (int i = 0; i < W; ++i) r.v[i] = m.m[i] ? a.v[i] : b.v[i];
  return r;
}

template <class T, int W>
inline VecP<T, W> min(VecP<T, W> a, VecP<T, W> b) {
  VecP<T, W> r;
  for (int i = 0; i < W; ++i) r.v[i] = a.v[i] < b.v[i] ? a.v[i] : b.v[i];
  return r;
}
template <class T, int W>
inline VecP<T, W> max(VecP<T, W> a, VecP<T, W> b) {
  VecP<T, W> r;
  for (int i = 0; i < W; ++i) r.v[i] = a.v[i] > b.v[i] ? a.v[i] : b.v[i];
  return r;
}
template <class T, int W>
inline VecP<T, W> abs(VecP<T, W> a) {
  VecP<T, W> r;
  for (int i = 0; i < W; ++i) r.v[i] = a.v[i] < T(0) ? -a.v[i] : a.v[i];
  return r;
}
template <class T, int W>
inline VecP<T, W> sqrt(VecP<T, W> a) {
  VecP<T, W> r;
  for (int i = 0; i < W; ++i) r.v[i] = std::sqrt(a.v[i]);
  return r;
}
/// Fused (here: contracted by the compiler if it wants) multiply-add a*b+c.
template <class T, int W>
inline VecP<T, W> fma(VecP<T, W> a, VecP<T, W> b, VecP<T, W> c) {
  VecP<T, W> r;
  for (int i = 0; i < W; ++i) r.v[i] = a.v[i] * b.v[i] + c.v[i];
  return r;
}

// ---- horizontal reductions --------------------------------------------

template <class T, int W>
inline T hsum(VecP<T, W> a) {
  T s = a.v[0];
  for (int i = 1; i < W; ++i) s += a.v[i];
  return s;
}
template <class T, int W>
inline T hmin(VecP<T, W> a) {
  T s = a.v[0];
  for (int i = 1; i < W; ++i) s = a.v[i] < s ? a.v[i] : s;
  return s;
}
template <class T, int W>
inline T hmax(VecP<T, W> a) {
  T s = a.v[0];
  for (int i = 1; i < W; ++i) s = a.v[i] > s ? a.v[i] : s;
  return s;
}

/// Mask with the first n lanes active (loop-tail handling).
template <class V>
inline typename V::mask_type tail_mask_portable(int n) {
  typename V::mask_type m;
  for (int i = 0; i < V::width; ++i) m.m[i] = i < n;
  return m;
}

}  // namespace opv::simd
