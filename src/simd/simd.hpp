// Umbrella header for the SIMD layer.
//
// The central idea (paper section 4.2): a user kernel is written once,
// templated over its value type T. Instantiated with T = double/float it is
// the scalar kernel; instantiated with T = Vec<double,W> the same source
// operates on packed vector registers, with gathers/scatters supplied by the
// par_loop engine and branches expressed via select(). This header provides
//   * Vec<T,W>: portable vectors with AVX2/AVX-512 specializations,
//   * scalar overloads of select/min/max/abs/sqrt/fma/h* so that the same
//     kernel source compiles for scalar T,
//   * vec_traits<T> used by the engine to reason about lane counts.
#pragma once

#include <cmath>
#include <cstdint>
#include <type_traits>

#include "simd/vec_portable.hpp"
#if defined(__AVX2__)
#include "simd/vec_avx2.hpp"
#endif
#if defined(__AVX512F__) && defined(__AVX2__)
#include "simd/vec_avx512.hpp"
#endif

namespace opv::simd {

// ---- compile-time capability flags ----------------------------------------

#if defined(__AVX512F__) && defined(__AVX2__)
inline constexpr bool kHaveAvx512 = true;
#else
inline constexpr bool kHaveAvx512 = false;
#endif
#if defined(__AVX2__)
inline constexpr bool kHaveAvx2 = true;
#else
inline constexpr bool kHaveAvx2 = false;
#endif

/// Widest compiled-in lane count for a scalar type.
template <class T>
inline constexpr int max_lanes = kHaveAvx512 ? (64 / static_cast<int>(sizeof(T)))
                                             : (kHaveAvx2 ? (32 / static_cast<int>(sizeof(T)))
                                                          : 4);

// ---- Vec<T,W> alias: intrinsic type when available, portable otherwise ----

template <class T, int W>
struct vec_select {
  using type = VecP<T, W>;
};
#if defined(__AVX2__)
template <>
struct vec_select<double, 4> {
  using type = F64x4;
};
template <>
struct vec_select<float, 8> {
  using type = F32x8;
};
template <>
struct vec_select<std::int32_t, 4> {
  using type = I32x4;
};
template <>
struct vec_select<std::int32_t, 8> {
  using type = I32x8;
};
#endif
#if defined(__AVX512F__) && defined(__AVX2__)
template <>
struct vec_select<double, 8> {
  using type = F64x8;
};
template <>
struct vec_select<float, 16> {
  using type = F32x16;
};
template <>
struct vec_select<std::int32_t, 16> {
  using type = I32x16;
};
#endif

/// The best available vector of W lanes of T.
template <class T, int W>
using Vec = typename vec_select<T, W>::type;

// ---- scalar overloads so width-generic kernels compile with T=double ------

inline double select(bool c, double a, double b) { return c ? a : b; }
inline float select(bool c, float a, float b) { return c ? a : b; }
inline std::int32_t select(bool c, std::int32_t a, std::int32_t b) { return c ? a : b; }

inline double min(double a, double b) { return a < b ? a : b; }
inline double max(double a, double b) { return a > b ? a : b; }
inline float min(float a, float b) { return a < b ? a : b; }
inline float max(float a, float b) { return a > b ? a : b; }
inline std::int32_t min(std::int32_t a, std::int32_t b) { return a < b ? a : b; }
inline std::int32_t max(std::int32_t a, std::int32_t b) { return a > b ? a : b; }

inline double abs(double a) { return std::fabs(a); }
inline float abs(float a) { return std::fabs(a); }
inline double sqrt(double a) { return std::sqrt(a); }
inline float sqrt(float a) { return std::sqrt(a); }

/// Scalar "fma" is a plain contraction (a*b+c); the vector forms use real
/// FMA instructions. Kernels must tolerate the (tiny) rounding difference.
inline double fma(double a, double b, double c) { return a * b + c; }
inline float fma(float a, float b, float c) { return a * b + c; }

inline double hsum(double a) { return a; }
inline float hsum(float a) { return a; }
inline double hmin(double a) { return a; }
inline float hmin(float a) { return a; }
inline double hmax(double a) { return a; }
inline float hmax(float a) { return a; }

inline bool any(bool m) { return m; }
inline bool all(bool m) { return m; }

// ---- vec_traits -------------------------------------------------------------

/// Traits describing a kernel value type: scalar element, lane count, the
/// matching index vector and mask types. Primary template = scalar types.
template <class T, class = void>
struct vec_traits {
  static_assert(std::is_arithmetic_v<T>, "vec_traits: unsupported type");
  using scalar = T;
  using index = std::int32_t;
  using mask = bool;
  static constexpr int lanes = 1;
};

/// Specialization for vector types (anything exposing ::width).
template <class V>
struct vec_traits<V, std::void_t<decltype(V::width), typename V::value_type>> {
  using scalar = typename V::value_type;
  using index = typename V::index_type;
  using mask = typename V::mask_type;
  static constexpr int lanes = V::width;
};

/// Lane count of a kernel value type (1 for scalars).
template <class T>
inline constexpr int lanes_of = vec_traits<T>::lanes;

/// The vector (or scalar) type holding elements of scalar type S matching
/// the lane count of kernel value type T. Example: T=Vec<double,8>,
/// S=int32_t -> Vec<int32_t,8>; T=double, S=int32_t -> int32_t.
template <class S, class T>
using rebind_t =
    std::conditional_t<lanes_of<T> == 1, S, Vec<S, lanes_of<T>>>;

// ---- int -> real lane conversion (for kernels branching on int data) -------

template <class V, class = void>
struct RealConvert;

template <class T>
struct RealConvert<T, std::enable_if_t<std::is_floating_point_v<T>>> {
  static T from(std::int32_t i) { return static_cast<T>(i); }
};
template <class T, int W>
struct RealConvert<VecP<T, W>, std::enable_if_t<std::is_floating_point_v<T>>> {
  template <class IVec>
  static VecP<T, W> from(IVec i) {
    VecP<T, W> r;
    for (int l = 0; l < W; ++l) r.v[l] = static_cast<T>(i[l]);
    return r;
  }
};
#if defined(__AVX2__)
template <>
struct RealConvert<F64x4> {
  static F64x4 from(I32x4 i) { return F64x4{_mm256_cvtepi32_pd(i.v)}; }
};
template <>
struct RealConvert<F32x8> {
  static F32x8 from(I32x8 i) { return F32x8{_mm256_cvtepi32_ps(i.v)}; }
};
#endif
#if defined(__AVX512F__) && defined(__AVX2__)
// Zero-masked under a full mask: the plain conversions seed their merge
// source with _mm512_undefined_*(), which GCC reports as maybe-uninitialized.
template <>
struct RealConvert<F64x8> {
  static F64x8 from(I32x8 i) { return F64x8{_mm512_maskz_cvtepi32_pd(0xFF, i.v)}; }
};
template <>
struct RealConvert<F32x16> {
  static F32x16 from(I32x16 i) { return F32x16{_mm512_maskz_cvtepi32_ps(0xFFFF, i.v)}; }
};
#endif

/// Convert lane-wise int32 data to the kernel's real value type so that
/// integer-driven branches can be expressed as real-valued select()s.
/// The index-vector type is deduced: it may be the intrinsic index type even
/// when V itself is a portable vector (exotic width combinations).
template <class V, class IVec>
inline V to_real(IVec i) {
  return RealConvert<V>::from(i);
}

// ---- mask conversion: index-vector comparison mask -> value mask ------------
// Used by the SIMT backend's colored increments: element colors are compared
// as int vectors, the resulting mask drives masked scatters of value vectors.

template <class V, class = void>
struct MaskConvert;

template <class T>
struct MaskConvert<T, std::enable_if_t<std::is_arithmetic_v<T>>> {
  static bool from(bool m) { return m; }
};
template <class T, int W>
struct MaskConvert<VecP<T, W>> {
  template <class M>
  static MaskP<T, W> from(M m) {
    MaskP<T, W> r;
    for (int l = 0; l < W; ++l) r.m[l] = m[l];
    return r;
  }
};
#if defined(__AVX2__)
template <>
struct MaskConvert<F64x4> {
  static MaskF64x4 from(MaskI32x4 m) { return mask_to_f64(m); }
};
template <>
struct MaskConvert<F32x8> {
  static MaskF32x8 from(MaskI32x8 m) { return mask_to_f32(m); }
};
template <>
struct MaskConvert<I32x4> {
  static MaskI32x4 from(MaskI32x4 m) { return m; }
};
template <>
struct MaskConvert<I32x8> {
  static MaskI32x8 from(MaskI32x8 m) { return m; }
};
#endif
#if defined(__AVX512F__) && defined(__AVX2__)
template <>
struct MaskConvert<F64x8> {
  static MaskK8 from(MaskI32x8 m) { return mask_to_f64x8(m); }
};
template <>
struct MaskConvert<F32x16> {
  static MaskK16 from(MaskK16 m) { return m; }
};
template <>
struct MaskConvert<I32x16> {
  static MaskK16 from(MaskK16 m) { return m; }
};
#endif

}  // namespace opv::simd

/// Put this at the top of every width-generic kernel body. Function-scope
/// using-declarations make unqualified min/max/abs/sqrt/fma/select resolve
/// ONLY to the opv::simd overload set (they hide ::abs(int) and friends, so
/// a scalar instantiation cannot silently pick a libc integer overload).
#define OPV_SIMD_MATH_USING                                          \
  using ::opv::simd::select;                                         \
  using ::opv::simd::min;                                            \
  using ::opv::simd::max;                                            \
  using ::opv::simd::abs;                                            \
  using ::opv::simd::sqrt;                                           \
  using ::opv::simd::fma;                                            \
  using ::opv::simd::any;                                            \
  using ::opv::simd::all;                                            \
  using ::opv::simd::hsum;                                           \
  using ::opv::simd::hmin;                                           \
  using ::opv::simd::hmax;                                           \
  using ::opv::simd::to_real
