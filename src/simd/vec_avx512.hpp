// AVX-512 (512-bit) specializations — the stand-in for the Xeon Phi's IMCI
// instruction set (paper Figure 4b): 8 doubles / 16 floats per register,
// native mask registers, and — crucially — real hardware gather AND scatter
// instructions (_mm512_i32logather_pd / i32scatter_pd in the paper). The
// permute coloring schemes only become interesting on this ISA.
// Wrappers whose plain intrinsic seeds its merge source with an
// _mm512_undefined_*() value (GCC reports it as maybe-uninitialized) are
// spelled with an explicit source or zero-masking under a full mask.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <numeric>

#if defined(__AVX512F__) && defined(__AVX2__)
#include <immintrin.h>

#include "simd/vec_avx2.hpp"
#include "simd/vec_portable.hpp"

namespace opv::simd {

// ---- masks: native k-registers -------------------------------------------

/// 8-lane mask backed by a __mmask8 k-register.
struct MaskK8 {
  static constexpr int width = 8;
  __mmask8 m;
  MaskK8() : m(0) {}
  explicit MaskK8(__mmask8 r) : m(r) {}
  friend MaskK8 operator&(MaskK8 a, MaskK8 b) { return MaskK8{static_cast<__mmask8>(a.m & b.m)}; }
  friend MaskK8 operator|(MaskK8 a, MaskK8 b) { return MaskK8{static_cast<__mmask8>(a.m | b.m)}; }
  friend MaskK8 operator^(MaskK8 a, MaskK8 b) { return MaskK8{static_cast<__mmask8>(a.m ^ b.m)}; }
  friend MaskK8 operator!(MaskK8 a) { return MaskK8{static_cast<__mmask8>(~a.m)}; }
  bool operator[](int i) const { return (m >> i) & 1; }
};
inline unsigned to_bits(MaskK8 a) { return a.m; }
inline bool any(MaskK8 a) { return a.m != 0; }
inline bool all(MaskK8 a) { return a.m == 0xFFu; }

/// 16-lane mask backed by a __mmask16 k-register.
struct MaskK16 {
  static constexpr int width = 16;
  __mmask16 m;
  MaskK16() : m(0) {}
  explicit MaskK16(__mmask16 r) : m(r) {}
  friend MaskK16 operator&(MaskK16 a, MaskK16 b) {
    return MaskK16{static_cast<__mmask16>(a.m & b.m)};
  }
  friend MaskK16 operator|(MaskK16 a, MaskK16 b) {
    return MaskK16{static_cast<__mmask16>(a.m | b.m)};
  }
  friend MaskK16 operator^(MaskK16 a, MaskK16 b) {
    return MaskK16{static_cast<__mmask16>(a.m ^ b.m)};
  }
  friend MaskK16 operator!(MaskK16 a) { return MaskK16{static_cast<__mmask16>(~a.m)}; }
  bool operator[](int i) const { return (m >> i) & 1; }
};
inline unsigned to_bits(MaskK16 a) { return a.m; }
inline bool any(MaskK16 a) { return a.m != 0; }
inline bool all(MaskK16 a) { return a.m == 0xFFFFu; }

struct F64x8;
struct F32x16;
struct I32x16;

// ---- F64x8 -----------------------------------------------------------------

/// 8 x double in a 512-bit register — the paper's F64vec8 (IMCI).
struct F64x8 {
  using value_type = double;
  using mask_type = MaskK8;
  using index_type = I32x8;  // 8 x int32 in a 256-bit register
  static constexpr int width = 8;
  __m512d v;

  F64x8() : v(_mm512_setzero_pd()) {}
  F64x8(double x) : v(_mm512_set1_pd(x)) {}  // NOLINT broadcast
  explicit F64x8(__m512d r) : v(r) {}

  static F64x8 loadu(const double* p) { return F64x8{_mm512_loadu_pd(p)}; }
  static F64x8 loada(const double* p) { return F64x8{_mm512_load_pd(p)}; }
  /// The paper's _mm512_i32logather_pd: 32-bit indices gathering doubles.
  static F64x8 gather(const double* base, I32x8 idx) {
    return F64x8{_mm512_mask_i32gather_pd(_mm512_setzero_pd(), 0xFF, idx.v, base, 8)};
  }
  static F64x8 gather_masked(const double* base, I32x8 idx, MaskK8 m, F64x8 fb) {
    return F64x8{_mm512_mask_i32gather_pd(fb.v, m.m, idx.v, base, 8)};
  }
  static F64x8 strided(const double* p, int s) {
    return F64x8{_mm512_setr_pd(p[0], p[s], p[2 * s], p[3 * s], p[4 * s], p[5 * s], p[6 * s],
                                p[7 * s])};
  }
  static F64x8 iota(double s = 0.0) {
    return F64x8{_mm512_setr_pd(s, s + 1, s + 2, s + 3, s + 4, s + 5, s + 6, s + 7)};
  }

  double operator[](int i) const {
    alignas(64) double t[8];
    _mm512_store_pd(t, v);
    return t[i];
  }
  std::array<double, 8> to_array() const {
    alignas(64) double t[8];
    _mm512_store_pd(t, v);
    std::array<double, 8> a;
    for (int i = 0; i < 8; ++i) a[i] = t[i];
    return a;
  }

  F64x8& operator+=(F64x8 o) {
    v = _mm512_add_pd(v, o.v);
    return *this;
  }
  F64x8& operator-=(F64x8 o) {
    v = _mm512_sub_pd(v, o.v);
    return *this;
  }
  F64x8& operator*=(F64x8 o) {
    v = _mm512_mul_pd(v, o.v);
    return *this;
  }
  F64x8& operator/=(F64x8 o) {
    v = _mm512_div_pd(v, o.v);
    return *this;
  }

  friend F64x8 operator+(F64x8 a, F64x8 b) { return F64x8{_mm512_add_pd(a.v, b.v)}; }
  friend F64x8 operator-(F64x8 a, F64x8 b) { return F64x8{_mm512_sub_pd(a.v, b.v)}; }
  friend F64x8 operator*(F64x8 a, F64x8 b) { return F64x8{_mm512_mul_pd(a.v, b.v)}; }
  friend F64x8 operator/(F64x8 a, F64x8 b) { return F64x8{_mm512_div_pd(a.v, b.v)}; }
  friend F64x8 operator-(F64x8 a) { return F64x8{_mm512_sub_pd(_mm512_setzero_pd(), a.v)}; }

  friend MaskK8 operator<(F64x8 a, F64x8 b) {
    return MaskK8{_mm512_cmp_pd_mask(a.v, b.v, _CMP_LT_OQ)};
  }
  friend MaskK8 operator<=(F64x8 a, F64x8 b) {
    return MaskK8{_mm512_cmp_pd_mask(a.v, b.v, _CMP_LE_OQ)};
  }
  friend MaskK8 operator>(F64x8 a, F64x8 b) {
    return MaskK8{_mm512_cmp_pd_mask(a.v, b.v, _CMP_GT_OQ)};
  }
  friend MaskK8 operator>=(F64x8 a, F64x8 b) {
    return MaskK8{_mm512_cmp_pd_mask(a.v, b.v, _CMP_GE_OQ)};
  }
  friend MaskK8 operator==(F64x8 a, F64x8 b) {
    return MaskK8{_mm512_cmp_pd_mask(a.v, b.v, _CMP_EQ_OQ)};
  }
  friend MaskK8 operator!=(F64x8 a, F64x8 b) {
    return MaskK8{_mm512_cmp_pd_mask(a.v, b.v, _CMP_NEQ_UQ)};
  }
};

inline void storeu(double* p, F64x8 a) { _mm512_storeu_pd(p, a.v); }
inline void storea(double* p, F64x8 a) { _mm512_store_pd(p, a.v); }
inline void store_strided(double* p, int s, F64x8 a) {
  alignas(64) double t[8];
  _mm512_store_pd(t, a.v);
  for (int i = 0; i < 8; ++i) p[i * s] = t[i];
}
inline void scatter_serial(double* base, I32x8 idx, F64x8 a) {
  alignas(64) double t[8];
  alignas(32) std::int32_t ix[8];
  _mm512_store_pd(t, a.v);
  _mm256_store_si256(reinterpret_cast<__m256i*>(ix), idx.v);
  for (int i = 0; i < 8; ++i) base[ix[i]] = t[i];
}
inline void scatter_add_serial(double* base, I32x8 idx, F64x8 a) {
  alignas(64) double t[8];
  alignas(32) std::int32_t ix[8];
  _mm512_store_pd(t, a.v);
  _mm256_store_si256(reinterpret_cast<__m256i*>(ix), idx.v);
  for (int i = 0; i < 8; ++i) base[ix[i]] += t[i];
}
/// Real hardware scatter-add (gather + add + _mm512_i32scatter_pd).
/// Lane indices MUST be unique (permute colorings guarantee this).
inline void scatter_add_hw(double* base, I32x8 idx, F64x8 a) {
  F64x8 cur = F64x8::gather(base, idx);
  cur += a;
  _mm512_i32scatter_pd(base, idx.v, cur.v, 8);
}
inline void scatter_add_serial_masked(double* base, I32x8 idx, F64x8 a, MaskK8 m) {
  alignas(64) double t[8];
  alignas(32) std::int32_t ix[8];
  _mm512_store_pd(t, a.v);
  _mm256_store_si256(reinterpret_cast<__m256i*>(ix), idx.v);
  for (int i = 0; i < 8; ++i)
    if ((m.m >> i) & 1) base[ix[i]] += t[i];
}

inline F64x8 select(MaskK8 m, F64x8 a, F64x8 b) {
  return F64x8{_mm512_mask_blend_pd(m.m, b.v, a.v)};
}
inline F64x8 min(F64x8 a, F64x8 b) { return F64x8{_mm512_maskz_min_pd(0xFF, a.v, b.v)}; }
inline F64x8 max(F64x8 a, F64x8 b) { return F64x8{_mm512_maskz_max_pd(0xFF, a.v, b.v)}; }
inline F64x8 abs(F64x8 a) { return F64x8{_mm512_abs_pd(a.v)}; }
inline F64x8 sqrt(F64x8 a) { return F64x8{_mm512_maskz_sqrt_pd(0xFF, a.v)}; }
inline F64x8 fma(F64x8 a, F64x8 b, F64x8 c) { return F64x8{_mm512_fmadd_pd(a.v, b.v, c.v)}; }

namespace avx512_detail {
/// A two-operand intrinsic as a callable.
#define OPV_AVX512_OP(f) [](auto x, auto y) { return f(x, y); }

// The horizontal reductions of GCC's _mm512_reduce_*, in their lane pairing
// and operand order (high 256 bits op low, high 128 op low, then
// neighbouring lanes), spelled with zero-masked 256-bit extracts.
inline __m256d half(__m512d a, int hi) {
  return hi ? _mm512_maskz_extractf64x4_pd(0xFF, a, 1) : _mm512_maskz_extractf64x4_pd(0xFF, a, 0);
}
template <class Op256, class Op128>
inline double reduce(__m512d a, Op256 op256, Op128 op128) {
  const __m256d t = op256(half(a, 1), half(a, 0));
  const __m128d u = op128(_mm256_extractf128_pd(t, 1), _mm256_castpd256_pd128(t));
  return _mm_cvtsd_f64(op128(u, _mm_shuffle_pd(u, u, 1)));
}
template <class Op256, class Op128>
inline float reduce(__m512 a, Op256 op256, Op128 op128) {
  const __m512d d = _mm512_castps_pd(a);
  const __m256 t = op256(_mm256_castpd_ps(half(d, 1)), _mm256_castpd_ps(half(d, 0)));
  __m128 u = op128(_mm256_extractf128_ps(t, 1), _mm256_castps256_ps128(t));
  u = op128(u, _mm_shuffle_ps(u, u, 0x4E));
  return _mm_cvtss_f32(op128(u, _mm_shuffle_ps(u, u, 0x11)));
}
}  // namespace avx512_detail

inline double hsum(F64x8 a) {
  return avx512_detail::reduce(a.v, OPV_AVX512_OP(_mm256_add_pd), OPV_AVX512_OP(_mm_add_pd));
}
inline double hmin(F64x8 a) {
  return avx512_detail::reduce(a.v, OPV_AVX512_OP(_mm256_min_pd), OPV_AVX512_OP(_mm_min_pd));
}
inline double hmax(F64x8 a) {
  return avx512_detail::reduce(a.v, OPV_AVX512_OP(_mm256_max_pd), OPV_AVX512_OP(_mm_max_pd));
}


// ---- I32x16 ----------------------------------------------------------------

/// 16 x int32 in a 512-bit register (index vector for F32x16).
struct I32x16 {
  using value_type = std::int32_t;
  using mask_type = MaskK16;
  using index_type = I32x16;
  static constexpr int width = 16;
  __m512i v;

  I32x16() : v(_mm512_setzero_si512()) {}
  I32x16(std::int32_t x) : v(_mm512_set1_epi32(x)) {}  // NOLINT broadcast
  explicit I32x16(__m512i r) : v(r) {}

  static I32x16 loadu(const std::int32_t* p) { return I32x16{_mm512_loadu_si512(p)}; }
  static I32x16 loada(const std::int32_t* p) { return I32x16{_mm512_load_si512(p)}; }
  static I32x16 gather(const std::int32_t* base, I32x16 idx) {
    return I32x16{_mm512_mask_i32gather_epi32(_mm512_setzero_si512(), 0xFFFF, idx.v, base, 4)};
  }
  static I32x16 gather_masked(const std::int32_t* base, I32x16 idx, MaskK16 m, I32x16 fb) {
    return I32x16{_mm512_mask_i32gather_epi32(fb.v, m.m, idx.v, base, 4)};
  }
  static I32x16 strided(const std::int32_t* p, int s) {
    alignas(64) std::int32_t t[16];
    for (int i = 0; i < 16; ++i) t[i] = p[i * s];
    return loada(t);
  }
  static I32x16 iota(std::int32_t s = 0) {
    alignas(64) std::int32_t t[16];
    for (int i = 0; i < 16; ++i) t[i] = s + i;
    return loada(t);
  }

  std::int32_t operator[](int i) const {
    alignas(64) std::int32_t t[16];
    _mm512_store_si512(t, v);
    return t[i];
  }
  std::array<std::int32_t, 16> to_array() const {
    alignas(64) std::int32_t t[16];
    _mm512_store_si512(t, v);
    std::array<std::int32_t, 16> a;
    for (int i = 0; i < 16; ++i) a[i] = t[i];
    return a;
  }

  friend I32x16 operator+(I32x16 a, I32x16 b) { return I32x16{_mm512_add_epi32(a.v, b.v)}; }
  friend I32x16 operator-(I32x16 a, I32x16 b) { return I32x16{_mm512_sub_epi32(a.v, b.v)}; }
  friend I32x16 operator*(I32x16 a, I32x16 b) { return I32x16{_mm512_mullo_epi32(a.v, b.v)}; }
  I32x16& operator+=(I32x16 o) {
    v = _mm512_add_epi32(v, o.v);
    return *this;
  }

  friend MaskK16 operator==(I32x16 a, I32x16 b) {
    return MaskK16{_mm512_cmpeq_epi32_mask(a.v, b.v)};
  }
  friend MaskK16 operator<(I32x16 a, I32x16 b) {
    return MaskK16{_mm512_cmplt_epi32_mask(a.v, b.v)};
  }
  friend MaskK16 operator>(I32x16 a, I32x16 b) { return b < a; }
  friend MaskK16 operator!=(I32x16 a, I32x16 b) { return !(a == b); }
};

inline void storeu(std::int32_t* p, I32x16 a) { _mm512_storeu_si512(p, a.v); }
inline I32x16 select(MaskK16 m, I32x16 a, I32x16 b) {
  return I32x16{_mm512_mask_blend_epi32(m.m, b.v, a.v)};
}
inline I32x16 min(I32x16 a, I32x16 b) { return I32x16{_mm512_maskz_min_epi32(0xFFFF, a.v, b.v)}; }
inline I32x16 max(I32x16 a, I32x16 b) { return I32x16{_mm512_maskz_max_epi32(0xFFFF, a.v, b.v)}; }
inline void store_strided(std::int32_t* p, int s, I32x16 a) {
  const auto t = a.to_array();
  for (int i = 0; i < 16; ++i) p[i * s] = t[i];
}
inline void scatter_serial(std::int32_t* base, I32x16 idx, I32x16 a) {
  const auto t = a.to_array();
  const auto ix = idx.to_array();
  for (int i = 0; i < 16; ++i) base[ix[i]] = t[i];
}
inline void scatter_add_serial(std::int32_t* base, I32x16 idx, I32x16 a) {
  const auto t = a.to_array();
  const auto ix = idx.to_array();
  for (int i = 0; i < 16; ++i) base[ix[i]] += t[i];
}
inline void scatter_add_hw(std::int32_t* base, I32x16 idx, I32x16 a) {
  const I32x16 cur = I32x16::gather(base, idx);
  _mm512_i32scatter_epi32(base, idx.v, (cur + a).v, 4);
}
inline void scatter_add_serial_masked(std::int32_t* base, I32x16 idx, I32x16 a, MaskK16 m) {
  const auto t = a.to_array();
  const auto ix = idx.to_array();
  for (int i = 0; i < 16; ++i)
    if ((m.m >> i) & 1) base[ix[i]] += t[i];
}
// Integer reductions are exact in any order.
inline std::int32_t hsum(I32x16 a) {
  const auto t = a.to_array();
  return std::accumulate(t.begin(), t.end(), std::int32_t{0});
}
inline std::int32_t hmin(I32x16 a) {
  const auto t = a.to_array();
  return *std::min_element(t.begin(), t.end());
}
inline std::int32_t hmax(I32x16 a) {
  const auto t = a.to_array();
  return *std::max_element(t.begin(), t.end());
}

// ---- F32x16 ----------------------------------------------------------------

/// 16 x float in a 512-bit register — the Phi's SP vector width.
struct F32x16 {
  using value_type = float;
  using mask_type = MaskK16;
  using index_type = I32x16;
  static constexpr int width = 16;
  __m512 v;

  F32x16() : v(_mm512_setzero_ps()) {}
  F32x16(float x) : v(_mm512_set1_ps(x)) {}  // NOLINT broadcast
  explicit F32x16(__m512 r) : v(r) {}

  static F32x16 loadu(const float* p) { return F32x16{_mm512_loadu_ps(p)}; }
  static F32x16 loada(const float* p) { return F32x16{_mm512_load_ps(p)}; }
  static F32x16 gather(const float* base, I32x16 idx) {
    return F32x16{_mm512_mask_i32gather_ps(_mm512_setzero_ps(), 0xFFFF, idx.v, base, 4)};
  }
  static F32x16 gather_masked(const float* base, I32x16 idx, MaskK16 m, F32x16 fb) {
    return F32x16{_mm512_mask_i32gather_ps(fb.v, m.m, idx.v, base, 4)};
  }
  static F32x16 strided(const float* p, int s) {
    alignas(64) float t[16];
    for (int i = 0; i < 16; ++i) t[i] = p[i * s];
    return loada(t);
  }
  static F32x16 iota(float s = 0.f) {
    alignas(64) float t[16];
    for (int i = 0; i < 16; ++i) t[i] = s + static_cast<float>(i);
    return loada(t);
  }

  float operator[](int i) const {
    alignas(64) float t[16];
    _mm512_store_ps(t, v);
    return t[i];
  }
  std::array<float, 16> to_array() const {
    alignas(64) float t[16];
    _mm512_store_ps(t, v);
    std::array<float, 16> a;
    for (int i = 0; i < 16; ++i) a[i] = t[i];
    return a;
  }

  F32x16& operator+=(F32x16 o) {
    v = _mm512_add_ps(v, o.v);
    return *this;
  }
  F32x16& operator-=(F32x16 o) {
    v = _mm512_sub_ps(v, o.v);
    return *this;
  }
  F32x16& operator*=(F32x16 o) {
    v = _mm512_mul_ps(v, o.v);
    return *this;
  }
  F32x16& operator/=(F32x16 o) {
    v = _mm512_div_ps(v, o.v);
    return *this;
  }

  friend F32x16 operator+(F32x16 a, F32x16 b) { return F32x16{_mm512_add_ps(a.v, b.v)}; }
  friend F32x16 operator-(F32x16 a, F32x16 b) { return F32x16{_mm512_sub_ps(a.v, b.v)}; }
  friend F32x16 operator*(F32x16 a, F32x16 b) { return F32x16{_mm512_mul_ps(a.v, b.v)}; }
  friend F32x16 operator/(F32x16 a, F32x16 b) { return F32x16{_mm512_div_ps(a.v, b.v)}; }
  friend F32x16 operator-(F32x16 a) { return F32x16{_mm512_sub_ps(_mm512_setzero_ps(), a.v)}; }

  friend MaskK16 operator<(F32x16 a, F32x16 b) {
    return MaskK16{_mm512_cmp_ps_mask(a.v, b.v, _CMP_LT_OQ)};
  }
  friend MaskK16 operator<=(F32x16 a, F32x16 b) {
    return MaskK16{_mm512_cmp_ps_mask(a.v, b.v, _CMP_LE_OQ)};
  }
  friend MaskK16 operator>(F32x16 a, F32x16 b) {
    return MaskK16{_mm512_cmp_ps_mask(a.v, b.v, _CMP_GT_OQ)};
  }
  friend MaskK16 operator>=(F32x16 a, F32x16 b) {
    return MaskK16{_mm512_cmp_ps_mask(a.v, b.v, _CMP_GE_OQ)};
  }
  friend MaskK16 operator==(F32x16 a, F32x16 b) {
    return MaskK16{_mm512_cmp_ps_mask(a.v, b.v, _CMP_EQ_OQ)};
  }
  friend MaskK16 operator!=(F32x16 a, F32x16 b) {
    return MaskK16{_mm512_cmp_ps_mask(a.v, b.v, _CMP_NEQ_UQ)};
  }
};

inline void storeu(float* p, F32x16 a) { _mm512_storeu_ps(p, a.v); }
inline void storea(float* p, F32x16 a) { _mm512_store_ps(p, a.v); }
inline void store_strided(float* p, int s, F32x16 a) {
  alignas(64) float t[16];
  _mm512_store_ps(t, a.v);
  for (int i = 0; i < 16; ++i) p[i * s] = t[i];
}
inline void scatter_serial(float* base, I32x16 idx, F32x16 a) {
  alignas(64) float t[16];
  alignas(64) std::int32_t ix[16];
  _mm512_store_ps(t, a.v);
  _mm512_store_si512(ix, idx.v);
  for (int i = 0; i < 16; ++i) base[ix[i]] = t[i];
}
inline void scatter_add_serial(float* base, I32x16 idx, F32x16 a) {
  alignas(64) float t[16];
  alignas(64) std::int32_t ix[16];
  _mm512_store_ps(t, a.v);
  _mm512_store_si512(ix, idx.v);
  for (int i = 0; i < 16; ++i) base[ix[i]] += t[i];
}
/// Real hardware scatter-add. Lane indices MUST be unique.
inline void scatter_add_hw(float* base, I32x16 idx, F32x16 a) {
  F32x16 cur = F32x16::gather(base, idx);
  cur += a;
  _mm512_i32scatter_ps(base, idx.v, cur.v, 4);
}
inline void scatter_add_serial_masked(float* base, I32x16 idx, F32x16 a, MaskK16 m) {
  alignas(64) float t[16];
  alignas(64) std::int32_t ix[16];
  _mm512_store_ps(t, a.v);
  _mm512_store_si512(ix, idx.v);
  for (int i = 0; i < 16; ++i)
    if ((m.m >> i) & 1) base[ix[i]] += t[i];
}

inline F32x16 select(MaskK16 m, F32x16 a, F32x16 b) {
  return F32x16{_mm512_mask_blend_ps(m.m, b.v, a.v)};
}
inline F32x16 min(F32x16 a, F32x16 b) { return F32x16{_mm512_maskz_min_ps(0xFFFF, a.v, b.v)}; }
inline F32x16 max(F32x16 a, F32x16 b) { return F32x16{_mm512_maskz_max_ps(0xFFFF, a.v, b.v)}; }
inline F32x16 abs(F32x16 a) { return F32x16{_mm512_abs_ps(a.v)}; }
inline F32x16 sqrt(F32x16 a) { return F32x16{_mm512_maskz_sqrt_ps(0xFFFF, a.v)}; }
inline F32x16 fma(F32x16 a, F32x16 b, F32x16 c) { return F32x16{_mm512_fmadd_ps(a.v, b.v, c.v)}; }
inline float hsum(F32x16 a) {
  return avx512_detail::reduce(a.v, OPV_AVX512_OP(_mm256_add_ps), OPV_AVX512_OP(_mm_add_ps));
}
inline float hmin(F32x16 a) {
  return avx512_detail::reduce(a.v, OPV_AVX512_OP(_mm256_min_ps), OPV_AVX512_OP(_mm_min_ps));
}
inline float hmax(F32x16 a) {
  return avx512_detail::reduce(a.v, OPV_AVX512_OP(_mm256_max_ps), OPV_AVX512_OP(_mm_max_ps));
}

// ---- mask conversions -------------------------------------------------------

/// int32 (256-bit, AVX2-style mask) comparison -> F64x8 k-mask.
inline MaskK8 mask_to_f64x8(MaskI32x8 m) {
  return MaskK8{static_cast<__mmask8>(
      _mm256_movemask_ps(_mm256_castsi256_ps(m.m)))};
}
/// I32x16 k-mask -> F32x16 k-mask: identical representation.
inline MaskK16 mask_to_f32x16(MaskK16 m) { return m; }

/// Tail mask with the first n of 8 lanes active.
inline MaskK8 tail_mask_k8(int n) { return MaskK8{static_cast<__mmask8>((1u << n) - 1u)}; }
/// Tail mask with the first n of 16 lanes active.
inline MaskK16 tail_mask_k16(int n) { return MaskK16{static_cast<__mmask16>((1u << n) - 1u)}; }

#undef OPV_AVX512_OP

}  // namespace opv::simd

#endif  // __AVX512F__ && __AVX2__
