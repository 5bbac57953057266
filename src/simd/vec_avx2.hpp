// AVX2 (256-bit) specializations of the vector classes — the reproduction of
// the paper's F64vec4/F32vec8 wrapper classes built on dvec.h (Figure 4a).
// AVX2 has hardware *gather* but no scatter; scatter_add_hw is therefore an
// extract-based emulation, matching the paper's observation that the permute
// colorings only pay off on hardware with real scatter (IMCI / AVX-512).
#pragma once

#include <array>
#include <cstdint>

#if defined(__AVX2__)
#include <immintrin.h>

#include "simd/vec_portable.hpp"

namespace opv::simd {

struct F64x4;
struct F32x8;
struct I32x4;
struct I32x8;

// ---- masks -------------------------------------------------------------

/// 4-lane double mask held as an all-ones/all-zeros __m256d.
struct MaskF64x4 {
  using value_type = double;
  static constexpr int width = 4;
  __m256d m;
  MaskF64x4() : m(_mm256_setzero_pd()) {}
  explicit MaskF64x4(__m256d r) : m(r) {}
  friend MaskF64x4 operator&(MaskF64x4 a, MaskF64x4 b) {
    return MaskF64x4{_mm256_and_pd(a.m, b.m)};
  }
  friend MaskF64x4 operator|(MaskF64x4 a, MaskF64x4 b) {
    return MaskF64x4{_mm256_or_pd(a.m, b.m)};
  }
  friend MaskF64x4 operator^(MaskF64x4 a, MaskF64x4 b) {
    return MaskF64x4{_mm256_xor_pd(a.m, b.m)};
  }
  friend MaskF64x4 operator!(MaskF64x4 a) {
    return MaskF64x4{_mm256_xor_pd(a.m, _mm256_castsi256_pd(_mm256_set1_epi64x(-1)))};
  }
  bool operator[](int i) const { return (_mm256_movemask_pd(m) >> i) & 1; }
};
inline unsigned to_bits(MaskF64x4 a) { return static_cast<unsigned>(_mm256_movemask_pd(a.m)); }
inline bool any(MaskF64x4 a) { return to_bits(a) != 0; }
inline bool all(MaskF64x4 a) { return to_bits(a) == 0xFu; }

/// 8-lane float mask held as an all-ones/all-zeros __m256.
struct MaskF32x8 {
  using value_type = float;
  static constexpr int width = 8;
  __m256 m;
  MaskF32x8() : m(_mm256_setzero_ps()) {}
  explicit MaskF32x8(__m256 r) : m(r) {}
  friend MaskF32x8 operator&(MaskF32x8 a, MaskF32x8 b) {
    return MaskF32x8{_mm256_and_ps(a.m, b.m)};
  }
  friend MaskF32x8 operator|(MaskF32x8 a, MaskF32x8 b) {
    return MaskF32x8{_mm256_or_ps(a.m, b.m)};
  }
  friend MaskF32x8 operator^(MaskF32x8 a, MaskF32x8 b) {
    return MaskF32x8{_mm256_xor_ps(a.m, b.m)};
  }
  friend MaskF32x8 operator!(MaskF32x8 a) {
    return MaskF32x8{_mm256_xor_ps(a.m, _mm256_castsi256_ps(_mm256_set1_epi32(-1)))};
  }
  bool operator[](int i) const { return (_mm256_movemask_ps(m) >> i) & 1; }
};
inline unsigned to_bits(MaskF32x8 a) { return static_cast<unsigned>(_mm256_movemask_ps(a.m)); }
inline bool any(MaskF32x8 a) { return to_bits(a) != 0; }
inline bool all(MaskF32x8 a) { return to_bits(a) == 0xFFu; }

/// 4-lane int32 mask held as an all-ones/all-zeros __m128i.
struct MaskI32x4 {
  using value_type = std::int32_t;
  static constexpr int width = 4;
  __m128i m;
  MaskI32x4() : m(_mm_setzero_si128()) {}
  explicit MaskI32x4(__m128i r) : m(r) {}
  friend MaskI32x4 operator&(MaskI32x4 a, MaskI32x4 b) {
    return MaskI32x4{_mm_and_si128(a.m, b.m)};
  }
  friend MaskI32x4 operator|(MaskI32x4 a, MaskI32x4 b) {
    return MaskI32x4{_mm_or_si128(a.m, b.m)};
  }
  friend MaskI32x4 operator!(MaskI32x4 a) {
    return MaskI32x4{_mm_xor_si128(a.m, _mm_set1_epi32(-1))};
  }
  bool operator[](int i) const {
    return (_mm_movemask_ps(_mm_castsi128_ps(m)) >> i) & 1;
  }
};
inline unsigned to_bits(MaskI32x4 a) {
  return static_cast<unsigned>(_mm_movemask_ps(_mm_castsi128_ps(a.m)));
}
inline bool any(MaskI32x4 a) { return to_bits(a) != 0; }
inline bool all(MaskI32x4 a) { return to_bits(a) == 0xFu; }

/// 8-lane int32 mask held as an all-ones/all-zeros __m256i.
struct MaskI32x8 {
  using value_type = std::int32_t;
  static constexpr int width = 8;
  __m256i m;
  MaskI32x8() : m(_mm256_setzero_si256()) {}
  explicit MaskI32x8(__m256i r) : m(r) {}
  friend MaskI32x8 operator&(MaskI32x8 a, MaskI32x8 b) {
    return MaskI32x8{_mm256_and_si256(a.m, b.m)};
  }
  friend MaskI32x8 operator|(MaskI32x8 a, MaskI32x8 b) {
    return MaskI32x8{_mm256_or_si256(a.m, b.m)};
  }
  friend MaskI32x8 operator!(MaskI32x8 a) {
    return MaskI32x8{_mm256_xor_si256(a.m, _mm256_set1_epi32(-1))};
  }
  bool operator[](int i) const {
    return (_mm256_movemask_ps(_mm256_castsi256_ps(m)) >> i) & 1;
  }
};
inline unsigned to_bits(MaskI32x8 a) {
  return static_cast<unsigned>(_mm256_movemask_ps(_mm256_castsi256_ps(a.m)));
}
inline bool any(MaskI32x8 a) { return to_bits(a) != 0; }
inline bool all(MaskI32x8 a) { return to_bits(a) == 0xFFu; }

// ---- int index vectors --------------------------------------------------

/// 4 x int32 (index vector for F64x4).
struct I32x4 {
  using value_type = std::int32_t;
  using mask_type = MaskI32x4;
  using index_type = I32x4;
  static constexpr int width = 4;
  __m128i v;

  I32x4() : v(_mm_setzero_si128()) {}
  I32x4(std::int32_t x) : v(_mm_set1_epi32(x)) {}  // NOLINT broadcast
  explicit I32x4(__m128i r) : v(r) {}

  static I32x4 loadu(const std::int32_t* p) {
    return I32x4{_mm_loadu_si128(reinterpret_cast<const __m128i*>(p))};
  }
  static I32x4 loada(const std::int32_t* p) { return loadu(p); }
  static I32x4 gather(const std::int32_t* base, I32x4 idx) {
    return I32x4{_mm_i32gather_epi32(base, idx.v, 4)};
  }
  static I32x4 gather_masked(const std::int32_t* base, I32x4 idx, MaskI32x4 m, I32x4 fb) {
    return I32x4{_mm_mask_i32gather_epi32(fb.v, base, idx.v, m.m, 4)};
  }
  static I32x4 strided(const std::int32_t* p, int s) {
    return I32x4{_mm_setr_epi32(p[0], p[s], p[2 * s], p[3 * s])};
  }
  static I32x4 iota(std::int32_t s = 0) { return I32x4{_mm_setr_epi32(s, s + 1, s + 2, s + 3)}; }

  std::int32_t operator[](int i) const {
    alignas(16) std::int32_t t[4];
    _mm_store_si128(reinterpret_cast<__m128i*>(t), v);
    return t[i];
  }
  std::array<std::int32_t, 4> to_array() const {
    alignas(16) std::int32_t t[4];
    _mm_store_si128(reinterpret_cast<__m128i*>(t), v);
    return {t[0], t[1], t[2], t[3]};
  }

  friend I32x4 operator+(I32x4 a, I32x4 b) { return I32x4{_mm_add_epi32(a.v, b.v)}; }
  friend I32x4 operator-(I32x4 a, I32x4 b) { return I32x4{_mm_sub_epi32(a.v, b.v)}; }
  friend I32x4 operator*(I32x4 a, I32x4 b) { return I32x4{_mm_mullo_epi32(a.v, b.v)}; }
  friend I32x4 operator>>(I32x4 a, int s) { return I32x4{_mm_srai_epi32(a.v, s)}; }
  I32x4& operator+=(I32x4 o) {
    v = _mm_add_epi32(v, o.v);
    return *this;
  }

  friend MaskI32x4 operator==(I32x4 a, I32x4 b) { return MaskI32x4{_mm_cmpeq_epi32(a.v, b.v)}; }
  friend MaskI32x4 operator<(I32x4 a, I32x4 b) { return MaskI32x4{_mm_cmplt_epi32(a.v, b.v)}; }
  friend MaskI32x4 operator>(I32x4 a, I32x4 b) { return MaskI32x4{_mm_cmpgt_epi32(a.v, b.v)}; }
  friend MaskI32x4 operator!=(I32x4 a, I32x4 b) { return !(a == b); }
};

/// 8 x int32 (index vector for F32x8 and for AVX-512 F64x8).
struct I32x8 {
  using value_type = std::int32_t;
  using mask_type = MaskI32x8;
  using index_type = I32x8;
  static constexpr int width = 8;
  __m256i v;

  I32x8() : v(_mm256_setzero_si256()) {}
  I32x8(std::int32_t x) : v(_mm256_set1_epi32(x)) {}  // NOLINT broadcast
  explicit I32x8(__m256i r) : v(r) {}

  static I32x8 loadu(const std::int32_t* p) {
    return I32x8{_mm256_loadu_si256(reinterpret_cast<const __m256i*>(p))};
  }
  static I32x8 loada(const std::int32_t* p) { return loadu(p); }
  static I32x8 gather(const std::int32_t* base, I32x8 idx) {
    return I32x8{_mm256_i32gather_epi32(base, idx.v, 4)};
  }
  static I32x8 gather_masked(const std::int32_t* base, I32x8 idx, MaskI32x8 m, I32x8 fb) {
    return I32x8{_mm256_mask_i32gather_epi32(fb.v, base, idx.v, m.m, 4)};
  }
  static I32x8 strided(const std::int32_t* p, int s) {
    return I32x8{_mm256_setr_epi32(p[0], p[s], p[2 * s], p[3 * s], p[4 * s], p[5 * s], p[6 * s],
                                   p[7 * s])};
  }
  static I32x8 iota(std::int32_t s = 0) {
    return I32x8{_mm256_setr_epi32(s, s + 1, s + 2, s + 3, s + 4, s + 5, s + 6, s + 7)};
  }

  std::int32_t operator[](int i) const {
    alignas(32) std::int32_t t[8];
    _mm256_store_si256(reinterpret_cast<__m256i*>(t), v);
    return t[i];
  }
  std::array<std::int32_t, 8> to_array() const {
    alignas(32) std::int32_t t[8];
    _mm256_store_si256(reinterpret_cast<__m256i*>(t), v);
    std::array<std::int32_t, 8> a;
    for (int i = 0; i < 8; ++i) a[i] = t[i];
    return a;
  }

  friend I32x8 operator+(I32x8 a, I32x8 b) { return I32x8{_mm256_add_epi32(a.v, b.v)}; }
  friend I32x8 operator-(I32x8 a, I32x8 b) { return I32x8{_mm256_sub_epi32(a.v, b.v)}; }
  friend I32x8 operator*(I32x8 a, I32x8 b) { return I32x8{_mm256_mullo_epi32(a.v, b.v)}; }
  friend I32x8 operator>>(I32x8 a, int s) { return I32x8{_mm256_srai_epi32(a.v, s)}; }
  I32x8& operator+=(I32x8 o) {
    v = _mm256_add_epi32(v, o.v);
    return *this;
  }

  friend MaskI32x8 operator==(I32x8 a, I32x8 b) {
    return MaskI32x8{_mm256_cmpeq_epi32(a.v, b.v)};
  }
  friend MaskI32x8 operator>(I32x8 a, I32x8 b) { return MaskI32x8{_mm256_cmpgt_epi32(a.v, b.v)}; }
  friend MaskI32x8 operator<(I32x8 a, I32x8 b) { return b > a; }
  friend MaskI32x8 operator!=(I32x8 a, I32x8 b) { return !(a == b); }
};

// ---- F64x4 ---------------------------------------------------------------

/// 4 x double in a 256-bit AVX register — the paper's F64vec4.
struct F64x4 {
  using value_type = double;
  using mask_type = MaskF64x4;
  using index_type = I32x4;
  static constexpr int width = 4;
  __m256d v;

  F64x4() : v(_mm256_setzero_pd()) {}
  F64x4(double x) : v(_mm256_set1_pd(x)) {}  // NOLINT broadcast, mirrors dvec.h
  explicit F64x4(__m256d r) : v(r) {}

  static F64x4 loadu(const double* p) { return F64x4{_mm256_loadu_pd(p)}; }
  static F64x4 loada(const double* p) { return F64x4{_mm256_load_pd(p)}; }
  static F64x4 gather(const double* base, I32x4 idx) {
    // Explicit source and full mask: the plain intrinsic seeds its merge
    // source with _mm256_undefined_pd(), a GCC maybe-uninitialized report.
    const __m256d all = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
    return F64x4{_mm256_mask_i32gather_pd(_mm256_setzero_pd(), base, idx.v, all, 8)};
  }
  static F64x4 gather_masked(const double* base, I32x4 idx, MaskF64x4 m, F64x4 fb) {
    return F64x4{_mm256_mask_i32gather_pd(fb.v, base, idx.v, m.m, 8)};
  }
  static F64x4 strided(const double* p, int s) {
    return F64x4{_mm256_setr_pd(p[0], p[s], p[2 * s], p[3 * s])};
  }
  static F64x4 iota(double s = 0.0) { return F64x4{_mm256_setr_pd(s, s + 1, s + 2, s + 3)}; }

  double operator[](int i) const {
    alignas(32) double t[4];
    _mm256_store_pd(t, v);
    return t[i];
  }
  std::array<double, 4> to_array() const {
    alignas(32) double t[4];
    _mm256_store_pd(t, v);
    return {t[0], t[1], t[2], t[3]};
  }

  F64x4& operator+=(F64x4 o) {
    v = _mm256_add_pd(v, o.v);
    return *this;
  }
  F64x4& operator-=(F64x4 o) {
    v = _mm256_sub_pd(v, o.v);
    return *this;
  }
  F64x4& operator*=(F64x4 o) {
    v = _mm256_mul_pd(v, o.v);
    return *this;
  }
  F64x4& operator/=(F64x4 o) {
    v = _mm256_div_pd(v, o.v);
    return *this;
  }

  friend F64x4 operator+(F64x4 a, F64x4 b) { return F64x4{_mm256_add_pd(a.v, b.v)}; }
  friend F64x4 operator-(F64x4 a, F64x4 b) { return F64x4{_mm256_sub_pd(a.v, b.v)}; }
  friend F64x4 operator*(F64x4 a, F64x4 b) { return F64x4{_mm256_mul_pd(a.v, b.v)}; }
  friend F64x4 operator/(F64x4 a, F64x4 b) { return F64x4{_mm256_div_pd(a.v, b.v)}; }
  friend F64x4 operator-(F64x4 a) { return F64x4{_mm256_sub_pd(_mm256_setzero_pd(), a.v)}; }

  friend MaskF64x4 operator<(F64x4 a, F64x4 b) {
    return MaskF64x4{_mm256_cmp_pd(a.v, b.v, _CMP_LT_OQ)};
  }
  friend MaskF64x4 operator<=(F64x4 a, F64x4 b) {
    return MaskF64x4{_mm256_cmp_pd(a.v, b.v, _CMP_LE_OQ)};
  }
  friend MaskF64x4 operator>(F64x4 a, F64x4 b) {
    return MaskF64x4{_mm256_cmp_pd(a.v, b.v, _CMP_GT_OQ)};
  }
  friend MaskF64x4 operator>=(F64x4 a, F64x4 b) {
    return MaskF64x4{_mm256_cmp_pd(a.v, b.v, _CMP_GE_OQ)};
  }
  friend MaskF64x4 operator==(F64x4 a, F64x4 b) {
    return MaskF64x4{_mm256_cmp_pd(a.v, b.v, _CMP_EQ_OQ)};
  }
  friend MaskF64x4 operator!=(F64x4 a, F64x4 b) {
    return MaskF64x4{_mm256_cmp_pd(a.v, b.v, _CMP_NEQ_UQ)};
  }
};

inline void storeu(double* p, F64x4 a) { _mm256_storeu_pd(p, a.v); }
inline void storea(double* p, F64x4 a) { _mm256_store_pd(p, a.v); }
inline void store_strided(double* p, int s, F64x4 a) {
  alignas(32) double t[4];
  _mm256_store_pd(t, a.v);
  p[0] = t[0];
  p[s] = t[1];
  p[2 * s] = t[2];
  p[3 * s] = t[3];
}
inline void scatter_serial(double* base, I32x4 idx, F64x4 a) {
  alignas(32) double t[4];
  alignas(16) std::int32_t ix[4];
  _mm256_store_pd(t, a.v);
  _mm_store_si128(reinterpret_cast<__m128i*>(ix), idx.v);
  for (int i = 0; i < 4; ++i) base[ix[i]] = t[i];
}
inline void scatter_add_serial(double* base, I32x4 idx, F64x4 a) {
  alignas(32) double t[4];
  alignas(16) std::int32_t ix[4];
  _mm256_store_pd(t, a.v);
  _mm_store_si128(reinterpret_cast<__m128i*>(ix), idx.v);
  for (int i = 0; i < 4; ++i) base[ix[i]] += t[i];
}
// AVX2 has no scatter instruction: hardware-style scatter-add is emulated
// (requires unique lane indices, same contract as real scatter).
inline void scatter_add_hw(double* base, I32x4 idx, F64x4 a) {
  F64x4 cur = F64x4::gather(base, idx);
  scatter_serial(base, idx, cur + a);
}
inline void scatter_add_serial_masked(double* base, I32x4 idx, F64x4 a, MaskF64x4 m) {
  alignas(32) double t[4];
  alignas(16) std::int32_t ix[4];
  _mm256_store_pd(t, a.v);
  _mm_store_si128(reinterpret_cast<__m128i*>(ix), idx.v);
  const unsigned bits = to_bits(m);
  for (int i = 0; i < 4; ++i)
    if ((bits >> i) & 1) base[ix[i]] += t[i];
}

inline F64x4 select(MaskF64x4 m, F64x4 a, F64x4 b) {
  return F64x4{_mm256_blendv_pd(b.v, a.v, m.m)};
}
inline F64x4 min(F64x4 a, F64x4 b) { return F64x4{_mm256_min_pd(a.v, b.v)}; }
inline F64x4 max(F64x4 a, F64x4 b) { return F64x4{_mm256_max_pd(a.v, b.v)}; }
inline F64x4 abs(F64x4 a) {
  return F64x4{_mm256_andnot_pd(_mm256_set1_pd(-0.0), a.v)};
}
inline F64x4 sqrt(F64x4 a) { return F64x4{_mm256_sqrt_pd(a.v)}; }
inline F64x4 fma(F64x4 a, F64x4 b, F64x4 c) {
#if defined(__FMA__)
  return F64x4{_mm256_fmadd_pd(a.v, b.v, c.v)};
#else
  return a * b + c;
#endif
}
inline double hsum(F64x4 a) {
  const auto t = a.to_array();
  return t[0] + t[1] + t[2] + t[3];
}
inline double hmin(F64x4 a) {
  const auto t = a.to_array();
  double s = t[0];
  for (int i = 1; i < 4; ++i) s = t[i] < s ? t[i] : s;
  return s;
}
inline double hmax(F64x4 a) {
  const auto t = a.to_array();
  double s = t[0];
  for (int i = 1; i < 4; ++i) s = t[i] > s ? t[i] : s;
  return s;
}

// ---- F32x8 ---------------------------------------------------------------

/// 8 x float in a 256-bit AVX register — the paper's F32vec8.
struct F32x8 {
  using value_type = float;
  using mask_type = MaskF32x8;
  using index_type = I32x8;
  static constexpr int width = 8;
  __m256 v;

  F32x8() : v(_mm256_setzero_ps()) {}
  F32x8(float x) : v(_mm256_set1_ps(x)) {}  // NOLINT broadcast
  explicit F32x8(__m256 r) : v(r) {}

  static F32x8 loadu(const float* p) { return F32x8{_mm256_loadu_ps(p)}; }
  static F32x8 loada(const float* p) { return F32x8{_mm256_load_ps(p)}; }
  static F32x8 gather(const float* base, I32x8 idx) {
    return F32x8{_mm256_i32gather_ps(base, idx.v, 4)};
  }
  static F32x8 gather_masked(const float* base, I32x8 idx, MaskF32x8 m, F32x8 fb) {
    return F32x8{_mm256_mask_i32gather_ps(fb.v, base, idx.v, m.m, 4)};
  }
  static F32x8 strided(const float* p, int s) {
    return F32x8{_mm256_setr_ps(p[0], p[s], p[2 * s], p[3 * s], p[4 * s], p[5 * s], p[6 * s],
                                p[7 * s])};
  }
  static F32x8 iota(float s = 0.f) {
    return F32x8{_mm256_setr_ps(s, s + 1, s + 2, s + 3, s + 4, s + 5, s + 6, s + 7)};
  }

  float operator[](int i) const {
    alignas(32) float t[8];
    _mm256_store_ps(t, v);
    return t[i];
  }
  std::array<float, 8> to_array() const {
    alignas(32) float t[8];
    _mm256_store_ps(t, v);
    std::array<float, 8> a;
    for (int i = 0; i < 8; ++i) a[i] = t[i];
    return a;
  }

  F32x8& operator+=(F32x8 o) {
    v = _mm256_add_ps(v, o.v);
    return *this;
  }
  F32x8& operator-=(F32x8 o) {
    v = _mm256_sub_ps(v, o.v);
    return *this;
  }
  F32x8& operator*=(F32x8 o) {
    v = _mm256_mul_ps(v, o.v);
    return *this;
  }
  F32x8& operator/=(F32x8 o) {
    v = _mm256_div_ps(v, o.v);
    return *this;
  }

  friend F32x8 operator+(F32x8 a, F32x8 b) { return F32x8{_mm256_add_ps(a.v, b.v)}; }
  friend F32x8 operator-(F32x8 a, F32x8 b) { return F32x8{_mm256_sub_ps(a.v, b.v)}; }
  friend F32x8 operator*(F32x8 a, F32x8 b) { return F32x8{_mm256_mul_ps(a.v, b.v)}; }
  friend F32x8 operator/(F32x8 a, F32x8 b) { return F32x8{_mm256_div_ps(a.v, b.v)}; }
  friend F32x8 operator-(F32x8 a) { return F32x8{_mm256_sub_ps(_mm256_setzero_ps(), a.v)}; }

  friend MaskF32x8 operator<(F32x8 a, F32x8 b) {
    return MaskF32x8{_mm256_cmp_ps(a.v, b.v, _CMP_LT_OQ)};
  }
  friend MaskF32x8 operator<=(F32x8 a, F32x8 b) {
    return MaskF32x8{_mm256_cmp_ps(a.v, b.v, _CMP_LE_OQ)};
  }
  friend MaskF32x8 operator>(F32x8 a, F32x8 b) {
    return MaskF32x8{_mm256_cmp_ps(a.v, b.v, _CMP_GT_OQ)};
  }
  friend MaskF32x8 operator>=(F32x8 a, F32x8 b) {
    return MaskF32x8{_mm256_cmp_ps(a.v, b.v, _CMP_GE_OQ)};
  }
  friend MaskF32x8 operator==(F32x8 a, F32x8 b) {
    return MaskF32x8{_mm256_cmp_ps(a.v, b.v, _CMP_EQ_OQ)};
  }
  friend MaskF32x8 operator!=(F32x8 a, F32x8 b) {
    return MaskF32x8{_mm256_cmp_ps(a.v, b.v, _CMP_NEQ_UQ)};
  }
};

inline void storeu(float* p, F32x8 a) { _mm256_storeu_ps(p, a.v); }
inline void storea(float* p, F32x8 a) { _mm256_store_ps(p, a.v); }
inline void store_strided(float* p, int s, F32x8 a) {
  alignas(32) float t[8];
  _mm256_store_ps(t, a.v);
  for (int i = 0; i < 8; ++i) p[i * s] = t[i];
}
inline void scatter_serial(float* base, I32x8 idx, F32x8 a) {
  alignas(32) float t[8];
  alignas(32) std::int32_t ix[8];
  _mm256_store_ps(t, a.v);
  _mm256_store_si256(reinterpret_cast<__m256i*>(ix), idx.v);
  for (int i = 0; i < 8; ++i) base[ix[i]] = t[i];
}
inline void scatter_add_serial(float* base, I32x8 idx, F32x8 a) {
  alignas(32) float t[8];
  alignas(32) std::int32_t ix[8];
  _mm256_store_ps(t, a.v);
  _mm256_store_si256(reinterpret_cast<__m256i*>(ix), idx.v);
  for (int i = 0; i < 8; ++i) base[ix[i]] += t[i];
}
inline void scatter_add_hw(float* base, I32x8 idx, F32x8 a) {
  F32x8 cur = F32x8::gather(base, idx);
  scatter_serial(base, idx, cur + a);
}
inline void scatter_add_serial_masked(float* base, I32x8 idx, F32x8 a, MaskF32x8 m) {
  alignas(32) float t[8];
  alignas(32) std::int32_t ix[8];
  _mm256_store_ps(t, a.v);
  _mm256_store_si256(reinterpret_cast<__m256i*>(ix), idx.v);
  const unsigned bits = to_bits(m);
  for (int i = 0; i < 8; ++i)
    if ((bits >> i) & 1) base[ix[i]] += t[i];
}

inline F32x8 select(MaskF32x8 m, F32x8 a, F32x8 b) {
  return F32x8{_mm256_blendv_ps(b.v, a.v, m.m)};
}
inline F32x8 min(F32x8 a, F32x8 b) { return F32x8{_mm256_min_ps(a.v, b.v)}; }
inline F32x8 max(F32x8 a, F32x8 b) { return F32x8{_mm256_max_ps(a.v, b.v)}; }
inline F32x8 abs(F32x8 a) { return F32x8{_mm256_andnot_ps(_mm256_set1_ps(-0.f), a.v)}; }
inline F32x8 sqrt(F32x8 a) { return F32x8{_mm256_sqrt_ps(a.v)}; }
inline F32x8 fma(F32x8 a, F32x8 b, F32x8 c) {
#if defined(__FMA__)
  return F32x8{_mm256_fmadd_ps(a.v, b.v, c.v)};
#else
  return a * b + c;
#endif
}
inline float hsum(F32x8 a) {
  const auto t = a.to_array();
  float s = 0.f;
  for (int i = 0; i < 8; ++i) s += t[i];
  return s;
}
inline float hmin(F32x8 a) {
  const auto t = a.to_array();
  float s = t[0];
  for (int i = 1; i < 8; ++i) s = t[i] < s ? t[i] : s;
  return s;
}
inline float hmax(F32x8 a) {
  const auto t = a.to_array();
  float s = t[0];
  for (int i = 1; i < 8; ++i) s = t[i] > s ? t[i] : s;
  return s;
}

// ---- int stores / scatters / reductions -----------------------------------
// (the par_loop engine instantiates every flush path for int32 datasets too)

inline void storeu(std::int32_t* p, I32x4 a) {
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p), a.v);
}
inline void storeu(std::int32_t* p, I32x8 a) {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), a.v);
}
inline void store_strided(std::int32_t* p, int s, I32x4 a) {
  const auto t = a.to_array();
  for (int i = 0; i < 4; ++i) p[i * s] = t[i];
}
inline void store_strided(std::int32_t* p, int s, I32x8 a) {
  const auto t = a.to_array();
  for (int i = 0; i < 8; ++i) p[i * s] = t[i];
}
inline void scatter_serial(std::int32_t* base, I32x4 idx, I32x4 a) {
  const auto t = a.to_array();
  const auto ix = idx.to_array();
  for (int i = 0; i < 4; ++i) base[ix[i]] = t[i];
}
inline void scatter_serial(std::int32_t* base, I32x8 idx, I32x8 a) {
  const auto t = a.to_array();
  const auto ix = idx.to_array();
  for (int i = 0; i < 8; ++i) base[ix[i]] = t[i];
}
inline void scatter_add_serial(std::int32_t* base, I32x4 idx, I32x4 a) {
  const auto t = a.to_array();
  const auto ix = idx.to_array();
  for (int i = 0; i < 4; ++i) base[ix[i]] += t[i];
}
inline void scatter_add_serial(std::int32_t* base, I32x8 idx, I32x8 a) {
  const auto t = a.to_array();
  const auto ix = idx.to_array();
  for (int i = 0; i < 8; ++i) base[ix[i]] += t[i];
}
inline void scatter_add_hw(std::int32_t* base, I32x4 idx, I32x4 a) {
  scatter_serial(base, idx, I32x4::gather(base, idx) + a);
}
inline void scatter_add_hw(std::int32_t* base, I32x8 idx, I32x8 a) {
  scatter_serial(base, idx, I32x8::gather(base, idx) + a);
}
inline void scatter_add_serial_masked(std::int32_t* base, I32x4 idx, I32x4 a, MaskI32x4 m) {
  const auto t = a.to_array();
  const auto ix = idx.to_array();
  const unsigned bits = to_bits(m);
  for (int i = 0; i < 4; ++i)
    if ((bits >> i) & 1) base[ix[i]] += t[i];
}
inline void scatter_add_serial_masked(std::int32_t* base, I32x8 idx, I32x8 a, MaskI32x8 m) {
  const auto t = a.to_array();
  const auto ix = idx.to_array();
  const unsigned bits = to_bits(m);
  for (int i = 0; i < 8; ++i)
    if ((bits >> i) & 1) base[ix[i]] += t[i];
}
inline std::int32_t hsum(I32x4 a) {
  const auto t = a.to_array();
  return t[0] + t[1] + t[2] + t[3];
}
inline std::int32_t hsum(I32x8 a) {
  const auto t = a.to_array();
  std::int32_t s = 0;
  for (int i = 0; i < 8; ++i) s += t[i];
  return s;
}
inline std::int32_t hmin(I32x4 a) {
  const auto t = a.to_array();
  std::int32_t s = t[0];
  for (int i = 1; i < 4; ++i) s = t[i] < s ? t[i] : s;
  return s;
}
inline std::int32_t hmin(I32x8 a) {
  const auto t = a.to_array();
  std::int32_t s = t[0];
  for (int i = 1; i < 8; ++i) s = t[i] < s ? t[i] : s;
  return s;
}
inline std::int32_t hmax(I32x4 a) {
  const auto t = a.to_array();
  std::int32_t s = t[0];
  for (int i = 1; i < 4; ++i) s = t[i] > s ? t[i] : s;
  return s;
}
inline std::int32_t hmax(I32x8 a) {
  const auto t = a.to_array();
  std::int32_t s = t[0];
  for (int i = 1; i < 8; ++i) s = t[i] > s ? t[i] : s;
  return s;
}

// ---- select for int vectors ----------------------------------------------

inline I32x4 select(MaskI32x4 m, I32x4 a, I32x4 b) {
  return I32x4{_mm_blendv_epi8(b.v, a.v, m.m)};
}
inline I32x8 select(MaskI32x8 m, I32x8 a, I32x8 b) {
  return I32x8{_mm256_blendv_epi8(b.v, a.v, m.m)};
}
inline I32x4 min(I32x4 a, I32x4 b) { return I32x4{_mm_min_epi32(a.v, b.v)}; }
inline I32x4 max(I32x4 a, I32x4 b) { return I32x4{_mm_max_epi32(a.v, b.v)}; }
inline I32x8 min(I32x8 a, I32x8 b) { return I32x8{_mm256_min_epi32(a.v, b.v)}; }
inline I32x8 max(I32x8 a, I32x8 b) { return I32x8{_mm256_max_epi32(a.v, b.v)}; }

// ---- mask conversions ------------------------------------------------------

/// int32 comparison mask -> double select mask (4 lanes): sign-extend 0/-1.
inline MaskF64x4 mask_to_f64(MaskI32x4 m) {
  return MaskF64x4{_mm256_castsi256_pd(_mm256_cvtepi32_epi64(m.m))};
}
/// int32 comparison mask -> float select mask (8 lanes): pure bit cast.
inline MaskF32x8 mask_to_f32(MaskI32x8 m) {
  return MaskF32x8{_mm256_castsi256_ps(m.m)};
}

/// Tail mask with the first n of 4 double lanes active.
inline MaskF64x4 tail_mask_f64x4(int n) {
  alignas(32) static constexpr std::int64_t kTbl[5][4] = {
      {0, 0, 0, 0}, {-1, 0, 0, 0}, {-1, -1, 0, 0}, {-1, -1, -1, 0}, {-1, -1, -1, -1}};
  return MaskF64x4{
      _mm256_castsi256_pd(_mm256_load_si256(reinterpret_cast<const __m256i*>(kTbl[n])))};
}
/// Tail mask with the first n of 8 float lanes active.
inline MaskF32x8 tail_mask_f32x8(int n) {
  alignas(32) static constexpr std::int32_t kTbl[9][8] = {
      {0, 0, 0, 0, 0, 0, 0, 0},         {-1, 0, 0, 0, 0, 0, 0, 0},
      {-1, -1, 0, 0, 0, 0, 0, 0},       {-1, -1, -1, 0, 0, 0, 0, 0},
      {-1, -1, -1, -1, 0, 0, 0, 0},     {-1, -1, -1, -1, -1, 0, 0, 0},
      {-1, -1, -1, -1, -1, -1, 0, 0},   {-1, -1, -1, -1, -1, -1, -1, 0},
      {-1, -1, -1, -1, -1, -1, -1, -1}};
  return MaskF32x8{
      _mm256_castsi256_ps(_mm256_load_si256(reinterpret_cast<const __m256i*>(kTbl[n])))};
}

}  // namespace opv::simd

#endif  // __AVX2__
