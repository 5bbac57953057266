// op_arg: typed argument descriptors for op_par_loop (paper Figure 2a).
//
// The access mode, the per-element arity (Dim) and directness are template
// parameters, so the engine's gather/scatter paths specialize per argument
// at compile time — the template analog of OP2's generated per-loop stubs,
// which substitute literal constants for modes AND arities (paper section 5):
//
//   arg<opv::READ, 4>(dat, idx, map)  dataset of arity 4 through map index idx
//   arg<opv::INC, 4>(dat)             arity-4 dataset on the iteration set
//   arg<opv::READ>(fixed, idx, map)   arity deduced from a FixedDat<T, N>
//   arg_gbl<opv::MIN>(ptr, dim)       global scalar/array (constant, reduction)
//
// Every dataset descriptor carries a compile-time Dim. A FixedDat<T, N>
// argument supplies it with no explicit spelling, and an explicit Dim that
// contradicts the FixedDat's N fails to COMPILE. A plain Dat needs the
// explicit Dim, which is checked against dat.dim() when the descriptor is
// constructed (opv::Error).
//
// Invalid combinations (MIN/MAX on a dataset, WRITE/RW on a global, Dim
// outside [1,kMaxDim], Dim mismatching a FixedDat, no Dim on a plain Dat)
// are rejected at COMPILE TIME via constraints — `requires { arg<opv::MIN>(d); }`
// is false — while data-dependent errors (map index range, set mismatch,
// Dim vs a runtime dat dim) remain runtime opv::Error throws.
#pragma once

#include <type_traits>

#include "core/access.hpp"
#include "core/dat.hpp"
#include "core/map.hpp"

namespace opv {

/// Valid compile-time Dim for a dataset descriptor.
constexpr bool arg_dim_ok(int dim) { return dim >= 1 && dim <= kMaxDim; }

namespace detail {

/// Anything deriving from Dat<T> (Dat itself or FixedDat) is bindable.
template <class D>
concept DatLike = std::is_base_of_v<Dat<typename D::value_type>, D>;

/// A dat whose TYPE carries its arity (FixedDat): the only kind a Dim-less
/// descriptor spelling accepts.
template <class D>
concept FixedDatLike = DatLike<D> && dat_static_dim_v<D> != 0;

/// Explicit Dim must agree with a statically-dimensioned dat type; a plain
/// Dat (static dim 0) accepts any valid Dim.
template <int Dim, class D>
inline constexpr bool dim_matches_dat_v = dat_static_dim_v<D> == 0 || dat_static_dim_v<D> == Dim;

/// Construction-time check that the descriptor Dim matches the
/// (runtime-dimensioned) dat it binds — shared by both arg() overloads.
template <int Dim, class D>
inline void check_rdim(const D& dat) {
  OPV_REQUIRE(dat.dim() == Dim, "arg: descriptor Dim " << Dim << " != dat '" << dat.name()
                                                       << "' dim " << dat.dim());
}

}  // namespace detail

/// Dataset argument. Indirect == false means direct access (OP_ID). Dim IS
/// the arity: the engine unrolls per-component code at instantiation time.
template <class S, AccessMode A, int Dim, bool Indirect>
  requires(arg_dim_ok(Dim))  // the engine's per-argument buffers hold kMaxDim
struct Arg {
  using scalar_type = S;
  static constexpr AccessMode access = A;
  static constexpr int dim = Dim;
  static constexpr bool indirect = Indirect;
  static constexpr bool is_gbl = false;

  Dat<S>* dat = nullptr;
  const Map* map = nullptr;  ///< non-null iff Indirect
  int map_idx = -1;          ///< which of the map's dim targets
};

/// Global argument: READ broadcast or INC/MIN/MAX reduction into ptr[0..dim).
template <class S, AccessMode A>
struct ArgGbl {
  using scalar_type = S;
  static constexpr AccessMode access = A;
  static constexpr bool indirect = false;
  static constexpr bool is_gbl = true;

  S* ptr = nullptr;
  int dim = 1;  ///< globals keep a runtime arity
};

// ===== typed builders =======================================================

/// Indirect dataset argument through map index `idx`. Pass Dim explicitly
/// (`arg<opv::READ, 4>(...)`), or bind a FixedDat and omit it.
template <AccessMode A, int Dim, detail::DatLike D>
  requires(dat_access_ok(A) && arg_dim_ok(Dim) && detail::dim_matches_dat_v<Dim, D>)
inline Arg<typename D::value_type, A, Dim, true> arg(D& dat, int idx, const Map& map) {
  OPV_REQUIRE(idx >= 0 && idx < map.dim(),
              "arg: map index " << idx << " out of range for map '" << map.name() << "' (dim "
                                << map.dim() << ")");
  OPV_REQUIRE(&map.to() == &dat.set(), "arg: map '" << map.name() << "' targets set '"
                                                    << map.to().name() << "' but dat '"
                                                    << dat.name() << "' lives on '"
                                                    << dat.set().name() << "'");
  detail::check_rdim<Dim>(dat);
  return {&dat, &map, idx};
}

/// Direct dataset argument (defined on the iteration set).
template <AccessMode A, int Dim, detail::DatLike D>
  requires(dat_access_ok(A) && arg_dim_ok(Dim) && detail::dim_matches_dat_v<Dim, D>)
inline Arg<typename D::value_type, A, Dim, false> arg(D& dat) {
  detail::check_rdim<Dim>(dat);
  return {&dat, nullptr, -1};
}

/// Dim-less spellings: the FixedDat's N is the descriptor Dim.
template <AccessMode A, detail::FixedDatLike D>
  requires(dat_access_ok(A))
inline auto arg(D& dat, int idx, const Map& map) {
  return arg<A, dat_static_dim_v<D>>(dat, idx, map);
}
template <AccessMode A, detail::FixedDatLike D>
  requires(dat_access_ok(A))
inline auto arg(D& dat) {
  return arg<A, dat_static_dim_v<D>>(dat);
}

/// Global argument.
template <AccessMode A, class S>
  requires(gbl_access_ok(A))
inline ArgGbl<S, A> arg_gbl(S* ptr, int dim) {
  OPV_REQUIRE(dim >= 1 && dim <= kMaxDim,
              "arg_gbl: dim must be in [1," << kMaxDim << "]");
  return {ptr, dim};
}

// ===== compile-time argument traits ========================================

/// Classification the engine (and plan construction) derives from an
/// argument's TYPE alone — the compile-time replacement for the old
/// runtime collect(..., bool&) conflict scan.
template <class A>
struct arg_traits;

template <class S, AccessMode A, int Dim, bool Ind>
struct arg_traits<Arg<S, A, Dim, Ind>> {
  using scalar = S;
  static constexpr AccessMode access = A;
  static constexpr int dim = Dim;
  static constexpr bool is_gbl = false;
  static constexpr bool is_indirect = Ind;
  /// Indirect modification: a data-driven race the plan must color away.
  static constexpr bool conflicting = Ind && access_conflicting(A);
  static constexpr bool gbl_reduction = false;
};

template <class S, AccessMode A>
struct arg_traits<ArgGbl<S, A>> {
  using scalar = S;
  static constexpr AccessMode access = A;
  static constexpr bool is_gbl = true;
  static constexpr bool is_indirect = false;
  static constexpr bool conflicting = false;
  static constexpr bool gbl_reduction = A != AccessMode::READ;
};

/// True if any argument indirectly modifies a dataset (loop needs a plan).
template <class... Args>
inline constexpr bool has_conflicts_v = (arg_traits<Args>::conflicting || ...);

/// True if any argument reads and writes a dataset through a map: the one
/// indirect mode whose lanes cannot share a target within a vector chunk.
template <class... Args>
inline constexpr bool has_indirect_rw_v =
    ((arg_traits<Args>::is_indirect && arg_traits<Args>::access == AccessMode::RW) || ...);

/// True if any argument is a global reduction.
template <class... Args>
inline constexpr bool has_gbl_reduction_v = (arg_traits<Args>::gbl_reduction || ...);

}  // namespace opv
