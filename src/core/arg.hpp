// op_arg: typed argument descriptors for op_par_loop (paper Figure 2a).
//
// The access mode, the per-element arity (Dim) and directness are template
// parameters, so the engine's gather/scatter paths specialize per argument
// at compile time — the template analog of OP2's generated per-loop stubs,
// which substitute literal constants for modes AND arities (paper section 5):
//
//   arg<opv::READ>(dat, idx, map)   FixedDat<T, N> through map index idx
//   arg<opv::INC>(dat)              FixedDat<T, N> on the iteration set
//   arg_gbl<opv::MIN>(ptr, dim)     global scalar/array (constant, reduction)
//
// Every dataset a loop binds is a FixedDat<T, N>, whose N IS the
// descriptor's compile-time Dim: there is nothing to spell at the loop site
// and nothing that could contradict the dat.
//
// Invalid combinations (MIN/MAX on a dataset, WRITE/RW on a global, a dat
// without a compile-time arity) are rejected at COMPILE TIME via
// constraints — `requires { arg<opv::MIN>(d); }` is false — while
// data-dependent errors (map index range, set mismatch) remain runtime
// opv::Error throws.
#pragma once

#include "core/access.hpp"
#include "core/dat.hpp"
#include "core/map.hpp"

namespace opv {

/// Valid compile-time Dim for a dataset descriptor.
constexpr bool arg_dim_ok(int dim) { return dim >= 1 && dim <= kMaxDim; }

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

/// Indirect dataset argument through map index `idx`.
template <AccessMode A, class T, int N>
  requires(dat_access_ok(A))
inline Arg<T, A, N, true> arg(FixedDat<T, N>& dat, int idx, const Map& map) {
  OPV_REQUIRE(idx >= 0 && idx < map.dim(),
              "arg: map index " << idx << " out of range for map '" << map.name() << "' (dim "
                                << map.dim() << ")");
  OPV_REQUIRE(&map.to() == &dat.set(), "arg: map '" << map.name() << "' targets set '"
                                                    << map.to().name() << "' but dat '"
                                                    << dat.name() << "' lives on '"
                                                    << dat.set().name() << "'");
  return {&dat, &map, idx};
}

/// Direct dataset argument (defined on the iteration set).
template <AccessMode A, class T, int N>
  requires(dat_access_ok(A))
inline Arg<T, A, N, false> arg(FixedDat<T, N>& dat) {
  return {&dat, nullptr, -1};
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
