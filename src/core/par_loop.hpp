// op_par_loop: the execution engine.
//
// OP2 uses source-to-source code generation to produce one specialized stub
// per parallel loop (paper Fig. 2b for MPI, Fig. 3a for OpenCL, Fig. 3b for
// AVX). This engine obtains the same specializations by template
// instantiation: every argument descriptor carries its access mode, its
// arity (Dim) and directness as template parameters (core/arg.hpp), so each
// gather/scatter below is an `if constexpr` and each per-component loop an
// index-sequence expansion — per instantiation the compiler sees exactly
// the branch-free straight-line code OP2's generator would have emitted.
// The user kernel is a functor templated over its value type: instantiating
// with T = double produces the scalar loops; with T = simd::Vec<double,W>
// exactly the gather / vector-kernel / colored-scatter structure of Fig. 3b,
// including the scalar pre/post sweeps. Backends:
//
//   Seq      reference scalar execution
//   OpenMP   threads over colored blocks, scalar kernel (the baseline)
//   AutoVec  scalar kernel on lane-independent (permuted) inner loops
//            annotated with #pragma omp simd - the compiler may or may not
//            vectorize them (the paper's auto-vectorization experiments)
//   Simd     explicit vector classes: gathers, vector kernel, serialized or
//            hardware scatters depending on the coloring strategy
//   Simt     OpenCL-on-CPU model: work-groups pulled from a dynamic queue,
//            W-wide lock-step bundles, per-color masked increments (Fig. 3a)
//
// Two entry points:
//
//   opv::Loop handle — constructed once, run many times. Conflict analysis
//   happens at construction, the coloring Plan and the stats slot are pinned
//   on first use, so steady-state iteration does zero per-call setup.
//
//   opv::par_loop(kernel, name, set, cfg, args...) — the OP2-shaped free
//   function, now a thin wrapper over a one-shot Loop.
#pragma once

#include <omp.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/timer.hpp"
#include "core/arg.hpp"
#include "core/config.hpp"
#include "core/footprint.hpp"
#include "core/loop_stats.hpp"
#include "core/plan.hpp"
#include "simd/simd.hpp"

namespace opv {

namespace detail {

inline int resolve_threads(int requested) {
  return requested > 0 ? requested : omp_get_max_threads();
}

/// Per-component expansion as an index-sequence fold — every f(c) is a
/// distinct statement with a literal component index, so gathers/scatters
/// fully unroll at instantiation time (the engine's analog of OP2's
/// generator "substituting literal constants", paper section 5).
template <int Dim, class F>
inline void for_each_dim(F&& f) {
  [&]<int... Cs>(std::integer_sequence<int, Cs...>) {
    (f(Cs), ...);
  }(std::make_integer_sequence<int, Dim>{});
}

// ===== bound arguments =========================================================
// One argument state serves every width: the scalar kernel is the W == 1
// case of the vector path. At W == 1 a bound argument holds S values and a
// scalar element index; at W > 1 it holds Vec<S, W> lanes and a
// Vec<int32_t, W> index. Either way comp(c)[lidx(e)] addresses element e's
// component c under the dat's layout.

/// A W-wide value of S: S itself at W == 1.
template <class S, int W>
using lanes_t = std::conditional_t<W == 1, S, simd::Vec<S, W>>;

template <class S, int W, AccessMode A, int Dim, bool Ind>
struct BoundDat {
  using V = lanes_t<S, W>;
  using IV = lanes_t<std::int32_t, W>;
  S* data = nullptr;
  const idx_t* map = nullptr;
  int map_dim = 0;
  int map_idx = 0;
  Layout layout = Layout::AoS;
  idx_t plane = 0;  ///< SoA component-plane stride (padded rows)
  V buf[Dim] = {};  ///< the kernel's view: staged row (W == 1) or lanes
  IV sidx = {};     ///< layout-scaled target index, kept for the writeback

  /// Base of component c: AoS interleaves the components (+c), SoA keeps
  /// one dense plane per component.
  S* comp(int c) const {
    return layout == Layout::SoA ? data + static_cast<std::size_t>(plane) * c : data + c;
  }
  /// Layout-scaled element index, relative to comp(c): AoS scales by the
  /// literal Dim, SoA is unit-stride.
  IV lidx(IV tgt) const { return layout == Layout::SoA ? tgt : tgt * IV(Dim); }
};

template <class S, int W, AccessMode A>
struct BoundGbl {
  S* target = nullptr;
  int dim = 0;
  lanes_t<S, W> buf[kMaxDim] = {};  ///< a thread's (or rank's) partial
};

template <int W, class S, AccessMode A, int Dim, bool Ind>
inline BoundDat<S, W, A, Dim, Ind> bind(const Arg<S, A, Dim, Ind>& a) {
  BoundDat<S, W, A, Dim, Ind> b;
  b.data = a.dat->data();
  if constexpr (Ind) {
    b.map = a.map->data();
    b.map_dim = a.map->dim();
    b.map_idx = a.map_idx;
  }
  b.layout = a.dat->layout();
  b.plane = a.dat->plane();
  return b;
}
template <int W, class S, AccessMode A>
inline BoundGbl<S, W, A> bind(const ArgGbl<S, A>& a) {
  BoundGbl<S, W, A> g;
  g.target = a.ptr;
  g.dim = a.dim;
  return g;
}

/// Start a partial: READ broadcasts the target into every lane, a
/// reduction starts from its identity.
template <class S, int W, AccessMode A, int Dim, bool Ind>
inline void thread_init(BoundDat<S, W, A, Dim, Ind>&) {}
template <class S, int W, AccessMode A>
inline void thread_init(BoundGbl<S, W, A>& g) {
  for (int c = 0; c < g.dim; ++c) {
    if constexpr (A == AccessMode::READ) g.buf[c] = lanes_t<S, W>(g.target[c]);
    else g.buf[c] = lanes_t<S, W>(reduction_identity<A, S>());
  }
}

/// Fold a partial into the target (its lanes first, at W > 1).
template <class S, int W, AccessMode A, int Dim, bool Ind>
inline void thread_merge(BoundDat<S, W, A, Dim, Ind>&) {}
template <class S, int W, AccessMode A>
inline void thread_merge(BoundGbl<S, W, A>& g) {
  if constexpr (A == AccessMode::READ) return;
  for (int c = 0; c < g.dim; ++c) {
    S part;
    if constexpr (W == 1) part = g.buf[c];
    else if constexpr (A == AccessMode::INC) part = simd::hsum(g.buf[c]);
    else if constexpr (A == AccessMode::MIN) part = simd::hmin(g.buf[c]);
    else part = simd::hmax(g.buf[c]);
    g.target[c] = reduction_combine<A>(g.target[c], part);
  }
}

template <class Tuple>
inline void thread_init_all(Tuple& t) {
  std::apply([](auto&... b) { (thread_init(b), ...); }, t);
}
template <class Tuple>
inline void thread_merge_all(Tuple& t) {
  std::apply([](auto&... b) { (thread_merge(b), ...); }, t);
}

/// Pointer handed to the scalar kernel for element e. Under AoS it points
/// at the element's row (the stride is the literal Dim, so the multiply
/// strength-reduces). Under SoA the components are not contiguous, so the
/// row is staged into buf through comp(c)[lidx(e)] — current values
/// pre-loaded for every mode, so an INC/RW kernel sees the load-add-store
/// order the AoS path has and Seq stays bitwise-identical across layouts —
/// and kflush() writes it back after the kernel body.
template <class S, AccessMode A, int Dim, bool Ind>
inline S* kptr(BoundDat<S, 1, A, Dim, Ind>& b, idx_t e) {
  idx_t tgt = e;
  if constexpr (Ind) tgt = b.map[static_cast<std::size_t>(e) * b.map_dim + b.map_idx];
  if (b.layout == Layout::AoS) [[likely]]
    return b.data + static_cast<std::size_t>(tgt) * Dim;
  b.sidx = b.lidx(tgt);
  for_each_dim<Dim>([&](int c) { b.buf[c] = b.comp(c)[b.sidx]; });
  return b.buf;
}
template <class S, AccessMode A>
inline S* kptr(BoundGbl<S, 1, A>& g, idx_t) {
  return g.buf;
}

/// Post-kernel writeback of the staged row (a no-op under AoS, where the
/// kernel wrote through the returned pointer).
template <class S, AccessMode A, int Dim, bool Ind>
inline void kflush(BoundDat<S, 1, A, Dim, Ind>& b) {
  if constexpr (A != AccessMode::READ)
    if (b.layout != Layout::AoS) [[unlikely]]
      for_each_dim<Dim>([&](int c) { b.comp(c)[b.sidx] = b.buf[c]; });
}
template <class S, AccessMode A>
inline void kflush(BoundGbl<S, 1, A>&) {}

template <class Tuple, std::size_t... Is>
inline void kflush_all(Tuple& t, std::index_sequence<Is...>) {
  (kflush(std::get<Is>(t)), ...);
}

// ---- scalar loop bodies ----------------------------------------------------

// The Seq/OpenMP backends are the paper's NON-vectorized baselines. Modern
// GCC auto-vectorizes simple kernels at -O3 -march=native, which would
// silently turn the baseline into a vector backend — so the plain scalar
// loop bodies explicitly opt out. The AutoVec backend uses run_scalar_hint
// below, which leaves the vectorizer on (that is the experiment).
#if defined(__GNUC__) && !defined(__clang__)
#define OPV_SCALAR_BASELINE \
  __attribute__((optimize("no-tree-vectorize", "no-tree-slp-vectorize")))
#else
#define OPV_SCALAR_BASELINE
#endif

// The element-range bodies are the engine's stubs: each inlines everything
// it calls — the kernel, the gathers/scatters and their per-component
// lambdas — whatever inlining budget the translation unit has left. (Left
// to the budget, a TU holding a whole application's loops runs out of it,
// and the per-component gathers become calls inside the hot loop.) The
// vector body stays out of line, so the schedule walkers share one copy
// per backend and width.
#if defined(__GNUC__)
#define OPV_FLATTEN __attribute__((flatten))
#define OPV_NOINLINE __attribute__((noinline))
#else
#define OPV_FLATTEN
#define OPV_NOINLINE
#endif

/// Scalar kernel over positions [lo, hi): element ids[j], or j itself when
/// ids is null (a contiguous range).
template <class Kernel, class Tuple, std::size_t... Is>
OPV_SCALAR_BASELINE OPV_FLATTEN inline void run_scalar(Kernel& k, Tuple& t, const idx_t* ids,
                                                       idx_t lo, idx_t hi,
                                                       std::index_sequence<Is...> seq) {
  if (ids) {
    for (idx_t j = lo; j < hi; ++j) {
      k(kptr(std::get<Is>(t), ids[j])...);
      kflush_all(t, seq);
    }
  } else {
    for (idx_t e = lo; e < hi; ++e) {
      k(kptr(std::get<Is>(t), e)...);
      kflush_all(t, seq);
    }
  }
}

/// The paper's auto-vectorization experiment: assert independence and let
/// the compiler try. Gathers through kptr typically defeat it on CPUs.
template <class Kernel, class Tuple, std::size_t... Is>
OPV_FLATTEN inline void run_scalar_hint(Kernel& k, Tuple& t, const idx_t* ids, idx_t lo,
                                        idx_t hi, std::index_sequence<Is...> seq) {
  if (ids) {
#pragma omp simd
    for (idx_t j = lo; j < hi; ++j) {
      k(kptr(std::get<Is>(t), ids[j])...);
      kflush_all(t, seq);
    }
  } else {
#pragma omp simd
    for (idx_t e = lo; e < hi; ++e) {
      k(kptr(std::get<Is>(t), e)...);
      kflush_all(t, seq);
    }
  }
}

// ---- gather phase (Fig. 3b "gather data to registers") ---------------------
// Every access-mode decision below is `if constexpr`, and every
// per-component loop goes through for_each_dim<Dim>: fully unrolled
// straight-line gathers/scatters with literal strides. Globals have no
// per-chunk work: their lanes live in buf from thread_init to thread_merge.

/// Load a contiguous chunk of W elements starting at n.
template <class S, int W, AccessMode A, int Dim, bool Ind>
inline void vload(BoundDat<S, W, A, Dim, Ind>& a, idx_t n) {
  using V = simd::Vec<S, W>;
  using IV = simd::Vec<std::int32_t, W>;
  if constexpr (Ind) {
    const IV tgt = IV::strided(a.map + static_cast<std::size_t>(n) * a.map_dim + a.map_idx,
                               a.map_dim);
    a.sidx = a.lidx(tgt);
    if constexpr (A == AccessMode::READ || A == AccessMode::RW) {
      for_each_dim<Dim>([&](int c) { a.buf[c] = V::gather(a.comp(c), a.sidx); });
    } else {  // INC (indirect WRITE is also accumulated then scattered)
      for_each_dim<Dim>([&](int c) { a.buf[c] = V(S(0)); });
    }
  } else if constexpr (A == AccessMode::INC) {
    for_each_dim<Dim>([&](int c) { a.buf[c] = V(S(0)); });
  } else if constexpr (A != AccessMode::WRITE) {
    if (Dim == 1 || a.layout == Layout::SoA) {
      // The SoA payoff: what AoS serves with W strided touches per
      // component is one unit-stride plane load here.
      for_each_dim<Dim>([&](int c) { a.buf[c] = V::loadu(a.comp(c) + n); });
    } else {
      for_each_dim<Dim>([&](int c) {
        a.buf[c] = V::strided(a.comp(c) + static_cast<std::size_t>(n) * Dim, Dim);
      });
    }
  }
}
template <class S, int W, AccessMode A>
inline void vload(BoundGbl<S, W, A>&, idx_t) {}

/// Load a chunk of W permuted elements whose ids are in eidx.
template <class S, int W, AccessMode A, int Dim, bool Ind>
inline void vload_perm(BoundDat<S, W, A, Dim, Ind>& a, simd::Vec<std::int32_t, W> eidx) {
  using V = simd::Vec<S, W>;
  using IV = simd::Vec<std::int32_t, W>;
  if constexpr (Ind) a.sidx = a.lidx(IV::gather(a.map + a.map_idx, eidx * IV(a.map_dim)));
  else a.sidx = a.lidx(eidx);
  if constexpr (A == AccessMode::INC || (Ind && A == AccessMode::WRITE)) {
    for_each_dim<Dim>([&](int c) { a.buf[c] = V(S(0)); });
  } else if constexpr (A != AccessMode::WRITE) {
    // Formerly-direct data must now be gathered too (paper section 4: the
    // cost the permute colorings add).
    for_each_dim<Dim>([&](int c) { a.buf[c] = V::gather(a.comp(c), a.sidx); });
  }
}
template <class S, int W, AccessMode A>
inline void vload_perm(BoundGbl<S, W, A>&, simd::Vec<std::int32_t, W>) {}

// ---- scatter phase ----------------------------------------------------------

/// Flush a contiguous chunk. Lanes of a contiguous chunk may share an
/// indirect target, so indirect writes scatter serially per lane: correct
/// for INC and WRITE, while RW would lose all but one lane's update
/// (Loop::strategy_for never schedules an indirect RW loop this way).
template <class S, int W, AccessMode A, int Dim, bool Ind>
inline void vflush(BoundDat<S, W, A, Dim, Ind>& a, idx_t n) {
  using V = simd::Vec<S, W>;
  if constexpr (Ind) {
    if constexpr (A == AccessMode::INC) {
      for_each_dim<Dim>([&](int c) { simd::scatter_add_serial(a.comp(c), a.sidx, a.buf[c]); });
    } else if constexpr (A != AccessMode::READ) {
      for_each_dim<Dim>([&](int c) { simd::scatter_serial(a.comp(c), a.sidx, a.buf[c]); });
    }
  } else if constexpr (A != AccessMode::READ) {
    // Direct increments add onto the current values; WRITE/RW overwrite.
    if (Dim == 1 || a.layout == Layout::SoA) {
      for_each_dim<Dim>([&](int c) {
        S* p = a.comp(c) + n;
        if constexpr (A == AccessMode::INC) simd::storeu(p, V::loadu(p) + a.buf[c]);
        else simd::storeu(p, a.buf[c]);
      });
    } else {
      for_each_dim<Dim>([&](int c) {
        S* p = a.comp(c) + static_cast<std::size_t>(n) * Dim;
        if constexpr (A == AccessMode::INC)
          simd::store_strided(p, Dim, V::strided(p, Dim) + a.buf[c]);
        else
          simd::store_strided(p, Dim, a.buf[c]);
      });
    }
  }
}
template <class S, int W, AccessMode A>
inline void vflush(BoundGbl<S, W, A>&, idx_t) {}

/// Flush a permuted chunk. Element ids are distinct, so direct writes may
/// scatter; the lanes of a permuted chunk are one element color (or the loop
/// has no indirect increment), so indirect increments use the hardware
/// scatter.
template <class S, int W, AccessMode A, int Dim, bool Ind>
inline void vflush_perm(BoundDat<S, W, A, Dim, Ind>& a) {
  if constexpr (A == AccessMode::INC) {
    for_each_dim<Dim>([&](int c) {
      if constexpr (Ind) simd::scatter_add_hw(a.comp(c), a.sidx, a.buf[c]);
      else simd::scatter_add_serial(a.comp(c), a.sidx, a.buf[c]);
    });
  } else if constexpr (A != AccessMode::READ) {
    for_each_dim<Dim>([&](int c) { simd::scatter_serial(a.comp(c), a.sidx, a.buf[c]); });
  }
}
template <class S, int W, AccessMode A>
inline void vflush_perm(BoundGbl<S, W, A>&) {}

/// SIMT colored increment (Fig. 3a): indirect increments are applied
/// color-by-color with a lane mask, serializing conflicting work-items
/// exactly like the generated OpenCL kernel does. `colors` holds the W
/// element colors of the chunk starting at element n.
template <class S, int W, AccessMode A, int Dim, bool Ind>
inline void vflush_simt(BoundDat<S, W, A, Dim, Ind>& a, idx_t n, const std::int32_t* colors,
                        int ncolors) {
  using V = simd::Vec<S, W>;
  using IV = simd::Vec<std::int32_t, W>;
  if constexpr (Ind && A == AccessMode::INC) {
    const IV cv = IV::loadu(colors);
    for (int col = 0; col < ncolors; ++col) {
      const auto imask = (cv == IV(col));
      const auto vmask = simd::MaskConvert<V>::from(imask);
      if (!simd::any(imask)) continue;
      for_each_dim<Dim>([&](int c) {
        simd::scatter_add_serial_masked(a.comp(c), a.sidx, a.buf[c], vmask);
      });
    }
  } else {
    vflush(a, n);
  }
}
template <class S, int W, AccessMode A>
inline void vflush_simt(BoundGbl<S, W, A>&, idx_t, const std::int32_t*, int) {}

template <class Tuple, std::size_t... Is>
inline void vload_all(Tuple& t, idx_t n, std::index_sequence<Is...>) {
  (vload(std::get<Is>(t), n), ...);
}
template <class Tuple, class IV, std::size_t... Is>
inline void vload_perm_all(Tuple& t, IV eidx, std::index_sequence<Is...>) {
  (vload_perm(std::get<Is>(t), eidx), ...);
}
template <class Tuple, std::size_t... Is>
inline void vflush_all(Tuple& t, idx_t n, std::index_sequence<Is...>) {
  (vflush(std::get<Is>(t), n), ...);
}
template <class Tuple, std::size_t... Is>
inline void vflush_perm_all(Tuple& t, std::index_sequence<Is...>) {
  (vflush_perm(std::get<Is>(t)), ...);
}
template <class Tuple, std::size_t... Is>
inline void vflush_simt_all(Tuple& t, idx_t n, const std::int32_t* ec, int ncolors,
                            std::index_sequence<Is...>) {
  (vflush_simt(std::get<Is>(t), n, ec, ncolors), ...);
}

template <class Kernel, class Tuple, std::size_t... Is>
inline void vcall(Kernel& k, Tuple& t, std::index_sequence<Is...>) {
  k(std::get<Is>(t).buf...);
}

// ===== footprint collection ===================================================

/// One ArgFootprint per argument descriptor: the runtime residue of the
/// compile-time arg_traits classification (access mode and directness come
/// off the TYPE; only the bound dat/map/global identities are runtime data).
/// The loop's conflict list — formerly an ad-hoc per-arg scan — is derived
/// from these (LoopFootprint::conflicts).
template <class S, AccessMode A, int Dim, bool Ind>
inline ArgFootprint footprint_of(const Arg<S, A, Dim, Ind>& a) {
  ArgFootprint f;
  f.dat = a.dat;
  if constexpr (Ind) {
    f.map = a.map;
    f.map_idx = a.map_idx;
  }
  f.access = A;
  f.indirect = Ind;
  return f;
}
template <class S, AccessMode A>
inline ArgFootprint footprint_of(const ArgGbl<S, A>& a) {
  ArgFootprint f;
  f.access = A;
  f.is_gbl = true;
  f.gbl = a.ptr;
  f.gbl_reduction = A != AccessMode::READ;
  return f;
}

/// True if the kernel has a vector instantiation for these arguments (i.e.
/// a templated operator() that accepts Vec pointers). Type-erased kernels
/// (e.g. std::function wrappers) are scalar-only; requesting a vector
/// backend for them is a runtime error instead of a compile error.
template <class Kernel, class... Args>
inline constexpr bool vector_callable =
    std::is_invocable_v<Kernel&, simd::Vec<typename arg_traits<Args>::scalar, 4>*...>;

/// Scalar type of the first floating-point dataset argument (the loop's
/// computational precision); double if there is none.
template <class... Args>
struct first_real {
  using type = double;
};
template <class S, AccessMode A, int Dim, bool Ind, class... Rest>
struct first_real<Arg<S, A, Dim, Ind>, Rest...> {
  using type = std::conditional_t<std::is_floating_point_v<S>, S,
                                  typename first_real<Rest...>::type>;
};
template <class S, AccessMode A, class... Rest>
struct first_real<ArgGbl<S, A>, Rest...> {
  using type = typename first_real<Rest...>::type;
};

}  // namespace detail

// ===== the engine =============================================================

namespace detail {

/// The serial reference executor: the scalar kernel over elements [lo, hi)
/// in ascending order.
template <class Kernel, class Tuple>
void exec_seq(Kernel& k, Tuple t, idx_t lo, idx_t hi) {
  thread_init_all(t);
  run_scalar(k, t, nullptr, lo, hi, std::make_index_sequence<std::tuple_size_v<Tuple>>{});
  thread_merge_all(t);
}

/// How the parallel skeleton runs an element range: the scalar kernel
/// (OpenMP), the scalar kernel under the `omp simd` hint (AutoVec), or the
/// W-wide vector kernel (Simd; Simt with its per-color masked increments).
enum class Mode { Scalar, Hint, Simd, Simt };

/// The element-range body: positions [lo, hi) of `ids` (null = the
/// elements lo..hi-1 themselves). Vector modes run W-wide chunks first —
/// contiguous vload/vflush (vflush_simt on Simt, with the range's `ncol`
/// element colors, `ecol` holding element lo's), or permuted
/// vload_perm/vflush_perm — and every mode finishes with the scalar kernel:
/// the pre/main/post structure of paper section 4.2.
template <Mode M, int W, class Kernel, class ST, class VT, std::size_t... Is>
OPV_NOINLINE OPV_FLATTEN void run_elems(Kernel& k, ST& st, VT& vt, const idx_t* ids, idx_t lo,
                                        idx_t hi, const std::int32_t* ecol, int ncol,
                                        std::index_sequence<Is...> seq) {
  if constexpr (M == Mode::Simd || M == Mode::Simt) {
    using IV = simd::Vec<std::int32_t, W>;
    if (ids) {
      if constexpr (M == Mode::Simd)  // Simt schedules contiguous blocks only
        for (; lo + W <= hi; lo += W) {
          vload_perm_all(vt, IV::loadu(ids + lo), seq);
          vcall(k, vt, seq);
          vflush_perm_all(vt, seq);
        }
    } else {
      for (const idx_t lo0 = lo; lo + W <= hi; lo += W) {
        vload_all(vt, lo, seq);
        vcall(k, vt, seq);
        if constexpr (M == Mode::Simt) vflush_simt_all(vt, lo, ecol + (lo - lo0), ncol, seq);
        else vflush_all(vt, lo, seq);
      }
    }
  }
  if constexpr (M == Mode::Hint) run_scalar_hint(k, st, ids, lo, hi, seq);
  else run_scalar(k, st, ids, lo, hi, seq);
}

// ---- schedule walkers (called inside the team, once per thread) -------------

/// Direct walker: thread tid's W-aligned share of positions [lo, hi), with
/// the ragged tail on the last thread (W == 1 is the scalar equal split).
template <int W, class Body>
inline void walk_direct(Body& body, const idx_t* ids, idx_t lo, idx_t hi, int tid, int nth) {
  const idx_t nvec = (hi - lo) / W;
  const idx_t per = (nvec + nth - 1) / nth;
  // The last thread's chunks end at lo + nvec*W, so it also takes the
  // ragged tail in the same call (the body's scalar post-sweep).
  body(ids, lo + std::min<idx_t>(nvec, tid * per) * W,
       tid == nth - 1 ? hi : lo + std::min<idx_t>(nvec, tid * per + per) * W);
}

/// FullPermute: the direct split of each global color of the permutation,
/// a barrier between colors. All lanes of a chunk are independent.
template <int W, class Body>
inline void walk_global_colors(Body& body, const Plan& plan, int tid, int nth) {
  for (int col = 0; col < plan.nglobal_colors; ++col) {
    walk_direct<W>(body, plan.permute.data(), plan.color_offsets[col],
                   plan.color_offsets[col + 1], tid, nth);
#pragma omp barrier
  }
}

/// TwoLevel / BlockPermute / Simt: each color's blocks spread across the
/// threads (schedule(static), or — Simt's OpenCL model — work-groups pulled
/// from the color's atomic `queue`). A TwoLevel block is one contiguous
/// range; a BlockPermute block runs its element-color runs.
template <class Body>
inline void walk_block_colors(Body& body, const Plan& plan, std::atomic<idx_t>* queue) {
  const auto run_block = [&](idx_t b) {
    if (plan.strategy != ColoringStrategy::BlockPermute) {
      body(nullptr, plan.block_begin(b), plan.block_end(b), plan.block_nelem_colors[b]);
      return;
    }
    const idx_t* off = plan.bcol_off.data() + plan.bcol_base[b];
    for (int c = 0; c < plan.block_nelem_colors[b]; ++c)
      body(plan.block_permute.data(), off[c], off[c + 1]);
  };
  for (int col = 0; col < plan.nblock_colors; ++col) {
    const auto& blocks = plan.color_blocks[col];
    const idx_t nb = static_cast<idx_t>(blocks.size());
    if (queue) {
      for (idx_t bi; (bi = queue[col].fetch_add(1, std::memory_order_relaxed)) < nb;)
        run_block(blocks[bi]);
#pragma omp barrier
    } else {
#pragma omp for schedule(static)
      for (idx_t bi = 0; bi < nb; ++bi) run_block(blocks[bi]);
      // implicit barrier between colors
    }
  }
}

/// The parallel skeleton: open the team, copy the bound argument tuples per
/// thread (W = 1 state, plus W-wide state on the vector modes; `VT` is
/// empty otherwise), walk the elements [lo, hi) — in ascending order
/// without a plan, else the plan's colors over them (global colors for
/// FullPermute, block colors otherwise) — and, for loops with a global
/// reduction, merge the threads' partials in thread-id order, so the
/// result does not depend on which thread finishes first.
template <Mode M, int W, bool Reduce, class Kernel, class ST, class VT>
void sweep(Kernel& k, const ST& sproto, const VT& vproto, idx_t lo, idx_t hi, const Plan* plan,
           int nthreads) {
  constexpr auto seq = std::make_index_sequence<std::tuple_size_v<ST>>{};
  const std::int32_t* ecol = plan ? plan->elem_color.data() : nullptr;
  std::vector<std::atomic<idx_t>> queue(M == Mode::Simt && plan ? plan->nblock_colors : 0);
  for (auto& q : queue) q.store(0, std::memory_order_relaxed);
#pragma omp parallel num_threads(nthreads)
  {
    ST st = sproto;
    VT vt = vproto;
    thread_init_all(st);
    thread_init_all(vt);
    auto body = [&](const idx_t* ids, idx_t lo, idx_t hi, int ncol = 1) {
      const std::int32_t* colors = nullptr;  // element colors are indexed from the range start
      if constexpr (M == Mode::Simt) colors = ecol + (lo - plan->first);
      run_elems<M, W>(k, st, vt, ids, lo, hi, colors, ncol, seq);
    };
    const int tid = omp_get_thread_num();
    const int nth = omp_get_num_threads();
    if (!plan)
      walk_direct<W>(body, nullptr, lo, hi, tid, nth);
    else if (plan->strategy == ColoringStrategy::FullPermute)
      walk_global_colors<W>(body, *plan, tid, nth);
    else
      walk_block_colors(body, *plan, queue.empty() ? nullptr : queue.data());
    if constexpr (Reduce) {
#pragma omp for ordered schedule(static, 1)
      for (int t = 0; t < nth; ++t) {
#pragma omp ordered
        {
          thread_merge_all(vt);
          thread_merge_all(st);
        }
      }
    }
  }
}

}  // namespace detail

// ===== the reusable Loop handle ==============================================

/// A parallel loop bound to its kernel, iteration set and typed arguments.
///
///   Loop loop(ResCalc<double>{consts}, "res_calc", edges, args...);
///   for (int it = 0; it < 1000; ++it) loop.run(cfg);
///
/// Construction performs the conflict analysis (which args indirectly modify
/// data — a compile-time fact lifted from the argument types, plus the
/// runtime map identities the plan key needs) and binds the loop's stats
/// slot. The coloring Plan is fetched from the PlanCache on first use and
/// pinned per strategy, so steady-state run() calls do zero setup: no
/// conflict scan, no cache lookup, no registry lookup.
template <class Kernel, class... Args>
class Loop {
 public:
  static constexpr bool has_inc = has_conflicts_v<Args...>;
  static constexpr bool has_gbl_reduction = has_gbl_reduction_v<Args...>;
  static constexpr bool has_indirect_rw = has_indirect_rw_v<Args...>;

  Loop(Kernel kernel, std::string name, const Set& set, Args... args)
      : kernel_(std::move(kernel)), name_(std::move(name)), set_(&set), args_(args...) {
    footprint_.iter_set = set_;
    footprint_.args.reserve(sizeof...(Args));
    (footprint_.args.push_back(detail::footprint_of(args)), ...);
    conflicts_ = footprint_.conflicts();
  }

  /// Execute the loop under the given configuration.
  void run(const ExecConfig& cfg) {
    if constexpr (has_inc && has_gbl_reduction) {
      OPV_REQUIRE(set_->exec_size() == set_->size(),
                  "loop '" << name_
                           << "': global reductions combined with indirect increments are not "
                              "supported under halo execution");
    }
    const auto strat = strategy_for(cfg);  // rejects what the backend cannot run
    const idx_t n = exec_limit();
    if (n == 0) return;

    WallTimer timer;
    execute(cfg, 0, n, plan_for(strat, cfg));
    const double secs = timer.seconds();
    if (cfg.collect_stats) {
      // Slot bound on first recording run: loops that never collect stats
      // (one-shot wrappers with collect_stats=false, per-rank loops inside
      // DistCtx) never touch the registry at all. Layouts are frozen before
      // any loop executes, so the layout tag is stamped once at bind.
      if (!stats_) {
        stats_ = &StatsRegistry::instance().slot(name_);
        stats_->layout = layout_tag();
      }
      StatsRegistry::instance().record(*stats_, secs, n);
      const double plan_fresh = fresh_plan_seconds();
      if (plan_fresh > 0.0) StatsRegistry::instance().record_plan(*stats_, plan_fresh);
    }
  }

  /// A pinned contiguous piece [lo, hi) of this loop's executed range
  /// (paper section 6.5's interior/boundary phases run one Slice each, and
  /// a LoopChain tile one per member). It runs with the loop's kernel
  /// instantiations under the schedule run() would choose for the same
  /// configuration; a plan that schedule needs is built over the range on
  /// the first run_slice and pinned for the Slice's lifetime.
  class Slice {
   public:
    Slice() = default;
    [[nodiscard]] idx_t lo() const { return lo_; }
    [[nodiscard]] idx_t hi() const { return hi_; }
    [[nodiscard]] idx_t size() const { return hi_ - lo_; }
    [[nodiscard]] bool empty() const { return hi_ == lo_; }
    /// The pinned range plan (nullptr until a run that needs one builds it).
    [[nodiscard]] const Plan* plan() const { return plan_.get(); }

   private:
    friend class Loop;
    idx_t lo_ = 0;
    idx_t hi_ = 0;
    std::shared_ptr<const Plan> plan_;
  };

  /// Pin the range [lo, hi) of the executed range [0, exec_limit()).
  [[nodiscard]] Slice make_slice(idx_t lo, idx_t hi) const {
    const idx_t limit = exec_limit();
    OPV_REQUIRE(lo >= 0 && lo <= hi && hi <= limit,
                "loop '" << name_ << "': slice [" << lo << "," << hi
                         << ") is not a range inside the executed range [0," << limit << ")");
    Slice s;
    s.lo_ = lo;
    s.hi_ = hi;
    return s;
  }

  /// Execute only the slice's elements. Seq runs them in ascending order,
  /// so a cover of slices executed in order is bitwise-identical to one
  /// run(), increments included. Global reductions init/merge per call, so
  /// slices accumulate exactly like one full run. Stats are the caller's
  /// business (a phased or chained caller owns the aggregate timing), so
  /// nothing is recorded.
  void run_slice(const ExecConfig& cfg, Slice& s) {
    const auto strat = strategy_for(cfg);
    if (s.empty()) return;
    execute(cfg, s.lo_, s.hi_, strat ? &slice_plan(s, *strat, cfg) : nullptr);
  }

  /// The executed range [0, exec_limit()) that run() covers and slices
  /// divide. Loops with indirect increments redundantly execute the
  /// import halo so owned data receives all contributions (OP2's owner-
  /// compute scheme) — unless they also reduce into a global: halo elements
  /// would then contribute to the reduction on every executing rank, so
  /// such loops are capped at the owned range (run() requires it to be
  /// the whole set).
  [[nodiscard]] idx_t exec_limit() const {
    return has_inc && !has_gbl_reduction ? set_->exec_size() : set_->size();
  }

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const Set& set() const { return *set_; }
  [[nodiscard]] const std::vector<IncRef>& conflicts() const { return conflicts_; }

  /// The physical layouts of the dats this loop's arguments bind, in first-
  /// appearance order ("AoS", "SoA+AoS", ...) — the stats-table layout tag.
  [[nodiscard]] std::string layout_tag() const {
    std::string tag;
    bool seen[2] = {false, false};
    for (const auto& a : footprint_.args) {
      if (a.is_gbl || a.dat == nullptr) continue;
      const Layout l = a.dat->layout();
      if (seen[static_cast<int>(l)]) continue;
      seen[static_cast<int>(l)] = true;
      if (!tag.empty()) tag += "+";
      tag += layout_name(l);
    }
    return tag;
  }

  /// The pinned per-argument access summary (sets touched, map + access
  /// mode per argument) derived from the argument types at construction —
  /// the loop's public dependence interface (LoopChain's inspector input).
  [[nodiscard]] const LoopFootprint& footprint() const { return footprint_; }

  /// The pinned plan this loop would use under `cfg` (nullptr if the
  /// configuration needs no plan). Exposed so callers/tests can verify plan
  /// reuse across run() calls.
  [[nodiscard]] const Plan* plan(const ExecConfig& cfg) { return plan_for(strategy_for(cfg), cfg); }

  /// Cumulative wall seconds this handle spent acquiring coloring plans
  /// (cache lookups + builds, including range plans for slices). The
  /// distributed layer aggregates this across its rank loops into the
  /// stats `plan` column.
  [[nodiscard]] double plan_build_seconds() const { return plan_build_secs_; }

  /// Plan-acquisition seconds accumulated since the last flush to the stats
  /// registry, marking them reported. run() flushes through this under
  /// collect_stats; an external stats-owning runner (LoopChain, which drives
  /// slices that record nothing themselves) does the same so a loop's plan
  /// share is accounted exactly once whichever path executes it.
  [[nodiscard]] double fresh_plan_seconds() {
    const double d = plan_build_secs_ - plan_secs_reported_;
    plan_secs_reported_ = plan_build_secs_;
    return d;
  }

 private:
  /// The single source of truth for backend -> coloring-strategy selection
  /// (used by run(), run_slice() and plan()). nullopt = no plan needed.
  [[nodiscard]] std::optional<ColoringStrategy> strategy_for(const ExecConfig& cfg) const {
    // Simt always schedules work-groups through a TwoLevel plan, conflicts
    // or not (the dynamic block queue lives in the plan). Its contiguous
    // chunks scatter an indirect RW argument lane by lane, so lanes that
    // share a target would lose updates.
    if (cfg.backend == Backend::Simt) {
      OPV_REQUIRE(!has_indirect_rw, "loop '" << name_
                                             << "': Simt cannot run an indirect RW argument "
                                                "(lanes sharing a target would lose updates); "
                                                "use Simd or OpenMP");
      return ColoringStrategy::TwoLevel;
    }
    if (!has_inc || cfg.backend == Backend::Seq) return std::nullopt;
    // AutoVec requires lane independence: TwoLevel cannot provide it, so
    // fall back to BlockPermute (the paper's scheme for enabling compiler
    // vectorization of gather-scatter loops). Simd needs it for an indirect
    // RW argument, for the same reason Simt rejects one.
    if ((cfg.backend == Backend::AutoVec || (cfg.backend == Backend::Simd && has_indirect_rw)) &&
        cfg.coloring == ColoringStrategy::TwoLevel)
      return ColoringStrategy::BlockPermute;
    // Scalar OpenMP races are handled at block granularity only.
    const ColoringStrategy strat =
        cfg.backend == Backend::OpenMP ? ColoringStrategy::TwoLevel : cfg.coloring;
    // TwoLevel's block colors only keep threads apart, and Simd's
    // contiguous scatter already serializes conflicting lanes: a one-thread
    // team sweeps its range in ascending order without a plan (the paper's
    // MPI+vector stub, Fig. 3b).
    if (strat == ColoringStrategy::TwoLevel && detail::resolve_threads(cfg.nthreads) == 1)
      return std::nullopt;
    return strat;
  }
  /// Memoized plan lookup: one pinned shared_ptr per coloring strategy.
  /// Acquisition wall time (the cache lookup plus any build it triggers)
  /// accumulates into plan_build_secs_ — the ROADMAP's plan-construction
  /// cost, reported through the stats `plan` column. The build's internal
  /// parallelism is bounded by cfg's thread budget (a dist rank loop with
  /// nthreads=1 must not spawn a full-machine team). nullptr without a
  /// strategy.
  const Plan* plan_for(std::optional<ColoringStrategy> strat, const ExecConfig& cfg) {
    if (!strat) return nullptr;
    PlanSlot& s = plans_[static_cast<int>(*strat)];
    if (!s.plan || s.block_size != cfg.block_size) {
      WallTimer t;
      s.plan = PlanCache::instance().get(*set_, conflicts_, cfg.block_size, *strat,
                                         detail::resolve_threads(cfg.nthreads));
      plan_build_secs_ += t.seconds();
      s.block_size = cfg.block_size;
    }
    return s.plan.get();
  }

  /// Range plan for a Slice, built once and pinned (slices are per-handle
  /// state, so they bypass the process-wide PlanCache).
  const Plan& slice_plan(Slice& s, ColoringStrategy strat, const ExecConfig& cfg) {
    if (!s.plan_ || s.plan_->block_size != cfg.block_size || s.plan_->strategy != strat) {
      WallTimer t;
      s.plan_ = build_plan(s.size(), conflicts_, cfg.block_size, strat, s.lo_,
                           detail::resolve_threads(cfg.nthreads));
      plan_build_secs_ += t.seconds();
    }
    return *s.plan_;
  }

  /// The bound argument tuple every thread copies, W lanes wide.
  template <int W>
  auto bound() const {
    return std::apply([](const auto&... a) { return std::make_tuple(detail::bind<W>(a)...); },
                      args_);
  }

  /// The one backend switch (and, for the vector backends, the one width
  /// dispatch) behind run() and run_slice(): the elements [lo, hi), under
  /// `plan` when the schedule needs one.
  void execute(const ExecConfig& cfg, idx_t lo, idx_t hi, const Plan* plan) {
    using detail::Mode;
    const Backend backend = cfg.backend;
    const int nth = detail::resolve_threads(cfg.nthreads);
    switch (backend) {
      case Backend::Seq: detail::exec_seq(kernel_, bound<1>(), lo, hi); break;
      case Backend::OpenMP:
        detail::sweep<Mode::Scalar, 1, has_gbl_reduction>(kernel_, bound<1>(), std::tuple<>{}, lo,
                                                          hi, plan, nth);
        break;
      case Backend::AutoVec:
        detail::sweep<Mode::Hint, 1, has_gbl_reduction>(kernel_, bound<1>(), std::tuple<>{}, lo,
                                                        hi, plan, nth);
        break;
      case Backend::Simd:
      case Backend::Simt: {
        if constexpr (detail::vector_callable<Kernel, Args...>) {
          auto vsweep = [&]<int W>() {
            if (backend == Backend::Simt)
              detail::sweep<Mode::Simt, W, has_gbl_reduction>(kernel_, bound<1>(), bound<W>(), lo,
                                                              hi, plan, nth);
            else
              detail::sweep<Mode::Simd, W, has_gbl_reduction>(kernel_, bound<1>(), bound<W>(), lo,
                                                              hi, plan, nth);
          };
          using Real = typename detail::first_real<Args...>::type;
          const int w = cfg.simd_width > 0 ? cfg.simd_width : simd::max_lanes<Real>;
          switch (w) {
            case 4: vsweep.template operator()<4>(); break;
            case 8: vsweep.template operator()<8>(); break;
            case 16: vsweep.template operator()<16>(); break;
            default:
              OPV_REQUIRE(false, "unsupported simd width " << w << " (use 4, 8 or 16)");
          }
        } else {
          OPV_REQUIRE(false, "loop '" << name_
                                      << "': kernel has no vector instantiation (scalar-only "
                                         "callable); use Seq/OpenMP/AutoVec");
        }
        break;
      }
    }
  }

  struct PlanSlot {
    int block_size = -1;
    std::shared_ptr<const Plan> plan;
  };

  Kernel kernel_;
  std::string name_;
  const Set* set_;
  std::tuple<Args...> args_;
  LoopFootprint footprint_;
  std::vector<IncRef> conflicts_;
  LoopRecord* stats_ = nullptr;
  PlanSlot plans_[3];
  double plan_build_secs_ = 0.0;     ///< cumulative plan acquisition time
  double plan_secs_reported_ = 0.0;  ///< share already flushed to stats_
};

template <class Kernel, class... Args>
Loop(Kernel, std::string, const Set&, Args...) -> Loop<Kernel, Args...>;

// ===== the OP2-shaped free function ==========================================

/// Execute `kernel` for every element of `set`, with the given typed
/// argument descriptors, under the given execution configuration.
///
/// Mirrors op_par_loop(kernel, "name", set, op_arg_dat(...), ...). This is a
/// compatibility wrapper over a one-shot Loop; steady-state iteration should
/// construct the Loop once and call run() repeatedly.
template <class Kernel, class... Args>
void par_loop(Kernel kernel, const char* name, const Set& set, const ExecConfig& cfg,
              Args... args) {
  Loop<Kernel, Args...> loop(std::move(kernel), name, set, args...);
  loop.run(cfg);
}

}  // namespace opv
