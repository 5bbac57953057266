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

// ===== bound scalar arguments ==============================================

template <class S, AccessMode A, int Dim, bool Ind>
struct BoundDat {
  S* data = nullptr;
  const idx_t* map = nullptr;
  int map_dim = 0;
  int map_idx = 0;
  Layout layout = Layout::AoS;  ///< physical layout of the bound dat
  idx_t plane = 0;              ///< padded rows (SoA plane stride)
  idx_t stgt = 0;               ///< staged element target (non-AoS scalar path)
  S scratch[kMaxDim] = {};      ///< staged element row (non-AoS scalar path)
};

template <class S, AccessMode A>
struct BoundGbl {
  S* target = nullptr;
  int dim = 0;
  S scratch[kMaxDim] = {};
};

template <class S, AccessMode A, int Dim, bool Ind>
inline BoundDat<S, A, Dim, Ind> bind(const Arg<S, A, Dim, Ind>& a) {
  if constexpr (Ind) {
    return {a.dat->data(), a.map->data(), a.map->dim(), a.map_idx, a.dat->layout(),
            a.dat->plane()};
  } else {
    return {a.dat->data(), nullptr, 0, 0, a.dat->layout(), a.dat->plane()};
  }
}
template <class S, AccessMode A>
inline BoundGbl<S, A> bind(const ArgGbl<S, A>& a) {
  return {a.ptr, a.dim, {}};
}

template <class S, AccessMode A, int Dim, bool Ind>
inline void thread_init(BoundDat<S, A, Dim, Ind>&) {}
template <class S, AccessMode A>
inline void thread_init(BoundGbl<S, A>& g) {
  if constexpr (A != AccessMode::READ)
    for (int c = 0; c < g.dim; ++c) g.scratch[c] = reduction_identity<A, S>();
}

template <class S, AccessMode A, int Dim, bool Ind>
inline void thread_merge(BoundDat<S, A, Dim, Ind>&) {}
template <class S, AccessMode A>
inline void thread_merge(BoundGbl<S, A>& g) {
  if constexpr (A != AccessMode::READ)
    for (int c = 0; c < g.dim; ++c) g.target[c] = reduction_combine<A>(g.target[c], g.scratch[c]);
}

template <class Tuple, std::size_t... Is>
inline void thread_init_all(Tuple& t, std::index_sequence<Is...>) {
  (thread_init(std::get<Is>(t)), ...);
}
template <class Tuple, std::size_t... Is>
inline void thread_merge_all(Tuple& t, std::index_sequence<Is...>) {
  (thread_merge(std::get<Is>(t)), ...);
}

/// Pointer handed to the scalar kernel for element e. The element stride is
/// the literal Dim, so the multiply strength-reduces.
/// Under a non-AoS layout the element's components are not contiguous, so
/// the row is STAGED into the per-arg scratch (current values pre-loaded for
/// every mode, so an INC/RW kernel sees the same load-add-store order the
/// AoS path has — Seq stays bitwise-identical across layouts) and kflush()
/// writes it back after the kernel body.
template <class S, AccessMode A, int Dim, bool Ind>
inline S* kptr(BoundDat<S, A, Dim, Ind>& b, idx_t e) {
  idx_t tgt;
  if constexpr (Ind) {
    tgt = b.map[static_cast<std::size_t>(e) * b.map_dim + b.map_idx];
  } else {
    tgt = e;
  }
  if (b.layout == Layout::AoS) [[likely]]
    return b.data + static_cast<std::size_t>(tgt) * Dim;
  b.stgt = tgt;
  for_each_dim<Dim>(
      [&](int c) { b.scratch[c] = b.data[layout_offset(b.layout, tgt, c, Dim, b.plane)]; });
  return b.scratch;
}
template <class S, AccessMode A>
inline S* kptr(BoundGbl<S, A>& g, idx_t) {
  if constexpr (A == AccessMode::READ) return g.target;
  else return g.scratch;
}

/// Post-kernel writeback of the staged scratch row (non-AoS layouts only;
/// a no-op for AoS, where the kernel wrote through the returned pointer).
template <class S, AccessMode A, int Dim, bool Ind>
inline void kflush(BoundDat<S, A, Dim, Ind>& b) {
  if constexpr (A == AccessMode::READ) return;
  if (b.layout == Layout::AoS) [[likely]]
    return;
  for_each_dim<Dim>(
      [&](int c) { b.data[layout_offset(b.layout, b.stgt, c, Dim, b.plane)] = b.scratch[c]; });
}
template <class S, AccessMode A>
inline void kflush(BoundGbl<S, A>&) {}

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

// ===== vector-path argument state ==========================================

template <class S, int W, AccessMode A, int Dim, bool Ind>
struct VDat {
  using V = simd::Vec<S, W>;
  using IV = simd::Vec<std::int32_t, W>;
  S* data = nullptr;
  const idx_t* map = nullptr;
  int map_dim = 0;
  int map_idx = 0;
  Layout layout = Layout::AoS;
  idx_t plane = 0;  ///< SoA component-plane stride (padded rows)
  V buf[kMaxDim];
  IV sidx;  ///< layout-scaled target index, kept for scatters

  /// Base pointer of component c's "plane": the address sidx (from lidx)
  /// is relative to. AoS interleaves components (+c), SoA keeps one dense
  /// plane per component, AoSoA interleaves 16-lane panels per component.
  S* comp(int c) const {
    switch (layout) {
      case Layout::AoS: return data + c;
      case Layout::SoA: return data + static_cast<std::size_t>(plane) * c;
      case Layout::AoSoA: return data + static_cast<std::size_t>(kAoSoALanes) * c;
    }
    return data + c;
  }
  /// Layout-scaled element index: comp(c)[lidx(e)] addresses element e's
  /// component c for every layout. AoS scales by dim, SoA is unit-stride,
  /// AoSoA adds a per-16-block skip over the other components' panels.
  /// The lane strides are compile-time literals.
  IV lidx(IV tgt) const {
    switch (layout) {
      case Layout::AoS: return tgt * IV(Dim);
      case Layout::SoA: return tgt;
      case Layout::AoSoA:
        return tgt + (tgt >> kAoSoAShift) * IV(static_cast<std::int32_t>(kAoSoALanes) * (Dim - 1));
    }
    return tgt * IV(Dim);
  }
};

template <class S, int W, AccessMode A>
struct VGbl {
  using V = simd::Vec<S, W>;
  S* target = nullptr;
  int dim = 0;
  V buf[kMaxDim];
};

template <int W, class S, AccessMode A, int Dim, bool Ind>
inline VDat<S, W, A, Dim, Ind> vbind(const Arg<S, A, Dim, Ind>& a) {
  VDat<S, W, A, Dim, Ind> v;
  v.data = a.dat->data();
  if constexpr (Ind) {
    v.map = a.map->data();
    v.map_dim = a.map->dim();
    v.map_idx = a.map_idx;
  }
  v.layout = a.dat->layout();
  v.plane = a.dat->plane();
  return v;
}
template <int W, class S, AccessMode A>
inline VGbl<S, W, A> vbind(const ArgGbl<S, A>& a) {
  VGbl<S, W, A> v;
  v.target = a.ptr;
  v.dim = a.dim;
  return v;
}

template <class S, int W, AccessMode A, int Dim, bool Ind>
inline void vthread_init(VDat<S, W, A, Dim, Ind>&) {}
template <class S, int W, AccessMode A>
inline void vthread_init(VGbl<S, W, A>& g) {
  using V = simd::Vec<S, W>;
  for (int c = 0; c < g.dim; ++c) {
    if constexpr (A == AccessMode::READ) g.buf[c] = V(g.target[c]);
    else g.buf[c] = V(reduction_identity<A, S>());
  }
}

template <class S, int W, AccessMode A, int Dim, bool Ind>
inline void vthread_merge(VDat<S, W, A, Dim, Ind>&) {}
template <class S, int W, AccessMode A>
inline void vthread_merge(VGbl<S, W, A>& g) {
  if constexpr (A == AccessMode::READ) return;
  for (int c = 0; c < g.dim; ++c) {
    S lanes;
    if constexpr (A == AccessMode::INC) lanes = simd::hsum(g.buf[c]);
    else if constexpr (A == AccessMode::MIN) lanes = simd::hmin(g.buf[c]);
    else lanes = simd::hmax(g.buf[c]);
    g.target[c] = reduction_combine<A>(g.target[c], lanes);
  }
}

template <class Tuple, std::size_t... Is>
inline void vthread_init_all(Tuple& t, std::index_sequence<Is...>) {
  (vthread_init(std::get<Is>(t)), ...);
}
template <class Tuple, std::size_t... Is>
inline void vthread_merge_all(Tuple& t, std::index_sequence<Is...>) {
  (vthread_merge(std::get<Is>(t)), ...);
}

/// Pointer handed to the vector kernel instantiation.
template <class S, int W, AccessMode A, int Dim, bool Ind>
inline simd::Vec<S, W>* vkptr(VDat<S, W, A, Dim, Ind>& a) {
  return a.buf;
}
template <class S, int W, AccessMode A>
inline simd::Vec<S, W>* vkptr(VGbl<S, W, A>& a) {
  return a.buf;
}

// ---- gather phase (Fig. 3b "gather data to registers") ---------------------
// Every access-mode decision below is `if constexpr`, and every
// per-component loop goes through for_each_dim<Dim>: fully unrolled
// straight-line gathers/scatters with literal strides.

/// Load a contiguous chunk of W elements starting at n.
template <class S, int W, AccessMode A, int Dim, bool Ind>
inline void vload(VDat<S, W, A, Dim, Ind>& a, idx_t n) {
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
  } else {
    if constexpr (A == AccessMode::INC) {
      for_each_dim<Dim>([&](int c) { a.buf[c] = V(S(0)); });
    } else if constexpr (A != AccessMode::WRITE) {
      if constexpr (Dim == 1) {
        a.buf[0] = V::loadu(a.data + n);
      } else if (a.layout == Layout::SoA) {
        // The SoA payoff: what AoS serves with W strided touches per
        // component is one unit-stride plane load here.
        for_each_dim<Dim>([&](int c) {
          a.buf[c] = V::loadu(a.data + static_cast<std::size_t>(a.plane) * c + n);
        });
      } else if (a.layout == Layout::AoSoA) {
        if ((n & (kAoSoALanes - 1)) + W <= kAoSoALanes) {
          // Chunk lies inside one 16-lane panel: unit-stride per component.
          for_each_dim<Dim>([&](int c) {
            a.buf[c] = V::loadu(a.data + layout_offset(Layout::AoSoA, n, c, Dim, a.plane));
          });
        } else {
          const IV li = a.lidx(IV::iota(static_cast<std::int32_t>(n)));
          for_each_dim<Dim>([&](int c) { a.buf[c] = V::gather(a.comp(c), li); });
        }
      } else {
        for_each_dim<Dim>([&](int c) {
          a.buf[c] = V::strided(a.data + static_cast<std::size_t>(n) * Dim + c, Dim);
        });
      }
    }
  }
}
template <class S, int W, AccessMode A>
inline void vload(VGbl<S, W, A>&, idx_t) {}

/// Load a chunk of W permuted elements whose ids are in eidx.
template <class S, int W, AccessMode A, int Dim, bool Ind>
inline void vload_perm(VDat<S, W, A, Dim, Ind>& a, simd::Vec<std::int32_t, W> eidx) {
  using V = simd::Vec<S, W>;
  using IV = simd::Vec<std::int32_t, W>;
  if constexpr (Ind) {
    const IV tgt = IV::gather(a.map + a.map_idx, eidx * IV(a.map_dim));
    a.sidx = a.lidx(tgt);
    if constexpr (A == AccessMode::READ || A == AccessMode::RW) {
      for_each_dim<Dim>([&](int c) { a.buf[c] = V::gather(a.comp(c), a.sidx); });
    } else {
      for_each_dim<Dim>([&](int c) { a.buf[c] = V(S(0)); });
    }
  } else {
    a.sidx = a.lidx(eidx);
    if constexpr (A == AccessMode::INC) {
      for_each_dim<Dim>([&](int c) { a.buf[c] = V(S(0)); });
    } else if constexpr (A != AccessMode::WRITE) {
      // Formerly-direct data must now be gathered (paper section 4: the
      // cost the permute colorings add).
      for_each_dim<Dim>([&](int c) { a.buf[c] = V::gather(a.comp(c), a.sidx); });
    }
  }
}
template <class S, int W, AccessMode A>
inline void vload_perm(VGbl<S, W, A>&, simd::Vec<std::int32_t, W>) {}

// ---- scatter phase ----------------------------------------------------------

/// Flush a contiguous chunk. Lanes of a contiguous chunk may share an
/// indirect target, so indirect increments scatter serially per lane.
template <class S, int W, AccessMode A, int Dim, bool Ind>
inline void vflush(VDat<S, W, A, Dim, Ind>& a, idx_t n) {
  using V = simd::Vec<S, W>;
  using IV = simd::Vec<std::int32_t, W>;
  if constexpr (Ind) {
    if constexpr (A == AccessMode::INC) {
      for_each_dim<Dim>([&](int c) { simd::scatter_add_serial(a.comp(c), a.sidx, a.buf[c]); });
    } else if constexpr (A == AccessMode::WRITE || A == AccessMode::RW) {
      for_each_dim<Dim>([&](int c) { simd::scatter_serial(a.comp(c), a.sidx, a.buf[c]); });
    }
  } else {
    if constexpr (A == AccessMode::WRITE || A == AccessMode::RW) {
      if constexpr (Dim == 1) {
        simd::storeu(a.data + n, a.buf[0]);
      } else if (a.layout == Layout::SoA) {
        for_each_dim<Dim>([&](int c) {
          simd::storeu(a.data + static_cast<std::size_t>(a.plane) * c + n, a.buf[c]);
        });
      } else if (a.layout == Layout::AoSoA) {
        if ((n & (kAoSoALanes - 1)) + W <= kAoSoALanes) {
          for_each_dim<Dim>([&](int c) {
            simd::storeu(a.data + layout_offset(Layout::AoSoA, n, c, Dim, a.plane), a.buf[c]);
          });
        } else {
          const IV li = a.lidx(IV::iota(static_cast<std::int32_t>(n)));
          for_each_dim<Dim>([&](int c) { simd::scatter_serial(a.comp(c), li, a.buf[c]); });
        }
      } else {
        for_each_dim<Dim>([&](int c) {
          simd::store_strided(a.data + static_cast<std::size_t>(n) * Dim + c, Dim, a.buf[c]);
        });
      }
    } else if constexpr (A == AccessMode::INC) {
      if constexpr (Dim == 1) {
        const V cur = V::loadu(a.data + n);
        simd::storeu(a.data + n, cur + a.buf[0]);
      } else if (a.layout == Layout::SoA) {
        for_each_dim<Dim>([&](int c) {
          S* p = a.data + static_cast<std::size_t>(a.plane) * c + n;
          simd::storeu(p, V::loadu(p) + a.buf[c]);
        });
      } else if (a.layout == Layout::AoSoA) {
        if ((n & (kAoSoALanes - 1)) + W <= kAoSoALanes) {
          for_each_dim<Dim>([&](int c) {
            S* p = a.data + layout_offset(Layout::AoSoA, n, c, Dim, a.plane);
            simd::storeu(p, V::loadu(p) + a.buf[c]);
          });
        } else {
          const IV li = a.lidx(IV::iota(static_cast<std::int32_t>(n)));
          for_each_dim<Dim>([&](int c) { simd::scatter_add_serial(a.comp(c), li, a.buf[c]); });
        }
      } else {
        for_each_dim<Dim>([&](int c) {
          S* p = a.data + static_cast<std::size_t>(n) * Dim + c;
          const V cur = V::strided(p, Dim);
          simd::store_strided(p, Dim, cur + a.buf[c]);
        });
      }
    }
  }
}
template <class S, int W, AccessMode A>
inline void vflush(VGbl<S, W, A>&, idx_t) {}

/// Flush a permuted chunk. Element ids are distinct, so direct writes may
/// scatter; the lanes of a permuted chunk are one element color (or the loop
/// has no indirect increment), so indirect increments use the hardware
/// scatter.
template <class S, int W, AccessMode A, int Dim, bool Ind>
inline void vflush_perm(VDat<S, W, A, Dim, Ind>& a) {
  if constexpr (Ind) {
    if constexpr (A == AccessMode::INC) {
      for_each_dim<Dim>([&](int c) { simd::scatter_add_hw(a.comp(c), a.sidx, a.buf[c]); });
    } else if constexpr (A == AccessMode::WRITE || A == AccessMode::RW) {
      for_each_dim<Dim>([&](int c) { simd::scatter_serial(a.comp(c), a.sidx, a.buf[c]); });
    }
  } else {
    if constexpr (A == AccessMode::WRITE || A == AccessMode::RW) {
      for_each_dim<Dim>([&](int c) { simd::scatter_serial(a.comp(c), a.sidx, a.buf[c]); });
    } else if constexpr (A == AccessMode::INC) {
      for_each_dim<Dim>([&](int c) { simd::scatter_add_serial(a.comp(c), a.sidx, a.buf[c]); });
    }
  }
}
template <class S, int W, AccessMode A>
inline void vflush_perm(VGbl<S, W, A>&) {}

/// SIMT colored increment (Fig. 3a): indirect increments are applied
/// color-by-color with a lane mask, serializing conflicting work-items
/// exactly like the generated OpenCL kernel does.
template <class S, int W, AccessMode A, int Dim, bool Ind>
inline void vflush_simt(VDat<S, W, A, Dim, Ind>& a, idx_t n, const std::int32_t* elem_color,
                        int ncolors) {
  using V = simd::Vec<S, W>;
  using IV = simd::Vec<std::int32_t, W>;
  if constexpr (Ind && A == AccessMode::INC) {
    const IV cv = IV::loadu(elem_color + n);
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
inline void vflush_simt(VGbl<S, W, A>&, idx_t, const std::int32_t*, int) {}

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
  k(vkptr(std::get<Is>(t))...);
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

/// The serial reference executor: the scalar kernel over positions
/// [lo, hi) (element ids[j], or j when ids is null) in ascending order.
template <class Kernel, class Tuple>
void exec_seq(Kernel& k, Tuple t, const idx_t* ids, idx_t lo, idx_t hi) {
  constexpr auto seq = std::make_index_sequence<std::tuple_size_v<Tuple>>{};
  thread_init_all(t, seq);
  run_scalar(k, t, ids, lo, hi, seq);
  thread_merge_all(t, seq);
}

/// How the parallel skeleton runs an element range: the scalar kernel
/// (OpenMP), the scalar kernel under the `omp simd` hint (AutoVec), or the
/// W-wide vector kernel (Simd; Simt with its per-color masked increments).
enum class Mode { Scalar, Hint, Simd, Simt };

/// What one execution walks: with no plan, positions [lo, hi) of the id
/// list `ids` (null = the contiguous element range); with a plan, its
/// colors — global colors for FullPermute, block colors otherwise.
struct Schedule {
  const idx_t* ids = nullptr;
  idx_t lo = 0;
  idx_t hi = 0;
  const Plan* plan = nullptr;
};

/// The element-range body: positions [lo, hi) of `ids` (null = contiguous
/// ids). Vector modes run W-wide chunks first — contiguous vload/vflush
/// (vflush_simt on Simt, with the range's `ncol` element colors from
/// `ecol`), or permuted vload_perm/vflush_perm — and every mode finishes
/// with the scalar kernel: the pre/main/post structure of paper section 4.2.
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
      for (; lo + W <= hi; lo += W) {
        vload_all(vt, lo, seq);
        vcall(k, vt, seq);
        if constexpr (M == Mode::Simt) vflush_simt_all(vt, lo, ecol, ncol, seq);
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
/// thread (scalar state, plus W-wide state on the vector modes; `VT` is
/// empty otherwise), walk the schedule, and — for loops with a global
/// reduction — merge the threads' partials in thread-id order, so the
/// result does not depend on which thread finishes first.
template <Mode M, int W, bool Reduce, class Kernel, class ST, class VT>
void sweep(Kernel& k, const ST& sproto, const VT& vproto, const Schedule& s, int nthreads) {
  constexpr auto seq = std::make_index_sequence<std::tuple_size_v<ST>>{};
  constexpr bool vec = M == Mode::Simd || M == Mode::Simt;
  const Plan* plan = s.plan;
  const std::int32_t* ecol = plan ? plan->elem_color.data() : nullptr;
  std::vector<std::atomic<idx_t>> queue(M == Mode::Simt && plan ? plan->nblock_colors : 0);
  for (auto& q : queue) q.store(0, std::memory_order_relaxed);
#pragma omp parallel num_threads(nthreads)
  {
    ST st = sproto;
    VT vt = vproto;
    thread_init_all(st, seq);
    if constexpr (vec) vthread_init_all(vt, seq);
    auto body = [&](const idx_t* ids, idx_t lo, idx_t hi, int ncol = 1) {
      run_elems<M, W>(k, st, vt, ids, lo, hi, ecol, ncol, seq);
    };
    const int tid = omp_get_thread_num();
    const int nth = omp_get_num_threads();
    if (!plan)
      walk_direct<W>(body, s.ids, s.lo, s.hi, tid, nth);
    else if (plan->strategy == ColoringStrategy::FullPermute)
      walk_global_colors<W>(body, *plan, tid, nth);
    else
      walk_block_colors(body, *plan, queue.empty() ? nullptr : queue.data());
    if constexpr (Reduce) {
#pragma omp for ordered schedule(static, 1)
      for (int t = 0; t < nth; ++t) {
#pragma omp ordered
        {
          if constexpr (vec) vthread_merge_all(vt, seq);
          thread_merge_all(st, seq);
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
    const idx_t n = exec_limit();
    if (n == 0) return;

    WallTimer timer;
    execute(cfg, cfg.backend, {nullptr, 0, n, plan(cfg)});
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

  /// A pinned element-index view of this loop's iteration space, executable
  /// with the loop's kernel instantiations and a colored schedule derived
  /// from the same conflict analysis (paper section 6.5's interior/boundary
  /// phases: the distributed layer runs one Slice per phase). The schedule
  /// (a subset coloring plan for loops with conflicts) is built lazily on
  /// the first run_slice and pinned for the Slice's lifetime.
  class Slice {
   public:
    Slice() = default;
    [[nodiscard]] idx_t size() const { return static_cast<idx_t>(elems_.size()); }
    [[nodiscard]] bool empty() const { return elems_.empty(); }
    [[nodiscard]] const aligned_vector<idx_t>& elems() const { return elems_; }
    /// The pinned subset plan (nullptr until a conflicted run builds it).
    [[nodiscard]] const Plan* plan() const { return plan_.get(); }

   private:
    friend class Loop;
    aligned_vector<idx_t> elems_;
    std::shared_ptr<const Plan> plan_;
    int block_size_ = -1;
    ColoringStrategy strat_ = ColoringStrategy::TwoLevel;
  };

  /// Pin a subset of this loop's iteration space for phased execution.
  /// Element ids must lie inside the executed range (exec_limit()).
  [[nodiscard]] Slice make_slice(aligned_vector<idx_t> elems) const {
    const idx_t limit = exec_limit();
    for (idx_t e : elems)
      OPV_REQUIRE(e >= 0 && e < limit, "loop '" << name_ << "': slice element " << e
                                                << " outside the executed range [0," << limit
                                                << ")");
    Slice s;
    s.elems_ = std::move(elems);
    return s;
  }

  /// Execute only the slice's elements. Race-handling mirrors run(): loops
  /// with indirect conflicts go through a subset coloring plan (BlockPermute
  /// by default, FullPermute if cfg asks for it — TwoLevel has no contiguous
  /// blocks to offer a subset, and the Simt queue model likewise executes
  /// its slice through the BlockPermute schedule). Global reductions
  /// init/merge per call, so running a loop as interior + boundary slices
  /// accumulates exactly like one full run. Stats are the caller's business
  /// (a phased caller owns the aggregate timing), so nothing is recorded.
  void run_slice(const ExecConfig& cfg, Slice& s) {
    const idx_t n = s.size();
    if (n == 0) return;
    // Simt's queue model needs contiguous blocks: its slices run the Simd
    // schedules (through the BlockPermute subset plan when conflicted).
    const Backend be = cfg.backend == Backend::Simt ? Backend::Simd : cfg.backend;
    const Plan* plan = has_inc && be != Backend::Seq ? &slice_plan(s, cfg) : nullptr;
    execute(cfg, be, {s.elems_.data(), 0, n, plan});
  }

  /// Execute only the contiguous element range [lo, hi) of the executed
  /// range, in place of run(). Seq preserves the exact ascending element
  /// order (so a cover of ranges executed in order is bitwise-identical to
  /// one run(), increments included); the parallel backends take the same
  /// race-free direct path run() would — loops with indirect conflicts must
  /// go through a Slice there (the LoopChain executor routes them so).
  void run_range(const ExecConfig& cfg, idx_t lo, idx_t hi) {
    if (hi <= lo) return;
    const idx_t limit = exec_limit();
    OPV_REQUIRE(lo >= 0 && hi <= limit, "loop '" << name_ << "': range [" << lo << "," << hi
                                                 << ") outside the executed range [0," << limit
                                                 << ")");
    // The Simt queue model schedules through a plan; contiguous ranges
    // execute via run_slice's BlockPermute subset schedule instead.
    OPV_REQUIRE(cfg.backend != Backend::Simt,
                "loop '" << name_ << "': run_range is not available on Simt");
    OPV_REQUIRE(!has_inc || cfg.backend == Backend::Seq,
                "loop '" << name_
                         << "': run_range on a parallel backend requires a race-free loop; use "
                            "run_slice (subset coloring)");
    execute(cfg, cfg.backend, {nullptr, lo, hi, nullptr});
  }

  /// The executed range [0, exec_limit()) shared by run(), run_slice() and
  /// run_range(). Loops with indirect increments redundantly execute the
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
    bool seen[3] = {false, false, false};
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
  [[nodiscard]] const Plan* plan(const ExecConfig& cfg) {
    const auto strat = strategy_for(cfg);
    if (!strat) return nullptr;
    return &plan_for(*strat, cfg.block_size, detail::resolve_threads(cfg.nthreads));
  }

  /// Cumulative wall seconds this handle spent acquiring coloring plans
  /// (cache lookups + builds, including subset plans for slices). The
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
  /// (used by run() and plan()). nullopt = no plan needed.
  [[nodiscard]] static std::optional<ColoringStrategy> strategy_for(const ExecConfig& cfg) {
    // Simt always schedules work-groups through a TwoLevel plan, conflicts
    // or not (the dynamic block queue lives in the plan).
    if (cfg.backend == Backend::Simt) return ColoringStrategy::TwoLevel;
    if (!has_inc || cfg.backend == Backend::Seq) return std::nullopt;
    // Scalar OpenMP races are handled at block granularity only.
    if (cfg.backend == Backend::OpenMP) return ColoringStrategy::TwoLevel;
    // AutoVec requires lane independence: TwoLevel cannot provide it, so
    // fall back to BlockPermute (the paper's scheme for enabling compiler
    // vectorization of gather-scatter loops).
    if (cfg.backend == Backend::AutoVec && cfg.coloring == ColoringStrategy::TwoLevel)
      return ColoringStrategy::BlockPermute;
    return cfg.coloring;
  }
  /// Memoized plan lookup: one pinned shared_ptr per coloring strategy.
  /// Acquisition wall time (the cache lookup plus any build it triggers)
  /// accumulates into plan_build_secs_ — the ROADMAP's plan-construction
  /// cost, reported through the stats `plan` column. `nthreads` is this
  /// loop's thread budget, bounding the build's internal parallelism (a
  /// dist rank loop with nthreads=1 must not spawn a full-machine team).
  const Plan& plan_for(ColoringStrategy strat, int block_size, int nthreads) {
    PlanSlot& s = plans_[static_cast<int>(strat)];
    if (!s.plan || s.block_size != block_size) {
      WallTimer t;
      s.plan = PlanCache::instance().get(*set_, conflicts_, block_size, strat, nthreads);
      plan_build_secs_ += t.seconds();
      s.block_size = block_size;
    }
    return *s.plan;
  }

  /// Subset plan for a Slice, built once and pinned (slices are per-handle
  /// state, so they bypass the process-wide PlanCache). Subsets have no
  /// contiguous blocks, so TwoLevel/Simt requests resolve to BlockPermute —
  /// the same block-color / element-color structure, iterated through a
  /// permutation.
  const Plan& slice_plan(Slice& s, const ExecConfig& cfg) {
    const ColoringStrategy strat = cfg.backend != Backend::Simt &&
                                           cfg.coloring == ColoringStrategy::FullPermute
                                       ? ColoringStrategy::FullPermute
                                       : ColoringStrategy::BlockPermute;
    const int bs = cfg.block_size;
    if (!s.plan_ || s.block_size_ != bs || s.strat_ != strat) {
      WallTimer t;
      std::vector<IncRef> sorted = conflicts_;
      std::sort(sorted.begin(), sorted.end());
      sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
      s.plan_ = build_plan(s.size(), sorted, bs, strat, s.elems_.data(),
                           detail::resolve_threads(cfg.nthreads));
      plan_build_secs_ += t.seconds();
      s.block_size_ = bs;
      s.strat_ = strat;
    }
    return *s.plan_;
  }

  /// The bound argument tuple every thread copies: scalar state (W == 1)
  /// or W-wide vector state.
  template <int W>
  auto bound() const {
    return std::apply(
        [](const auto&... a) {
          if constexpr (W == 1) return std::make_tuple(detail::bind(a)...);
          else return std::make_tuple(detail::vbind<W>(a)...);
        },
        args_);
  }

  /// The one backend switch (and, for the vector backends, the one width
  /// dispatch) behind run(), run_slice() and run_range().
  void execute(const ExecConfig& cfg, Backend backend, const detail::Schedule& s) {
    using detail::Mode;
    const int nth = detail::resolve_threads(cfg.nthreads);
    switch (backend) {
      case Backend::Seq: detail::exec_seq(kernel_, bound<1>(), s.ids, s.lo, s.hi); break;
      case Backend::OpenMP:
        detail::sweep<Mode::Scalar, 1, has_gbl_reduction>(kernel_, bound<1>(), std::tuple<>{}, s,
                                                          nth);
        break;
      case Backend::AutoVec:
        detail::sweep<Mode::Hint, 1, has_gbl_reduction>(kernel_, bound<1>(), std::tuple<>{}, s,
                                                        nth);
        break;
      case Backend::Simd:
      case Backend::Simt: {
        if constexpr (detail::vector_callable<Kernel, Args...>) {
          auto vsweep = [&]<int W>() {
            if (backend == Backend::Simt)
              detail::sweep<Mode::Simt, W, has_gbl_reduction>(kernel_, bound<1>(), bound<W>(), s,
                                                              nth);
            else
              detail::sweep<Mode::Simd, W, has_gbl_reduction>(kernel_, bound<1>(), bound<W>(), s,
                                                              nth);
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
