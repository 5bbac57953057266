// Tests for the typed-argument API and the reusable Loop handle:
// compile-time rejection of invalid access/argument combinations and of
// any Dim not taken from a FixedDat, Loop::run() equivalence with one-shot par_loop across
// backends, plan pinning (pointer stability across runs), the one-thread
// plan-free TwoLevel rule, stats accumulation through the pre-bound slot,
// and range (Slice) execution.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/context.hpp"
#include "core/op2.hpp"
#include "mesh/generators.hpp"

namespace {

using namespace opv;

// ---- compile-time access validation ----------------------------------------
// Invalid combinations must fail to COMPILE (constraint violation), not
// throw: the requires-expressions below are the negative-compile assertions.

template <AccessMode A>
concept DatDirectArgOk = requires(FixedDat<double, 1>& d) { opv::arg<A>(d); };
template <AccessMode A>
concept DatIndirectArgOk = requires(FixedDat<double, 1>& d, const Map& m) {
  opv::arg<A>(d, 0, m);
};
template <AccessMode A>
concept GblArgOk = requires(double* p) { opv::arg_gbl<A>(p, 1); };

static_assert(DatDirectArgOk<opv::READ> && DatDirectArgOk<opv::WRITE> &&
              DatDirectArgOk<opv::RW> && DatDirectArgOk<opv::INC>);
static_assert(!DatDirectArgOk<opv::MIN>, "MIN reductions are global-only");
static_assert(!DatDirectArgOk<opv::MAX>, "MAX reductions are global-only");
static_assert(!DatIndirectArgOk<opv::MIN> && !DatIndirectArgOk<opv::MAX>);
static_assert(GblArgOk<opv::READ> && GblArgOk<opv::INC> && GblArgOk<opv::MIN> &&
              GblArgOk<opv::MAX>);
static_assert(!GblArgOk<opv::WRITE>, "globals cannot be element-wise written");
static_assert(!GblArgOk<opv::RW>, "globals cannot be read-modify-written");

// ---- compile-time Dim: the FixedDat's arity ---------------------------------
// A dataset descriptor takes its compile-time Dim from the FixedDat<T, N> it
// binds. A plain Dat (no compile-time arity) cannot be bound, and no
// explicit-Dim spelling compiles — not even one agreeing with N — on the
// free builders or on either context.

template <class D>
concept DimlessArgOk = requires(D& d, const Map& m) {
  opv::arg<opv::READ>(d);
  opv::arg<opv::READ>(d, 0, m);
};
static_assert(DimlessArgOk<FixedDat<double, 3>>);
static_assert(!DimlessArgOk<Dat<double>>, "a plain Dat has no compile-time arity");

template <int Dim, class D>
concept ExplicitDimArgOk = requires(D& d, const Map& m) { opv::arg<opv::READ, Dim>(d); } ||
                           requires(D& d, const Map& m) { opv::arg<opv::READ, Dim>(d, 0, m); };
static_assert(!ExplicitDimArgOk<4, FixedDat<double, 4>>, "no explicit Dim, even a matching one");
static_assert(!ExplicitDimArgOk<3, FixedDat<double, 4>> && !ExplicitDimArgOk<4, Dat<double>>);

template <int Dim, class H>
concept CtxExplicitDimArgOk = requires(LocalCtx& c, H d, LocalCtx::MapHandle m) {
  c.arg<opv::READ, Dim>(d);
} || requires(LocalCtx& c, H d, LocalCtx::MapHandle m) { c.arg<opv::READ, Dim>(d, 0, m); };
static_assert(!CtxExplicitDimArgOk<2, LocalCtx::FixedDatHandle<double, 2>>);

template <int Dim>
concept ArgTypeOk = requires { typename Arg<double, opv::READ, Dim, false>; };
static_assert(ArgTypeOk<1> && ArgTypeOk<kMaxDim>);
static_assert(!ArgTypeOk<0> && !ArgTypeOk<kMaxDim + 1>, "Arg accepts only Dim in [1,kMaxDim]");

static_assert(std::is_same_v<decltype(opv::arg<opv::READ>(std::declval<FixedDat<double, 4>&>())),
                             Arg<double, opv::READ, 4, false>>);
static_assert(
    std::is_same_v<decltype(opv::arg<opv::INC>(std::declval<FixedDat<double, 2>&>(), 0,
                                               std::declval<const Map&>())),
                   Arg<double, opv::INC, 2, true>>);
static_assert(std::is_same_v<decltype(std::declval<LocalCtx&>().arg<opv::RW>(
                                 std::declval<LocalCtx::FixedDatHandle<float, 3>>())),
                             Arg<float, opv::RW, 3, false>>);

// ---- compile-time conflict classification ----------------------------------

using DirectRead = Arg<double, opv::READ, 1, false>;
using IndirectInc = Arg<double, opv::INC, 1, true>;
using IndirectRead = Arg<double, opv::READ, 1, true>;
using WideInc = Arg<double, opv::INC, 4, true>;
using GblSum = ArgGbl<double, opv::INC>;
using GblCoef = ArgGbl<double, opv::READ>;

static_assert(arg_traits<WideInc>::dim == 4 && arg_traits<IndirectInc>::dim == 1);
static_assert(arg_traits<WideInc>::conflicting, "Dim does not change conflict class");

static_assert(!arg_traits<DirectRead>::conflicting);
static_assert(arg_traits<IndirectInc>::conflicting);
static_assert(!arg_traits<IndirectRead>::conflicting, "indirect reads are race-free");
static_assert(!arg_traits<GblSum>::conflicting && arg_traits<GblSum>::gbl_reduction);
static_assert(!arg_traits<GblCoef>::gbl_reduction);
static_assert(has_conflicts_v<DirectRead, IndirectInc>);
static_assert(!has_conflicts_v<DirectRead, IndirectRead, GblSum>);
static_assert(has_gbl_reduction_v<GblCoef, GblSum>);

// ---- fixture ----------------------------------------------------------------

struct EdgeKernel {
  template <class T>
  void operator()(const T* ql, const T* qr, const T* w, T* rl, T* rr, T* gsum) const {
    OPV_SIMD_MATH_USING;
    const T f = w[0] * sqrt(abs(qr[0] - ql[0]) + T(0.25));
    rl[0] += f;
    rr[0] -= f * T(0.5);
    gsum[0] += f;
  }
};

struct Fixture {
  mesh::UnstructuredMesh m = mesh::make_quad_box(23, 17);
  Set cells{"cells", m.ncells};
  Set edges{"edges", m.nedges};
  Map e2c{"e2c", edges, cells, 2, m.edge_cells};
  FixedDat<double, 1> q{"q", cells};
  FixedDat<double, 1> r{"r", cells};
  FixedDat<double, 1> w{"w", edges};
  double gsum = 0.0;

  Fixture() {
    Rng rng(11);
    for (idx_t c = 0; c < cells.size(); ++c) q.at(c) = rng.uniform(0.0, 2.0);
    for (idx_t e = 0; e < edges.size(); ++e) w.at(e) = rng.uniform(0.1, 1.0);
  }
};

// ---- Loop handle equivalence with one-shot par_loop -------------------------

TEST(LoopHandle, RepeatedRunsMatchOneShotParLoop) {
  const std::vector<ExecConfig> cfgs = {
      {.backend = Backend::Seq},
      {.backend = Backend::OpenMP, .nthreads = 3},
      {.backend = Backend::AutoVec},
      {.backend = Backend::Simd, .simd_width = 4},
      {.backend = Backend::Simd, .coloring = ColoringStrategy::FullPermute, .simd_width = 8},
      {.backend = Backend::Simd, .coloring = ColoringStrategy::BlockPermute, .simd_width = 8},
      {.backend = Backend::Simt, .simd_width = 8},
  };
  for (const auto& cfg : cfgs) {
    SCOPED_TRACE(cfg.to_string());
    Fixture a, b;

    // One-shot reference: call par_loop three times.
    for (int it = 0; it < 3; ++it)
      par_loop(EdgeKernel{}, "lh_free", a.edges, cfg, arg<opv::READ>(a.q, 0, a.e2c),
               arg<opv::READ>(a.q, 1, a.e2c), arg<opv::READ>(a.w),
               arg<opv::INC>(a.r, 0, a.e2c), arg<opv::INC>(a.r, 1, a.e2c),
               arg_gbl<opv::INC>(&a.gsum, 1));

    // Handle: construct once, run three times.
    Loop loop(EdgeKernel{}, std::string("lh_handle"), b.edges, arg<opv::READ>(b.q, 0, b.e2c),
              arg<opv::READ>(b.q, 1, b.e2c), arg<opv::READ>(b.w), arg<opv::INC>(b.r, 0, b.e2c),
              arg<opv::INC>(b.r, 1, b.e2c), arg_gbl<opv::INC>(&b.gsum, 1));
    static_assert(decltype(loop)::has_inc);
    static_assert(decltype(loop)::has_gbl_reduction);
    for (int it = 0; it < 3; ++it) loop.run(cfg);

    for (idx_t c = 0; c < a.cells.size(); ++c)
      ASSERT_NEAR(a.r.at(c), b.r.at(c), 1e-12 * (std::abs(a.r.at(c)) + 1)) << "cell " << c;
    EXPECT_NEAR(a.gsum, b.gsum, 1e-12 * (std::abs(a.gsum) + 1));
  }
}

// ---- plan pinning -----------------------------------------------------------

TEST(LoopHandle, PlanPointerStableAcrossRuns) {
  Fixture f;
  Loop loop(EdgeKernel{}, std::string("lh_plan"), f.edges, arg<opv::READ>(f.q, 0, f.e2c),
            arg<opv::READ>(f.q, 1, f.e2c), arg<opv::READ>(f.w), arg<opv::INC>(f.r, 0, f.e2c),
            arg<opv::INC>(f.r, 1, f.e2c), arg_gbl<opv::INC>(&f.gsum, 1));
  // Two threads: a one-thread TwoLevel team takes no plan at all.
  const ExecConfig cfg{.backend = Backend::Simd, .simd_width = 4, .nthreads = 2};
  loop.run(cfg);
  const Plan* p1 = loop.plan(cfg);
  ASSERT_NE(p1, nullptr);
  loop.run(cfg);
  loop.run(cfg);
  EXPECT_EQ(loop.plan(cfg), p1) << "plan must be pinned, not re-fetched";

  // A different strategy pins a different plan without evicting the first.
  const ExecConfig bp{.backend = Backend::Simd, .coloring = ColoringStrategy::BlockPermute,
                      .simd_width = 4, .nthreads = 2};
  loop.run(bp);
  const Plan* p2 = loop.plan(bp);
  ASSERT_NE(p2, nullptr);
  EXPECT_NE(p2, p1);
  EXPECT_EQ(loop.plan(cfg), p1);

  // The pinned plan is the same object the global cache would serve.
  EXPECT_EQ(p1, PlanCache::instance()
                    .get(f.edges, loop.conflicts(), cfg.block_size, ColoringStrategy::TwoLevel)
                    .get());
}

/// A one-thread team needs no coloring for TwoLevel: block colors only keep
/// threads apart, and Simd's contiguous scatter serializes conflicting
/// lanes. OpenMP and Simd then sweep the range in ascending order (OpenMP
/// bitwise Seq); the schemes whose lanes need element colors keep a plan.
TEST(LoopHandle, OneThreadTwoLevelNeedsNoPlan) {
  Fixture seq_f;
  Loop seq_loop(EdgeKernel{}, std::string("lh_1t_seq"), seq_f.edges,
                arg<opv::READ>(seq_f.q, 0, seq_f.e2c), arg<opv::READ>(seq_f.q, 1, seq_f.e2c),
                arg<opv::READ>(seq_f.w), arg<opv::INC>(seq_f.r, 0, seq_f.e2c),
                arg<opv::INC>(seq_f.r, 1, seq_f.e2c), arg_gbl<opv::INC>(&seq_f.gsum, 1));
  seq_loop.run(ExecConfig{.backend = Backend::Seq});

  Fixture f;
  Loop loop(EdgeKernel{}, std::string("lh_1t"), f.edges, arg<opv::READ>(f.q, 0, f.e2c),
            arg<opv::READ>(f.q, 1, f.e2c), arg<opv::READ>(f.w), arg<opv::INC>(f.r, 0, f.e2c),
            arg<opv::INC>(f.r, 1, f.e2c), arg_gbl<opv::INC>(&f.gsum, 1));
  static_assert(decltype(loop)::has_inc);
  const ExecConfig omp1{.backend = Backend::OpenMP, .nthreads = 1};
  EXPECT_EQ(loop.plan(omp1), nullptr);
  EXPECT_EQ(loop.plan(ExecConfig{.backend = Backend::Simd, .nthreads = 1}), nullptr);
  EXPECT_NE(loop.plan(ExecConfig{.backend = Backend::OpenMP, .nthreads = 2}), nullptr);
  EXPECT_NE(loop.plan(ExecConfig{.backend = Backend::Simd,
                                 .coloring = ColoringStrategy::BlockPermute,
                                 .nthreads = 1}),
            nullptr);
  EXPECT_NE(loop.plan(ExecConfig{.backend = Backend::Simd,
                                 .coloring = ColoringStrategy::FullPermute,
                                 .nthreads = 1}),
            nullptr);
  EXPECT_NE(loop.plan(ExecConfig{.backend = Backend::AutoVec, .nthreads = 1}), nullptr);
  EXPECT_NE(loop.plan(ExecConfig{.backend = Backend::Simt, .nthreads = 1}), nullptr);

  loop.run(omp1);
  for (idx_t c = 0; c < f.cells.size(); ++c) ASSERT_EQ(f.r.at(c), seq_f.r.at(c)) << "cell " << c;
  EXPECT_EQ(f.gsum, seq_f.gsum);
}

TEST(LoopHandle, DirectLoopNeedsNoPlan) {
  Fixture f;
  Loop loop([](const auto* a, auto* b) { b[0] = a[0]; }, std::string("lh_direct"), f.cells,
            arg<opv::READ>(f.q), arg<opv::WRITE>(f.r));
  static_assert(!decltype(loop)::has_inc);
  const ExecConfig cfg{.backend = Backend::Simd};
  loop.run(cfg);
  EXPECT_EQ(loop.plan(cfg), nullptr);
  for (idx_t c = 0; c < f.cells.size(); ++c) ASSERT_EQ(f.r.at(c), f.q.at(c));
}

// ---- stats through the pre-bound slot ---------------------------------------

TEST(LoopHandle, StatsAccumulateAcrossRuns) {
  Fixture f;
  StatsRegistry::instance().clear();
  Loop loop(EdgeKernel{}, std::string("lh_stats"), f.edges, arg<opv::READ>(f.q, 0, f.e2c),
            arg<opv::READ>(f.q, 1, f.e2c), arg<opv::READ>(f.w), arg<opv::INC>(f.r, 0, f.e2c),
            arg<opv::INC>(f.r, 1, f.e2c), arg_gbl<opv::INC>(&f.gsum, 1));
  const ExecConfig cfg{.backend = Backend::Seq};
  loop.run(cfg);
  loop.run(cfg);
  auto rec = StatsRegistry::instance().get("lh_stats");
  EXPECT_EQ(rec.calls, 2);
  EXPECT_EQ(rec.elements, 2 * f.edges.size());

  // clear() zeroes but keeps the slot valid: the handle keeps recording.
  StatsRegistry::instance().clear();
  EXPECT_EQ(StatsRegistry::instance().get("lh_stats").calls, 0);
  loop.run(cfg);
  rec = StatsRegistry::instance().get("lh_stats");
  EXPECT_EQ(rec.calls, 1);
  EXPECT_EQ(rec.elements, f.edges.size());
}

// Runtime (data-dependent) validation still throws.
TEST(LoopHandle, RuntimeValidationStillThrows) {
  Fixture f;
  EXPECT_THROW(arg<opv::READ>(f.q, 2, f.e2c), Error);   // idx out of range
  EXPECT_THROW(arg<opv::READ>(f.w, 0, f.e2c), Error);   // dat not on target set
  EXPECT_THROW(arg_gbl<opv::INC>(&f.gsum, 0), Error);   // dim < 1
  EXPECT_THROW(arg_gbl<opv::INC>(&f.gsum, 9), Error);   // dim > 8
}

// ---- range (Slice) execution ----------------------------------------------
// The phased distributed runner executes a loop as interior + boundary
// Slices and LoopChain as one Slice per tile; these tests pin the core
// contract: a slice runs exactly its range with the loop's kernel
// instantiations, race-free, with globals accumulating across slices.

/// Direct per-element transform: any slice cover computes bitwise the same
/// values as one full run, whatever the execution order. A single multiply
/// on purpose — one rounding, so the vector and scalar paths cannot
/// diverge through FMA contraction.
struct ScaleKernel {
  template <class T>
  void operator()(const T* q, T* r) const {
    r[0] = q[0] * T(3);
  }
};

/// Three ranges covering [0, n), with boundaries on no vector width.
std::vector<std::pair<idx_t, idx_t>> three_ranges(idx_t n) {
  const idx_t a = n / 3 + 1, b = 2 * n / 3 + 5;
  return {{0, a}, {a, b}, {b, n}};
}

TEST(LoopSlice, DirectSliceCoverBitwiseMatchesFullRun) {
  for (Backend b :
       {Backend::Seq, Backend::OpenMP, Backend::AutoVec, Backend::Simd, Backend::Simt}) {
    SCOPED_TRACE(backend_name(b));
    const ExecConfig cfg{.backend = b, .nthreads = 2};
    Fixture full, sliced;
    Loop ref(ScaleKernel{}, "slice_direct_full", full.cells, opv::arg<opv::READ>(full.q),
             opv::arg<opv::WRITE>(full.r));
    ref.run(cfg);

    Loop loop(ScaleKernel{}, "slice_direct", sliced.cells, opv::arg<opv::READ>(sliced.q),
              opv::arg<opv::WRITE>(sliced.r));
    for (const auto& [lo, hi] : three_ranges(sliced.cells.size())) {
      auto s = loop.make_slice(lo, hi);
      loop.run_slice(cfg, s);
    }

    for (idx_t c = 0; c < full.cells.size(); ++c)
      ASSERT_EQ(full.r.at(c), sliced.r.at(c)) << "cell " << c;
  }
}

/// Indirect increments of exactly 1.0 (exact in floating point): after any
/// disjoint slice cover, every cell holds its edge degree — each element
/// executed exactly once, increments race-free under the range plan.
struct DegreeKernel {
  template <class T>
  void operator()(T* c1, T* c2) const {
    c1[0] += T(1);
    c2[0] += T(1);
  }
};

TEST(LoopSlice, ConflictedSlicesExecuteEachElementExactlyOnce) {
  struct Case {
    Backend backend;
    ColoringStrategy coloring;
  };
  for (const Case c : {Case{Backend::Seq, ColoringStrategy::TwoLevel},
                       Case{Backend::OpenMP, ColoringStrategy::TwoLevel},
                       Case{Backend::AutoVec, ColoringStrategy::BlockPermute},
                       Case{Backend::AutoVec, ColoringStrategy::FullPermute},
                       Case{Backend::Simd, ColoringStrategy::TwoLevel},
                       Case{Backend::Simd, ColoringStrategy::FullPermute},
                       Case{Backend::Simd, ColoringStrategy::BlockPermute},
                       Case{Backend::Simt, ColoringStrategy::TwoLevel}}) {
    SCOPED_TRACE(std::string(backend_name(c.backend)) + "/" + coloring_name(c.coloring));
    const ExecConfig cfg{
        .backend = c.backend, .coloring = c.coloring, .block_size = 64, .nthreads = 4};
    Fixture f;
    for (idx_t i = 0; i < f.cells.size(); ++i) f.r.at(i) = 0.0;
    Loop loop(DegreeKernel{}, "slice_degree", f.edges, opv::arg<opv::INC>(f.r, 0, f.e2c),
              opv::arg<opv::INC>(f.r, 1, f.e2c));
    static_assert(decltype(loop)::has_inc);

    const auto ranges = three_ranges(f.edges.size());
    std::vector<decltype(loop)::Slice> slices;
    for (const auto& [lo, hi] : ranges) slices.push_back(loop.make_slice(lo, hi));
    for (auto& s : slices) loop.run_slice(cfg, s);

    // Each slice's range plan is pinned after its first run (Seq needs no
    // plan: it executes the range serially in element order). The plan
    // covers exactly the range, and its permutations hold element ids.
    auto& mid = slices[1];
    const Plan* plan = mid.plan();
    if (c.backend == Backend::Seq) {
      EXPECT_EQ(plan, nullptr);
    } else {
      ASSERT_NE(plan, nullptr);
      EXPECT_EQ(plan->first, mid.lo());
      EXPECT_EQ(plan->nelems, mid.size());
      for (idx_t b = 0; b < plan->nblocks; ++b) {
        ASSERT_GE(plan->block_begin(b), mid.lo());
        ASSERT_LE(plan->block_end(b), mid.hi());
      }
      for (const aligned_vector<idx_t>* perm : {&plan->permute, &plan->block_permute})
        for (idx_t e : *perm) {
          ASSERT_GE(e, mid.lo());
          ASSERT_LT(e, mid.hi());
        }
    }
    loop.run_slice(cfg, mid);
    EXPECT_EQ(mid.plan(), plan) << "slice plan must be pinned across runs";

    std::vector<double> degree(static_cast<std::size_t>(f.cells.size()), 0.0);
    for (idx_t e = 0; e < f.edges.size(); ++e) {
      const int times = e >= mid.lo() && e < mid.hi() ? 2 : 1;  // mid ran twice
      degree[f.m.edge_cells[2 * e]] += times;
      degree[f.m.edge_cells[2 * e + 1]] += times;
    }
    for (idx_t i = 0; i < f.cells.size(); ++i)
      ASSERT_EQ(f.r.at(i), degree[i]) << "cell " << i;
  }
}

/// Seq (and a one-thread OpenMP team, which needs no plan) runs a slice in
/// ascending element order, so a cover executed in order is bitwise one
/// run() — increments with rounding included.
TEST(LoopSlice, InOrderCoverIsBitwiseOneRun) {
  for (const ExecConfig cfg : {ExecConfig{.backend = Backend::Seq},
                               ExecConfig{.backend = Backend::OpenMP, .nthreads = 1}}) {
    SCOPED_TRACE(cfg.to_string());
    Fixture full, sliced;
    Loop ref(EdgeKernel{}, std::string("slice_order_full"), full.edges,
             arg<opv::READ>(full.q, 0, full.e2c), arg<opv::READ>(full.q, 1, full.e2c),
             arg<opv::READ>(full.w), arg<opv::INC>(full.r, 0, full.e2c),
             arg<opv::INC>(full.r, 1, full.e2c), arg_gbl<opv::INC>(&full.gsum, 1));
    ref.run(ExecConfig{.backend = Backend::Seq});

    Loop loop(EdgeKernel{}, std::string("slice_order"), sliced.edges,
              arg<opv::READ>(sliced.q, 0, sliced.e2c), arg<opv::READ>(sliced.q, 1, sliced.e2c),
              arg<opv::READ>(sliced.w), arg<opv::INC>(sliced.r, 0, sliced.e2c),
              arg<opv::INC>(sliced.r, 1, sliced.e2c), arg_gbl<opv::INC>(&sliced.gsum, 1));
    for (const auto& [lo, hi] : three_ranges(sliced.edges.size())) {
      auto s = loop.make_slice(lo, hi);
      loop.run_slice(cfg, s);
      EXPECT_EQ(s.plan(), nullptr);
    }
    for (idx_t c = 0; c < full.cells.size(); ++c)
      ASSERT_EQ(full.r.at(c), sliced.r.at(c)) << "cell " << c;
    // Each slice merges its own partial sum: reassociated, not bitwise.
    EXPECT_NEAR(sliced.gsum, full.gsum, 1e-12 * std::abs(full.gsum));
  }
}

/// Global reductions init/merge per run_slice call, so INC sums and MIN
/// mins accumulate across a slice cover exactly like one full run.
struct CountMinKernel {
  template <class T>
  void operator()(const T* q, T* gcount, T* gmin) const {
    OPV_SIMD_MATH_USING;
    gcount[0] += T(1);
    gmin[0] = min(gmin[0], q[0]);
  }
};

TEST(LoopSlice, GlobalReductionsAccumulateAcrossSlices) {
  for (Backend b : {Backend::Seq, Backend::OpenMP, Backend::Simd, Backend::Simt}) {
    SCOPED_TRACE(backend_name(b));
    Fixture f;
    double count = 0.0, gmin = 1e300;
    Loop loop(CountMinKernel{}, "slice_gbl", f.cells, opv::arg<opv::READ>(f.q),
              opv::arg_gbl<opv::INC>(&count, 1), opv::arg_gbl<opv::MIN>(&gmin, 1));
    const idx_t third = f.cells.size() / 3;
    auto s_lo = loop.make_slice(0, third);
    auto s_hi = loop.make_slice(third, f.cells.size());
    const ExecConfig cfg{.backend = b, .nthreads = 2};
    loop.run_slice(cfg, s_lo);
    loop.run_slice(cfg, s_hi);

    double qmin = 1e300;
    for (idx_t c = 0; c < f.cells.size(); ++c) qmin = std::min(qmin, f.q.at(c));
    EXPECT_EQ(count, static_cast<double>(f.cells.size()));
    EXPECT_EQ(gmin, qmin);
  }
}

/// Indirect increments + a global reduction: run() refuses halo execution
/// wholesale (exec_size must equal size); make_slice enforces the same rule
/// per range — owned elements stay legal, halo elements are rejected (they
/// would contribute to the reduction on every executing rank).
struct DegreeCountKernel {
  template <class T>
  void operator()(T* c1, T* c2, T* g) const {
    c1[0] += T(1);
    c2[0] += T(1);
    g[0] += T(1);
  }
};

TEST(LoopSlice, HaloElementsRejectedForGlobalReductionLoops) {
  Set cells{"cells", 6, 6, 6};
  Set edges{"edges", 4, 6, 6};  // 4 owned + 2 execute-halo elements
  aligned_vector<idx_t> md(12);
  for (std::size_t i = 0; i < md.size(); ++i) md[i] = static_cast<idx_t>(i % 6);
  Map e2c{"e2c", edges, cells, 2, std::move(md)};
  FixedDat<double, 1> r{"r", cells};
  double g = 0.0;

  Loop with_gbl(DegreeCountKernel{}, "slice_gblhalo", edges, opv::arg<opv::INC>(r, 0, e2c),
                opv::arg<opv::INC>(r, 1, e2c), opv::arg_gbl<opv::INC>(&g, 1));
  EXPECT_NO_THROW((void)with_gbl.make_slice(0, 3));
  EXPECT_THROW((void)with_gbl.make_slice(4, 5), Error) << "halo element must be rejected";
  EXPECT_THROW((void)with_gbl.make_slice(0, edges.exec_size()), Error)
      << "halo range must be rejected";
  EXPECT_EQ(g, 0.0) << "a rejected range must not touch the reduction";
  auto owned = with_gbl.make_slice(0, edges.size());
  with_gbl.run_slice(ExecConfig{.backend = Backend::Seq}, owned);
  EXPECT_EQ(g, 4.0) << "the owned range counts each owned edge once";

  Loop no_gbl(DegreeKernel{}, "slice_halo", edges, opv::arg<opv::INC>(r, 0, e2c),
              opv::arg<opv::INC>(r, 1, e2c));
  EXPECT_NO_THROW((void)no_gbl.make_slice(4, 6)) << "without a reduction the exec halo is legal";
  auto all = no_gbl.make_slice(0, edges.exec_size());
  EXPECT_NO_THROW(no_gbl.run_slice(ExecConfig{.backend = Backend::Seq}, all));
}

TEST(LoopSlice, RangeOutsideTheExecutedRangeThrows) {
  Fixture f;
  Loop loop(ScaleKernel{}, "slice_range", f.cells, opv::arg<opv::READ>(f.q),
            opv::arg<opv::WRITE>(f.r));
  const idx_t n = f.cells.size();
  EXPECT_THROW((void)loop.make_slice(0, n + 1), Error);
  EXPECT_THROW((void)loop.make_slice(-1, 3), Error);
  EXPECT_THROW((void)loop.make_slice(5, 4), Error) << "a reversed range is malformed";
  EXPECT_NO_THROW((void)loop.make_slice(0, n));
  EXPECT_NO_THROW((void)loop.make_slice(n, n));

  // An empty range runs nothing, on every backend.
  for (idx_t c = 0; c < n; ++c) f.r.at(c) = -1.0;
  auto empty = loop.make_slice(7, 7);
  EXPECT_TRUE(empty.empty());
  for (Backend b : {Backend::Seq, Backend::OpenMP, Backend::Simd, Backend::Simt})
    loop.run_slice(ExecConfig{.backend = b, .nthreads = 2}, empty);
  EXPECT_EQ(empty.plan(), nullptr);
  for (idx_t c = 0; c < n; ++c) ASSERT_EQ(f.r.at(c), -1.0);
}

// ---- LocalCtx::make_loop ----------------------------------------------------

TEST(LoopHandle, LocalCtxMakeLoopFollowsContextConfig) {
  mesh::UnstructuredMesh m = mesh::make_quad_box(9, 9);
  LocalCtx ctx(ExecConfig{.backend = Backend::Seq, .nthreads = 1});
  auto cells = ctx.decl_set("cells", m.ncells);
  aligned_vector<double> qi(m.ncells, 2.0);
  auto q = ctx.decl_dat<double, 1>("q", cells, qi);
  auto r = ctx.decl_dat<double, 1>("r", cells);
  auto loop = ctx.make_loop(ScaleKernel{}, "mk_local", cells, ctx.arg<opv::READ>(q),
                            ctx.arg<opv::WRITE>(r));
  loop.run();
  aligned_vector<double> out;
  ctx.fetch(r, out);
  for (double v : out) ASSERT_EQ(v, 6.0);
  // run() follows the context's CURRENT config (mutate, then rerun).
  ctx.config().backend = Backend::OpenMP;
  loop.run();
  ctx.fetch(r, out);
  for (double v : out) ASSERT_EQ(v, 6.0);
}

}  // namespace
