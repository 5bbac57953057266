// Tests for the typed-argument API and the reusable Loop handle:
// compile-time rejection of invalid access/argument combinations and of
// Dim/dat mismatches, Loop::run() equivalence with one-shot par_loop across
// backends, plan pinning (pointer stability across runs), stats
// accumulation through the pre-bound slot, and subset (Slice) and range
// execution.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <type_traits>
#include <utility>

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

// ---- compile-time Dim validation -------------------------------------------
// Every descriptor carries a compile-time Dim in [1,kMaxDim]. A Dim outside
// it, a Dim contradicting a statically-dimensioned dat, and a Dim-less
// spelling with no FixedDat to supply one must all fail to COMPILE.

template <int Dim, class D = Dat<double>>
concept DimArgOk = requires(D& d) { opv::arg<opv::READ, Dim>(d); };
static_assert(DimArgOk<1> && DimArgOk<4> && DimArgOk<kMaxDim>);
static_assert(!DimArgOk<0>, "Dim 0 (no compile-time arity) must not compile");
static_assert(!DimArgOk<-1> && !DimArgOk<kMaxDim + 1>, "Dim bounded by [1,kMaxDim]");
static_assert(DimArgOk<4, FixedDat<double, 4>>, "matching explicit Dim is fine");
static_assert(!DimArgOk<3, FixedDat<double, 4>>,
              "Dim mismatching the dat's static arity must not compile");
static_assert(!DimArgOk<1, FixedDat<double, 4>>);

template <int Dim>
concept ArgTypeOk = requires { typename Arg<double, opv::READ, Dim, false>; };
static_assert(ArgTypeOk<1> && ArgTypeOk<kMaxDim>);
static_assert(!ArgTypeOk<0> && !ArgTypeOk<kMaxDim + 1>, "Arg accepts only Dim in [1,kMaxDim]");

// A Dim-less spelling compiles only where a FixedDat supplies the arity...
template <class D>
concept DimlessArgOk = requires(D& d, const Map& m) {
  opv::arg<opv::READ>(d);
  opv::arg<opv::READ>(d, 0, m);
};
static_assert(DimlessArgOk<FixedDat<double, 3>>);
static_assert(!DimlessArgOk<Dat<double>>, "a plain Dat needs an explicit Dim");

// ...and a FixedDat deduces exactly the explicit-Dim descriptor type.
static_assert(std::is_same_v<decltype(opv::arg<opv::READ>(std::declval<FixedDat<double, 4>&>())),
                             decltype(opv::arg<opv::READ, 4>(std::declval<Dat<double>&>()))>);
static_assert(
    std::is_same_v<decltype(opv::arg<opv::INC>(std::declval<FixedDat<double, 2>&>(), 0,
                                               std::declval<const Map&>())),
                   decltype(opv::arg<opv::INC, 2>(std::declval<Dat<double>&>(), 0,
                                                  std::declval<const Map&>()))>);
static_assert(std::is_same_v<decltype(opv::arg<opv::READ>(std::declval<FixedDat<double, 4>&>())),
                             Arg<double, opv::READ, 4, false>>);

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
  const ExecConfig cfg{.backend = Backend::Simd, .simd_width = 4};
  loop.run(cfg);
  const Plan* p1 = loop.plan(cfg);
  ASSERT_NE(p1, nullptr);
  loop.run(cfg);
  loop.run(cfg);
  EXPECT_EQ(loop.plan(cfg), p1) << "plan must be pinned, not re-fetched";

  // A different strategy pins a different plan without evicting the first.
  const ExecConfig bp{.backend = Backend::Simd, .coloring = ColoringStrategy::BlockPermute,
                      .simd_width = 4};
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
  // Descriptor Dim vs a runtime-dimensioned dat is checked at construction.
  Dat<double> q("q", f.cells, 1);
  EXPECT_THROW((arg<opv::READ, 2>(q)), Error);  // q has dim 1
  EXPECT_THROW((arg<opv::READ, 3>(q, 0, f.e2c)), Error);
  EXPECT_NO_THROW((arg<opv::READ, 1>(q)));
}

// ---- subset (Slice) execution ----------------------------------------------
// The phased distributed runner executes a loop as interior + boundary
// Slices; these tests pin the core contract: a slice runs exactly its
// elements with the loop's kernel instantiations, race-free, with globals
// accumulating across slices.

/// Direct per-element transform: any slice cover computes bitwise the same
/// values as one full run, whatever the execution order. A single multiply
/// on purpose — one rounding, so contiguous and permuted codegen cannot
/// diverge through FMA contraction.
struct ScaleKernel {
  template <class T>
  void operator()(const T* q, T* r) const {
    r[0] = q[0] * T(3);
  }
};

TEST(LoopSlice, DirectSliceCoverBitwiseMatchesFullRun) {
  for (Backend b : {Backend::Seq, Backend::OpenMP, Backend::AutoVec, Backend::Simd}) {
    SCOPED_TRACE(backend_name(b));
    const ExecConfig cfg{.backend = b, .nthreads = 2};
    Fixture full, sliced;
    Loop ref(ScaleKernel{}, "slice_direct_full", full.cells, opv::arg<opv::READ>(full.q),
             opv::arg<opv::WRITE>(full.r));
    ref.run(cfg);

    Loop loop(ScaleKernel{}, "slice_direct", sliced.cells, opv::arg<opv::READ>(sliced.q),
              opv::arg<opv::WRITE>(sliced.r));
    aligned_vector<idx_t> evens, odds;
    for (idx_t c = 0; c < sliced.cells.size(); ++c) (c % 2 ? odds : evens).push_back(c);
    auto s_even = loop.make_slice(std::move(evens));
    auto s_odd = loop.make_slice(std::move(odds));
    loop.run_slice(cfg, s_even);
    loop.run_slice(cfg, s_odd);

    for (idx_t c = 0; c < full.cells.size(); ++c)
      ASSERT_EQ(full.r.at(c), sliced.r.at(c)) << "cell " << c;
  }
}

/// Indirect increments of exactly 1.0 (exact in floating point): after any
/// disjoint slice cover, every cell holds its edge degree — each element
/// executed exactly once, increments race-free under the subset coloring.
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
                       Case{Backend::OpenMP, ColoringStrategy::FullPermute},
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

    aligned_vector<idx_t> evens, odds;
    for (idx_t e = 0; e < f.edges.size(); ++e) (e % 2 ? odds : evens).push_back(e);
    auto s_even = loop.make_slice(std::move(evens));
    auto s_odd = loop.make_slice(std::move(odds));
    loop.run_slice(cfg, s_even);
    loop.run_slice(cfg, s_odd);

    // The subset plan is pinned after the first conflicted run (Seq needs
    // no plan: it executes the slice serially in element order).
    const Plan* plan = s_even.plan();
    if (c.backend == Backend::Seq) {
      EXPECT_EQ(plan, nullptr);
    } else {
      ASSERT_NE(plan, nullptr);
      EXPECT_EQ(plan->nelems, s_even.size());
    }
    loop.run_slice(cfg, s_even);
    EXPECT_EQ(s_even.plan(), plan) << "slice plan must be pinned across runs";

    std::vector<double> degree(static_cast<std::size_t>(f.cells.size()), 0.0);
    for (idx_t e = 0; e < f.edges.size(); ++e) {
      degree[f.m.edge_cells[2 * e]] += 1.0;
      degree[f.m.edge_cells[2 * e + 1]] += 1.0;
    }
    // s_even ran twice (plan-pinning check), so evens count double.
    for (idx_t e = 0; e < f.edges.size(); e += 2) {
      degree[f.m.edge_cells[2 * e]] += 1.0;
      degree[f.m.edge_cells[2 * e + 1]] += 1.0;
    }
    for (idx_t i = 0; i < f.cells.size(); ++i)
      ASSERT_EQ(f.r.at(i), degree[i]) << "cell " << i;
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
  for (Backend b : {Backend::Seq, Backend::OpenMP, Backend::Simd}) {
    SCOPED_TRACE(backend_name(b));
    Fixture f;
    double count = 0.0, gmin = 1e300;
    Loop loop(CountMinKernel{}, "slice_gbl", f.cells, opv::arg<opv::READ>(f.q),
              opv::arg_gbl<opv::INC>(&count, 1), opv::arg_gbl<opv::MIN>(&gmin, 1));
    aligned_vector<idx_t> lo, hi;
    for (idx_t c = 0; c < f.cells.size(); ++c) (c < f.cells.size() / 3 ? lo : hi).push_back(c);
    auto s_lo = loop.make_slice(std::move(lo));
    auto s_hi = loop.make_slice(std::move(hi));
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
/// wholesale (exec_size must equal size); make_slice and run_range enforce
/// the same rule per element — owned elements stay legal, halo elements are
/// rejected (they would contribute to the reduction on every executing
/// rank).
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
  EXPECT_NO_THROW(with_gbl.make_slice({0, 3}));
  EXPECT_THROW(with_gbl.make_slice({4}), Error) << "halo element must be rejected";

  const ExecConfig seq{.backend = Backend::Seq};
  EXPECT_THROW(with_gbl.run_range(seq, 0, edges.exec_size()), Error)
      << "halo range must be rejected";
  EXPECT_EQ(g, 0.0) << "a rejected range must not touch the reduction";
  EXPECT_NO_THROW(with_gbl.run_range(seq, 0, edges.size()));
  EXPECT_EQ(g, 4.0) << "the owned range counts each owned edge once";

  Loop no_gbl(DegreeKernel{}, "slice_halo", edges, opv::arg<opv::INC>(r, 0, e2c),
              opv::arg<opv::INC>(r, 1, e2c));
  EXPECT_NO_THROW(no_gbl.make_slice({4, 5})) << "without a reduction the exec halo is legal";
  EXPECT_NO_THROW(no_gbl.run_range(seq, 0, edges.exec_size()));
}

TEST(LoopSlice, OutOfRangeSliceElementThrows) {
  Fixture f;
  Loop loop(ScaleKernel{}, "slice_range", f.cells, opv::arg<opv::READ>(f.q),
            opv::arg<opv::WRITE>(f.r));
  EXPECT_THROW(loop.make_slice({f.cells.size()}), Error);
  EXPECT_THROW(loop.make_slice({idx_t(-1)}), Error);
  EXPECT_NO_THROW(loop.make_slice({}));
  EXPECT_NO_THROW(loop.make_slice({idx_t(0), f.cells.size() - 1}));
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
