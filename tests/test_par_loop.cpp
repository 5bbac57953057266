// par_loop engine tests: cross-backend equivalence for every access-pattern
// combination (direct/indirect x READ/WRITE/RW/INC, global INC/MIN/MAX,
// integer datasets), all vector widths, all coloring strategies, ragged
// sizes, and the engine's argument-validation behavior.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "core/context.hpp"
#include "core/op2.hpp"
#include "mesh/generators.hpp"

namespace {

using namespace opv;

// ---- kernels covering distinct access patterns ------------------------------

struct IndirectIncKernel {  // res_calc shaped
  template <class T>
  void operator()(const T* x1, const T* x2, const T* w, T* c1, T* c2, T* gsum) const {
    OPV_SIMD_MATH_USING;
    const T d = sqrt(abs((x1[0] - x2[0]) * (x1[0] - x2[0]) + T(0.01))) * w[0];
    c1[0] += d;
    c1[1] -= d * T(0.25);
    c2[0] -= d;
    c2[1] += d * T(0.25);
    gsum[0] += d;
  }
};

struct DirectKernel {  // update shaped: READ, WRITE, RW, gbl MIN/MAX
  template <class T>
  void operator()(const T* a, T* b, T* c, T* gmin, T* gmax) const {
    OPV_SIMD_MATH_USING;
    b[0] = select(a[0] > T(0.5), a[0] * a[0], -a[0]);
    b[1] = min(a[0], a[1]);
    c[0] = c[0] + T(1.0);  // RW
    gmin[0] = min(gmin[0], a[0]);
    gmax[0] = max(gmax[0], a[1]);
  }
};

struct GatherOnlyKernel {  // adt_calc shaped: indirect READ, direct WRITE
  template <class T>
  void operator()(const T* n1, const T* n2, const T* n3, T* out) const {
    OPV_SIMD_MATH_USING;
    out[0] = sqrt(abs(n1[0] * n2[1] - n3[0]) + T(1.0));
  }
};

struct IntReadKernel {  // bres_calc shaped: int dataset drives a select
  template <class T, class TI>
  void operator()(const T* q, T* r, const TI* flag) const {
    OPV_SIMD_MATH_USING;
    const T f = to_real<T>(flag[0]);
    r[0] += select(f == T(2.0), q[0] * T(2.0), -q[0]);
  }
};

struct GblReadKernel {  // uses a broadcast global (qinf-shaped)
  template <class T>
  void operator()(const T* a, T* b, const T* coef) const {
    b[0] = a[0] * coef[0] + coef[1];
  }
};

// ---- fixture -----------------------------------------------------------------

struct Fixture {
  mesh::UnstructuredMesh m;
  Set nodes, cells, edges;
  Map e2n, e2c, c2n;
  FixedDat<double, 2> x, acc, direct_a, direct_b;
  FixedDat<double, 1> w, direct_c, adt;
  FixedDat<std::int32_t, 1> flag;

  explicit Fixture(idx_t ni = 19, idx_t nj = 13)
      : m(mesh::make_quad_box(ni, nj)),
        nodes("nodes", m.nnodes),
        cells("cells", m.ncells),
        edges("edges", m.nedges),
        e2n("e2n", edges, nodes, 2, m.edge_nodes),
        e2c("e2c", edges, cells, 2, m.edge_cells),
        c2n("c2n", cells, nodes, 4, m.cell_nodes),
        x("x", nodes, [this] {
          aligned_vector<double> v(std::size_t(m.nnodes) * 2);
          for (std::size_t i = 0; i < v.size(); ++i) v[i] = m.node_xy[i];
          return v;
        }()),
        acc("acc", cells),
        direct_a("da", cells),
        direct_b("db", cells),
        w("w", edges),
        direct_c("dc", cells),
        adt("adt", cells),
        flag("flag", cells) {
    Rng rng(5);
    for (idx_t e = 0; e < edges.size(); ++e) w.at(e) = rng.uniform(0.1, 1.0);
    for (idx_t c = 0; c < cells.size(); ++c) {
      direct_a.at(c, 0) = rng.uniform(0.0, 1.0);
      direct_a.at(c, 1) = rng.uniform(-1.0, 1.0);
      flag.at(c) = rng.next_below(2) ? 2 : 1;
    }
  }
};

struct Result {
  aligned_vector<double> acc, b, c, adtv;
  double gsum = 0, gmin = 0, gmax = 0;
};

Result run_all(Fixture& f, const ExecConfig& cfg) {
  f.acc.fill(0.0);
  f.direct_b.fill(0.0);
  f.direct_c.fill(1.0);
  f.adt.fill(0.0);
  Result r;
  r.gsum = 0.0;
  r.gmin = 1e300;
  r.gmax = -1e300;

  par_loop(IndirectIncKernel{}, "t_inc", f.edges, cfg, arg<opv::READ>(f.x, 0, f.e2n),
           arg<opv::READ>(f.x, 1, f.e2n), arg<opv::READ>(f.w),
           arg<opv::INC>(f.acc, 0, f.e2c), arg<opv::INC>(f.acc, 1, f.e2c),
           arg_gbl<opv::INC>(&r.gsum, 1));

  par_loop(DirectKernel{}, "t_direct", f.cells, cfg, arg<opv::READ>(f.direct_a),
           arg<opv::WRITE>(f.direct_b), arg<opv::RW>(f.direct_c),
           arg_gbl<opv::MIN>(&r.gmin, 1), arg_gbl<opv::MAX>(&r.gmax, 1));

  par_loop(GatherOnlyKernel{}, "t_gather", f.cells, cfg, arg<opv::READ>(f.x, 0, f.c2n),
           arg<opv::READ>(f.x, 1, f.c2n), arg<opv::READ>(f.x, 2, f.c2n),
           arg<opv::WRITE>(f.adt));

  par_loop(IntReadKernel{}, "t_int", f.cells, cfg, arg<opv::READ>(f.direct_a),
           arg<opv::INC>(f.acc), arg<opv::READ>(f.flag));

  double coef[2] = {2.0, 0.5};
  par_loop(GblReadKernel{}, "t_gblread", f.cells, cfg, arg<opv::READ>(f.direct_a),
           arg<opv::RW>(f.direct_b), arg_gbl<opv::READ>(coef, 2));

  r.acc.assign(f.acc.data(), f.acc.data() + f.acc.size());
  r.b.assign(f.direct_b.data(), f.direct_b.data() + f.direct_b.size());
  r.c.assign(f.direct_c.data(), f.direct_c.data() + f.direct_c.size());
  r.adtv.assign(f.adt.data(), f.adt.data() + f.adt.size());
  return r;
}

void expect_close(const Result& a, const Result& b, double tol) {
  ASSERT_EQ(a.acc.size(), b.acc.size());
  for (std::size_t i = 0; i < a.acc.size(); ++i)
    ASSERT_NEAR(a.acc[i], b.acc[i], tol * (std::abs(a.acc[i]) + 1)) << "acc[" << i << "]";
  for (std::size_t i = 0; i < a.b.size(); ++i)
    ASSERT_NEAR(a.b[i], b.b[i], tol * (std::abs(a.b[i]) + 1)) << "b[" << i << "]";
  for (std::size_t i = 0; i < a.c.size(); ++i) ASSERT_NEAR(a.c[i], b.c[i], tol);
  for (std::size_t i = 0; i < a.adtv.size(); ++i)
    ASSERT_NEAR(a.adtv[i], b.adtv[i], tol * (std::abs(a.adtv[i]) + 1));
  EXPECT_NEAR(a.gsum, b.gsum, tol * (std::abs(a.gsum) + 1));
  EXPECT_NEAR(a.gmin, b.gmin, tol);
  EXPECT_NEAR(a.gmax, b.gmax, tol);
}

// ---- the big cross-backend sweep ---------------------------------------------

struct NamedConfig {
  std::string name;
  ExecConfig cfg;
};

std::vector<NamedConfig> sweep_configs() {
  std::vector<NamedConfig> out;
  out.push_back({"openmp", {.backend = Backend::OpenMP}});
  out.push_back({"openmp_t3", {.backend = Backend::OpenMP, .nthreads = 3}});
  out.push_back({"autovec", {.backend = Backend::AutoVec}});
  out.push_back(
      {"autovec_fp", {.backend = Backend::AutoVec, .coloring = ColoringStrategy::FullPermute}});
  for (int w : {4, 8, 16}) {
    out.push_back({"simd_w" + std::to_string(w),
                   {.backend = Backend::Simd, .simd_width = w}});
    out.push_back({"simd_fp_w" + std::to_string(w),
                   {.backend = Backend::Simd,
                    .coloring = ColoringStrategy::FullPermute,
                    .simd_width = w}});
    out.push_back({"simd_bp_w" + std::to_string(w),
                   {.backend = Backend::Simd,
                    .coloring = ColoringStrategy::BlockPermute,
                    .simd_width = w}});
    out.push_back({"simt_w" + std::to_string(w),
                   {.backend = Backend::Simt, .simd_width = w}});
  }
  out.push_back({"simd_block64",
                 {.backend = Backend::Simd, .simd_width = 8, .block_size = 64}});
  out.push_back({"simt_block48x", {.backend = Backend::Simt, .simd_width = 8, .block_size = 48}});
  return out;
}

class BackendSweep : public ::testing::TestWithParam<int> {};

TEST_P(BackendSweep, MatchesSequentialReference) {
  Fixture f;
  const Result ref = run_all(f, {.backend = Backend::Seq});
  const auto cfgs = sweep_configs();
  const auto& nc = cfgs[GetParam()];
  SCOPED_TRACE(nc.name);
  const Result got = run_all(f, nc.cfg);
  expect_close(ref, got, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, BackendSweep,
                         ::testing::Range(0, static_cast<int>(sweep_configs().size())),
                         [](const auto& info) { return sweep_configs()[info.param].name; });

// ---- ragged / edge-case sizes ------------------------------------------------

class RaggedSizes : public ::testing::TestWithParam<std::pair<idx_t, idx_t>> {};

TEST_P(RaggedSizes, VectorTailsAreCorrect) {
  const auto [ni, nj] = GetParam();
  Fixture f(ni, nj);
  const Result ref = run_all(f, {.backend = Backend::Seq});
  for (int w : {4, 8}) {
    const Result got = run_all(f, {.backend = Backend::Simd, .simd_width = w});
    SCOPED_TRACE("w=" + std::to_string(w));
    expect_close(ref, got, 1e-9);
    const Result simt = run_all(f, {.backend = Backend::Simt, .simd_width = w});
    expect_close(ref, simt, 1e-9);
  }
}

// Sizes chosen so edge/cell counts are NOT multiples of any vector width.
INSTANTIATE_TEST_SUITE_P(Sizes, RaggedSizes,
                         ::testing::Values(std::pair<idx_t, idx_t>{1, 1},
                                           std::pair<idx_t, idx_t>{3, 1},
                                           std::pair<idx_t, idx_t>{5, 3},
                                           std::pair<idx_t, idx_t>{7, 7},
                                           std::pair<idx_t, idx_t>{13, 3},
                                           std::pair<idx_t, idx_t>{17, 11}));

// ---- float precision ----------------------------------------------------------

TEST(FloatLoops, VectorizedMatchesSeq) {
  auto m = mesh::make_quad_box(17, 9);
  Set cells("cells", m.ncells), edges("edges", m.nedges);
  Map e2c("e2c", edges, cells, 2, m.edge_cells);
  FixedDat<float, 1> q("q", cells), r("r", cells), w("w", edges);
  Rng rng(8);
  for (idx_t c = 0; c < cells.size(); ++c) q.at(c) = float(rng.uniform(0.5, 2.0));
  w.fill(0.5f);

  auto edge_k = [](const auto* ql, const auto* qr, const auto* ww, auto* rl, auto* rr) {
    OPV_SIMD_MATH_USING;
    const auto d = sqrt(ql[0] * qr[0]) * ww[0];
    rl[0] += d;
    rr[0] -= d;
  };
  auto run = [&](ExecConfig cfg) {
    r.fill(0.0f);
    par_loop(edge_k, "f_edge", edges, cfg, arg<opv::READ>(q, 0, e2c),
             arg<opv::READ>(q, 1, e2c), arg<opv::READ>(w), arg<opv::INC>(r, 0, e2c),
             arg<opv::INC>(r, 1, e2c));
    return aligned_vector<float>(r.data(), r.data() + r.size());
  };
  const auto ref = run({.backend = Backend::Seq});
  for (int w16 : {8, 16}) {
    const auto got = run({.backend = Backend::Simd, .simd_width = w16});
    for (std::size_t i = 0; i < ref.size(); ++i)
      ASSERT_NEAR(ref[i], got[i], 1e-4f * (std::abs(ref[i]) + 1)) << "w=" << w16;
  }
}

// ---- stats & validation --------------------------------------------------------

TEST(LoopStats, RecordsTimeAndElements) {
  Fixture f;
  StatsRegistry::instance().clear();
  run_all(f, {.backend = Backend::OpenMP});
  const auto rec = StatsRegistry::instance().get("t_inc");
  EXPECT_EQ(rec.calls, 1);
  EXPECT_EQ(rec.elements, f.edges.size());
  EXPECT_GT(rec.seconds, 0.0);
  const auto none = StatsRegistry::instance().get("no_such_loop");
  EXPECT_EQ(none.calls, 0);
}

TEST(LoopStats, DisabledWhenRequested) {
  Fixture f;
  StatsRegistry::instance().clear();
  ExecConfig cfg{.backend = Backend::Seq, .collect_stats = false};
  run_all(f, cfg);
  EXPECT_EQ(StatsRegistry::instance().all().size(), 0u);
}

TEST(ArgValidation, RejectsBadArguments) {
  // Data-dependent errors stay runtime throws. Invalid ACCESS/argument
  // combinations (MIN/MAX on a dataset, WRITE/RW on a global) are now
  // compile errors — see the static_asserts in test_loop_handle.cpp.
  Fixture f;
  EXPECT_THROW(arg<opv::READ>(f.x, 2, f.e2n), Error);  // idx out of range
  EXPECT_THROW(arg<opv::READ>(f.w, 0, f.e2n), Error);  // dat not on target set
  double g = 0;
  EXPECT_THROW(arg_gbl<opv::INC>(&g, 0), Error);       // dim < 1
}

TEST(ArgValidation, MapRejectsOutOfRangeEntries) {
  Set a("a", 10), b("b", 5);
  aligned_vector<idx_t> data(10, 0);
  data[3] = 5;  // == b.size, out of range
  EXPECT_THROW(Map("bad", a, b, 1, std::move(data)), Error);
}

TEST(EmptySet, LoopIsNoop) {
  Set empty("empty", 0);
  FixedDat<double, 1> d("d", empty);
  double g = 0;
  EXPECT_NO_THROW(par_loop([](const auto* x, auto* gg) { gg[0] += x[0]; }, "empty_loop", empty,
                           ExecConfig{.backend = Backend::Simd}, arg<opv::READ>(d),
                           arg_gbl<opv::INC>(&g, 1)));
  EXPECT_EQ(g, 0.0);
}

}  // namespace
