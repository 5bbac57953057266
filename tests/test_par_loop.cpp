// par_loop engine tests: cross-backend equivalence for every access-pattern
// combination (direct/indirect x READ/WRITE/RW/INC, global READ/INC/MIN/MAX,
// integer datasets), all vector widths, all coloring strategies, ragged
// sizes, both dat layouts (AoS, SoA), and the engine's argument-validation
// behavior. Seq under SoA must be bitwise equal to Seq under AoS: the W = 1
// argument state stages an SoA row pre-loaded for every access mode.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

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

struct TwiceIncKernel {  // one component incremented twice: a staged SoA row
  template <class T>     // must start from the current value to stay bitwise
  void operator()(const T* w, T* c) const {
    const T d = w[0];
    c[0] += d;
    c[0] += d * T(0.5);
    c[1] -= d;
  }
};

struct IndirectRwKernel {  // the same update on a target several elements share:
  template <class T>       // every schedule that loses none gives Seq's result
  void operator()(T* c) const {
    c[0] = c[0] * T(0.5) + T(1.0);
    c[1] = c[1] + c[0];
  }
};

// ---- fixture -----------------------------------------------------------------

/// Edges 4k..4k+3 all map to cell k (mod ncells): every vector chunk holds
/// lanes that share a target.
aligned_vector<idx_t> quad_share(idx_t nedges, idx_t ncells) {
  aligned_vector<idx_t> v(static_cast<std::size_t>(nedges));
  for (idx_t e = 0; e < nedges; ++e) v[static_cast<std::size_t>(e)] = (e / 4) % ncells;
  return v;
}

struct Fixture {
  mesh::UnstructuredMesh m;
  Set nodes, cells, edges;
  Map e2n, e2c, c2n, e2q;
  FixedDat<double, 2> x, acc, direct_a, direct_b, twice, rw;
  FixedDat<double, 1> w, direct_c, adt;
  FixedDat<std::int32_t, 1> flag;

  /// Every dat is materialized in `layout` before the first loop (dim-1
  /// dats too, so the vector paths' unit-stride branch runs under SoA).
  explicit Fixture(idx_t ni = 19, idx_t nj = 13, Layout layout = Layout::AoS)
      : m(mesh::make_quad_box(ni, nj)),
        nodes("nodes", m.nnodes),
        cells("cells", m.ncells),
        edges("edges", m.nedges),
        e2n("e2n", edges, nodes, 2, m.edge_nodes),
        e2c("e2c", edges, cells, 2, m.edge_cells),
        c2n("c2n", cells, nodes, 4, m.cell_nodes),
        e2q("e2q", edges, cells, 1, quad_share(m.nedges, m.ncells)),
        x("x", nodes, [this] {
          aligned_vector<double> v(std::size_t(m.nnodes) * 2);
          for (std::size_t i = 0; i < v.size(); ++i) v[i] = m.node_xy[i];
          return v;
        }()),
        acc("acc", cells),
        direct_a("da", cells),
        direct_b("db", cells),
        twice("twice", cells),
        rw("rw", cells),
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
    for (DatBase* d : std::initializer_list<DatBase*>{&x, &acc, &direct_a, &direct_b, &twice, &rw,
                                                      &w, &direct_c, &adt, &flag})
      d->materialize(nullptr, layout);
  }
};

/// A dat's values in element-major AoS order, whatever its layout.
aligned_vector<double> values(const Dat<double>& d) {
  aligned_vector<double> v;
  for (idx_t e = 0; e < d.set().size(); ++e)
    for (int c = 0; c < d.dim(); ++c) v.push_back(d.at(e, c));
  return v;
}

struct Result {
  aligned_vector<double> acc, b, c, adtv, twice, rw;
  double gsum = 0, gmin = 0, gmax = 0;
};

Result run_all(Fixture& f, const ExecConfig& cfg) {
  f.acc.fill(0.0);
  f.direct_b.fill(0.0);
  f.direct_c.fill(1.0);
  f.adt.fill(0.0);
  f.twice.fill(1.0);
  f.rw.fill(0.0);
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

  par_loop(TwiceIncKernel{}, "t_twice", f.edges, cfg, arg<opv::READ>(f.w),
           arg<opv::INC>(f.twice, 1, f.e2c));

  // Simt scatters its contiguous lanes one by one and rejects the loop.
  const auto rw_loop = [&] {
    par_loop(IndirectRwKernel{}, "t_rw", f.edges, cfg, arg<opv::RW>(f.rw, 0, f.e2q));
  };
  if (cfg.backend == Backend::Simt) {
    EXPECT_THROW(rw_loop(), Error);
  } else {
    rw_loop();
    r.rw = values(f.rw);
  }

  r.acc = values(f.acc);
  r.b = values(f.direct_b);
  r.c = values(f.direct_c);
  r.adtv = values(f.adt);
  r.twice = values(f.twice);
  return r;
}

void expect_bitwise(const Result& a, const Result& b) {
  const auto same = [](const aligned_vector<double>& x, const aligned_vector<double>& y) {
    return x.size() == y.size() && std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0;
  };
  EXPECT_TRUE(same(a.acc, b.acc));
  EXPECT_TRUE(same(a.b, b.b));
  EXPECT_TRUE(same(a.c, b.c));
  EXPECT_TRUE(same(a.adtv, b.adtv));
  EXPECT_TRUE(same(a.twice, b.twice));
  EXPECT_TRUE(same(a.rw, b.rw));
  EXPECT_TRUE(same({a.gsum, a.gmin, a.gmax}, {b.gsum, b.gmin, b.gmax}));
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
  ASSERT_EQ(a.twice.size(), b.twice.size());
  for (std::size_t i = 0; i < a.twice.size(); ++i)
    ASSERT_NEAR(a.twice[i], b.twice[i], tol * (std::abs(a.twice[i]) + 1)) << "twice[" << i << "]";
  if (!b.rw.empty()) {  // empty where the backend rejects the RW loop (Simt)
    ASSERT_EQ(a.rw.size(), b.rw.size());
    for (std::size_t i = 0; i < a.rw.size(); ++i)
      ASSERT_NEAR(a.rw[i], b.rw[i], tol * (std::abs(a.rw[i]) + 1)) << "rw[" << i << "]";
  }
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
  out.push_back({"simd_t1", {.backend = Backend::Simd, .simd_width = 8, .nthreads = 1}});
  out.push_back({"simd_block64",
                 {.backend = Backend::Simd, .simd_width = 8, .block_size = 64}});
  out.push_back({"simt_block48x", {.backend = Backend::Simt, .simd_width = 8, .block_size = 48}});
  return out;
}

/// Seq over the AoS fixture: the reference every layout and config meets.
Result seq_aos(idx_t ni = 19, idx_t nj = 13) {
  Fixture f(ni, nj);
  return run_all(f, {.backend = Backend::Seq});
}

const auto kLayouts = ::testing::Values(Layout::AoS, Layout::SoA);

TEST(SeqLayouts, SoAIsBitwiseAoS) {
  Fixture f(19, 13, Layout::SoA);
  expect_bitwise(seq_aos(), run_all(f, {.backend = Backend::Seq}));
}

class BackendSweep : public ::testing::TestWithParam<std::tuple<Layout, int>> {};

TEST_P(BackendSweep, MatchesSequentialReference) {
  const auto [layout, i] = GetParam();
  const Result ref = seq_aos();
  Fixture f(19, 13, layout);
  const auto cfgs = sweep_configs();
  const auto& nc = cfgs[static_cast<std::size_t>(i)];
  SCOPED_TRACE(nc.name);
  const Result got = run_all(f, nc.cfg);
  expect_close(ref, got, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, BackendSweep,
    ::testing::Combine(kLayouts, ::testing::Range(0, static_cast<int>(sweep_configs().size()))),
    [](const auto& info) {
      return std::string(layout_name(std::get<0>(info.param))) + "_" +
             sweep_configs()[static_cast<std::size_t>(std::get<1>(info.param))].name;
    });

// ---- ragged / edge-case sizes ------------------------------------------------

class RaggedSizes
    : public ::testing::TestWithParam<std::tuple<Layout, std::pair<idx_t, idx_t>>> {};

TEST_P(RaggedSizes, VectorTailsAreCorrect) {
  const auto [layout, size] = GetParam();
  const auto [ni, nj] = size;
  const Result ref = seq_aos(ni, nj);
  Fixture f(ni, nj, layout);
  expect_bitwise(ref, run_all(f, {.backend = Backend::Seq}));
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
                         ::testing::Combine(kLayouts,
                                            ::testing::Values(std::pair<idx_t, idx_t>{1, 1},
                                                              std::pair<idx_t, idx_t>{3, 1},
                                                              std::pair<idx_t, idx_t>{5, 3},
                                                              std::pair<idx_t, idx_t>{7, 7},
                                                              std::pair<idx_t, idx_t>{13, 3},
                                                              std::pair<idx_t, idx_t>{17, 11})));

// ---- indirect RW: lanes that share a target ----------------------------------

TEST(IndirectRw, SimdSchedulesBlockPermuteForTwoLevel) {
  Fixture f;
  Loop loop(IndirectRwKernel{}, "t_rw", f.edges, arg<opv::RW>(f.rw, 0, f.e2q));
  for (int nth : {1, 4}) {
    const Plan* plan = loop.plan({.backend = Backend::Simd, .nthreads = nth});
    ASSERT_NE(plan, nullptr) << nth;
    EXPECT_EQ(plan->strategy, ColoringStrategy::BlockPermute) << nth;
  }
}

TEST(IndirectRw, SimtRejectsTheLoopByName) {
  Fixture f;
  try {
    par_loop(IndirectRwKernel{}, "t_rw", f.edges, {.backend = Backend::Simt},
             arg<opv::RW>(f.rw, 0, f.e2q));
    FAIL() << "expected opv::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("'t_rw'"), std::string::npos) << e.what();
  }
}

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
