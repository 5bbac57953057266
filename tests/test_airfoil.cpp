// Airfoil application tests: kernel unit values against hand computations,
// cross-backend equivalence of full iterations, residual regression, SP/DP
// behavior, distributed execution, and physical sanity (free stream is a
// steady state).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "apps/airfoil/airfoil.hpp"
#include "core/context.hpp"
#include "dist/context.hpp"
#include "mesh/generators.hpp"

namespace {

using namespace opv;
using airfoil::Consts;

TEST(AirfoilConsts, MatchOP2Reference) {
  const auto c = Consts<double>::standard();
  EXPECT_DOUBLE_EQ(c.gam, 1.4);
  EXPECT_DOUBLE_EQ(c.gm1, 0.4);
  EXPECT_DOUBLE_EQ(c.cfl, 0.9);
  EXPECT_DOUBLE_EQ(c.eps, 0.05);
  // qinf: r=1, u = sqrt(gam)*mach = sqrt(1.4)*0.4, e = p/(r*gm1)+0.5u^2.
  const double u = std::sqrt(1.4) * 0.4;
  EXPECT_DOUBLE_EQ(c.qinf[0], 1.0);
  EXPECT_NEAR(c.qinf[1], u, 1e-15);
  EXPECT_DOUBLE_EQ(c.qinf[2], 0.0);
  EXPECT_NEAR(c.qinf[3], 1.0 / 0.4 + 0.5 * u * u, 1e-15);
}

TEST(AirfoilKernels, SaveSolnCopies) {
  const double q[4] = {1, 2, 3, 4};
  double qold[4] = {};
  airfoil::SaveSoln<double>{}(q, qold);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(qold[i], q[i]);
}

TEST(AirfoilKernels, AdtCalcHandComputed) {
  // Unit square cell, free-stream state.
  const auto c = Consts<double>::standard();
  const double x1[2] = {0, 0}, x2[2] = {1, 0}, x3[2] = {1, 1}, x4[2] = {0, 1};
  const double* q = c.qinf;
  double adt = -1;
  airfoil::AdtCalc<double>{c}(x1, x2, x3, x4, q, &adt);

  // By hand: ri=1, u=qinf[1], v=0; cs = sqrt(gam*gm1*(e - 0.5u^2)).
  const double u = c.qinf[1];
  const double cs = std::sqrt(c.gam * c.gm1 * (c.qinf[3] - 0.5 * u * u));
  // Four unit edges: |u*dy - v*dx| summed = |u|*2 (two vertical hops) +
  // 0 * 2 horizontal; each edge adds cs*1.
  const double expect = (std::abs(u) * 2 + 4 * cs) / c.cfl;
  EXPECT_NEAR(adt, expect, 1e-12);
}

TEST(AirfoilKernels, ResCalcAntisymmetric) {
  // Contributions to the two cells are equal and opposite by construction.
  const auto c = Consts<double>::standard();
  const double x1[2] = {0, 0}, x2[2] = {0, 1};
  double q1[4] = {1.0, 0.2, 0.1, 2.0}, q2[4] = {1.1, 0.1, -0.1, 2.2};
  const double adt1 = 1.7, adt2 = 2.1;
  double res1[4] = {}, res2[4] = {};
  airfoil::ResCalc<double>{c}(x1, x2, q1, q2, &adt1, &adt2, res1, res2);
  for (int n = 0; n < 4; ++n) {
    EXPECT_NE(res1[n], 0.0);
    EXPECT_NEAR(res1[n], -res2[n], 1e-14);
  }
}

TEST(AirfoilKernels, ResCalcZeroForUniformFlowOnMirroredEdge) {
  // With identical states left/right the dissipation term vanishes and the
  // flux is the plain central flux — check the mass component by hand.
  const auto c = Consts<double>::standard();
  const double x1[2] = {0, 0}, x2[2] = {0, 1};  // dx=0, dy=-1
  double q[4] = {1.0, 0.3, 0.0, 2.0};
  const double adt = 1.0;
  double res1[4] = {}, res2[4] = {};
  airfoil::ResCalc<double>{c}(x1, x2, q, q, &adt, &adt, res1, res2);
  // vol = (q1*dy - q2*dx)/q0 = 0.3*(-1) = -0.3; f0 = 0.5*(2 * vol*q0) = -0.3.
  EXPECT_NEAR(res1[0], -0.3, 1e-14);
}

TEST(AirfoilKernels, BresCalcWallIsPressureOnly) {
  const auto c = Consts<double>::standard();
  const double x1[2] = {0, 0}, x2[2] = {1, 0};  // dx=-1, dy=0
  double q1[4] = {1.0, 0.2, 0.1, 2.0};
  const double adt1 = 1.5;
  const std::int32_t wall = mesh::kBoundWall;
  double res[4] = {};
  airfoil::BresCalc<double>{c}(x1, x2, q1, &adt1, res, &wall);
  const double ri = 1.0 / q1[0];
  const double p1 = c.gm1 * (q1[3] - 0.5 * ri * (q1[1] * q1[1] + q1[2] * q1[2]));
  EXPECT_EQ(res[0], 0.0);
  EXPECT_NEAR(res[1], p1 * 0.0, 1e-14);       // p*dy, dy=0
  EXPECT_NEAR(res[2], -p1 * (0.0 - 1.0), 1e-14);  // -p*dx, dx=-1
  EXPECT_EQ(res[3], 0.0);
}

TEST(AirfoilKernels, BresCalcFarfieldSeesFreeStream) {
  // A far-field edge with the free-stream state on the inside produces zero
  // dissipation (q == qinf), only the central flux.
  const auto c = Consts<double>::standard();
  const double x1[2] = {0, 0}, x2[2] = {1, 0};
  const std::int32_t far = mesh::kBoundFarfield;
  const double adt1 = 1.5;
  double q1[4], res[4] = {};
  for (int i = 0; i < 4; ++i) q1[i] = c.qinf[i];
  airfoil::BresCalc<double>{c}(x1, x2, q1, &adt1, res, &far);
  // mu*(q-qinf)=0; mass flux f0 = 0.5*(vol1*q0 + vol2*qinf0) with
  // vol = (qinf1*dy - qinf2*dx)/q0 = qinf1*0 - 0*(-1) = 0 => f0 = 0.
  EXPECT_NEAR(res[0], 0.0, 1e-14);
}

TEST(AirfoilKernels, UpdateComputesDeltaAndClearsRes) {
  const double qold[4] = {1, 2, 3, 4};
  double q[4] = {}, res[4] = {0.4, -0.8, 1.2, 0.0};
  const double adt = 2.0;
  double rms = 0;
  airfoil::Update<double>{}(qold, q, res, &adt, &rms);
  for (int n = 0; n < 4; ++n) {
    EXPECT_EQ(res[n], 0.0);
  }
  EXPECT_NEAR(q[0], 1 - 0.2, 1e-15);
  EXPECT_NEAR(q[1], 2 + 0.4, 1e-15);
  EXPECT_NEAR(rms, 0.04 + 0.16 + 0.36, 1e-12);
}

// ---- full-application equivalence across backends ---------------------------

template <class Real>
aligned_vector<Real> run_app(const mesh::UnstructuredMesh& m, ExecConfig cfg, int iters,
                             double* rms_out = nullptr) {
  LocalCtx ctx(cfg);
  airfoil::Airfoil<Real, LocalCtx> app(ctx, m);
  app.run(iters, 1);
  if (rms_out) *rms_out = app.last_rms();
  return app.fetch_q();
}

class AirfoilBackends : public ::testing::TestWithParam<int> {
 public:
  static std::vector<std::pair<std::string, ExecConfig>> configs() {
    return {
        {"openmp", {.backend = Backend::OpenMP}},
        {"autovec", {.backend = Backend::AutoVec}},
        {"simd4", {.backend = Backend::Simd, .simd_width = 4}},
        {"simd8", {.backend = Backend::Simd, .simd_width = 8}},
        {"simd_fp", {.backend = Backend::Simd, .coloring = ColoringStrategy::FullPermute}},
        {"simd_bp", {.backend = Backend::Simd, .coloring = ColoringStrategy::BlockPermute}},
        {"simt", {.backend = Backend::Simt}},
    };
  }
};

TEST_P(AirfoilBackends, MatchSequentialAfterIterations) {
  auto m = mesh::make_airfoil_omesh(48, 16);
  const auto ref = run_app<double>(m, {.backend = Backend::Seq}, 5);
  const auto cfgs = configs();
  const auto& [name, cfg] = cfgs[GetParam()];
  SCOPED_TRACE(name);
  const auto got = run_app<double>(m, cfg, 5);
  ASSERT_EQ(ref.size(), got.size());
  for (std::size_t i = 0; i < ref.size(); ++i)
    ASSERT_NEAR(ref[i], got[i], 1e-9 * (std::abs(ref[i]) + 1)) << "q[" << i << "]";
}

INSTANTIATE_TEST_SUITE_P(Configs, AirfoilBackends,
                         ::testing::Range(0, static_cast<int>(AirfoilBackends::configs().size())),
                         [](const auto& info) {
                           return AirfoilBackends::configs()[info.param].first;
                         });

/// A one-thread OpenMP team takes no coloring plan and sweeps each loop in
/// ascending order, so it computes exactly what Seq computes.
TEST(AirfoilApp, OneThreadOpenMPIsBitwiseSeq) {
  auto m = mesh::make_airfoil_omesh(48, 16);
  double rms_seq = 0.0, rms_omp = 0.0;
  const auto ref = run_app<double>(m, {.backend = Backend::Seq}, 5, &rms_seq);
  const auto got = run_app<double>(m, {.backend = Backend::OpenMP, .nthreads = 1}, 5, &rms_omp);
  ASSERT_EQ(ref.size(), got.size());
  EXPECT_EQ(std::memcmp(ref.data(), got.data(), ref.size() * sizeof(double)), 0);
  EXPECT_EQ(rms_seq, rms_omp);
}

TEST(AirfoilApp, DistMatchesLocal) {
  auto m = mesh::make_airfoil_omesh(36, 12);
  const auto ref = run_app<double>(m, {.backend = Backend::Seq}, 4);
  for (int ranks : {2, 5}) {
    dist::DistCtx ctx(ranks, ExecConfig{.backend = Backend::Simd, .nthreads = 1});
    airfoil::Airfoil<double, dist::DistCtx> app(ctx, m);
    app.run(4, 1);
    const auto got = app.fetch_q();
    ASSERT_EQ(ref.size(), got.size());
    for (std::size_t i = 0; i < ref.size(); ++i)
      ASSERT_NEAR(ref[i], got[i], 1e-8 * (std::abs(ref[i]) + 1))
          << "ranks=" << ranks << " q[" << i << "]";
  }
}

TEST(AirfoilApp, FreeStreamResidualComesOnlyFromTheWall) {
  // On a uniform free-stream state the interior fluxes cancel exactly; the
  // impulsive-start residual is generated only by the wall pressure rows.
  // It must be finite, nonzero, and well below the state magnitude (O(1)).
  auto m = mesh::make_airfoil_omesh(64, 24);
  double rms = 0;
  run_app<double>(m, {.backend = Backend::Seq}, 1, &rms);
  EXPECT_TRUE(std::isfinite(rms));
  EXPECT_GT(rms, 0.0);
  EXPECT_LT(rms, 0.5);
}

TEST(AirfoilApp, RmsStaysFiniteAndDecays) {
  auto m = mesh::make_airfoil_omesh(48, 16);
  LocalCtx ctx(ExecConfig{.backend = Backend::Simd});
  airfoil::Airfoil<double, LocalCtx> app(ctx, m);
  app.run(300, 50);
  const auto& hist = app.rms_history();
  ASSERT_EQ(hist.size(), 6u);
  for (double r : hist) {
    EXPECT_TRUE(std::isfinite(r));
    EXPECT_GT(r, 0.0);
  }
  // Past the impulsive transient the residual decays.
  EXPECT_LT(hist.back(), hist.front());
}

TEST(AirfoilApp, SinglePrecisionTracksDouble) {
  auto m = mesh::make_airfoil_omesh(32, 12);
  const auto qd = run_app<double>(m, {.backend = Backend::Simd}, 3);
  const auto qf = run_app<float>(m, {.backend = Backend::Simd}, 3);
  ASSERT_EQ(qd.size(), qf.size());
  for (std::size_t i = 0; i < qd.size(); ++i)
    ASSERT_NEAR(qd[i], double(qf[i]), 1e-3 * (std::abs(qd[i]) + 1)) << i;
}

TEST(AirfoilApp, KernelInfoRegistered) {
  airfoil::register_kernel_info();
  auto& reg = KernelRegistry::instance();
  for (const char* k : {"save_soln", "adt_calc", "res_calc", "bres_calc", "update"})
    EXPECT_TRUE(reg.has(k)) << k;
  // Table II FLOP/byte spot checks (double precision).
  EXPECT_NEAR(reg.get("save_soln").flop_per_byte(8), 0.0625, 1e-4);
  EXPECT_NEAR(reg.get("res_calc").flop_per_byte(8), 73.0 / 240.0, 1e-4);
}

}  // namespace
