// Tet3D mini-app tests: kernel hand computations, tet-box generator
// structure, cross-backend equivalence of full iterations, LoopChain
// bitwise identity, distributed execution, and the imported-mesh guarantee
// (a tet mesh arriving through a .msh file behaves bit-identically to its
// in-memory twin through renumbering, partitioning and chaining).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>

#include "apps/tet3d/tet3d.hpp"
#include "core/context.hpp"
#include "dist/context.hpp"
#include "mesh/generators.hpp"
#include "mesh/io.hpp"
#include "support/mesh_invariants.hpp"

namespace {

using namespace opv;
using tet3d::Consts;

// ---- kernels ----------------------------------------------------------------

TEST(Tet3dKernels, CellGeomVolumeAndCentroidOfUnitCornerTet) {
  const double x1[3] = {0, 0, 0}, x2[3] = {1, 0, 0}, x3[3] = {0, 1, 0}, x4[3] = {0, 0, 1};
  double cg[4] = {};
  tet3d::CellGeom<double>{}(x1, x2, x3, x4, cg);
  EXPECT_NEAR(cg[0], 1.0 / 6.0, 1e-15);
  EXPECT_NEAR(cg[1], 0.25, 1e-15);
  EXPECT_NEAR(cg[2], 0.25, 1e-15);
  EXPECT_NEAR(cg[3], 0.25, 1e-15);
  // Volume is orientation-independent (abs of the determinant).
  tet3d::CellGeom<double>{}(x1, x3, x2, x4, cg);
  EXPECT_NEAR(cg[0], 1.0 / 6.0, 1e-15);
}

TEST(Tet3dKernels, FaceGeomNormalFollowsWinding) {
  // Right triangle in the z=0 plane, CCW seen from +z: S = (0, 0, area).
  const double x1[3] = {0, 0, 0}, x2[3] = {2, 0, 0}, x3[3] = {0, 2, 0};
  double fg[6] = {};
  tet3d::FaceGeom<double>{}(x1, x2, x3, fg);
  EXPECT_NEAR(fg[0], 0.0, 1e-15);
  EXPECT_NEAR(fg[1], 0.0, 1e-15);
  EXPECT_NEAR(fg[2], 2.0, 1e-15);  // area = 0.5*|2x2 legs|
  EXPECT_NEAR(fg[3], 2.0 / 3.0, 1e-15);
  EXPECT_NEAR(fg[4], 2.0 / 3.0, 1e-15);
  EXPECT_NEAR(fg[5], 0.0, 1e-15);
  // Swapping two nodes flips the normal, not the centroid.
  tet3d::FaceGeom<double>{}(x1, x3, x2, fg);
  EXPECT_NEAR(fg[2], -2.0, 1e-15);
  EXPECT_NEAR(fg[3], 2.0 / 3.0, 1e-15);
}

TEST(Tet3dKernels, GradCalcIsConservativeAcrossTheFace) {
  const double u1 = 3.0, u2 = 5.0;
  const double cg1[4] = {2.0, 0, 0, 0}, cg2[4] = {4.0, 1, 0, 0};
  const double fg[6] = {0.5, -0.25, 1.0, 0.5, 0.5, 0.0};
  double g1[3] = {}, g2[3] = {};
  tet3d::GradCalc<double>{}(&u1, &u2, cg1, cg2, fg, g1, g2);
  const double uf = 4.0;
  for (int k = 0; k < 3; ++k) {
    EXPECT_NEAR(g1[k], uf * fg[k] / cg1[0], 1e-14);
    EXPECT_NEAR(g2[k], -uf * fg[k] / cg2[0], 1e-14);
    // Volume-weighted contributions cancel: what leaves cell 1 enters cell 2.
    EXPECT_NEAR(g1[k] * cg1[0] + g2[k] * cg2[0], 0.0, 1e-14);
  }
}

TEST(Tet3dKernels, FluxCalcAntisymmetricAndUpwind) {
  const auto c = Consts<double>::standard();
  const double u1 = 1.0, u2 = 2.0;
  const double g1[3] = {0.1, -0.2, 0.05}, g2[3] = {-0.05, 0.1, 0.2};
  const double cg1[4] = {0.5, 0, 0, 0}, cg2[4] = {0.5, 1, 0, 0};
  const double fg[6] = {1.0, 0.0, 0.0, 0.5, 0.0, 0.0};  // normal +x
  double r1 = 0, r2 = 0;
  tet3d::FluxCalc<double>{c}(&u1, &u2, g1, g2, cg1, cg2, fg, &r1, &r2);
  EXPECT_NE(r1, 0.0);
  EXPECT_EQ(r1, -r2);  // exact conservation, same arithmetic both sides
  // vn = vel.S = 1 > 0: the upwind value extrapolates from cell 1.
  const double uL = u1 + g1[0] * 0.5 + g1[1] * 0.0 + g1[2] * 0.0;
  const double dif = c.kappa * (u2 - u1) * 1.0 / 1.0;  // s2=1, sd=1
  EXPECT_NEAR(r1, 1.0 * uL - dif, 1e-14);
}

TEST(Tet3dKernels, BFluxWallIsZeroAndFarfieldIsNot) {
  const auto c = Consts<double>::standard();
  const double u1 = 1.5;
  const double g1[3] = {0.1, 0.0, 0.0};
  const double cg1[4] = {0.5, 0, 0, 0};
  const double fg[6] = {1.0, 0.0, 0.0, 0.5, 0.0, 0.0};
  const std::int32_t wall = mesh::kBoundWall, far = mesh::kBoundFarfield;
  double rw = 0, rf = 0;
  tet3d::BFluxCalc<double>{c}(&u1, g1, cg1, fg, &wall, &rw);
  tet3d::BFluxCalc<double>{c}(&u1, g1, cg1, fg, &far, &rf);
  EXPECT_EQ(rw, 0.0);
  EXPECT_NE(rf, 0.0);
}

TEST(Tet3dKernels, UpdateUEulerStepAndReset) {
  const double uold = 2.0;
  const double cg[4] = {0.5, 0, 0, 0};
  double u = 0, res = 0.25, grad[3] = {1, 2, 3}, rms = 0;
  tet3d::UpdateU<double>{0.1}(&uold, cg, &u, &res, grad, &rms);
  const double del = (0.1 / 0.5) * 0.25;
  EXPECT_NEAR(u, uold - del, 1e-15);
  EXPECT_EQ(res, 0.0);
  for (double g : grad) EXPECT_EQ(g, 0.0);
  EXPECT_NEAR(rms, del * del, 1e-15);
}

// ---- generator + invariants -------------------------------------------------

TEST(TetBox, KuhnSplitCountsAndInvariants) {
  for (const auto [ni, nj, nk] : {std::array<idx_t, 3>{1, 1, 1}, {2, 3, 2}, {3, 2, 4}}) {
    const mesh::TetMesh m = mesh::make_tet_box(ni, nj, nk);
    const idx_t nhex = ni * nj * nk;
    EXPECT_EQ(m.ncells, 6 * nhex);
    EXPECT_EQ(m.nnodes, (ni + 1) * (nj + 1) * (nk + 1));
    // Every boundary quad of the box splits into two boundary triangles.
    const idx_t nbquads = 2 * (ni * nj + nj * nk + ni * nk);
    EXPECT_EQ(m.nbfaces, 2 * nbquads);
    // Face handshake: 4 faces per tet, interior ones shared by exactly two.
    EXPECT_EQ(2 * m.nfaces + m.nbfaces, 4 * m.ncells);
    // The split fills the box exactly (cell_volume is signed; orientation
    // alternates across the Kuhn permutations, so sum magnitudes).
    double vol = 0;
    for (idx_t c = 0; c < m.ncells; ++c) vol += std::abs(m.cell_volume(c));
    EXPECT_NEAR(vol, 1.0, 1e-12);
    // Bottom faces are walls, everything else far field.
    idx_t nwall = 0;
    for (idx_t b = 0; b < m.nbfaces; ++b)
      if (m.bface_bound[b] == mesh::kBoundWall) ++nwall;
    EXPECT_EQ(nwall, 2 * ni * nj);
  }
  opv::test::check_tet_invariants(mesh::make_tet_box(3, 3, 3));
}

TEST(TetBox, StableDtIsPositiveAndScalesDown) {
  const auto c = Consts<double>::standard();
  const double coarse = tet3d::stable_dt(c, mesh::make_tet_box(2, 2, 2));
  const double fine = tet3d::stable_dt(c, mesh::make_tet_box(4, 4, 4));
  EXPECT_GT(coarse, 0.0);
  EXPECT_GT(fine, 0.0);
  EXPECT_LT(fine, coarse);  // refinement tightens the explicit bound
}

// ---- full-application equivalence -------------------------------------------

template <class Real>
aligned_vector<Real> run_app(const mesh::TetMesh& m, ExecConfig cfg, int iters,
                             bool chain = false, double* rms_out = nullptr) {
  LocalCtx ctx(cfg);
  tet3d::Tet3D<Real, LocalCtx> app(ctx, m, chain);
  app.run(iters, 1);
  if (rms_out) *rms_out = app.last_rms();
  return app.fetch_u();
}

TEST(Tet3dApp, BackendsMatchSequential) {
  const auto m = mesh::make_tet_box(4, 4, 3);
  const auto ref = run_app<double>(m, {.backend = Backend::Seq}, 10);
  const std::vector<std::pair<std::string, ExecConfig>> cfgs = {
      {"openmp", {.backend = Backend::OpenMP}},
      {"autovec", {.backend = Backend::AutoVec}},
      {"simd4", {.backend = Backend::Simd, .simd_width = 4}},
      {"simd_fp", {.backend = Backend::Simd, .coloring = ColoringStrategy::FullPermute}},
      {"simt", {.backend = Backend::Simt}},
  };
  for (const auto& [name, cfg] : cfgs) {
    SCOPED_TRACE(name);
    const auto got = run_app<double>(m, cfg, 10);
    ASSERT_EQ(ref.size(), got.size());
    for (std::size_t i = 0; i < ref.size(); ++i)
      ASSERT_NEAR(ref[i], got[i], 1e-12 * (std::abs(ref[i]) + 1)) << "u[" << i << "]";
  }
}

/// A one-thread OpenMP team takes no coloring plan and sweeps each loop in
/// ascending order, so it computes exactly what Seq computes.
TEST(Tet3dApp, OneThreadOpenMPIsBitwiseSeq) {
  const auto m = mesh::make_tet_box(4, 4, 3);
  const auto ref = run_app<double>(m, {.backend = Backend::Seq}, 6);
  const auto got = run_app<double>(m, {.backend = Backend::OpenMP, .nthreads = 1}, 6);
  ASSERT_EQ(ref.size(), got.size());
  EXPECT_EQ(std::memcmp(ref.data(), got.data(), ref.size() * sizeof(double)), 0);
}

TEST(Tet3dApp, ChainIsBitwiseIdenticalToLoopByLoop) {
  const auto m = mesh::make_tet_box(3, 3, 3);
  const auto plain = run_app<double>(m, {.backend = Backend::Seq}, 8, false);
  const auto chained = run_app<double>(m, {.backend = Backend::Seq}, 8, true);
  ASSERT_EQ(plain.size(), chained.size());
  EXPECT_EQ(std::memcmp(plain.data(), chained.data(), plain.size() * sizeof(double)), 0);
}

TEST(Tet3dApp, RenumberIsTransparentThroughFetch) {
  // Renumbering permutes the face iteration order, which reassociates the
  // per-cell INC sums — so the bar is field-norm tolerance, not bitwise
  // (the bitwise manual-relayout contract is pinned in tests/test_reorder).
  const auto m = mesh::make_tet_box(3, 3, 2);
  const auto plain = run_app<double>(m, {.backend = Backend::Seq}, 6);
  ExecConfig cfg{.backend = Backend::Seq};
  LocalCtx ctx(cfg);
  ctx.set_renumber(true);
  tet3d::Tet3D<double, LocalCtx> app(ctx, m, /*chain=*/true);
  app.run(6, 1);
  const auto ren = app.fetch_u();
  ASSERT_EQ(plain.size(), ren.size());
  for (std::size_t i = 0; i < plain.size(); ++i)
    EXPECT_NEAR(plain[i], ren[i], 1e-12 * (std::abs(plain[i]) + 1)) << "u[" << i << "]";
}

TEST(Tet3dApp, DistMatchesLocal) {
  const auto m = mesh::make_tet_box(4, 3, 3);
  const auto ref = run_app<double>(m, {.backend = Backend::Seq}, 6);
  for (int ranks : {2, 4}) {
    dist::DistCtx ctx(ranks, ExecConfig{.backend = Backend::Seq, .nthreads = 1});
    tet3d::Tet3D<double, dist::DistCtx> app(ctx, m);
    app.run(6, 1);
    const auto got = app.fetch_u();
    ASSERT_EQ(ref.size(), got.size());
    for (std::size_t i = 0; i < ref.size(); ++i)
      ASSERT_NEAR(ref[i], got[i], 1e-11 * (std::abs(ref[i]) + 1))
          << "ranks=" << ranks << " u[" << i << "]";
  }
}

TEST(Tet3dApp, RmsDecaysAndStaysFinite) {
  const auto m = mesh::make_tet_box(4, 4, 4);
  LocalCtx ctx(ExecConfig{.backend = Backend::Simd});
  tet3d::Tet3D<double, LocalCtx> app(ctx, m);
  app.run(120, 20);
  const auto& hist = app.rms_history();
  ASSERT_EQ(hist.size(), 6u);
  for (double r : hist) {
    EXPECT_TRUE(std::isfinite(r));
    EXPECT_GT(r, 0.0);
  }
  EXPECT_LT(hist.back(), hist.front());
}

TEST(Tet3dApp, SinglePrecisionTracksDouble) {
  const auto m = mesh::make_tet_box(3, 3, 3);
  const auto ud = run_app<double>(m, {.backend = Backend::Simd}, 5);
  const auto uf = run_app<float>(m, {.backend = Backend::Simd}, 5);
  ASSERT_EQ(ud.size(), uf.size());
  for (std::size_t i = 0; i < ud.size(); ++i)
    EXPECT_NEAR(static_cast<float>(ud[i]), uf[i], 2e-4f * (std::abs(uf[i]) + 1));
}

// ---- imported meshes --------------------------------------------------------

TEST(Tet3dApp, ImportedMshIsBitwiseIdenticalToInMemoryMesh) {
  const mesh::TetMesh mem = mesh::make_tet_box(3, 3, 2);
  const std::string path =
      (std::filesystem::temp_directory_path() / "opv_tet3d_app.msh").string();
  mesh::write_msh(mesh::from_tet(mem), path, 2);
  const mesh::TetMesh imp = mesh::to_tet(mesh::read_msh(path));
  ASSERT_EQ(imp.cell_nodes, mem.cell_nodes);
  ASSERT_EQ(imp.node_xyz, mem.node_xyz);
  opv::test::check_tet_invariants(imp);

  // Renumbered + chained local run, then a partitioned run — both bitwise.
  ExecConfig cfg{.backend = Backend::Seq};
  for (const bool chain : {false, true}) {
    LocalCtx ca(cfg), cb(cfg);
    ca.set_renumber(true);
    cb.set_renumber(true);
    tet3d::Tet3D<double, LocalCtx> aa(ca, mem, chain), ab(cb, imp, chain);
    aa.run(7, 1);
    ab.run(7, 1);
    const auto ua = aa.fetch_u(), ub = ab.fetch_u();
    ASSERT_EQ(ua.size(), ub.size());
    EXPECT_EQ(std::memcmp(ua.data(), ub.data(), ua.size() * sizeof(double)), 0)
        << "chain=" << chain;
    EXPECT_EQ(aa.last_rms(), ab.last_rms());
  }
  {
    dist::DistCtx ca(3, cfg), cb(3, cfg);
    tet3d::Tet3D<double, dist::DistCtx> aa(ca, mem), ab(cb, imp);
    aa.run(7, 1);
    ab.run(7, 1);
    const auto ua = aa.fetch_u(), ub = ab.fetch_u();
    ASSERT_EQ(ua.size(), ub.size());
    EXPECT_EQ(std::memcmp(ua.data(), ub.data(), ua.size() * sizeof(double)), 0);
    EXPECT_EQ(aa.last_rms(), ab.last_rms());
  }
}

TEST(Tet3dApp, RunsOnTheCommittedFixture) {
  std::vector<mesh::BoundarySet> bsets;
  const mesh::TetMesh m =
      mesh::to_tet(mesh::read_msh(std::string(OPV_FIXTURE_DIR) + "/msh/tet3d_v41.msh"), {}, &bsets);
  ASSERT_EQ(bsets.size(), 2u);
  LocalCtx ctx(ExecConfig{.backend = Backend::Seq});
  tet3d::Tet3D<double, LocalCtx> app(ctx, m);
  app.run(20, 5);
  for (double r : app.rms_history()) EXPECT_TRUE(std::isfinite(r));
}

}  // namespace
