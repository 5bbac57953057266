// Memory layout tests (core/layout.hpp, core/dat.hpp).
//
// The contract, pinned here:
//  1. addressing — layout_offset is a bijection into the padded storage for
//     both layouts, and the per-backend default heuristic is stable;
//  2. materialization — a dat's declared AoS rows are built once into their
//     final numbering and layout (row e lands at perm[e], SoA planes are
//     padded with zero rows), export_rows/import_rows round-trip the
//     declaration-order AoS bytes bitwise, and storage built in its layout
//     starts final;
//  3. value transparency — a Seq run is BITWISE identical across AoS and
//     SoA for all three applications (the W = 1 argument state stages an
//     SoA element row through comp(c)[lidx(e)], pre-loaded for every access
//     mode, so the kernel sees identical values in identical order), and
//     fetch() keeps returning declaration-order AoS values after renumbering
//     into SoA storage; a context's layout skips dim-1 dats;
//  4. distributed transport — rank replicas are built in the context's
//     layout from the declaration-order values and the halo exchange honors
//     SoA strides: a renumbered DistCtx run under SoA is bitwise identical
//     to the AoS run across every exchange mode and both exchanger
//     implementations;
//  5. 3D partitioning — partition_rcb with ndims == 3 bisects the true 3D
//     bounding box (a z-elongated mesh splits into z bands, which an xy
//     projection could never produce).
// When the layout can still be chosen (until finalize) is the context
// lifecycle, pinned in tests/test_context.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "apps/airfoil/airfoil.hpp"
#include "apps/tet3d/tet3d.hpp"
#include "apps/volna/volna.hpp"
#include "core/context.hpp"
#include "dist/context.hpp"
#include "dist/exchange.hpp"
#include "dist/partition.hpp"
#include "mesh/generators.hpp"

namespace {

using namespace opv;

constexpr Layout kAll[2] = {Layout::AoS, Layout::SoA};

template <class Real>
void expect_bitwise(const aligned_vector<Real>& a, const aligned_vector<Real>& b,
                    const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(Real)), 0)
      << what << ": diverged bitwise across layouts";
}

template <class Real>
double field_norm_divergence(const aligned_vector<Real>& ref, const aligned_vector<Real>& got) {
  if (ref.size() != got.size()) return 1.0;
  double norm = 0.0, max_diff = 0.0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    norm = std::max(norm, std::abs(static_cast<double>(ref[i])));
    max_diff = std::max(max_diff, std::abs(static_cast<double>(ref[i]) - got[i]));
  }
  return norm > 0.0 ? max_diff / norm : 1.0;
}

mesh::UnstructuredMesh airfoil_mesh() {
  auto m = mesh::make_airfoil_omesh(48, 16);
  mesh::shuffle_edges(m, 13);
  return m;
}

mesh::UnstructuredMesh volna_mesh() {
  auto m = mesh::make_tri_periodic(20, 20, 4.0, 4.0);
  mesh::shuffle_edges(m, 29);
  return m;
}

mesh::TetMesh tet_mesh() { return mesh::make_tet_box(6, 6, 5); }

// ===== addressing ===========================================================

TEST(LayoutOffset, BijectionIntoPaddedStorage) {
  const idx_t n = 37;  // deliberately not a multiple of kPlaneAlign
  const int dim = 3;
  const idx_t plane = padded_rows(n);
  for (Layout l : kAll) {
    const std::size_t cap = static_cast<std::size_t>(l == Layout::AoS ? n * dim : plane * dim);
    std::set<std::size_t> seen;
    for (idx_t e = 0; e < n; ++e)
      for (int c = 0; c < dim; ++c) {
        const std::size_t off = layout_offset(l, e, c, dim, plane);
        EXPECT_LT(off, cap) << layout_name(l);
        EXPECT_TRUE(seen.insert(off).second)
            << layout_name(l) << ": (e=" << e << ", c=" << c << ") collides";
      }
  }
}

TEST(LayoutOffset, AgreesWithDocumentedFormulas) {
  const idx_t plane = padded_rows(40);
  EXPECT_EQ(layout_offset(Layout::AoS, 7, 2, 4, plane), 7u * 4 + 2);
  EXPECT_EQ(layout_offset(Layout::SoA, 7, 2, 4, plane),
            2u * static_cast<std::size_t>(plane) + 7);
  EXPECT_EQ(plane, 48);
}

TEST(LayoutDefault, PerBackendHeuristic) {
  EXPECT_EQ(default_layout(Backend::Seq), Layout::AoS);
  EXPECT_EQ(default_layout(Backend::OpenMP), Layout::AoS);
  EXPECT_EQ(default_layout(Backend::AutoVec), Layout::SoA);
  EXPECT_EQ(default_layout(Backend::Simd), Layout::SoA);
  EXPECT_EQ(default_layout(Backend::Simt), Layout::SoA);
}

// ===== materialization: one pass to the final numbering and layout ==========

/// A reversing permutation (old -> new) of n rows.
aligned_vector<idx_t> reversed(idx_t n) {
  aligned_vector<idx_t> p(static_cast<std::size_t>(n));
  for (idx_t e = 0; e < n; ++e) p[static_cast<std::size_t>(e)] = n - 1 - e;
  return p;
}

/// Declaration-order AoS values 1, 2, 3, ... for n rows of 3 components.
aligned_vector<double> counting(idx_t n) {
  aligned_vector<double> v(static_cast<std::size_t>(n) * 3);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = 1.0 + static_cast<double>(i);
  return v;
}

TEST(Materialize, PermutesIntoPaddedSoA) {
  const idx_t n = 37;  // not a multiple of kPlaneAlign: the plane has padding rows
  const Set s("s", n);
  const auto init = counting(n);
  const auto perm = reversed(n);
  FixedDat<double, 3> d("d", s, init);
  d.materialize(&perm, Layout::SoA);

  EXPECT_EQ(d.layout(), Layout::SoA);
  EXPECT_EQ(d.plane(), padded_rows(n));
  ASSERT_EQ(d.size(), static_cast<std::size_t>(padded_rows(n)) * 3);
  for (idx_t e = 0; e < n; ++e)
    for (int c = 0; c < 3; ++c)
      EXPECT_EQ(d.at(perm[static_cast<std::size_t>(e)], c),
                init[static_cast<std::size_t>(e) * 3 + c]);
  for (int c = 0; c < 3; ++c)
    for (idx_t row = n; row < d.plane(); ++row)
      EXPECT_EQ(d.data()[layout_offset(Layout::SoA, row, c, 3, d.plane())], 0.0)
          << "padding row " << row << " of plane " << c;
}

TEST(Materialize, RowsRoundTripBitwiseThroughAPermutation) {
  const idx_t n = 37;
  const Set s("s", n);
  const auto init = counting(n);
  const auto perm = reversed(n);
  const aligned_vector<idx_t>* perms[] = {nullptr, &perm};
  for (Layout l : kAll)
    for (const auto* p : perms) {
      SCOPED_TRACE(std::string(layout_name(l)) + (p ? " permuted" : " unpermuted"));
      FixedDat<double, 3> d("d", s, init);
      d.materialize(p, l);
      aligned_vector<double> out(init.size());
      d.export_rows(p, out.data());
      expect_bitwise(init, out, "export_rows");

      aligned_vector<double> other(init.size());
      for (std::size_t i = 0; i < other.size(); ++i) other[i] = -init[i];
      d.import_rows(p, other.data());
      d.export_rows(p, out.data());
      expect_bitwise(other, out, "import_rows then export_rows");
    }
}

TEST(Materialize, OncePerDat) {
  const Set s("s", 8);
  FixedDat<double, 3> d("d", s);
  d.materialize(nullptr, Layout::AoS);
  EXPECT_THROW(d.materialize(nullptr, Layout::AoS), Error);
  EXPECT_THROW(d.materialize(nullptr, Layout::SoA), Error);
}

TEST(Materialize, LayoutConstructorStartsFinal) {
  const Set s("s", 20);
  Dat<double> d("d", s, 3, Layout::SoA);
  EXPECT_EQ(d.layout(), Layout::SoA);
  EXPECT_EQ(d.plane(), padded_rows(20));
  EXPECT_EQ(d.size(), static_cast<std::size_t>(padded_rows(20)) * 3);
  EXPECT_THROW(d.materialize(nullptr, Layout::SoA), Error);
}

// ===== value transparency: Seq bitwise across layouts =======================

class SeqBitwiseP : public ::testing::TestWithParam<Layout> {};

TEST_P(SeqBitwiseP, AirfoilMatchesAoS) {
  const auto m = airfoil_mesh();
  const ExecConfig cfg{.backend = Backend::Seq};
  const auto run = [&](Layout l) {
    LocalCtx ctx(cfg);
    ctx.set_renumber(true);
    ctx.set_default_layout(l);
    airfoil::Airfoil<double, LocalCtx> app(ctx, m);
    app.run(3, 0);
    return std::make_pair(app.fetch_q(), app.fetch_res());
  };
  const auto ref = run(Layout::AoS);
  const auto got = run(GetParam());
  expect_bitwise(ref.first, got.first, "airfoil q");
  expect_bitwise(ref.second, got.second, "airfoil res");
}

TEST_P(SeqBitwiseP, VolnaMatchesAoS) {
  const auto m = volna_mesh();
  const ExecConfig cfg{.backend = Backend::Seq};
  const auto run = [&](Layout l) {
    LocalCtx ctx(cfg);
    ctx.set_default_layout(l);
    volna::Volna<float, LocalCtx> app(ctx, m);
    app.run(3);
    return app.fetch_state();
  };
  expect_bitwise(run(Layout::AoS), run(GetParam()), "volna state");
}

TEST_P(SeqBitwiseP, Tet3DMatchesAoS) {
  const auto m = tet_mesh();
  const ExecConfig cfg{.backend = Backend::Seq};
  const auto run = [&](Layout l) {
    LocalCtx ctx(cfg);
    ctx.set_renumber(true);
    ctx.set_default_layout(l);
    tet3d::Tet3D<double, LocalCtx> app(ctx, m);
    app.run(3, 0);
    return std::make_pair(app.fetch_u(), app.fetch_grad());
  };
  const auto ref = run(Layout::AoS);
  const auto got = run(GetParam());
  expect_bitwise(ref.first, got.first, "tet3d u");
  expect_bitwise(ref.second, got.second, "tet3d grad");
}

INSTANTIATE_TEST_SUITE_P(Layouts, SeqBitwiseP,
                         ::testing::Values(Layout::SoA),
                         [](const auto& info) { return layout_name(info.param); });

// ===== fetch round-trip under renumbering into SoA ===========================

TEST(LocalLayout, FetchRoundTripsDeclarationOrder) {
  auto m = mesh::make_quad_box(8, 6);
  LocalCtx ctx;
  auto cells = ctx.decl_set("cells", m.ncells);
  auto edges = ctx.decl_set("edges", m.nedges);
  ctx.decl_map("pecell", edges, cells, 2, m.edge_cells);
  aligned_vector<double> cv(static_cast<std::size_t>(m.ncells) * 3);
  for (std::size_t i = 0; i < cv.size(); ++i) cv[i] = 0.5 + static_cast<double>(i);
  aligned_vector<float> ev(static_cast<std::size_t>(m.nedges) * 2);
  for (std::size_t i = 0; i < ev.size(); ++i) ev[i] = 0.25f + static_cast<float>(i);
  auto cdat = ctx.decl_dat<double, 3>("cdat", cells, cv);
  auto edat = ctx.decl_dat<float, 2>("edat", edges, ev);
  ctx.set_default_layout(Layout::SoA);

  ctx.set_partition_coords(cells, nullptr);
  ctx.set_renumber(true);
  ctx.finalize();  // renumbered AoS rows -> SoA storage, in one pass

  EXPECT_EQ(cdat->layout(), Layout::SoA);
  EXPECT_EQ(edat->layout(), Layout::SoA);
  EXPECT_EQ(cdat->plane(), padded_rows(m.ncells));

  aligned_vector<double> cout;
  ctx.fetch(cdat, cout);
  aligned_vector<float> eout;
  ctx.fetch(edat, eout);
  expect_bitwise(cv, cout, "cell dat round-trip");
  expect_bitwise(ev, eout, "edge dat round-trip");

  // The physical storage really changed (the round-trip is not vacuous):
  // at() must still address every declared value through the new layout.
  const auto* perm = ctx.permutation(cells);
  ASSERT_NE(perm, nullptr);
  for (idx_t e = 0; e < m.ncells; ++e)
    for (int c = 0; c < 3; ++c)
      EXPECT_EQ(cdat->at((*perm)[static_cast<std::size_t>(e)], c),
                cv[static_cast<std::size_t>(e) * 3 + c]);
}

TEST(LocalLayout, DefaultSkipsScalarDats) {
  LocalCtx ctx;
  auto cells = ctx.decl_set("cells", 24);
  auto scalar = ctx.decl_dat<double, 1>("scalar", cells);
  auto vec = ctx.decl_dat<double, 4>("vec", cells);
  ctx.set_default_layout(Layout::SoA);
  ctx.finalize();
  EXPECT_EQ(scalar->layout(), Layout::AoS) << "dim-1 dats gain nothing from SoA";
  EXPECT_EQ(vec->layout(), Layout::SoA);
}

// ===== distributed transport: non-AoS halos across modes and exchangers ====

class DistLayoutP
    : public ::testing::TestWithParam<std::tuple<dist::ExchangeMode, Layout, bool>> {};

TEST_P(DistLayoutP, AirfoilMatchesAoSBitwise) {
  const auto [mode, layout, staged] = GetParam();
  const auto m = airfoil_mesh();
  ExecConfig cfg;
  cfg.backend = Backend::OpenMP;
  cfg.nthreads = 1;

  const auto run = [&](Layout l) {
    dist::DistCtx ctx(3, cfg);
    ctx.set_renumber(true);
    ctx.set_exchange_mode(mode);
    if (staged) ctx.set_exchanger(std::make_unique<dist::StagedExchanger>());
    ctx.set_default_layout(l);
    airfoil::Airfoil<double, dist::DistCtx> app(ctx, m);
    app.run(3, 0);
    return app.fetch_q();
  };
  // The scalar path stages SoA rows and the halo transport is
  // layout-transparent, so the layout policy must not change a single bit.
  expect_bitwise(run(Layout::AoS), run(layout), "dist airfoil q");
}

TEST_P(DistLayoutP, Tet3DMatchesAoSBitwise) {
  const auto [mode, layout, staged] = GetParam();
  const auto m = tet_mesh();
  ExecConfig cfg;
  cfg.backend = Backend::OpenMP;
  cfg.nthreads = 1;

  const auto run = [&](Layout l) {
    dist::DistCtx ctx(3, cfg);
    ctx.set_renumber(true);
    ctx.set_exchange_mode(mode);
    if (staged) ctx.set_exchanger(std::make_unique<dist::StagedExchanger>());
    ctx.set_default_layout(l);
    tet3d::Tet3D<double, dist::DistCtx> app(ctx, m);
    app.run(3, 0);
    return app.fetch_u();
  };
  expect_bitwise(run(Layout::AoS), run(layout), "dist tet3d u");
}

INSTANTIATE_TEST_SUITE_P(
    ModesLayoutsExchangers, DistLayoutP,
    ::testing::Combine(::testing::Values(dist::ExchangeMode::Blocking,
                                         dist::ExchangeMode::Phased,
                                         dist::ExchangeMode::Overlap),
                       ::testing::Values(Layout::SoA),
                       ::testing::Bool()),
    [](const auto& info) {
      return std::string(dist::exchange_mode_name(std::get<0>(info.param))) +
             layout_name(std::get<1>(info.param)) +
             (std::get<2>(info.param) ? "Staged" : "Memcpy");
    });

// ===== vector backends: layout changes values only within tolerance =========

class VectorLayoutP : public ::testing::TestWithParam<std::tuple<Backend, Layout>> {};

TEST_P(VectorLayoutP, AirfoilWithinFieldNormOfSeqAoS) {
  const auto [backend, layout] = GetParam();
  const auto m = airfoil_mesh();

  LocalCtx ref_ctx(ExecConfig{.backend = Backend::Seq});
  ref_ctx.set_renumber(true);
  airfoil::Airfoil<double, LocalCtx> ref(ref_ctx, m);
  ref.run(3, 0);

  LocalCtx ctx(ExecConfig{.backend = backend});
  ctx.set_renumber(true);
  ctx.set_default_layout(layout);
  airfoil::Airfoil<double, LocalCtx> app(ctx, m);
  app.run(3, 0);

  EXPECT_LT(field_norm_divergence(ref.fetch_q(), app.fetch_q()), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    BackendsLayouts, VectorLayoutP,
    ::testing::Combine(::testing::Values(Backend::OpenMP, Backend::AutoVec, Backend::Simd,
                                         Backend::Simt),
                       ::testing::Values(Layout::SoA)),
    [](const auto& info) {
      return std::string(backend_name(std::get<0>(info.param))) +
             layout_name(std::get<1>(info.param));
    });

// ===== 3D recursive coordinate bisection ====================================

/// Points on a 4 x 4 x 32 grid, z spacing 1, x/y spacing 0.1: the true
/// bounding box is z-elongated, so every RCB split must cut z. An xy
/// projection would see a 0.3 x 0.3 square and produce parts that mix all
/// z strata.
aligned_vector<double> z_elongated_points(idx_t nx, idx_t ny, idx_t nz) {
  aligned_vector<double> xyz;
  xyz.reserve(static_cast<std::size_t>(nx * ny * nz) * 3);
  for (idx_t z = 0; z < nz; ++z)
    for (idx_t y = 0; y < ny; ++y)
      for (idx_t x = 0; x < nx; ++x) {
        xyz.push_back(0.1 * static_cast<double>(x));
        xyz.push_back(0.1 * static_cast<double>(y));
        xyz.push_back(static_cast<double>(z));
      }
  return xyz;
}

TEST(Partition3D, RcbSplitsZElongatedBoxIntoZBands) {
  const idx_t nx = 4, ny = 4, nz = 32;
  const idx_t n = nx * ny * nz;
  const auto xyz = z_elongated_points(nx, ny, nz);
  for (int nparts : {2, 4}) {
    const auto owner = dist::partition_rcb(xyz.data(), n, nparts, 3);
    const auto sizes = dist::part_sizes(owner, nparts);
    for (int p = 0; p < nparts; ++p)
      EXPECT_EQ(sizes[static_cast<std::size_t>(p)], n / nparts) << "nparts=" << nparts;
    // Every part must own a contiguous, pairwise-disjoint z band.
    std::vector<double> zlo(static_cast<std::size_t>(nparts), 1e300);
    std::vector<double> zhi(static_cast<std::size_t>(nparts), -1e300);
    for (idx_t i = 0; i < n; ++i) {
      const double z = xyz[static_cast<std::size_t>(i) * 3 + 2];
      auto& lo = zlo[static_cast<std::size_t>(owner[static_cast<std::size_t>(i)])];
      auto& hi = zhi[static_cast<std::size_t>(owner[static_cast<std::size_t>(i)])];
      lo = std::min(lo, z);
      hi = std::max(hi, z);
    }
    for (int a = 0; a < nparts; ++a)
      for (int b = 0; b < nparts; ++b)
        if (a != b) {
          EXPECT_TRUE(zhi[static_cast<std::size_t>(a)] < zlo[static_cast<std::size_t>(b)] ||
                      zhi[static_cast<std::size_t>(b)] < zlo[static_cast<std::size_t>(a)])
              << "parts " << a << " and " << b << " overlap in z (nparts=" << nparts << ")";
        }
  }
}

TEST(Partition3D, RcbRejectsUnsupportedDimensionality) {
  const auto xyz = z_elongated_points(2, 2, 2);
  EXPECT_THROW(dist::partition_rcb(xyz.data(), 8, 2, 4), Error);
  EXPECT_THROW(dist::partition_rcb(xyz.data(), 8, 2, 1), Error);
}

TEST(Partition3D, RcbRejectsNonFiniteCoordinates) {
  for (double bad : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    auto xyz = z_elongated_points(2, 2, 2);
    xyz[13] = bad;  // element 4, y
    EXPECT_THROW(dist::partition_rcb(xyz.data(), 8, 2, 3), Error) << bad;
    EXPECT_THROW(dist::partition_rcb(xyz.data(), 8, 1, 3), Error) << bad;
  }
}

}  // namespace
