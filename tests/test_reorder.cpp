// Context-level renumbering tests (core/reorder.hpp).
//
// The pass's contract has three legs, each pinned here:
//  1. validity — every computed permutation is a bijection, and fetch()
//     round-trips declared values in the original order exactly;
//  2. relayout transparency — a context with renumbering enabled is
//     BITWISE-identical to the caller applying the same permutations by
//     hand before declaration and un-permuting fetched results (the
//     ManualRelayoutCtx shim below does exactly that), for Airfoil and
//     Volna on Seq/OpenMP/Simd/Simt and on DistCtx across exchange modes.
//     A renumbered run is deliberately NOT bitwise-identical to an
//     un-renumbered one — reordering an indirect-increment loop
//     reassociates the per-target floating-point sums — so the on-vs-off
//     comparison is pinned at reassociation tolerance instead;
//  3. structure preservation — within-row map order is untouched (the
//     orient_edges_fv finite-volume convention survives renumbering).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <map>
#include <string>
#include <utility>

#include "apps/airfoil/airfoil.hpp"
#include "apps/volna/volna.hpp"
#include "core/context.hpp"
#include "dist/context.hpp"
#include "mesh/generators.hpp"

namespace {

using namespace opv;

// ===== the manual-relayout shim =============================================

/// A Context-concept wrapper that performs the renumbering pass BY HAND at
/// the declaration boundary: map rows/targets and dat rows are permuted with
/// the given per-set-name permutations before reaching the inner context,
/// partition coordinates are row-permuted, and fetch() results are mapped
/// back to the original order. Running an application through this shim is
/// the caller-side relayout the context pass must be bitwise-equivalent to.
template <class Inner>
class ManualRelayoutCtx {
 public:
  using SetHandle = typename Inner::SetHandle;
  using MapHandle = typename Inner::MapHandle;
  template <class T, int N>
  struct FixedDatHandle {
    typename Inner::template FixedDatHandle<T, N> inner{};
    const aligned_vector<idx_t>* perm = nullptr;
    idx_t set_size = 0;
  };

  ManualRelayoutCtx(Inner& inner, std::map<std::string, aligned_vector<idx_t>> perms)
      : inner_(&inner), perms_(std::move(perms)) {}

  ExecConfig& config() { return inner_->config(); }

  SetHandle decl_set(const std::string& name, idx_t size) {
    const SetHandle h = inner_->decl_set(name, size);
    const auto it = perms_.find(name);
    set_perm_[h] = it == perms_.end() ? nullptr : &it->second;
    set_size_[h] = size;
    return h;
  }

  void set_partition_coords(SetHandle s, const double* xy, int ndims = 2) {
    if (const auto* p = set_perm_.at(s)) {
      coords_.assign(xy, xy + static_cast<std::size_t>(set_size_.at(s)) * ndims);
      reorder::permute_rows(*p, coords_.data(), ndims);
      inner_->set_partition_coords(s, coords_.data(), ndims);
    } else {
      inner_->set_partition_coords(s, xy, ndims);
    }
  }

  MapHandle decl_map(const std::string& name, SetHandle from, SetHandle to, int dim,
                     aligned_vector<idx_t> data) {
    if (const auto* tp = set_perm_.at(to))
      for (auto& v : data) v = (*tp)[static_cast<std::size_t>(v)];
    if (const auto* fp = set_perm_.at(from)) reorder::permute_rows(*fp, data.data(), dim);
    return inner_->decl_map(name, from, to, dim, std::move(data));
  }

  template <class T, int N>
  FixedDatHandle<T, N> decl_dat(const std::string& name, SetHandle set,
                                aligned_vector<T> init = {}) {
    if (const auto* p = set_perm_.at(set); p && !init.empty())
      reorder::permute_rows(*p, init.data(), N);
    return {inner_->template decl_dat<T, N>(name, set, init), set_perm_.at(set),
            set_size_.at(set)};
  }

  void finalize() { inner_->finalize(); }

  template <AccessMode A, class T, int N>
  auto arg(FixedDatHandle<T, N> d, int idx, MapHandle m) {
    return inner_->template arg<A>(d.inner, idx, m);
  }
  template <AccessMode A, class T, int N>
  auto arg(FixedDatHandle<T, N> d) {
    return inner_->template arg<A>(d.inner);
  }
  template <AccessMode A, class T>
  auto arg_gbl(T* p, int dim) {
    return inner_->template arg_gbl<A>(p, dim);
  }

  template <class Kernel, class... Args>
  auto make_loop(Kernel k, const char* name, SetHandle set, Args... args) {
    return inner_->make_loop(std::move(k), name, set, args...);
  }

  template <class T, int N>
  void fetch(FixedDatHandle<T, N> d, aligned_vector<T>& out) {
    aligned_vector<T> raw;
    inner_->fetch(d.inner, raw);
    unpermute(std::move(raw), d.perm, d.set_size, out);
  }

 private:
  template <class T>
  static void unpermute(aligned_vector<T> raw, const aligned_vector<idx_t>* perm,
                        idx_t set_size, aligned_vector<T>& out) {
    if (!perm) {
      out = std::move(raw);
      return;
    }
    const int dim = static_cast<int>(raw.size() / static_cast<std::size_t>(set_size));
    out.resize(raw.size());
    for (idx_t e = 0; e < set_size; ++e)
      for (int c = 0; c < dim; ++c)
        out[static_cast<std::size_t>(e) * dim + c] =
            raw[static_cast<std::size_t>((*perm)[static_cast<std::size_t>(e)]) * dim + c];
  }

  Inner* inner_;
  std::map<std::string, aligned_vector<idx_t>> perms_;
  std::map<SetHandle, const aligned_vector<idx_t>*> set_perm_;
  std::map<SetHandle, idx_t> set_size_;
  aligned_vector<double> coords_;
};

template <class Real>
void expect_bitwise(const aligned_vector<Real>& a, const aligned_vector<Real>& b,
                    const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(Real)), 0)
      << what << ": renumbered context diverged bitwise from the manual relayout";
}

mesh::UnstructuredMesh airfoil_mesh() {
  auto m = mesh::make_airfoil_omesh(48, 16);
  mesh::shuffle_edges(m, 13);  // give the pass real work
  return m;
}

mesh::UnstructuredMesh volna_mesh() {
  auto m = mesh::make_tri_periodic(20, 20, 4.0, 4.0);
  mesh::shuffle_edges(m, 29);
  return m;
}

// ===== validity: bijections and fetch round-trips ===========================

/// Close the declarations and renumber around `cells` (LocalCtx takes the
/// primary set from set_partition_coords and ignores the coordinates).
void renumber_around(LocalCtx& ctx, LocalCtx::SetHandle cells) {
  ctx.set_partition_coords(cells, nullptr);
  ctx.set_renumber(true);
  ctx.finalize();
}

TEST(ReorderCompute, PermutationsAreBijections) {
  auto m = airfoil_mesh();
  LocalCtx ctx;
  auto nodes = ctx.decl_set("nodes", m.nnodes);
  auto cells = ctx.decl_set("cells", m.ncells);
  auto edges = ctx.decl_set("edges", m.nedges);
  auto bedges = ctx.decl_set("bedges", m.nbedges);
  ctx.decl_map("pedge", edges, nodes, 2, m.edge_nodes);
  ctx.decl_map("pecell", edges, cells, 2, m.edge_cells);
  ctx.decl_map("pcell", cells, nodes, 4, m.cell_nodes);
  ctx.decl_map("pbecell", bedges, cells, 1, m.bedge_cell);
  renumber_around(ctx, cells);

  ASSERT_NE(ctx.permutation(cells), nullptr);
  ASSERT_NE(ctx.permutation(edges), nullptr);
  ASSERT_NE(ctx.permutation(bedges), nullptr);
  EXPECT_EQ(ctx.permutation(nodes), nullptr) << "target-only sets keep their numbering";
  EXPECT_TRUE(reorder::is_permutation(*ctx.permutation(cells), m.ncells));
  EXPECT_TRUE(reorder::is_permutation(*ctx.permutation(edges), m.nedges));
  EXPECT_TRUE(reorder::is_permutation(*ctx.permutation(bedges), m.nbedges));
}

TEST(ReorderCompute, EdgesSortLexicographicallyByRenumberedCells) {
  auto m = airfoil_mesh();
  LocalCtx ctx;
  auto cells = ctx.decl_set("cells", m.ncells);
  auto edges = ctx.decl_set("edges", m.nedges);
  auto pecell = ctx.decl_map("pecell", edges, cells, 2, m.edge_cells);
  renumber_around(ctx, cells);
  // After the pass, consecutive edges touch non-decreasing (min, max) cell
  // pairs — the generalization of sort_edges_by_cell the locality bench
  // showed matters.
  for (idx_t e = 1; e < m.nedges; ++e) {
    const idx_t pmin = std::min((*pecell)(e - 1, 0), (*pecell)(e - 1, 1));
    const idx_t pmax = std::max((*pecell)(e - 1, 0), (*pecell)(e - 1, 1));
    const idx_t cmin = std::min((*pecell)(e, 0), (*pecell)(e, 1));
    const idx_t cmax = std::max((*pecell)(e, 0), (*pecell)(e, 1));
    ASSERT_TRUE(pmin < cmin || (pmin == cmin && pmax <= cmax))
        << "edge " << e << " out of lexicographic order";
  }
}

TEST(LocalRenumber, FetchRoundTripsDeclarationOrder) {
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

  renumber_around(ctx, cells);

  aligned_vector<double> cout;
  ctx.fetch(cdat, cout);
  aligned_vector<float> eout;
  ctx.fetch(edat, eout);
  expect_bitwise(cv, cout, "cell dat round-trip");
  expect_bitwise(ev, eout, "edge dat round-trip");

  // The internal layout really moved (the round-trip is not vacuous).
  EXPECT_NE(std::memcmp(cdat->data(), cv.data(), cv.size() * sizeof(double)), 0);
}

TEST(LocalRenumber, OptInRequiresPrimarySet) {
  LocalCtx ctx;
  ctx.decl_set("cells", 8);
  ctx.set_renumber(true);
  EXPECT_THROW(ctx.finalize(), Error);
}

TEST(DistRenumber, FetchRoundTripsDeclarationOrder) {
  auto m = mesh::make_quad_box(9, 7);
  const auto centroids = airfoil::cell_centroids(m);
  dist::DistCtx ctx(3, ExecConfig{});
  ctx.set_renumber(true);
  auto cells = ctx.decl_set("cells", m.ncells);
  auto edges = ctx.decl_set("edges", m.nedges);
  ctx.set_partition_coords(cells, centroids.data());
  ctx.decl_map("pecell", edges, cells, 2, m.edge_cells);
  aligned_vector<double> cv(static_cast<std::size_t>(m.ncells) * 2);
  for (std::size_t i = 0; i < cv.size(); ++i) cv[i] = 1.5 + static_cast<double>(i);
  aligned_vector<std::int32_t> ev(static_cast<std::size_t>(m.nedges));
  for (std::size_t i = 0; i < ev.size(); ++i) ev[i] = static_cast<std::int32_t>(7 * i + 1);
  auto cdat = ctx.decl_dat<double, 2>("cdat", cells, cv);
  auto edat = ctx.decl_dat<std::int32_t, 1>("edat", edges, ev);
  ctx.finalize();

  ASSERT_NE(ctx.permutation(cells), nullptr);
  EXPECT_TRUE(reorder::is_permutation(*ctx.permutation(cells), m.ncells));
  aligned_vector<double> cout;
  ctx.fetch(cdat, cout);
  aligned_vector<std::int32_t> eout;
  ctx.fetch(edat, eout);
  expect_bitwise(cv, cout, "dist cell dat round-trip");
  expect_bitwise(ev, eout, "dist edge dat round-trip");
}

// ===== relayout transparency: bitwise vs the manual shim ====================

class AirfoilLocalBitwiseP : public ::testing::TestWithParam<Backend> {};

TEST_P(AirfoilLocalBitwiseP, RenumberMatchesManualRelayout) {
  const auto m = airfoil_mesh();
  ExecConfig cfg;
  cfg.backend = GetParam();

  LocalCtx on(cfg);
  on.set_renumber(true);
  airfoil::Airfoil<double, LocalCtx> app_on(on, m);
  app_on.run(3, 0);
  const auto perms = on.applied_permutations();
  ASSERT_FALSE(perms.empty());

  LocalCtx off(cfg);
  ManualRelayoutCtx<LocalCtx> shim(off, perms);
  airfoil::Airfoil<double, ManualRelayoutCtx<LocalCtx>> app_man(shim, m);
  app_man.run(3, 0);

  expect_bitwise(app_on.fetch_q(), app_man.fetch_q(), "airfoil q");
  expect_bitwise(app_on.fetch_res(), app_man.fetch_res(), "airfoil res");
}

INSTANTIATE_TEST_SUITE_P(Backends, AirfoilLocalBitwiseP,
                         ::testing::Values(Backend::Seq, Backend::OpenMP, Backend::Simd,
                                           Backend::Simt),
                         [](const auto& info) { return backend_name(info.param); });

class VolnaLocalBitwiseP : public ::testing::TestWithParam<Backend> {};

TEST_P(VolnaLocalBitwiseP, RenumberMatchesManualRelayout) {
  const auto m = volna_mesh();
  ExecConfig cfg;
  cfg.backend = GetParam();

  LocalCtx on(cfg);
  on.set_renumber(true);
  volna::Volna<float, LocalCtx> app_on(on, m);
  app_on.run(3);
  const auto perms = on.applied_permutations();
  ASSERT_FALSE(perms.empty());

  LocalCtx off(cfg);
  ManualRelayoutCtx<LocalCtx> shim(off, perms);
  volna::Volna<float, ManualRelayoutCtx<LocalCtx>> app_man(shim, m);
  app_man.run(3);

  expect_bitwise(app_on.fetch_state(), app_man.fetch_state(), "volna state");
}

INSTANTIATE_TEST_SUITE_P(Backends, VolnaLocalBitwiseP,
                         ::testing::Values(Backend::Seq, Backend::OpenMP, Backend::Simd,
                                           Backend::Simt),
                         [](const auto& info) { return backend_name(info.param); });

class DistBitwiseP : public ::testing::TestWithParam<dist::ExchangeMode> {};

TEST_P(DistBitwiseP, AirfoilRenumberMatchesManualRelayout) {
  const auto m = airfoil_mesh();
  ExecConfig cfg;
  cfg.backend = Backend::OpenMP;
  cfg.nthreads = 1;

  dist::DistCtx on(3, cfg);
  on.set_renumber(true);
  on.set_exchange_mode(GetParam());
  airfoil::Airfoil<double, dist::DistCtx> app_on(on, m);
  app_on.run(3, 0);
  const auto perms = on.applied_permutations();
  ASSERT_FALSE(perms.empty());

  dist::DistCtx off(3, cfg);
  off.set_exchange_mode(GetParam());
  ManualRelayoutCtx<dist::DistCtx> shim(off, perms);
  airfoil::Airfoil<double, ManualRelayoutCtx<dist::DistCtx>> app_man(shim, m);
  app_man.run(3, 0);

  expect_bitwise(app_on.fetch_q(), app_man.fetch_q(), "dist airfoil q");
}

TEST_P(DistBitwiseP, VolnaRenumberMatchesManualRelayout) {
  const auto m = volna_mesh();
  ExecConfig cfg;
  cfg.backend = Backend::OpenMP;
  cfg.nthreads = 1;

  dist::DistCtx on(3, cfg);
  on.set_renumber(true);
  on.set_exchange_mode(GetParam());
  volna::Volna<float, dist::DistCtx> app_on(on, m);
  app_on.run(3);
  const auto perms = on.applied_permutations();
  ASSERT_FALSE(perms.empty());

  dist::DistCtx off(3, cfg);
  off.set_exchange_mode(GetParam());
  ManualRelayoutCtx<dist::DistCtx> shim(off, perms);
  volna::Volna<float, ManualRelayoutCtx<dist::DistCtx>> app_man(shim, m);
  app_man.run(3);

  expect_bitwise(app_on.fetch_state(), app_man.fetch_state(), "dist volna state");
}

INSTANTIATE_TEST_SUITE_P(ExchangeModes, DistBitwiseP,
                         ::testing::Values(dist::ExchangeMode::Blocking,
                                           dist::ExchangeMode::Phased,
                                           dist::ExchangeMode::Overlap),
                         [](const auto& info) { return dist::exchange_mode_name(info.param); });

// ===== on vs off: reassociation tolerance ===================================

/// Renumbering on vs off runs the SAME per-edge arithmetic but accumulates
/// each cell's increments in a different order, so results agree to
/// floating-point reassociation — not bitwise. This pins the tolerance (and
/// documents why the bitwise contract above is stated against the manual
/// relayout instead).
TEST(Renumber, OnVsOffAgreesWithinReassociationTolerance) {
  const auto m = airfoil_mesh();
  const ExecConfig cfg{.backend = Backend::Seq};

  LocalCtx off(cfg);
  airfoil::Airfoil<double, LocalCtx> a(off, m);
  a.run(3, 0);
  const auto qa = a.fetch_q();

  LocalCtx on(cfg);
  on.set_renumber(true);
  airfoil::Airfoil<double, LocalCtx> b(on, m);
  b.run(3, 0);
  const auto qb = b.fetch_q();

  ASSERT_EQ(qa.size(), qb.size());
  // Divergence relative to the field norm: near-zero components (the
  // y-momentum on a free-stream state is pure cancellation residue ~1e-17)
  // would make element-wise relative error meaningless.
  double norm = 0.0, max_diff = 0.0;
  for (std::size_t i = 0; i < qa.size(); ++i) {
    norm = std::max(norm, std::abs(qa[i]));
    max_diff = std::max(max_diff, std::abs(qa[i] - qb[i]));
  }
  ASSERT_GT(norm, 0.0);
  EXPECT_LT(max_diff / norm, 1e-12);
  EXPECT_GT(max_diff, 0.0) << "orders really differ (the comparison is not vacuous)";
}

// ===== structure preservation ===============================================

/// Renumbering moves rows and relabels targets but never reorders a row's
/// slots or an edge's node pair, so the finite-volume orientation convention
/// established by orient_edges_fv must survive: re-running it after RCM +
/// edge sorting is a no-op.
TEST(MeshRenumber, OrientEdgesFvConventionPreserved) {
  for (int kind = 0; kind < 3; ++kind) {
    auto m = kind == 0   ? mesh::make_quad_box(9, 7)
             : kind == 1 ? mesh::make_tri_periodic(8, 8, 2.0, 2.0)
                         : mesh::make_airfoil_omesh(32, 9);
    mesh::shuffle_edges(m, 5);
    mesh::renumber_cells_rcm(m);
    mesh::sort_edges_by_cell(m);
    const auto edge_nodes = m.edge_nodes;
    const auto bedge_nodes = m.bedge_nodes;
    mesh::orient_edges_fv(m);
    EXPECT_EQ(edge_nodes, m.edge_nodes) << "mesh kind " << kind;
    EXPECT_EQ(bedge_nodes, m.bedge_nodes) << "mesh kind " << kind;
    EXPECT_NO_THROW(m.validate());
  }
}

}  // namespace
