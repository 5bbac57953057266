// Context-layer tests: the LocalCtx/DistCtx API contract that the
// application drivers are written against (declaration ordering, zero-init
// dats, fetch semantics, handle stability, config plumbing).
#include <gtest/gtest.h>

#include "apps/airfoil/airfoil.hpp"
#include "core/context.hpp"
#include "dist/context.hpp"
#include "mesh/generators.hpp"

namespace {

using namespace opv;

TEST(LocalCtx, DeclZeroInitializedDat) {
  LocalCtx ctx;
  auto s = ctx.decl_set("s", 10);
  auto d = ctx.decl_dat<double>("d", s, 3);
  for (idx_t e = 0; e < 10; ++e)
    for (int c = 0; c < 3; ++c) EXPECT_EQ(d->at(e, c), 0.0);
}

TEST(LocalCtx, FetchReturnsOwnedValues) {
  LocalCtx ctx;
  auto s = ctx.decl_set("s", 5);
  aligned_vector<float> init = {1, 2, 3, 4, 5};
  auto d = ctx.decl_dat<float>("d", s, 1, init);
  aligned_vector<float> out;
  ctx.fetch(d, out);
  EXPECT_EQ(out, init);
}

TEST(LocalCtx, HandlesStayValidAcrossManyDecls) {
  // deque storage must not invalidate earlier handles on growth.
  LocalCtx ctx;
  auto s = ctx.decl_set("s", 4);
  auto first = ctx.decl_dat<double>("first", s, 1);
  std::vector<LocalCtx::DatHandle<double>> handles;
  for (int i = 0; i < 100; ++i)
    handles.push_back(ctx.decl_dat<double>("d" + std::to_string(i), s, 1));
  first->fill(7.0);
  EXPECT_EQ(first->at(2), 7.0);
  handles[50]->fill(3.0);
  EXPECT_EQ(handles[50]->at(0), 3.0);
  EXPECT_EQ(handles[49]->at(0), 0.0);
}

TEST(LocalCtx, ConfigControlsLoops) {
  LocalCtx ctx(ExecConfig{.backend = Backend::Seq, .collect_stats = false});
  EXPECT_EQ(ctx.config().backend, Backend::Seq);
  ctx.config().backend = Backend::Simd;
  EXPECT_EQ(ctx.config().backend, Backend::Simd);
}

TEST(DistCtx, RequiresPartitionCoords) {
  dist::DistCtx ctx(2, ExecConfig{.backend = Backend::Seq, .nthreads = 1});
  ctx.decl_set("cells", 10);
  EXPECT_THROW(ctx.finalize(), Error);
}

TEST(DistCtx, DeclAfterFinalizeThrows) {
  auto m = mesh::make_quad_box(4, 4);
  const auto cent = airfoil::cell_centroids(m);
  dist::DistCtx ctx(2, ExecConfig{.backend = Backend::Seq, .nthreads = 1});
  auto cells = ctx.decl_set("cells", m.ncells);
  ctx.set_partition_coords(cells, cent.data());
  ctx.finalize();
  EXPECT_THROW(ctx.decl_set("more", 5), Error);
}

TEST(DistCtx, FinalizeIsIdempotentAndImplicit) {
  auto m = mesh::make_quad_box(6, 6);
  const auto cent = airfoil::cell_centroids(m);
  dist::DistCtx ctx(3, ExecConfig{.backend = Backend::Seq, .nthreads = 1});
  auto cells = ctx.decl_set("cells", m.ncells);
  ctx.set_partition_coords(cells, cent.data());
  auto q = ctx.decl_dat<double, 1>("q", cells);
  // First loop triggers finalize implicitly; a second explicit call is a
  // no-op.
  ctx.loop([](auto* x) { x[0] = std::decay_t<decltype(x[0])>(1.0); }, "init", cells,
           ctx.arg<opv::WRITE>(q));
  ctx.finalize();
  aligned_vector<double> out;
  ctx.fetch(q, out);
  for (double v : out) EXPECT_EQ(v, 1.0);
}

TEST(DistCtx, PartitionedExposesLayouts) {
  auto m = mesh::make_quad_box(8, 8);
  const auto cent = airfoil::cell_centroids(m);
  dist::DistCtx ctx(4, ExecConfig{.backend = Backend::Seq, .nthreads = 1});
  auto cells = ctx.decl_set("cells", m.ncells);
  auto edges = ctx.decl_set("edges", m.nedges);
  ctx.set_partition_coords(cells, cent.data());
  ctx.decl_map("e2c", edges, cells, 2, m.edge_cells);
  ctx.finalize();
  const auto& part = ctx.partitioned();
  EXPECT_EQ(part.nranks(), 4);
  idx_t owned_total = 0;
  for (int r = 0; r < 4; ++r) owned_total += part.layout(r, 0).nowned;
  EXPECT_EQ(owned_total, m.ncells);
}

// The same app driver source must compile and agree across both contexts —
// the repository's "single application code, many backends" claim.
TEST(ContextConcept, AirfoilDriverIsContextGeneric) {
  auto m = mesh::make_airfoil_omesh(24, 8);
  LocalCtx lc(ExecConfig{.backend = Backend::Seq});
  airfoil::Airfoil<double, LocalCtx> a1(lc, m);
  a1.run(2, 0);
  dist::DistCtx dc(2, ExecConfig{.backend = Backend::Seq, .nthreads = 1});
  airfoil::Airfoil<double, dist::DistCtx> a2(dc, m);
  a2.run(2, 0);
  const auto q1 = a1.fetch_q();
  const auto q2 = a2.fetch_q();
  ASSERT_EQ(q1.size(), q2.size());
  for (std::size_t i = 0; i < q1.size(); ++i)
    ASSERT_NEAR(q1[i], q2[i], 1e-10 * (std::abs(q1[i]) + 1)) << i;
}

}  // namespace
