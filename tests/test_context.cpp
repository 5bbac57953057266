// Context-layer tests: the LocalCtx/DistCtx API contract that the
// application drivers are written against (declaration ordering, zero-init
// dats, fetch semantics, handle stability, config plumbing) and the one
// lifecycle both contexts share: declarations until finalize(), which the
// first loop, fetch or permutation query performs implicitly.
#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <string>
#include <type_traits>

#include "apps/airfoil/airfoil.hpp"
#include "core/context.hpp"
#include "dist/context.hpp"
#include "mesh/generators.hpp"

namespace {

using namespace opv;

TEST(LocalCtx, DeclZeroInitializedDat) {
  LocalCtx ctx;
  auto s = ctx.decl_set("s", 10);
  auto d = ctx.decl_dat<double, 3>("d", s);
  for (idx_t e = 0; e < 10; ++e)
    for (int c = 0; c < 3; ++c) EXPECT_EQ(d->at(e, c), 0.0);
}

TEST(LocalCtx, FetchReturnsOwnedValues) {
  LocalCtx ctx;
  auto s = ctx.decl_set("s", 5);
  aligned_vector<float> init = {1, 2, 3, 4, 5};
  auto d = ctx.decl_dat<float, 1>("d", s, init);
  aligned_vector<float> out;
  ctx.fetch(d, out);
  EXPECT_EQ(out, init);
}

TEST(LocalCtx, HandlesStayValidAcrossManyDecls) {
  // deque storage must not invalidate earlier handles on growth.
  LocalCtx ctx;
  auto s = ctx.decl_set("s", 4);
  auto first = ctx.decl_dat<double, 1>("first", s);
  std::vector<LocalCtx::FixedDatHandle<double, 1>> handles;
  for (int i = 0; i < 100; ++i)
    handles.push_back(ctx.decl_dat<double, 1>("d" + std::to_string(i), s));
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

// ===== one lifecycle contract, typed over both contexts =====================

template <class Ctx>
std::unique_ptr<Ctx> make_ctx() {
  const ExecConfig cfg{.backend = Backend::Seq, .nthreads = 1};
  if constexpr (std::is_same_v<Ctx, LocalCtx>) return std::make_unique<LocalCtx>(cfg);
  else return std::make_unique<Ctx>(2, cfg);
}

struct Double {
  template <class T>
  void operator()(T* x) const {
    x[0] *= T(2);
  }
};

struct CountDegree {
  template <class T>
  void operator()(T* a, T* b) const {
    a[0] += T(1);
    b[0] += T(1);
  }
};

template <class Ctx>
class ContextLifecycle : public ::testing::Test {
 protected:
  /// Declare cells (the primary set) and edges, the edge->cell map, a cell
  /// dat holding each cell's declaration id and a zeroed degree counter,
  /// with renumbering requested — nothing finalized yet.
  void declare() {
    ctx = make_ctx<Ctx>();
    cells = ctx->decl_set("cells", m.ncells);
    edges = ctx->decl_set("edges", m.nedges);
    ctx->set_partition_coords(cells, centroids.data());
    e2c = ctx->decl_map("e2c", edges, cells, 2, m.edge_cells);
    aligned_vector<double> ids(static_cast<std::size_t>(m.ncells));
    std::iota(ids.begin(), ids.end(), 0.0);
    id = ctx->template decl_dat<double, 1>("id", cells, ids);
    deg = ctx->template decl_dat<double, 1>("deg", cells);
    ctx->set_renumber(true);
  }

  mesh::UnstructuredMesh m = [] {
    auto mesh = mesh::make_airfoil_omesh(24, 8);
    mesh::shuffle_edges(mesh, 7);
    return mesh;
  }();
  aligned_vector<double> centroids = airfoil::cell_centroids(m);
  std::unique_ptr<Ctx> ctx;
  typename Ctx::SetHandle cells{}, edges{};
  typename Ctx::MapHandle e2c{};
  typename Ctx::template FixedDatHandle<double, 1> id{}, deg{};
};

struct ContextName {
  template <class Ctx>
  static std::string GetName(int) {
    return std::is_same_v<Ctx, LocalCtx> ? "Local" : "Dist";
  }
};
using Contexts = ::testing::Types<LocalCtx, dist::DistCtx>;
TYPED_TEST_SUITE(ContextLifecycle, Contexts, ContextName);

TYPED_TEST(ContextLifecycle, FirstLoopFinalizesAndRenumbers) {
  this->declare();
  auto& ctx = *this->ctx;
  auto count = ctx.make_loop(CountDegree{}, "lc_degree", this->edges,
                             ctx.template arg<opv::INC>(this->deg, 0, this->e2c),
                             ctx.template arg<opv::INC>(this->deg, 1, this->e2c));
  count.run();
  ASSERT_NE(ctx.permutation(this->cells), nullptr) << "no finalize() call, yet renumbered";

  aligned_vector<double> id, deg;
  ctx.fetch(this->id, id);
  ctx.fetch(this->deg, deg);
  std::vector<double> want(static_cast<std::size_t>(this->m.ncells), 0.0);
  for (idx_t c : this->m.edge_cells) want[static_cast<std::size_t>(c)] += 1.0;
  for (idx_t c = 0; c < this->m.ncells; ++c) {
    const auto i = static_cast<std::size_t>(c);
    ASSERT_EQ(id[i], static_cast<double>(c)) << "fetch is in declaration order";
    ASSERT_EQ(deg[i], want[i]) << "cell " << c;
  }
}

TYPED_TEST(ContextLifecycle, DeclarationsCloseAtTheFirstLoop) {
  for (const char* close : {"finalize", "make_loop", "one-shot loop"}) {
    SCOPED_TRACE(close);
    this->declare();
    auto& ctx = *this->ctx;
    const std::string how = close;
    if (how == "finalize") ctx.finalize();
    else if (how == "make_loop")
      (void)ctx.make_loop(Double{}, "lc_handle", this->cells, ctx.template arg<opv::RW>(this->id));
    else ctx.loop(Double{}, "lc_once", this->cells, ctx.template arg<opv::RW>(this->id));
    EXPECT_THROW(ctx.decl_set("late", 4), Error);
    EXPECT_THROW(ctx.decl_map("late", this->edges, this->cells, 2, this->m.edge_cells), Error);
    EXPECT_THROW((ctx.template decl_dat<double, 1>("late", this->cells)), Error);
    EXPECT_THROW(ctx.set_partition_coords(this->cells, this->centroids.data()), Error);
    EXPECT_THROW(ctx.set_default_layout(Layout::SoA), Error);
    EXPECT_THROW(ctx.set_renumber(false), Error);
  }
}

// Reading a result or a permutation before any loop finalizes too, so
// context-generic code sees one contract: renumbered, declarations closed.
TYPED_TEST(ContextLifecycle, FetchFinalizes) {
  for (const char* first : {"fetch", "permutation", "applied_permutations"}) {
    SCOPED_TRACE(first);
    this->declare();
    auto& ctx = *this->ctx;
    const std::string how = first;
    aligned_vector<double> id;
    if (how == "fetch") ctx.fetch(this->id, id);
    else if (how == "permutation") (void)ctx.permutation(this->cells);
    else (void)ctx.applied_permutations();
    EXPECT_THROW(ctx.decl_set("late", 4), Error);
    EXPECT_NE(ctx.permutation(this->cells), nullptr);
    ctx.fetch(this->id, id);
    ASSERT_EQ(id.size(), static_cast<std::size_t>(this->m.ncells));
    for (idx_t c = 0; c < this->m.ncells; ++c)
      ASSERT_EQ(id[static_cast<std::size_t>(c)], static_cast<double>(c));
  }
}

TYPED_TEST(ContextLifecycle, FinalizeIsIdempotent) {
  this->declare();
  auto& ctx = *this->ctx;
  ctx.finalize();
  const auto perms = ctx.applied_permutations();
  ASSERT_FALSE(perms.empty());
  ctx.finalize();
  ctx.loop(Double{}, "lc_after", this->cells, ctx.template arg<opv::RW>(this->id));
  EXPECT_EQ(ctx.applied_permutations(), perms) << "renumbered once, not again";
  aligned_vector<double> id;
  ctx.fetch(this->id, id);
  for (idx_t c = 0; c < this->m.ncells; ++c)
    ASSERT_EQ(id[static_cast<std::size_t>(c)], 2.0 * static_cast<double>(c));
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
