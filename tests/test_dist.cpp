// Distributed-rank simulator tests: partitioner balance, ownership
// derivation, halo completeness/layout invariants, exchange correctness,
// dirty-bit behavior across iterations, cross-rank reductions, and full
// equivalence between DistCtx and LocalCtx.
#include <gtest/gtest.h>

#include <set>

#include "apps/airfoil/airfoil.hpp"
#include "core/context.hpp"
#include "dist/context.hpp"
#include "dist/halo.hpp"
#include "dist/partition.hpp"
#include "mesh/generators.hpp"

namespace {

using namespace opv;
using namespace opv::dist;

// ---- partitioner ---------------------------------------------------------------

class RcbP : public ::testing::TestWithParam<int> {};

TEST_P(RcbP, BalancedAndContiguousCounts) {
  const int nparts = GetParam();
  auto m = mesh::make_quad_box(32, 24);
  aligned_vector<double> cent = airfoil::cell_centroids(m);
  const auto owner = partition_rcb(cent.data(), m.ncells, nparts);
  const auto sizes = part_sizes(owner, nparts);
  idx_t mn = m.ncells, mx = 0;
  for (idx_t s : sizes) {
    mn = std::min(mn, s);
    mx = std::max(mx, s);
  }
  EXPECT_LE(mx - mn, std::max<idx_t>(2, m.ncells / nparts / 10))
      << "RCB parts must be balanced";
  for (int r : owner) {
    EXPECT_GE(r, 0);
    EXPECT_LT(r, nparts);
  }
}
INSTANTIATE_TEST_SUITE_P(Parts, RcbP, ::testing::Values(1, 2, 3, 4, 7, 8, 13, 24));

TEST(Rcb, PartsAreGeometricallyCompact) {
  // Each part's bounding box should be much smaller than the domain for a
  // modest part count (sanity check that RCB actually splits space).
  auto m = mesh::make_quad_box(40, 40);
  auto cent = airfoil::cell_centroids(m);
  const int nparts = 4;
  const auto owner = partition_rcb(cent.data(), m.ncells, nparts);
  for (int p = 0; p < nparts; ++p) {
    double minx = 1e300, maxx = -1e300, miny = 1e300, maxy = -1e300;
    for (idx_t c = 0; c < m.ncells; ++c) {
      if (owner[c] != p) continue;
      minx = std::min(minx, cent[2 * c]);
      maxx = std::max(maxx, cent[2 * c]);
      miny = std::min(miny, cent[2 * c + 1]);
      maxy = std::max(maxy, cent[2 * c + 1]);
    }
    EXPECT_LE((maxx - minx) * (maxy - miny), 0.30) << "part " << p << " too spread out";
  }
}

TEST(BlockPartition, ChunksAreContiguous) {
  const auto owner = partition_block(10, 3);
  const std::vector<int> expect = {0, 0, 0, 0, 1, 1, 1, 1, 2, 2};
  for (int i = 0; i < 10; ++i) EXPECT_EQ(owner[i], expect[i]);
}

// ---- ownership derivation ---------------------------------------------------------

TEST(Ownership, DerivedForAllSetsThroughMaps) {
  auto m = mesh::make_quad_box(12, 8);
  GlobalSpec spec;
  const int s_nodes = spec.add_set("nodes", m.nnodes);
  const int s_cells = spec.add_set("cells", m.ncells);
  const int s_edges = spec.add_set("edges", m.nedges);
  spec.add_map("e2n", s_edges, s_nodes, 2, m.edge_nodes.data());
  spec.add_map("e2c", s_edges, s_cells, 2, m.edge_cells.data());
  spec.add_map("c2n", s_cells, s_nodes, 4, m.cell_nodes.data());

  auto cent = airfoil::cell_centroids(m);
  const auto cell_owner = partition_rcb(cent.data(), m.ncells, 4);
  const auto owner = derive_ownership(spec, s_cells, cell_owner, 4);

  ASSERT_EQ(owner.size(), 3u);
  EXPECT_EQ(owner[s_cells], cell_owner);
  // Edge ownership inherits from the edge's first cell (map index 0).
  for (idx_t e = 0; e < m.nedges; ++e)
    EXPECT_EQ(owner[s_edges][e], cell_owner[m.edge_cells[2 * e]]);
  // Node ownership: the owner of SOME cell containing it.
  for (idx_t c = 0; c < m.ncells; ++c)
    for (int k = 0; k < 4; ++k) {
      const idx_t n = m.cell_nodes[4 * c + k];
      EXPECT_GE(owner[s_nodes][n], 0);
      EXPECT_LT(owner[s_nodes][n], 4);
    }
}

TEST(Ownership, UnreachableSetThrows) {
  GlobalSpec spec;
  const int a = spec.add_set("a", 10);
  spec.add_set("island", 5);  // no maps touch it
  aligned_vector<int> owner_a(10, 0);
  EXPECT_THROW(derive_ownership(spec, a, owner_a, 2), Error);
}

// ---- halo construction --------------------------------------------------------------

struct HaloFixture {
  mesh::UnstructuredMesh m = mesh::make_quad_box(14, 10);
  GlobalSpec spec;
  int s_nodes, s_cells, s_edges;
  int m_e2n, m_e2c;
  std::vector<aligned_vector<int>> owner;
  int nranks;

  explicit HaloFixture(int ranks) : nranks(ranks) {
    s_nodes = spec.add_set("nodes", m.nnodes);
    s_cells = spec.add_set("cells", m.ncells);
    s_edges = spec.add_set("edges", m.nedges);
    m_e2n = spec.add_map("e2n", s_edges, s_nodes, 2, m.edge_nodes.data());
    m_e2c = spec.add_map("e2c", s_edges, s_cells, 2, m.edge_cells.data());
    auto cent = airfoil::cell_centroids(m);
    owner = derive_ownership(spec, s_cells, partition_rcb(cent.data(), m.ncells, ranks), ranks);
  }
};

class HaloP : public ::testing::TestWithParam<int> {};

TEST_P(HaloP, LayoutInvariants) {
  HaloFixture f(GetParam());
  Partitioned part(f.spec, f.owner, f.nranks);

  for (int s = 0; s < 3; ++s) {
    // Every global element appears exactly once as owned across ranks.
    std::vector<int> owned_count(f.spec.sets[s].size, 0);
    for (int r = 0; r < f.nranks; ++r) {
      const LocalLayout& L = part.layout(r, s);
      ASSERT_EQ(L.local_to_global.size(), std::size_t(L.ntotal));
      for (idx_t l = 0; l < L.nowned; ++l) {
        const idx_t g = L.local_to_global[l];
        EXPECT_EQ(f.owner[s][g], r);
        ++owned_count[g];
      }
      // Halo slots reference real owners and valid owner-local positions.
      for (idx_t i = 0; i < L.ntotal - L.nowned; ++i) {
        const idx_t g = L.local_to_global[L.nowned + i];
        EXPECT_EQ(L.src_rank[i], f.owner[s][g]);
        EXPECT_NE(L.src_rank[i], r) << "halo slot owned locally?";
        const LocalLayout& Lo = part.layout(L.src_rank[i], s);
        ASSERT_LT(L.src_local[i], Lo.nowned);
        EXPECT_EQ(Lo.local_to_global[L.src_local[i]], g)
            << "exchange source must dereference to the same global element";
      }
    }
    for (idx_t g = 0; g < f.spec.sets[s].size; ++g)
      EXPECT_EQ(owned_count[g], 1) << "set " << s << " element " << g;
  }
}

/// Owned elements are numbered core-first: [0, ncore) reaches only owned
/// targets through every map from its set, every element of [ncore,
/// nowned) reaches a halo slot through some map, and both groups keep
/// ascending global ids.
TEST_P(HaloP, OwnedElementsAreNumberedCoreFirst) {
  HaloFixture f(GetParam());
  Partitioned part(f.spec, f.owner, f.nranks);
  for (int r = 0; r < f.nranks; ++r)
    for (int s = 0; s < 3; ++s) {
      const LocalLayout& L = part.layout(r, s);
      ASSERT_LE(L.ncore, L.nowned);
      auto reaches_halo = [&](idx_t l) {
        for (int mi = 0; mi < static_cast<int>(f.spec.maps.size()); ++mi) {
          const auto& m = f.spec.maps[static_cast<std::size_t>(mi)];
          if (m.from != s) continue;
          const Map& lm = part.map(r, mi);
          for (int k = 0; k < m.dim; ++k) {
            const bool halo = lm(l, k) >= part.layout(r, m.to).nowned;
            EXPECT_EQ(halo, f.owner[m.to][m.data[L.local_to_global[l] * m.dim + k]] != r);
            if (halo) return true;
          }
        }
        return false;
      };
      for (idx_t l = 0; l < L.nowned; ++l)
        EXPECT_EQ(reaches_halo(l), l >= L.ncore) << "rank " << r << " set " << s << " elem " << l;
      for (idx_t l = 1; l < L.nowned; ++l)
        if (l != L.ncore) {
          EXPECT_LT(L.local_to_global[l - 1], L.local_to_global[l])
              << "rank " << r << " set " << s << " elem " << l;
        }
    }
  if (f.nranks == 1) {
    const LocalLayout& L = part.layout(0, f.s_edges);
    EXPECT_EQ(L.ncore, L.nowned) << "one rank has no halo: every element is core";
  }
}

TEST_P(HaloP, ExecHaloCompletesOwnedIncrements) {
  // The owner-compute guarantee: for every rank r and every cell c owned by
  // r, EVERY edge incident to c (through e2c) must be executed by r, i.e.
  // appear in r's owned+exec range of the edge set.
  HaloFixture f(GetParam());
  Partitioned part(f.spec, f.owner, f.nranks);
  for (int r = 0; r < f.nranks; ++r) {
    const LocalLayout& Le = part.layout(r, f.s_edges);
    std::set<idx_t> executed(Le.local_to_global.begin(),
                             Le.local_to_global.begin() + Le.nowned + Le.nexec);
    for (idx_t e = 0; e < f.m.nedges; ++e) {
      const bool touches_owned = f.owner[f.s_cells][f.m.edge_cells[2 * e]] == r ||
                                 f.owner[f.s_cells][f.m.edge_cells[2 * e + 1]] == r;
      if (touches_owned) {
        EXPECT_TRUE(executed.count(e))
            << "rank " << r << " misses edge " << e << " touching its cells";
      }
    }
  }
}

TEST_P(HaloP, LocalMapsResolveForExecutedElements) {
  HaloFixture f(GetParam());
  Partitioned part(f.spec, f.owner, f.nranks);
  for (int r = 0; r < f.nranks; ++r) {
    const Map& e2n = part.map(r, f.m_e2n);
    const Map& e2c = part.map(r, f.m_e2c);
    const LocalLayout& Le = part.layout(r, f.s_edges);
    const LocalLayout& Ln = part.layout(r, f.s_nodes);
    const LocalLayout& Lc = part.layout(r, f.s_cells);
    for (idx_t l = 0; l < Le.nowned + Le.nexec; ++l) {
      const idx_t g = Le.local_to_global[l];
      for (int k = 0; k < 2; ++k) {
        // Local map entries dereference to the same global elements.
        EXPECT_EQ(Ln.local_to_global[e2n(l, k)], f.m.edge_nodes[2 * g + k]);
        EXPECT_EQ(Lc.local_to_global[e2c(l, k)], f.m.edge_cells[2 * g + k]);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Ranks, HaloP, ::testing::Values(1, 2, 3, 5, 8));

// ---- end-to-end DistCtx vs LocalCtx ---------------------------------------------------

struct EdgeK {
  template <class T>
  void operator()(const T* x1, const T* x2, const T* w, T* c1, T* c2) const {
    OPV_SIMD_MATH_USING;
    const T d = sqrt(abs(x1[0] - x2[0]) + T(0.5)) * w[0];
    c1[0] += d;
    c2[0] -= d * T(0.5);
  }
};
struct CellK {
  template <class T>
  void operator()(T* q, const T* a, T* gsum, T* gmin) const {
    OPV_SIMD_MATH_USING;
    q[0] = q[0] + a[0] * T(0.1);
    gsum[0] += q[0];
    gmin[0] = min(gmin[0], q[0]);
  }
};

template <class Ctx>
std::tuple<aligned_vector<double>, double, double> pipeline(Ctx& ctx,
                                                            const mesh::UnstructuredMesh& m,
                                                            const aligned_vector<double>& cent,
                                                            int iters) {
  auto nodes = ctx.decl_set("nodes", m.nnodes);
  auto cells = ctx.decl_set("cells", m.ncells);
  auto edges = ctx.decl_set("edges", m.nedges);
  ctx.set_partition_coords(cells, cent.data());
  auto e2n = ctx.decl_map("e2n", edges, nodes, 2, m.edge_nodes);
  auto e2c = ctx.decl_map("e2c", edges, cells, 2, m.edge_cells);
  auto x = ctx.template decl_dat<double, 2>("x", nodes, m.node_xy);
  auto w = ctx.template decl_dat<double, 1>("w", edges, aligned_vector<double>(m.nedges, 0.7));
  auto acc = ctx.template decl_dat<double, 1>("acc", cells);
  aligned_vector<double> qi(m.ncells);
  for (idx_t c = 0; c < m.ncells; ++c) qi[c] = 0.01 * (c % 29);
  auto q = ctx.template decl_dat<double, 1>("q", cells, qi);
  ctx.finalize();

  double gsum = 0, gmin = 0;
  for (int it = 0; it < iters; ++it) {
    ctx.loop(EdgeK{}, "d_edge", edges, ctx.template arg<opv::READ>(x, 0, e2n),
             ctx.template arg<opv::READ>(x, 1, e2n), ctx.template arg<opv::READ>(w),
             ctx.template arg<opv::INC>(acc, 0, e2c),
             ctx.template arg<opv::INC>(acc, 1, e2c));
    gsum = 0;
    gmin = 1e300;
    ctx.loop(CellK{}, "d_cell", cells, ctx.template arg<opv::RW>(q),
             ctx.template arg<opv::READ>(acc), ctx.template arg_gbl<opv::INC>(&gsum, 1),
             ctx.template arg_gbl<opv::MIN>(&gmin, 1));
  }
  aligned_vector<double> out;
  ctx.fetch(q, out);
  return {out, gsum, gmin};
}

class DistVsLocal : public ::testing::TestWithParam<std::tuple<int, Backend>> {};

TEST_P(DistVsLocal, IdenticalResults) {
  const auto [nranks, backend] = GetParam();
  auto m = mesh::make_quad_box(21, 17);
  const auto cent = airfoil::cell_centroids(m);

  LocalCtx lc{ExecConfig{.backend = Backend::Seq}};
  const auto [ref, gsum_ref, gmin_ref] = pipeline(lc, m, cent, 4);

  DistCtx dc(nranks, ExecConfig{.backend = backend, .nthreads = backend == Backend::Seq ? 1 : 2});
  const auto [got, gsum, gmin] = pipeline(dc, m, cent, 4);

  ASSERT_EQ(ref.size(), got.size());
  for (std::size_t i = 0; i < ref.size(); ++i)
    ASSERT_NEAR(ref[i], got[i], 1e-10 * (std::abs(ref[i]) + 1)) << "cell " << i;
  EXPECT_NEAR(gsum, gsum_ref, 1e-9 * (std::abs(gsum_ref) + 1));
  EXPECT_NEAR(gmin, gmin_ref, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    RanksAndBackends, DistVsLocal,
    ::testing::Combine(::testing::Values(1, 2, 3, 6, 11),
                       ::testing::Values(Backend::Seq, Backend::OpenMP, Backend::Simd)));

// A pipeline that genuinely requires a halo exchange each iteration: the
// cell loop writes q, the edge loop gathers q from both cells.
struct GatherQ {
  template <class T>
  void operator()(const T* ql, const T* qr, T* acc1, T* acc2) const {
    const T f = ql[0] - qr[0];
    acc1[0] += f;
    acc2[0] -= f;
  }
};
struct BumpQ {
  template <class T>
  void operator()(T* q, const T* acc) const {
    q[0] = q[0] + acc[0] * T(0.01);
  }
};

TEST(DistCtx, DirtyBitsTriggerExchangesAndMatchLocal) {
  auto m = mesh::make_quad_box(15, 15);
  const auto cent = airfoil::cell_centroids(m);

  auto run = [&](auto& ctx) {
    auto cells = ctx.decl_set("cells", m.ncells);
    auto edges = ctx.decl_set("edges", m.nedges);
    ctx.set_partition_coords(cells, cent.data());
    auto e2c = ctx.decl_map("e2c", edges, cells, 2, m.edge_cells);
    aligned_vector<double> qi(m.ncells);
    for (idx_t c = 0; c < m.ncells; ++c) qi[c] = 0.1 * (c % 7);
    auto q = ctx.template decl_dat<double, 1>("q", cells, qi);
    auto acc = ctx.template decl_dat<double, 1>("acc", cells);
    ctx.finalize();
    for (int it = 0; it < 4; ++it) {
      ctx.loop(GatherQ{}, "h_edge", edges, ctx.template arg<opv::READ>(q, 0, e2c),
               ctx.template arg<opv::READ>(q, 1, e2c), ctx.template arg<opv::INC>(acc, 0, e2c),
               ctx.template arg<opv::INC>(acc, 1, e2c));
      ctx.loop(BumpQ{}, "h_cell", cells, ctx.template arg<opv::RW>(q),
               ctx.template arg<opv::READ>(acc));
    }
    aligned_vector<double> out;
    ctx.fetch(q, out);
    return out;
  };

  LocalCtx lc{ExecConfig{.backend = Backend::Seq}};
  const auto ref = run(lc);

  StatsRegistry::instance().clear();
  DistCtx dc(3, ExecConfig{.backend = Backend::Seq, .nthreads = 1});
  const auto got = run(dc);
  for (std::size_t i = 0; i < ref.size(); ++i)
    ASSERT_NEAR(ref[i], got[i], 1e-12 * (std::abs(ref[i]) + 1)) << i;

  // q is dirtied by h_cell each iteration and read indirectly by h_edge:
  // every h_edge call after the first must exchange (the first reads the
  // still-valid scattered initial halos).
  const auto rec = StatsRegistry::instance().get("h_edge/halo");
  EXPECT_EQ(rec.calls, 3) << "dirty-bit tracking should trigger exactly 3 exchanges";
}

TEST(DistCtx, FetchReturnsGlobalOrder) {
  auto m = mesh::make_quad_box(9, 9);
  const auto cent = airfoil::cell_centroids(m);
  DistCtx dc(4, ExecConfig{.backend = Backend::Seq, .nthreads = 1});
  auto cells = dc.decl_set("cells", m.ncells);
  dc.set_partition_coords(cells, cent.data());
  // A map is needed so ownership derivation has something to chew on for
  // secondary sets; cells is primary so a self-contained universe is fine.
  aligned_vector<double> init(m.ncells);
  for (idx_t c = 0; c < m.ncells; ++c) init[c] = 1000.0 + c;
  auto q = dc.decl_dat<double>("q", cells, 1, init);
  dc.finalize();
  aligned_vector<double> out;
  dc.fetch(q, out);
  ASSERT_EQ(out.size(), std::size_t(m.ncells));
  for (idx_t c = 0; c < m.ncells; ++c) EXPECT_EQ(out[c], 1000.0 + c);
}

TEST(WorkerPool, RunsAllRanksAndBlocks) {
  WorkerPool pool(7);
  std::vector<int> hits(7, 0);
  for (int round = 0; round < 10; ++round)
    pool.run([&](int r) { ++hits[r]; });
  for (int r = 0; r < 7; ++r) EXPECT_EQ(hits[r], 10);
}

}  // namespace
