// LoopChain (cross-loop sparse tiling, core/chain.hpp) tests:
//  - chained Airfoil / Volna on Seq are BITWISE identical to the
//    loop-by-loop step (the monotone contiguous tiling replays each loop's
//    exact sequential element order);
//  - parallel backends match within the usual increment-reassociation
//    tolerance;
//  - the inspector's offsets cover every element of every fused loop
//    exactly once;
//  - untileable dependences (indirect RW, reading a global reduced earlier
//    in the same segment) fall back to plain per-loop execution;
//  - degenerate shapes (single-loop chain, one tile, tiny tiles) stay
//    correct;
//  - the plan is pinned: steady-state runs do zero planning;
//  - chain-level stats land in the registry, grouped above member loops.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "apps/airfoil/airfoil.hpp"
#include "apps/volna/volna.hpp"
#include "core/chain.hpp"
#include "core/context.hpp"
#include "core/op2.hpp"
#include "mesh/generators.hpp"
#include "perf/table.hpp"

namespace {

using namespace opv;

// ---- app-level equivalence --------------------------------------------------

template <class T>
double field_divergence(const aligned_vector<T>& a, const aligned_vector<T>& b) {
  if (a.size() != b.size()) return 1.0;
  double norm = 0.0, max_diff = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    norm = std::max(norm, std::abs(double(a[i])));
    max_diff = std::max(max_diff, std::abs(double(a[i]) - double(b[i])));
  }
  return norm > 0.0 ? max_diff / norm : 1.0;
}

aligned_vector<double> airfoil_q(const mesh::UnstructuredMesh& m, const ExecConfig& cfg,
                                 bool chain, int iters) {
  LocalCtx ctx(cfg);
  airfoil::Airfoil<double, LocalCtx> app(ctx, m, chain);
  app.run(iters, 0);
  return app.fetch_q();
}

TEST(Chain, AirfoilSeqBitwise) {
  auto m = mesh::make_airfoil_omesh(96, 32);
  mesh::shuffle_edges(m, 7);  // scrambled ordering: tiles project broadly
  const ExecConfig cfg{.backend = Backend::Seq};
  const auto plain = airfoil_q(m, cfg, false, 3);
  const auto chained = airfoil_q(m, cfg, true, 3);
  ASSERT_EQ(plain.size(), chained.size());
  EXPECT_EQ(0, std::memcmp(plain.data(), chained.data(), plain.size() * sizeof(double)));
}

TEST(Chain, AirfoilSeqBitwiseAutoTile) {
  // kAuto tile sizing (cache-budget candidates + online tuner) must not
  // change results either — run long enough for the tuner to retile.
  auto m = mesh::make_airfoil_omesh(64, 24);
  const ExecConfig cfg{.backend = Backend::Seq};  // chain_tile_elems = kAuto
  const auto plain = airfoil_q(m, cfg, false, 12);
  const auto chained = airfoil_q(m, cfg, true, 12);
  ASSERT_EQ(plain.size(), chained.size());
  EXPECT_EQ(0, std::memcmp(plain.data(), chained.data(), plain.size() * sizeof(double)));
}

TEST(Chain, VolnaSeqBitwise) {
  auto m = mesh::make_tri_periodic(40, 40, 10.0, 10.0);
  const ExecConfig cfg{.backend = Backend::Seq};
  LocalCtx a(cfg), b(cfg);
  volna::Volna<float, LocalCtx> plain(a, m, 1.0, 0.25, 0.08, /*chain=*/false);
  volna::Volna<float, LocalCtx> chained(b, m, 1.0, 0.25, 0.08, /*chain=*/true);
  plain.run(3);
  chained.run(3);
  EXPECT_EQ(plain.last_dt(), chained.last_dt());
  const auto sa = plain.fetch_state(), sb = chained.fetch_state();
  ASSERT_EQ(sa.size(), sb.size());
  EXPECT_EQ(0, std::memcmp(sa.data(), sb.data(), sa.size() * sizeof(float)));
}

TEST(Chain, AirfoilParallelBackendsTolerance) {
  // OpenMP/Simd run conflicted tiles through range coloring plans, which
  // reassociate indirect increments exactly like unchained execution does
  // — equivalence within the field-norm reassociation bar, not bitwise.
  auto m = mesh::make_airfoil_omesh(96, 32);
  mesh::shuffle_edges(m, 11);
  for (const Backend b : {Backend::OpenMP, Backend::Simd}) {
    const ExecConfig cfg{.backend = b};
    const auto plain = airfoil_q(m, cfg, false, 3);
    const auto chained = airfoil_q(m, cfg, true, 3);
    EXPECT_LT(field_divergence(plain, chained), 1e-12) << backend_name(b);
  }
}

// ---- micro fixtures ---------------------------------------------------------

struct BumpDirect {  // a[i] += 1
  template <class T>
  void operator()(T* a) const {
    a[0] += T(1);
  }
};

struct BumpBothCells {  // count[c] += 1 through both edge endpoints
  template <class T>
  void operator()(T* c1, T* c2) const {
    c1[0] += T(1);
    c2[0] += T(1);
  }
};

struct ScaleRwIndirect {  // indirect RW: untileable
  template <class T>
  void operator()(T* c1) const {
    c1[0] = c1[0] * T(0.5) + T(1);
  }
};

struct GblAccum {  // g += a[i]
  template <class T>
  void operator()(const T* a, T* g) const {
    g[0] += a[0];
  }
};

struct GblApply {  // b[i] = a[i] + g
  template <class T>
  void operator()(const T* a, T* b, const T* g) const {
    b[0] = a[0] + g[0];
  }
};

struct Micro {
  mesh::UnstructuredMesh m;
  Set cells, edges;
  Map e2c;
  FixedDat<double, 1> count_c, count_e, a, b;

  Micro()
      : m(mesh::make_quad_box(40, 25)),
        cells("cells", m.ncells),
        edges("edges", m.nedges),
        e2c("e2c", edges, cells, 2, m.edge_cells),
        count_c("count_c", cells),
        count_e("count_e", cells),
        a("a", cells),
        b("b", cells) {
    for (idx_t c = 0; c < cells.size(); ++c) a.at(c) = 0.25 * c;
  }
};

TEST(Chain, ExactlyOnceCoverAndContiguousOffsets) {
  Micro f;
  Loop direct(BumpDirect{}, "ch_cover_direct", f.cells, arg<opv::INC>(f.count_c));
  Loop both(BumpBothCells{}, "ch_cover_edges", f.edges, arg<opv::INC>(f.count_e, 0, f.e2c),
            arg<opv::INC>(f.count_e, 1, f.e2c));
  LoopChain chain("ch_cover", direct, both);

  ExecConfig cfg{.backend = Backend::Seq};
  cfg.chain_tile_elems = 64;
  chain.run(cfg);

  EXPECT_EQ(chain.effective_fused(), 2);
  ASSERT_NE(chain.plan(), nullptr);
  ASSERT_EQ(chain.plan()->segments.size(), 1u);
  const auto& seg = chain.plan()->segments[0];
  EXPECT_TRUE(seg.fused);
  EXPECT_EQ(seg.ntiles, chain.ntiles());
  // Offsets partition [0, n) per loop: start 0, end n, non-decreasing.
  const idx_t n_per_loop[2] = {f.cells.size(), f.edges.size()};
  for (int l = 0; l < 2; ++l) {
    const auto& off = seg.offsets[static_cast<std::size_t>(l)];
    ASSERT_EQ(off.size(), static_cast<std::size_t>(seg.ntiles) + 1);
    EXPECT_EQ(off.front(), 0);
    EXPECT_EQ(off.back(), n_per_loop[l]);
    for (std::size_t t = 1; t < off.size(); ++t) EXPECT_LE(off[t - 1], off[t]);
  }
  // Every element of every fused loop ran exactly once.
  for (idx_t c = 0; c < f.cells.size(); ++c) EXPECT_EQ(f.count_c.at(c), 1.0) << c;
  std::vector<double> degree(static_cast<std::size_t>(f.cells.size()), 0.0);
  for (idx_t e = 0; e < f.edges.size(); ++e) {
    degree[static_cast<std::size_t>(f.e2c(e, 0))] += 1.0;
    degree[static_cast<std::size_t>(f.e2c(e, 1))] += 1.0;
  }
  for (idx_t c = 0; c < f.cells.size(); ++c)
    EXPECT_EQ(f.count_e.at(c), degree[static_cast<std::size_t>(c)]) << c;
}

TEST(Chain, IndirectRwFallsBackUnfused) {
  Micro f;
  Loop d1(BumpDirect{}, "ch_rw_d1", f.cells, arg<opv::INC>(f.count_c));
  Loop d2(BumpDirect{}, "ch_rw_d2", f.cells, arg<opv::INC>(f.count_c));
  Loop rw(ScaleRwIndirect{}, "ch_rw_ind", f.edges, arg<opv::RW>(f.a, 0, f.e2c));
  EXPECT_TRUE(rw.footprint().has_indirect_rw());

  LoopChain chain("ch_rw", d1, d2, rw);
  ExecConfig cfg{.backend = Backend::Seq};
  cfg.chain_tile_elems = 64;
  chain.run(cfg);

  // [d1 d2] fuse; the indirect-RW loop runs unfused (plain run()).
  EXPECT_EQ(chain.effective_fused(), 2);
  ASSERT_EQ(chain.plan()->segments.size(), 2u);
  EXPECT_TRUE(chain.plan()->segments[0].fused);
  EXPECT_FALSE(chain.plan()->segments[1].fused);

  // Equivalent unchained reference for the RW loop (its input is unchanged
  // by d1/d2, so one plain run from the same start state matches).
  Micro g;
  Loop ref(ScaleRwIndirect{}, "ch_rw_ref", g.edges, arg<opv::RW>(g.a, 0, g.e2c));
  ref.run(cfg);
  for (idx_t c = 0; c < f.cells.size(); ++c) EXPECT_EQ(f.a.at(c), g.a.at(c)) << c;
  for (idx_t c = 0; c < f.cells.size(); ++c) EXPECT_EQ(f.count_c.at(c), 2.0) << c;
}

TEST(Chain, GblReadAfterReductionSplits) {
  Micro f;
  double g = 0.0;
  Loop accum(GblAccum{}, "ch_gbl_acc", f.cells, arg<opv::READ>(f.a),
             arg_gbl<opv::INC>(&g, 1));
  Loop apply(GblApply{}, "ch_gbl_apply", f.cells, arg<opv::READ>(f.a),
             arg<opv::WRITE>(f.b), arg_gbl<opv::READ>(&g, 1));
  EXPECT_TRUE(apply.footprint().reads_gbl(&g));

  LoopChain chain("ch_gbl", accum, apply);
  ExecConfig cfg{.backend = Backend::Seq};
  cfg.chain_tile_elems = 64;
  chain.run(cfg);

  // The reader must not interleave tile-wise with the reducer: two
  // single-loop segments, nothing fused — and the values prove the full
  // reduction completed before the reader started.
  EXPECT_EQ(chain.effective_fused(), 0);
  ASSERT_EQ(chain.plan()->segments.size(), 2u);
  EXPECT_FALSE(chain.plan()->segments[0].fused);
  EXPECT_FALSE(chain.plan()->segments[1].fused);
  double expected_g = 0.0;
  for (idx_t c = 0; c < f.cells.size(); ++c) expected_g += f.a.at(c);
  EXPECT_EQ(g, expected_g);
  for (idx_t c = 0; c < f.cells.size(); ++c) EXPECT_EQ(f.b.at(c), f.a.at(c) + expected_g) << c;
}

TEST(Chain, DegenerateShapes) {
  Micro f;
  ExecConfig cfg{.backend = Backend::Seq};

  {  // empty chain: run is a no-op
    LoopChain empty("ch_empty");
    EXPECT_NO_THROW(empty.run(cfg));
    EXPECT_EQ(empty.plans_built(), 0);
  }
  {  // single-loop chain: below the fusion threshold, plain run()
    Loop solo(BumpDirect{}, "ch_solo", f.cells, arg<opv::INC>(f.count_c));
    LoopChain chain("ch_single", solo);
    cfg.chain_tile_elems = 64;
    chain.run(cfg);
    EXPECT_EQ(chain.effective_fused(), 0);
    for (idx_t c = 0; c < f.cells.size(); ++c) ASSERT_EQ(f.count_c.at(c), 1.0);
  }
  {  // one giant tile and tiny 16-element tiles both cover exactly once
    for (const int tile : {1 << 20, 16}) {
      Micro m2;
      Loop d(BumpDirect{}, "ch_deg_d", m2.cells, arg<opv::INC>(m2.count_c));
      Loop e(BumpBothCells{}, "ch_deg_e", m2.edges, arg<opv::INC>(m2.count_e, 0, m2.e2c),
             arg<opv::INC>(m2.count_e, 1, m2.e2c));
      LoopChain chain("ch_degenerate", d, e);
      cfg.chain_tile_elems = tile;
      chain.run(cfg);
      EXPECT_EQ(chain.ntiles(), tile > m2.cells.size() ? 1 : chain.ntiles());
      for (idx_t c = 0; c < m2.cells.size(); ++c) ASSERT_EQ(m2.count_c.at(c), 1.0);
    }
  }
}

TEST(Chain, PlanPinnedAcrossRuns) {
  Micro f;
  Loop d(BumpDirect{}, "ch_pin_d", f.cells, arg<opv::INC>(f.count_c));
  Loop e(BumpBothCells{}, "ch_pin_e", f.edges, arg<opv::INC>(f.count_e, 0, f.e2c),
         arg<opv::INC>(f.count_e, 1, f.e2c));
  LoopChain chain("ch_pin", d, e);
  ExecConfig cfg{.backend = Backend::Seq};
  cfg.chain_tile_elems = 128;

  chain.run(cfg);
  ASSERT_EQ(chain.plans_built(), 1);
  const auto* pinned = chain.plan();
  chain.run(cfg);
  chain.run(cfg);
  // Steady state: zero planning — same count, same pinned plan object.
  EXPECT_EQ(chain.plans_built(), 1);
  EXPECT_EQ(chain.plan(), pinned);
  EXPECT_EQ(chain.tile_elems(), 128);

  // An explicit retile re-plans once, then pins again.
  cfg.chain_tile_elems = 256;
  chain.run(cfg);
  EXPECT_EQ(chain.plans_built(), 2);
  EXPECT_EQ(chain.tile_elems(), 256);
}

TEST(Chain, StatsGroupedUnderChainRow) {
  StatsRegistry::instance().clear();
  Micro f;
  Loop d(BumpDirect{}, "ch_stat_d", f.cells, arg<opv::INC>(f.count_c));
  Loop e(BumpBothCells{}, "ch_stat_e", f.edges, arg<opv::INC>(f.count_e, 0, f.e2c),
         arg<opv::INC>(f.count_e, 1, f.e2c));
  LoopChain chain("ch_stat", d, e);
  ExecConfig cfg{.backend = Backend::Seq};
  cfg.chain_tile_elems = 64;
  chain.run(cfg);
  chain.run(cfg);

  const ChainRecord rec = StatsRegistry::instance().get_chain("ch_stat");
  EXPECT_EQ(rec.calls, 2);
  EXPECT_EQ(rec.tiles, chain.ntiles());
  EXPECT_EQ(rec.fused_loops, 2);
  EXPECT_EQ(rec.member_loops, 2);
  EXPECT_GT(rec.seconds, 0.0);
  EXPECT_GT(rec.plan_seconds, 0.0);
  ASSERT_EQ(rec.members.size(), 2u);
  EXPECT_EQ(rec.members[0], "ch_stat_d");
  EXPECT_EQ(rec.members[1], "ch_stat_e");
  // Member loops recorded under their own names (fused members are timed by
  // the chain), and the grouped table renders chain + indented members.
  EXPECT_EQ(StatsRegistry::instance().get("ch_stat_d").calls, 2);
  EXPECT_EQ(StatsRegistry::instance().get("ch_stat_e").calls, 2);
  const std::string table =
      perf::loop_stats_table(StatsRegistry::instance().all(),
                             StatsRegistry::instance().all_chains())
          .to_string();
  EXPECT_NE(table.find("ch_stat"), std::string::npos);
  EXPECT_NE(table.find("  ch_stat_d"), std::string::npos);
  EXPECT_NE(table.find("tiles"), std::string::npos);
}

// ---- footprint API ----------------------------------------------------------

TEST(Chain, FootprintExposesPinnedAccessSummary) {
  Micro f;
  Loop both(BumpBothCells{}, "ch_fp_edges", f.edges, arg<opv::INC>(f.count_e, 0, f.e2c),
            arg<opv::INC>(f.count_e, 1, f.e2c));
  const LoopFootprint& fp = both.footprint();
  EXPECT_EQ(fp.iter_set, &f.edges);
  ASSERT_EQ(fp.args.size(), 2u);
  EXPECT_EQ(fp.args[0].dat, &f.count_e);
  EXPECT_EQ(fp.args[0].map, &f.e2c);
  EXPECT_EQ(fp.args[0].map_idx, 0);
  EXPECT_EQ(fp.args[1].map_idx, 1);
  EXPECT_TRUE(fp.args[0].indirect);
  EXPECT_FALSE(fp.has_indirect_rw());
  const auto conflicts = fp.conflicts();
  ASSERT_EQ(conflicts.size(), 2u);
  EXPECT_EQ(conflicts[0].map, &f.e2c);
  // The footprint's conflict list IS the loop's plan key.
  EXPECT_EQ(conflicts, both.conflicts());

  double g = 0.0;
  Loop accum(GblAccum{}, "ch_fp_gbl", f.cells, arg<opv::READ>(f.a),
             arg_gbl<opv::INC>(&g, 1));
  const LoopFootprint& gfp = accum.footprint();
  ASSERT_EQ(gfp.args.size(), 2u);
  EXPECT_TRUE(gfp.args[1].is_gbl);
  EXPECT_TRUE(gfp.args[1].gbl_reduction);
  EXPECT_EQ(gfp.gbl_reductions().size(), 1u);
  EXPECT_EQ(gfp.gbl_reductions()[0], &g);
  EXPECT_FALSE(gfp.reads_gbl(&g));
}

}  // namespace
