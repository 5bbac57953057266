// Reusable pipeline property checks shared by the mesh/ingest/app test
// suites: any mesh — generated, imported or mutated — can be pushed through
// check_mesh_invariants / check_tet_invariants to assert the properties the
// whole execution stack rests on:
//   * structural validity (container validate(): sizes, ranges, topology);
//   * fetch() transparency — a context with renumbering enabled returns
//     declaration-order data exactly (identity round-trip);
//   * plan validity for every coloring strategy — each element covered
//     exactly once, and same-color elements never share an increment target;
//   * partition_rcb sanity — ranks in range, no empty rank, bounded skew;
//   * DistCtx fetch round-trip across the partitioned layout.
#pragma once

#include <gtest/gtest.h>

#include <numeric>
#include <set>
#include <vector>

#include "core/context.hpp"
#include "core/op2.hpp"
#include "dist/context.hpp"
#include "dist/partition.hpp"
#include "mesh/mesh.hpp"
#include "mesh/tetmesh.hpp"

namespace opv::test {

/// Exactly-once coverage + per-color conflict-freedom of build_plan output
/// for all three strategies on the given conflict set.
inline void check_plan_invariants(idx_t nelems, const std::vector<IncRef>& conflicts) {
  const auto targets = [&](idx_t e) {
    std::vector<idx_t> t;
    for (const auto& cr : conflicts) t.push_back((*cr.map)(e, cr.idx));
    return t;
  };

  {  // TwoLevel: block ranges tile the set; per-color-per-block disjoint.
    const auto plan = build_plan(nelems, conflicts, 64, ColoringStrategy::TwoLevel);
    std::set<idx_t> seen;
    for (idx_t b = 0; b < plan->nblocks; ++b) {
      std::vector<std::set<idx_t>> per_color(static_cast<std::size_t>(plan->block_nelem_colors[b]));
      for (idx_t e = plan->block_begin(b); e < plan->block_end(b); ++e) {
        EXPECT_TRUE(seen.insert(e).second) << "element " << e << " in two blocks";
        const int col = plan->elem_color[e];
        ASSERT_GE(col, 0);
        ASSERT_LT(col, plan->block_nelem_colors[b]);
        for (idx_t t : targets(e))
          EXPECT_TRUE(per_color[static_cast<std::size_t>(col)].insert(t).second)
              << "TwoLevel: block " << b << " color " << col << " shares target " << t;
      }
    }
    EXPECT_EQ(seen.size(), std::size_t(nelems)) << "TwoLevel plan does not cover the set";
  }
  {  // FullPermute: permute is a bijection; per global color disjoint.
    const auto plan = build_plan(nelems, conflicts, 64, ColoringStrategy::FullPermute);
    std::set<idx_t> seen(plan->permute.begin(), plan->permute.end());
    EXPECT_EQ(seen.size(), std::size_t(nelems)) << "FullPermute permute is not a bijection";
    for (int col = 0; col < plan->nglobal_colors; ++col) {
      std::set<idx_t> touched;
      for (idx_t k = plan->color_offsets[col]; k < plan->color_offsets[col + 1]; ++k)
        for (idx_t t : targets(plan->permute[k]))
          EXPECT_TRUE(touched.insert(t).second)
              << "FullPermute: global color " << col << " shares target " << t;
    }
  }
  {  // BlockPermute: color runs tile each block; per run disjoint.
    const auto plan = build_plan(nelems, conflicts, 64, ColoringStrategy::BlockPermute);
    std::set<idx_t> seen;
    for (idx_t b = 0; b < plan->nblocks; ++b) {
      const idx_t* off = plan->bcol_off.data() + plan->bcol_base[b];
      const int nc = plan->block_nelem_colors[b];
      ASSERT_EQ(off[0], plan->block_begin(b));
      ASSERT_EQ(off[nc], plan->block_end(b));
      for (int c = 0; c < nc; ++c) {
        std::set<idx_t> touched;
        for (idx_t k = off[c]; k < off[c + 1]; ++k) {
          const idx_t e = plan->block_permute[k];
          EXPECT_TRUE(seen.insert(e).second) << "element " << e << " appears twice";
          for (idx_t t : targets(e))
            EXPECT_TRUE(touched.insert(t).second)
                << "BlockPermute: block " << b << " run " << c << " shares target " << t;
        }
      }
    }
    EXPECT_EQ(seen.size(), std::size_t(nelems)) << "BlockPermute plan does not cover the set";
  }
}

/// partition_rcb sanity on interleaved 2D coordinates: every rank in range,
/// no empty rank (when n >= nparts), bounded skew.
inline void check_partition_invariants(const aligned_vector<double>& xy, idx_t n, int nparts) {
  const aligned_vector<int> part = opv::dist::partition_rcb(xy.data(), n, nparts);
  ASSERT_EQ(part.size(), std::size_t(n));
  std::vector<idx_t> count(static_cast<std::size_t>(nparts), 0);
  for (int p : part) {
    ASSERT_GE(p, 0);
    ASSERT_LT(p, nparts);
    ++count[static_cast<std::size_t>(p)];
  }
  const idx_t ceil_share = (n + nparts - 1) / nparts;
  for (int p = 0; p < nparts; ++p) {
    if (n >= nparts) {
      EXPECT_GT(count[static_cast<std::size_t>(p)], 0) << "rank " << p << " empty";
    }
    EXPECT_LE(count[static_cast<std::size_t>(p)], 2 * ceil_share)
        << "rank " << p << " holds more than twice the fair share";
  }
}

namespace detail {

inline aligned_vector<idx_t> iota_ids(idx_t n) {
  aligned_vector<idx_t> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), idx_t{0});
  return v;
}

template <class Ctx, class Dat>
void expect_identity_fetch(Ctx& ctx, Dat d, idx_t n, const char* what) {
  aligned_vector<idx_t> out;
  ctx.fetch(d, out);
  ASSERT_EQ(out.size(), std::size_t(n)) << what;
  for (idx_t i = 0; i < n; ++i)
    ASSERT_EQ(out[static_cast<std::size_t>(i)], i)
        << what << ": fetch does not round-trip declaration order at row " << i;
}

/// Declare the 2D mesh through `ctx` with one original-id dat per set,
/// finalize, and assert every fetch returns declaration order exactly.
template <class Ctx>
void check_fetch_roundtrip(Ctx& ctx, const mesh::UnstructuredMesh& m) {
  const auto nodes = ctx.decl_set("nodes", m.nnodes);
  const auto cells = ctx.decl_set("cells", m.ncells);
  const auto edges = ctx.decl_set("edges", m.nedges);
  const auto bedges = ctx.decl_set("bedges", m.nbedges);
  aligned_vector<double> cent(static_cast<std::size_t>(m.ncells) * 2);
  for (idx_t c = 0; c < m.ncells; ++c) {
    double sx = 0, sy = 0;
    for (int j = 0; j < m.nodes_per_cell; ++j) {
      const idx_t n = m.cell_nodes[static_cast<std::size_t>(c) * m.nodes_per_cell + j];
      sx += m.node_xy[2 * static_cast<std::size_t>(n)];
      sy += m.node_xy[2 * static_cast<std::size_t>(n) + 1];
    }
    cent[2 * static_cast<std::size_t>(c)] = sx / m.nodes_per_cell;
    cent[2 * static_cast<std::size_t>(c) + 1] = sy / m.nodes_per_cell;
  }
  ctx.set_partition_coords(cells, cent.data());
  ctx.decl_map("pcell", cells, nodes, m.nodes_per_cell, m.cell_nodes);
  ctx.decl_map("pecell", edges, cells, 2, m.edge_cells);
  ctx.decl_map("pbecell", bedges, cells, 1, m.bedge_cell);
  const auto oc = ctx.template decl_dat<idx_t, 1>("orig_cell", cells, iota_ids(m.ncells));
  const auto oe = ctx.template decl_dat<idx_t, 1>("orig_edge", edges, iota_ids(m.nedges));
  const auto on = ctx.template decl_dat<idx_t, 1>("orig_node", nodes, iota_ids(m.nnodes));
  const auto ob = ctx.template decl_dat<idx_t, 1>("orig_bedge", bedges, iota_ids(m.nbedges));
  ctx.finalize();
  expect_identity_fetch(ctx, oc, m.ncells, "cells");
  expect_identity_fetch(ctx, oe, m.nedges, "edges");
  expect_identity_fetch(ctx, on, m.nnodes, "nodes");
  expect_identity_fetch(ctx, ob, m.nbedges, "bedges");
}

/// TetMesh sibling (cells/faces/nodes/bfaces, xy-projected centroids).
template <class Ctx>
void check_fetch_roundtrip_tet(Ctx& ctx, const mesh::TetMesh& m) {
  const auto nodes = ctx.decl_set("nodes", m.nnodes);
  const auto cells = ctx.decl_set("cells", m.ncells);
  const auto faces = ctx.decl_set("faces", m.nfaces);
  const auto bfaces = ctx.decl_set("bfaces", m.nbfaces);
  const aligned_vector<double> c3 = mesh::tet_cell_centroids(m);
  aligned_vector<double> xy(static_cast<std::size_t>(m.ncells) * 2);
  for (idx_t c = 0; c < m.ncells; ++c) {
    xy[2 * static_cast<std::size_t>(c)] = c3[3 * static_cast<std::size_t>(c)];
    xy[2 * static_cast<std::size_t>(c) + 1] = c3[3 * static_cast<std::size_t>(c) + 1];
  }
  ctx.set_partition_coords(cells, xy.data());
  ctx.decl_map("pcell", cells, nodes, 4, m.cell_nodes);
  ctx.decl_map("pfcell", faces, cells, 2, m.face_cells);
  ctx.decl_map("pbfcell", bfaces, cells, 1, m.bface_cell);
  const auto oc = ctx.template decl_dat<idx_t, 1>("orig_cell", cells, iota_ids(m.ncells));
  const auto of = ctx.template decl_dat<idx_t, 1>("orig_face", faces, iota_ids(m.nfaces));
  const auto on = ctx.template decl_dat<idx_t, 1>("orig_node", nodes, iota_ids(m.nnodes));
  const auto ob = ctx.template decl_dat<idx_t, 1>("orig_bface", bfaces, iota_ids(m.nbfaces));
  ctx.finalize();
  expect_identity_fetch(ctx, oc, m.ncells, "cells");
  expect_identity_fetch(ctx, of, m.nfaces, "faces");
  expect_identity_fetch(ctx, on, m.nnodes, "nodes");
  expect_identity_fetch(ctx, ob, m.nbfaces, "bfaces");
}

}  // namespace detail

/// The full 2D property bundle: container validity, renumbered-LocalCtx and
/// DistCtx fetch round-trips, plan invariants on the edge->cell conflicts,
/// partitioner sanity.
inline void check_mesh_invariants(const mesh::UnstructuredMesh& m) {
  ASSERT_NO_THROW(m.validate());

  ExecConfig cfg;
  cfg.backend = Backend::Seq;
  {
    LocalCtx ctx(cfg);
    ctx.set_renumber(true);
    detail::check_fetch_roundtrip(ctx, m);
  }
  if (m.ncells >= 4) {
    dist::DistCtx ctx(4, cfg);
    detail::check_fetch_roundtrip(ctx, m);
  }

  if (m.nedges > 0) {
    Set cells("cells", m.ncells), edges("edges", m.nedges);
    Map e2c("e2c", edges, cells, 2, m.edge_cells);
    check_plan_invariants(m.nedges, {{&e2c, 0}, {&e2c, 1}});
  }
  if (m.ncells >= 4) {
    aligned_vector<double> cent(static_cast<std::size_t>(m.ncells) * 2);
    for (idx_t c = 0; c < m.ncells; ++c) {
      const idx_t n = m.cell_nodes[static_cast<std::size_t>(c) * m.nodes_per_cell];
      cent[2 * static_cast<std::size_t>(c)] = m.node_xy[2 * static_cast<std::size_t>(n)];
      cent[2 * static_cast<std::size_t>(c) + 1] = m.node_xy[2 * static_cast<std::size_t>(n) + 1];
    }
    check_partition_invariants(cent, m.ncells, 4);
  }
}

/// The 3D property bundle, over cells/faces/nodes/bfaces.
inline void check_tet_invariants(const mesh::TetMesh& m) {
  ASSERT_NO_THROW(m.validate());

  ExecConfig cfg;
  cfg.backend = Backend::Seq;
  {
    LocalCtx ctx(cfg);
    ctx.set_renumber(true);
    detail::check_fetch_roundtrip_tet(ctx, m);
  }
  if (m.ncells >= 4) {
    dist::DistCtx ctx(4, cfg);
    detail::check_fetch_roundtrip_tet(ctx, m);
  }

  if (m.nfaces > 0) {
    Set cells("cells", m.ncells), faces("faces", m.nfaces);
    Map f2c("f2c", faces, cells, 2, m.face_cells);
    check_plan_invariants(m.nfaces, {{&f2c, 0}, {&f2c, 1}});
  }
  if (m.ncells >= 4) {
    const aligned_vector<double> c3 = mesh::tet_cell_centroids(m);
    aligned_vector<double> xy(static_cast<std::size_t>(m.ncells) * 2);
    for (idx_t c = 0; c < m.ncells; ++c) {
      xy[2 * static_cast<std::size_t>(c)] = c3[3 * static_cast<std::size_t>(c)];
      xy[2 * static_cast<std::size_t>(c) + 1] = c3[3 * static_cast<std::size_t>(c) + 1];
    }
    check_partition_invariants(xy, m.ncells, 4);
  }
}

}  // namespace opv::test
