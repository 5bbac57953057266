// Mesh ingest tests (mesh/io.hpp):
//  * golden-file parses of the committed MSH fixtures (ASCII v2.2 and v4.1,
//    2D tri/quad and 3D tet, physical groups) against exact expected
//    contents;
//  * write -> read round-trips through the OPVM/OPVT binary containers and
//    both MSH writer versions;
//  * the malformed-input corpus (every file throws opv::Error, never
//    crashes) plus a deterministic byte-mutation mini-fuzz;
//  * OPVM/OPVT robustness (truncation, corrupt headers, trailing bytes);
//  * converter semantics (bound-id mapping, named boundary sets, error on
//    interior/unmatched boundary elements);
//  * the imported-vs-in-memory bitwise pipeline guarantee: the same mesh
//    arriving through a .msh file and through from_*/to_* in memory is
//    identical down to the last bit, including after a renumbered LoopChain
//    run and a partitioned DistCtx run.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/chain.hpp"
#include "core/context.hpp"
#include "dist/context.hpp"
#include "mesh/generators.hpp"
#include "mesh/io.hpp"
#include "support/mesh_invariants.hpp"

namespace {

using namespace opv;
using namespace opv::mesh;

const std::string kFix = std::string(OPV_FIXTURE_DIR) + "/msh/";
const std::string kBad = std::string(OPV_FIXTURE_DIR) + "/msh_bad/";

std::string tmp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.good()) << path;
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

// ===== golden parses ========================================================

TEST(MshGolden, Tri2dV22ExactContents) {
  const GmshMesh g = read_msh(kFix + "tri2d_v22.msh");
  EXPECT_EQ(g.name, "tri2d_v22");
  EXPECT_EQ(g.nnodes, 4);
  EXPECT_EQ(g.node_xyz, (aligned_vector<double>{0, 0, 0, 1, 0, 0, 1, 1, 0, 0, 1, 0}));
  ASSERT_EQ(g.physicals.size(), 3u);
  EXPECT_EQ(g.physicals[0], (GmshPhysical{1, 10, "wall"}));
  EXPECT_EQ(g.physicals[1], (GmshPhysical{1, 11, "farfield"}));
  EXPECT_EQ(g.physicals[2], (GmshPhysical{2, 20, "domain"}));
  EXPECT_EQ(g.lines.count, 4);
  EXPECT_EQ(g.lines.nodes, (aligned_vector<idx_t>{0, 1, 1, 2, 2, 3, 3, 0}));
  EXPECT_EQ(g.lines.phys, (aligned_vector<idx_t>{10, 11, 11, 11}));
  EXPECT_EQ(g.tris.count, 2);
  EXPECT_EQ(g.tris.nodes, (aligned_vector<idx_t>{0, 1, 2, 0, 2, 3}));
  EXPECT_EQ(g.tris.phys, (aligned_vector<idx_t>{20, 20}));
  EXPECT_EQ(g.quads.count, 0);
  EXPECT_EQ(g.tets.count, 0);
  EXPECT_EQ(g.physical_name(1, 10), "wall");
  EXPECT_EQ(g.physical_name(2, 20), "domain");
  EXPECT_EQ(g.physical_name(1, 99), "");
}

TEST(MshGolden, Tri2dV41ParsesToSameMesh) {
  const GmshMesh v41 = read_msh(kFix + "tri2d_v41.msh");
  const GmshMesh v22 = read_msh(kFix + "tri2d_v22.msh");
  EXPECT_EQ(v41, v22);  // content equality; multi-block v4.1 nodes included
}

TEST(MshGolden, Quad2dV22ExactContents) {
  const GmshMesh g = read_msh(kFix + "quad2d_v22.msh");
  EXPECT_EQ(g.nnodes, 6);
  EXPECT_EQ(g.quads.count, 2);
  EXPECT_EQ(g.quads.nodes, (aligned_vector<idx_t>{0, 1, 4, 3, 1, 2, 5, 4}));
  EXPECT_EQ(g.lines.count, 6);
  EXPECT_EQ(g.lines.nodes, (aligned_vector<idx_t>{0, 1, 1, 2, 2, 5, 5, 4, 4, 3, 3, 0}));
  // Untagged line (ntags=0) parses with phys 0; unnamed physical 12 is kept.
  EXPECT_EQ(g.lines.phys, (aligned_vector<idx_t>{10, 10, 12, 11, 11, 0}));
  EXPECT_EQ(g.physical_name(1, 12), "");
}

TEST(MshGolden, Tet3dFixturesMatchTheKuhnBox) {
  const TetMesh box = make_tet_box(1, 1, 1);
  for (const char* f : {"tet3d_v22.msh", "tet3d_v41.msh"}) {
    std::vector<BoundarySet> bsets;
    const GmshMesh g = read_msh(kFix + f);
    EXPECT_EQ(g.nnodes, 8) << f;
    EXPECT_EQ(g.tets.count, 6) << f;
    EXPECT_EQ(g.tris.count, 12) << f;
    const TetMesh m = to_tet(g, {}, &bsets);
    EXPECT_EQ(m.cell_nodes, box.cell_nodes) << f;
    EXPECT_EQ(m.node_xyz, box.node_xyz) << f;
    EXPECT_EQ(m.face_nodes, box.face_nodes) << f;
    EXPECT_EQ(m.face_cells, box.face_cells) << f;
    EXPECT_EQ(m.bface_nodes, box.bface_nodes) << f;
    EXPECT_EQ(m.bface_bound, box.bface_bound) << f;
    // Physical groups: two tris on z=0 are the wall, ten are far field.
    ASSERT_EQ(bsets.size(), 2u) << f;
    EXPECT_EQ(bsets[0].name, "farfield");
    EXPECT_EQ(bsets[0].elems.size(), 10u);
    EXPECT_EQ(bsets[1].name, "wall");
    EXPECT_EQ(bsets[1].elems.size(), 2u);
  }
}

// ===== conversion semantics =================================================

TEST(MshConvert, TriBoundsAndNamedSets) {
  std::vector<BoundarySet> bsets;
  const UnstructuredMesh m = to_unstructured(read_msh(kFix + "tri2d_v22.msh"), {}, &bsets);
  EXPECT_EQ(m.nodes_per_cell, 3);
  EXPECT_EQ(m.ncells, 2);
  EXPECT_EQ(m.nedges, 1);
  EXPECT_EQ(m.nbedges, 4);
  EXPECT_EQ(m.edge_cells, (aligned_vector<idx_t>{0, 1}));
  EXPECT_EQ(m.bedge_cell, (aligned_vector<idx_t>{0, 0, 1, 1}));
  // Physical "wall" (tag 10) covers the bottom edge; the rest is far field.
  EXPECT_EQ(m.bedge_bound, (aligned_vector<idx_t>{kBoundWall, kBoundFarfield, kBoundFarfield,
                                                  kBoundFarfield}));
  ASSERT_EQ(bsets.size(), 2u);
  EXPECT_EQ(bsets[0].name, "wall");
  EXPECT_EQ(bsets[0].elems, (aligned_vector<idx_t>{0}));
  EXPECT_EQ(bsets[1].name, "farfield");
  EXPECT_EQ(bsets[1].elems, (aligned_vector<idx_t>{1, 2, 3}));
}

TEST(MshConvert, QuadDefaultAndUnnamedBounds) {
  std::vector<BoundarySet> bsets;
  const UnstructuredMesh m = to_unstructured(read_msh(kFix + "quad2d_v22.msh"), {}, &bsets);
  EXPECT_EQ(m.nodes_per_cell, 4);
  EXPECT_EQ(m.ncells, 2);
  EXPECT_EQ(m.nedges, 1);
  EXPECT_EQ(m.nbedges, 6);
  // Unnamed physical 12 and the untagged line both fall back to the default
  // bound; named groups map through MshOptions::bound_ids.
  EXPECT_EQ(m.bedge_bound,
            (aligned_vector<idx_t>{kBoundWall, kBoundFarfield, kBoundFarfield, kBoundWall,
                                   kBoundFarfield, kBoundFarfield}));
  ASSERT_EQ(bsets.size(), 3u);
  EXPECT_EQ(bsets[0].name, "wall");
  EXPECT_EQ(bsets[1].name, "farfield");
  EXPECT_EQ(bsets[2].name, "physical_12");
  EXPECT_EQ(bsets[2].elems.size(), 1u);
}

TEST(MshConvert, RejectsBadTopologies) {
  GmshMesh g;
  g.nnodes = 4;
  g.node_xyz = {0, 0, 0, 1, 0, 0, 1, 1, 0, 0, 1, 0};
  g.tris = {2, {0, 1, 2, 0, 2, 3}, {0, 0}};

  GmshMesh interior = g;
  interior.lines = {1, {0, 2}, {5}};  // the shared diagonal
  EXPECT_THROW(to_unstructured(interior), Error);

  GmshMesh unmatched = g;
  unmatched.lines = {1, {1, 3}, {5}};  // not an edge of any cell
  EXPECT_THROW(to_unstructured(unmatched), Error);

  GmshMesh mixed = g;
  mixed.quads = {1, {0, 1, 2, 3}, {0}};
  EXPECT_THROW(to_unstructured(mixed), Error);

  GmshMesh empty;
  EXPECT_THROW(to_unstructured(empty), Error);

  // 2D content through the 3D converter and vice versa.
  EXPECT_THROW(to_tet(g), Error);
  const GmshMesh tet = read_msh(kFix + "tet3d_v22.msh");
  EXPECT_THROW(to_unstructured(tet), Error);
}

// ===== round-trips ==========================================================

TEST(MshRoundTrip, V22IsExactForAllFixtures) {
  for (const char* f : {"tri2d_v22.msh", "tri2d_v41.msh", "quad2d_v22.msh", "tet3d_v22.msh",
                        "tet3d_v41.msh"}) {
    const GmshMesh g = read_msh(kFix + f);
    const std::string out = tmp_path("opv_rt_v22.msh");
    write_msh(g, out, 2);
    EXPECT_EQ(read_msh(out), g) << f;
  }
}

TEST(MshRoundTrip, V41PreservesConvertedMeshes) {
  // The v4.1 writer regroups elements into per-(type, physical) blocks, so
  // GmshMesh equality holds only when runs are already grouped (the 2D
  // fixtures); the tet fixture round-trips at converted-container level.
  for (const char* f : {"tri2d_v22.msh", "quad2d_v22.msh"}) {
    const GmshMesh g = read_msh(kFix + f);
    const std::string out = tmp_path("opv_rt_v41.msh");
    write_msh(g, out, 4);
    EXPECT_EQ(read_msh(out), g) << f;
  }
  const GmshMesh g = read_msh(kFix + "tet3d_v22.msh");
  const std::string out = tmp_path("opv_rt_v41t.msh");
  write_msh(g, out, 4);
  const TetMesh a = to_tet(g), b = to_tet(read_msh(out));
  EXPECT_EQ(a.cell_nodes, b.cell_nodes);
  EXPECT_EQ(a.node_xyz, b.node_xyz);
  EXPECT_EQ(a.face_cells, b.face_cells);
  EXPECT_EQ(a.bface_bound, b.bface_bound);
}

TEST(MshRoundTrip, FromUnstructuredThroughBothWriters) {
  UnstructuredMesh m0 = make_tri_box(5, 4);
  perturb_nodes(m0, 0.01, 7);  // irregular coordinates must survive %.17g
  const GmshMesh g = from_unstructured(m0);
  for (int version : {2, 4}) {
    const std::string out = tmp_path("opv_rt_tri.msh");
    write_msh(g, out, version);
    const UnstructuredMesh m1 = to_unstructured(read_msh(out));
    const UnstructuredMesh m2 = to_unstructured(g);
    EXPECT_EQ(m1.node_xy, m2.node_xy) << "version " << version;
    EXPECT_EQ(m1.cell_nodes, m2.cell_nodes);
    EXPECT_EQ(m1.edge_nodes, m2.edge_nodes);
    EXPECT_EQ(m1.edge_cells, m2.edge_cells);
    EXPECT_EQ(m1.bedge_nodes, m2.bedge_nodes);
    EXPECT_EQ(m1.bedge_cell, m2.bedge_cell);
    EXPECT_EQ(m1.bedge_bound, m2.bedge_bound);
  }
  // Periodic meshes have no MSH representation.
  EXPECT_THROW(from_unstructured(make_tri_periodic(4, 4)), Error);
}

TEST(OpvmRoundTrip, ExactForGeneratedMeshes) {
  UnstructuredMesh m = make_airfoil_omesh(12, 5);
  perturb_nodes(m, 0.001, 3);
  const std::string out = tmp_path("opv_rt.opvm");
  write_mesh(m, out);
  const UnstructuredMesh r = read_mesh(out);
  EXPECT_EQ(r.name, m.name);
  EXPECT_EQ(r.node_xy, m.node_xy);
  EXPECT_EQ(r.cell_nodes, m.cell_nodes);
  EXPECT_EQ(r.edge_nodes, m.edge_nodes);
  EXPECT_EQ(r.edge_cells, m.edge_cells);
  EXPECT_EQ(r.bedge_nodes, m.bedge_nodes);
  EXPECT_EQ(r.bedge_cell, m.bedge_cell);
  EXPECT_EQ(r.bedge_bound, m.bedge_bound);
  EXPECT_EQ(r.periodic, m.periodic);
}

TEST(OpvtRoundTrip, ExactForTetBox) {
  const TetMesh m = make_tet_box(2, 3, 2);
  const std::string out = tmp_path("opv_rt.opvt");
  write_tet_mesh(m, out);
  const TetMesh r = read_tet_mesh(out);
  EXPECT_EQ(r.name, m.name);
  EXPECT_EQ(r.node_xyz, m.node_xyz);
  EXPECT_EQ(r.cell_nodes, m.cell_nodes);
  EXPECT_EQ(r.face_nodes, m.face_nodes);
  EXPECT_EQ(r.face_cells, m.face_cells);
  EXPECT_EQ(r.bface_nodes, m.bface_nodes);
  EXPECT_EQ(r.bface_cell, m.bface_cell);
  EXPECT_EQ(r.bface_bound, m.bface_bound);
}

// ===== binary-container robustness ==========================================

TEST(OpvmRobust, TruncationCorruptionAndTrailingBytes) {
  const UnstructuredMesh m = make_quad_box(4, 3);
  const std::string good = tmp_path("opv_rob.opvm");
  write_mesh(m, good);
  const std::string bytes = slurp(good);

  const auto write_variant = [&](const std::string& data) {
    const std::string p = tmp_path("opv_rob_bad.opvm");
    std::ofstream os(p, std::ios::binary | std::ios::trunc);
    os.write(data.data(), static_cast<std::streamsize>(data.size()));
    os.close();
    return p;
  };

  // Truncation at several depths: inside the header, inside a section
  // length prefix, inside payload.
  for (std::size_t cut : {std::size_t{0}, std::size_t{7}, std::size_t{40}, bytes.size() / 2,
                          bytes.size() - 1}) {
    EXPECT_THROW(read_mesh(write_variant(bytes.substr(0, cut))), Error) << "cut at " << cut;
  }
  // Bad magic.
  {
    std::string b = bytes;
    b[0] ^= 0x5a;
    EXPECT_THROW(read_mesh(write_variant(b)), Error);
  }
  // Negative node count (nnodes is the int64 after the 8-byte magic).
  {
    std::string b = bytes;
    b[15] = char(0xff);
    EXPECT_THROW(read_mesh(write_variant(b)), Error);
  }
  // Implausibly huge edge count must be rejected before any allocation.
  {
    std::string b = bytes;
    for (int i = 0; i < 8; ++i) b[24 + i] = char(0x7f);
    EXPECT_THROW(read_mesh(write_variant(b)), Error);
  }
  // Trailing garbage after the last section.
  EXPECT_THROW(read_mesh(write_variant(bytes + "x")), Error);
  // Nonexistent path.
  EXPECT_THROW(read_mesh(tmp_path("opv_does_not_exist.opvm")), Error);
  // The pristine file still reads.
  EXPECT_NO_THROW(read_mesh(good));
}

TEST(OpvtRobust, TruncationAndBadMagic) {
  const TetMesh m = make_tet_box(1, 1, 2);
  const std::string good = tmp_path("opv_rob.opvt");
  write_tet_mesh(m, good);
  const std::string bytes = slurp(good);
  const auto write_variant = [&](const std::string& data) {
    const std::string p = tmp_path("opv_rob_bad.opvt");
    std::ofstream os(p, std::ios::binary | std::ios::trunc);
    os.write(data.data(), static_cast<std::streamsize>(data.size()));
    os.close();
    return p;
  };
  EXPECT_THROW(read_tet_mesh(write_variant(bytes.substr(0, bytes.size() / 3))), Error);
  {
    std::string b = bytes;
    b[3] ^= 0x11;
    EXPECT_THROW(read_tet_mesh(write_variant(b)), Error);
  }
  EXPECT_THROW(read_tet_mesh(write_variant(bytes + "zz")), Error);
  // OPVM and OPVT magics are distinct: cross-reading fails cleanly.
  EXPECT_THROW(read_mesh(good), Error);
  EXPECT_NO_THROW(read_tet_mesh(good));
}

// Binary containers carry raw doubles, so a non-finite coordinate reaches
// the reader unless validate() looks at every node.
TEST(OpvmRobust, NonFiniteNodeCoordinateRejected) {
  UnstructuredMesh m = make_quad_box(4, 3);
  m.node_xy[3] = std::numeric_limits<double>::quiet_NaN();  // node 1, y
  const std::string path = tmp_path("opv_nonfinite.opvm");
  write_mesh(m, path);
  try {
    read_mesh(path);
    FAIL() << "expected opv::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("node 1 has a non-finite coordinate"), std::string::npos)
        << e.what();
  }
}

TEST(OpvtRobust, NonFiniteNodeCoordinateRejected) {
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    TetMesh m = make_tet_box(1, 1, 2);
    m.node_xyz[3 * 2 + 2] = bad;  // node 2, z
    const std::string path = tmp_path("opv_nonfinite.opvt");
    write_tet_mesh(m, path);
    try {
      read_tet_mesh(path);
      FAIL() << "expected opv::Error for " << bad;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("node 2 has a non-finite coordinate"),
                std::string::npos)
          << e.what();
    }
  }
}

// ===== malformed corpus + mini-fuzz =========================================

TEST(MshMalformed, EveryCorpusFileThrowsOpvError) {
  std::size_t n = 0;
  for (const auto& entry : std::filesystem::directory_iterator(kBad)) {
    ++n;
    EXPECT_THROW(read_msh(entry.path().string()), Error) << entry.path();
  }
  EXPECT_GE(n, 8u) << "malformed corpus went missing";
}

TEST(MshMalformed, LineNumbersInErrors) {
  try {
    read_msh(kBad + "duplicate_node_tag.msh");
    FAIL() << "expected opv::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate_node_tag.msh:8"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("duplicate node tag 2"), std::string::npos) << e.what();
  }
  try {
    read_msh(kBad + "dangling_element.msh");
    FAIL() << "expected opv::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("undeclared node tag 99"), std::string::npos)
        << e.what();
  }
  try {
    read_msh(kBad + "nonfinite_coordinate.msh");
    FAIL() << "expected opv::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("nonfinite_coordinate.msh:7"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("non-finite node y 'nan'"), std::string::npos)
        << e.what();
  }
}

TEST(MshFuzz, SingleByteMutationsThrowOrParseValid) {
  const std::string seed_bytes = slurp(kFix + "tri2d_v22.msh");
  Rng rng(20260808);
  int parsed = 0, threw = 0;
  for (int i = 0; i < 400; ++i) {
    std::string b = seed_bytes;
    const std::size_t pos = static_cast<std::size_t>(rng.next_below(b.size()));
    b[pos] = static_cast<char>(rng.next_below(256));
    std::istringstream is(b);
    try {
      const GmshMesh g = read_msh(is, "fuzz");  // validates internally
      ++parsed;
      try {
        (void)to_unstructured(g);  // conversion may legitimately reject
      } catch (const Error&) {
      }
    } catch (const Error&) {
      ++threw;  // the only acceptable failure mode
    }
  }
  EXPECT_EQ(parsed + threw, 400);
  EXPECT_GT(parsed, 0) << "mutations that hit whitespace/comments must still parse";
  EXPECT_GT(threw, 0) << "the fuzzer never hit a structural byte?";
}

// ===== pipeline properties & the bitwise import guarantee ===================

TEST(MshPipeline, ImportedMeshesSatisfyAllInvariants) {
  opv::test::check_mesh_invariants(to_unstructured(read_msh(kFix + "tri2d_v22.msh")));
  opv::test::check_mesh_invariants(to_unstructured(read_msh(kFix + "quad2d_v22.msh")));
  opv::test::check_tet_invariants(to_tet(read_msh(kFix + "tet3d_v41.msh")));
}

struct EdgeDiff {
  template <class T>
  void operator()(const T* u0, const T* u1, T* r0, T* r1) const {
    const T d = u1[0] - u0[0];
    r0[0] += d;
    r1[0] -= d;
  }
};
struct CellUpd {
  template <class T>
  void operator()(T* u, T* r, T* s) const {
    u[0] += T(0.1) * r[0];
    s[0] += r[0] * r[0];
    r[0] = T(0.0);
  }
};

/// A small edge-diffusion chain over the mesh; returns the state fetched in
/// declaration order plus the final reduction value.
template <class Ctx>
std::pair<aligned_vector<double>, double> run_diffusion(Ctx& ctx, const UnstructuredMesh& m,
                                                        bool chain) {
  const auto cells = ctx.decl_set("cells", m.ncells);
  const auto edges = ctx.decl_set("edges", m.nedges);
  aligned_vector<double> cent(static_cast<std::size_t>(m.ncells) * 2);
  aligned_vector<double> u0(static_cast<std::size_t>(m.ncells));
  for (idx_t c = 0; c < m.ncells; ++c) {
    const idx_t n = m.cell_nodes[static_cast<std::size_t>(c) * m.nodes_per_cell];
    cent[2 * static_cast<std::size_t>(c)] = m.node_xy[2 * static_cast<std::size_t>(n)];
    cent[2 * static_cast<std::size_t>(c) + 1] = m.node_xy[2 * static_cast<std::size_t>(n) + 1];
    u0[static_cast<std::size_t>(c)] = 0.125 * (c % 17) + 0.001 * c;
  }
  ctx.set_partition_coords(cells, cent.data());
  const auto e2c = ctx.decl_map("e2c", edges, cells, 2, m.edge_cells);
  const auto u = ctx.template decl_dat<double, 1>("u", cells, u0);
  const auto r = ctx.template decl_dat<double, 1>("r", cells);
  ctx.finalize();

  double s = 0.0;
  auto ed = ctx.make_loop(EdgeDiff{}, "mio_edge_diff", edges,
                          ctx.template arg<opv::READ>(u, 0, e2c),
                          ctx.template arg<opv::READ>(u, 1, e2c),
                          ctx.template arg<opv::INC>(r, 0, e2c),
                          ctx.template arg<opv::INC>(r, 1, e2c));
  auto up = ctx.make_loop(CellUpd{}, "mio_cell_upd", cells, ctx.template arg<opv::RW>(u),
                          ctx.template arg<opv::RW>(r),
                          ctx.template arg_gbl<opv::INC>(&s, 1));
  if constexpr (requires(LoopChain& c) { c.add(ed); }) {
    if (chain) {
      LoopChain step("mio_step", ed, up);
      for (int it = 0; it < 6; ++it) {
        s = 0.0;
        step.run(ctx.config());
      }
      aligned_vector<double> out;
      ctx.fetch(u, out);
      return {out, s};
    }
  }
  for (int it = 0; it < 6; ++it) {
    ed.run();
    s = 0.0;
    up.run();
  }
  aligned_vector<double> out;
  ctx.fetch(u, out);
  return {out, s};
}

TEST(MshPipeline, ImportIsBitwiseTransparentThroughRenumberPartitionChain) {
  UnstructuredMesh m0 = make_tri_box(9, 7);
  perturb_nodes(m0, 0.004, 11);
  const GmshMesh g = from_unstructured(m0);
  const std::string out = tmp_path("opv_bitwise.msh");
  write_msh(g, out, 2);

  const UnstructuredMesh mem = to_unstructured(g);            // in-memory path
  const UnstructuredMesh imp = to_unstructured(read_msh(out));  // file path

  // The arrays themselves are identical down to the last bit...
  ASSERT_EQ(imp.node_xy, mem.node_xy);
  ASSERT_EQ(imp.cell_nodes, mem.cell_nodes);
  ASSERT_EQ(imp.edge_nodes, mem.edge_nodes);
  ASSERT_EQ(imp.edge_cells, mem.edge_cells);
  ASSERT_EQ(imp.bedge_bound, mem.bedge_bound);

  // ...and so are full runs: renumbered LoopChain on LocalCtx, partitioned
  // DistCtx, each imported-vs-in-memory.
  ExecConfig cfg;
  cfg.backend = Backend::Seq;
  for (const bool chain : {false, true}) {
    LocalCtx ca(cfg), cb(cfg);
    ca.set_renumber(true);
    cb.set_renumber(true);
    const auto [ua, sa] = run_diffusion(ca, mem, chain);
    const auto [ub, sb] = run_diffusion(cb, imp, chain);
    ASSERT_EQ(ua.size(), ub.size());
    EXPECT_EQ(std::memcmp(ua.data(), ub.data(), ua.size() * sizeof(double)), 0)
        << "chain=" << chain;
    EXPECT_EQ(sa, sb);
  }
  {
    dist::DistCtx ca(4, cfg), cb(4, cfg);
    const auto [ua, sa] = run_diffusion(ca, mem, false);
    const auto [ub, sb] = run_diffusion(cb, imp, false);
    ASSERT_EQ(ua.size(), ub.size());
    EXPECT_EQ(std::memcmp(ua.data(), ub.data(), ua.size() * sizeof(double)), 0);
    EXPECT_EQ(sa, sb);
  }
}

TEST(MshPipeline, GeneratedMeshesSatisfyAllInvariants) {
  // The invariants helper is generator-agnostic; pin it on the synthetic
  // meshes too so ingest and generators share one property bar.
  auto m = make_quad_box(6, 5);
  shuffle_edges(m, 5);
  opv::test::check_mesh_invariants(m);
  opv::test::check_tet_invariants(make_tet_box(2, 2, 2));
}

}  // namespace
