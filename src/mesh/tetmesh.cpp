#include "mesh/tetmesh.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "common/error.hpp"

namespace opv::mesh {

namespace {

void check_range(const aligned_vector<idx_t>& map, idx_t limit, const char* what) {
  for (std::size_t i = 0; i < map.size(); ++i) {
    OPV_REQUIRE(map[i] >= 0 && map[i] < limit,
                what << " entry " << i << " = " << map[i] << " out of range [0," << limit << ")");
  }
}

bool cell_has_node(const TetMesh& m, idx_t cell, idx_t node) {
  for (int j = 0; j < 4; ++j)
    if (m.cell_nodes[static_cast<std::size_t>(cell) * 4 + j] == node) return true;
  return false;
}

/// Key for a triangle independent of vertex order.
struct TriKey {
  idx_t a, b, c;  // sorted ascending
  friend bool operator==(const TriKey&, const TriKey&) = default;
};
struct TriKeyHash {
  std::size_t operator()(const TriKey& k) const {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::uint64_t v : {std::uint64_t(k.a), std::uint64_t(k.b), std::uint64_t(k.c)}) {
      h ^= v + 1;
      h *= 0x100000001b3ULL;
    }
    return static_cast<std::size_t>(h);
  }
};

TriKey tri_key(idx_t a, idx_t b, idx_t c) {
  if (a > b) std::swap(a, b);
  if (b > c) std::swap(b, c);
  if (a > b) std::swap(a, b);
  return {a, b, c};
}

/// Orient triangle (a,b,c) so its right-hand normal points AWAY from the
/// reference point p (the centroid of the cell the normal must leave).
void orient_away(const TetMesh& m, idx_t& a, idx_t& b, idx_t& c, const double* p) {
  const double* xa = &m.node_xyz[static_cast<std::size_t>(a) * 3];
  const double* xb = &m.node_xyz[static_cast<std::size_t>(b) * 3];
  const double* xc = &m.node_xyz[static_cast<std::size_t>(c) * 3];
  const double ux = xb[0] - xa[0], uy = xb[1] - xa[1], uz = xb[2] - xa[2];
  const double vx = xc[0] - xa[0], vy = xc[1] - xa[1], vz = xc[2] - xa[2];
  const double nx = uy * vz - uz * vy;
  const double ny = uz * vx - ux * vz;
  const double nz = ux * vy - uy * vx;
  const double dx = p[0] - xa[0], dy = p[1] - xa[1], dz = p[2] - xa[2];
  if (nx * dx + ny * dy + nz * dz > 0.0) std::swap(b, c);
}

}  // namespace

std::uint64_t TetMesh::footprint_bytes() const {
  auto bytes = [](const auto& v) {
    return static_cast<std::uint64_t>(v.size()) * sizeof(v[0]);
  };
  return bytes(node_xyz) + bytes(cell_nodes) + bytes(face_nodes) + bytes(face_cells) +
         bytes(bface_nodes) + bytes(bface_cell) + bytes(bface_bound);
}

double TetMesh::cell_volume(idx_t c) const {
  const idx_t* n = &cell_nodes[static_cast<std::size_t>(c) * 4];
  const double* x0 = &node_xyz[static_cast<std::size_t>(n[0]) * 3];
  const double* x1 = &node_xyz[static_cast<std::size_t>(n[1]) * 3];
  const double* x2 = &node_xyz[static_cast<std::size_t>(n[2]) * 3];
  const double* x3 = &node_xyz[static_cast<std::size_t>(n[3]) * 3];
  const double a[3] = {x1[0] - x0[0], x1[1] - x0[1], x1[2] - x0[2]};
  const double b[3] = {x2[0] - x0[0], x2[1] - x0[1], x2[2] - x0[2]};
  const double d[3] = {x3[0] - x0[0], x3[1] - x0[1], x3[2] - x0[2]};
  const double det = a[0] * (b[1] * d[2] - b[2] * d[1]) - a[1] * (b[0] * d[2] - b[2] * d[0]) +
                     a[2] * (b[0] * d[1] - b[1] * d[0]);
  return det / 6.0;
}

void TetMesh::validate() const {
  OPV_REQUIRE(node_xyz.size() == static_cast<std::size_t>(nnodes) * 3, "node_xyz size mismatch");
  OPV_REQUIRE(cell_nodes.size() == static_cast<std::size_t>(ncells) * 4,
              "cell_nodes size mismatch");
  OPV_REQUIRE(face_nodes.size() == static_cast<std::size_t>(nfaces) * 3,
              "face_nodes size mismatch");
  OPV_REQUIRE(face_cells.size() == static_cast<std::size_t>(nfaces) * 2,
              "face_cells size mismatch");
  OPV_REQUIRE(bface_nodes.size() == static_cast<std::size_t>(nbfaces) * 3,
              "bface_nodes size mismatch");
  OPV_REQUIRE(bface_cell.size() == static_cast<std::size_t>(nbfaces), "bface_cell size mismatch");
  OPV_REQUIRE(bface_bound.size() == static_cast<std::size_t>(nbfaces),
              "bface_bound size mismatch");

  for (idx_t n = 0; n < nnodes; ++n) {
    const double* x = &node_xyz[static_cast<std::size_t>(n) * 3];
    OPV_REQUIRE(std::isfinite(x[0]) && std::isfinite(x[1]) && std::isfinite(x[2]),
                "node " << n << " has a non-finite coordinate (" << x[0] << ", " << x[1] << ", "
                        << x[2] << ")");
  }
  check_range(cell_nodes, nnodes, "cell_nodes");
  check_range(face_nodes, nnodes, "face_nodes");
  check_range(face_cells, ncells, "face_cells");
  check_range(bface_nodes, nnodes, "bface_nodes");
  check_range(bface_cell, ncells, "bface_cell");

  for (idx_t c = 0; c < ncells; ++c) {
    const idx_t* n = &cell_nodes[static_cast<std::size_t>(c) * 4];
    for (int i = 0; i < 4; ++i)
      for (int j = i + 1; j < 4; ++j)
        OPV_REQUIRE(n[i] != n[j], "cell " << c << " has repeated node " << n[i]);
    OPV_REQUIRE(std::abs(cell_volume(c)) > 0.0, "cell " << c << " is degenerate (zero volume)");
  }
  for (idx_t f = 0; f < nfaces; ++f) {
    const idx_t* n = &face_nodes[static_cast<std::size_t>(f) * 3];
    const idx_t c0 = face_cells[2 * f], c1 = face_cells[2 * f + 1];
    OPV_REQUIRE(n[0] != n[1] && n[1] != n[2] && n[0] != n[2],
                "face " << f << " has repeated nodes");
    OPV_REQUIRE(c0 != c1, "face " << f << " has repeated cell " << c0);
    for (int k = 0; k < 3; ++k) {
      OPV_REQUIRE(cell_has_node(*this, c0, n[k]) && cell_has_node(*this, c1, n[k]),
                  "face " << f << " node " << n[k] << " not part of both adjacent cells");
    }
  }
  for (idx_t b = 0; b < nbfaces; ++b) {
    const idx_t* n = &bface_nodes[static_cast<std::size_t>(b) * 3];
    const idx_t c = bface_cell[b];
    OPV_REQUIRE(n[0] != n[1] && n[1] != n[2] && n[0] != n[2],
                "bface " << b << " has repeated nodes");
    for (int k = 0; k < 3; ++k)
      OPV_REQUIRE(cell_has_node(*this, c, n[k]),
                  "bface " << b << " node " << n[k] << " not part of cell " << c);
    OPV_REQUIRE(bface_bound[b] == kBoundFarfield || bface_bound[b] == kBoundWall,
                "bface " << b << " has unknown bound id " << bface_bound[b]);
  }
}

void build_tet_faces(TetMesh& m) {
  // The four triangles of tet (n0,n1,n2,n3), each opposite one vertex.
  static constexpr int kTri[4][3] = {{1, 2, 3}, {0, 2, 3}, {0, 1, 3}, {0, 1, 2}};

  struct Slot {
    idx_t cell = -1;  // first cell that contributed the triangle
    idx_t a, b, c;    // as contributed
    int seen = 0;
  };
  std::unordered_map<TriKey, Slot, TriKeyHash> tris;
  tris.reserve(static_cast<std::size_t>(m.ncells) * 2 + 16);

  m.face_nodes.clear();
  m.face_cells.clear();
  m.bface_nodes.clear();
  m.bface_cell.clear();
  m.bface_bound.clear();
  m.nfaces = 0;
  m.nbfaces = 0;

  const aligned_vector<double> cent = tet_cell_centroids(m);

  // Discovery order: scan cells, emit an interior face the moment its
  // second cell appears — deterministic in cell_nodes alone.
  for (idx_t c = 0; c < m.ncells; ++c) {
    const idx_t* n = &m.cell_nodes[static_cast<std::size_t>(c) * 4];
    for (const auto& t : kTri) {
      idx_t a = n[t[0]], b = n[t[1]], cc = n[t[2]];
      auto [it, inserted] = tris.try_emplace(tri_key(a, b, cc));
      Slot& s = it->second;
      if (inserted) {
        s.cell = c;
        s.a = a;
        s.b = b;
        s.c = cc;
        s.seen = 1;
      } else {
        OPV_REQUIRE(s.seen == 1, "non-manifold mesh: triangle (" << a << "," << b << "," << cc
                                                                 << ") shared by 3+ cells");
        s.seen = 2;
        idx_t fa = s.a, fb = s.b, fc = s.c;
        orient_away(m, fa, fb, fc, &cent[static_cast<std::size_t>(s.cell) * 3]);
        m.face_nodes.insert(m.face_nodes.end(), {fa, fb, fc});
        m.face_cells.insert(m.face_cells.end(), {s.cell, c});
        ++m.nfaces;
      }
    }
  }
  // Remaining singletons are boundary faces, ordered by owning cell then by
  // local face index (re-scan keeps the order independent of hashing).
  for (idx_t c = 0; c < m.ncells; ++c) {
    const idx_t* n = &m.cell_nodes[static_cast<std::size_t>(c) * 4];
    for (const auto& t : kTri) {
      idx_t a = n[t[0]], b = n[t[1]], cc = n[t[2]];
      const Slot& s = tris.at(tri_key(a, b, cc));
      if (s.seen != 1) continue;
      orient_away(m, a, b, cc, &cent[static_cast<std::size_t>(c) * 3]);
      m.bface_nodes.insert(m.bface_nodes.end(), {a, b, cc});
      m.bface_cell.push_back(c);
      m.bface_bound.push_back(kBoundFarfield);
      ++m.nbfaces;
    }
  }
}

aligned_vector<double> tet_cell_centroids(const TetMesh& m) {
  aligned_vector<double> cent(static_cast<std::size_t>(m.ncells) * 3);
  for (idx_t c = 0; c < m.ncells; ++c) {
    double s[3] = {0, 0, 0};
    for (int j = 0; j < 4; ++j) {
      const idx_t n = m.cell_nodes[static_cast<std::size_t>(c) * 4 + j];
      for (int k = 0; k < 3; ++k) s[k] += m.node_xyz[static_cast<std::size_t>(n) * 3 + k];
    }
    for (int k = 0; k < 3; ++k) cent[static_cast<std::size_t>(c) * 3 + k] = s[k] / 4.0;
  }
  return cent;
}

double tet_min_length(const TetMesh& m) {
  OPV_REQUIRE(m.ncells > 0, "tet_min_length: empty mesh");
  double vmin = std::abs(m.cell_volume(0));
  for (idx_t c = 1; c < m.ncells; ++c) vmin = std::min(vmin, std::abs(m.cell_volume(c)));
  OPV_REQUIRE(vmin > 0.0, "tet_min_length: degenerate cell (zero volume)");
  return std::cbrt(vmin);
}

}  // namespace opv::mesh
