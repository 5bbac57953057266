#include "mesh/mesh.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "common/error.hpp"

namespace opv::mesh {

std::uint64_t UnstructuredMesh::footprint_bytes() const {
  auto bytes = [](const auto& v) {
    return static_cast<std::uint64_t>(v.size()) * sizeof(v[0]);
  };
  return bytes(node_xy) + bytes(cell_nodes) + bytes(edge_nodes) + bytes(edge_cells) +
         bytes(bedge_nodes) + bytes(bedge_cell) + bytes(bedge_bound);
}

double UnstructuredMesh::wrap_dx(double dx) const {
  if (!periodic || period_x <= 0.0) return dx;
  if (dx > 0.5 * period_x) return dx - period_x;
  if (dx < -0.5 * period_x) return dx + period_x;
  return dx;
}

double UnstructuredMesh::wrap_dy(double dy) const {
  if (!periodic || period_y <= 0.0) return dy;
  if (dy > 0.5 * period_y) return dy - period_y;
  if (dy < -0.5 * period_y) return dy + period_y;
  return dy;
}

namespace {

void check_range(const aligned_vector<idx_t>& map, idx_t limit, const char* what) {
  for (std::size_t i = 0; i < map.size(); ++i) {
    OPV_REQUIRE(map[i] >= 0 && map[i] < limit,
                what << " entry " << i << " = " << map[i] << " out of range [0," << limit << ")");
  }
}

bool cell_has_node(const UnstructuredMesh& m, idx_t cell, idx_t node) {
  const int k = m.nodes_per_cell;
  for (int j = 0; j < k; ++j)
    if (m.cell_nodes[static_cast<std::size_t>(cell) * k + j] == node) return true;
  return false;
}

}  // namespace

void UnstructuredMesh::validate() const {
  OPV_REQUIRE(nodes_per_cell == 3 || nodes_per_cell == 4,
              "nodes_per_cell must be 3 or 4, got " << nodes_per_cell);
  OPV_REQUIRE(node_xy.size() == static_cast<std::size_t>(nnodes) * 2, "node_xy size mismatch");
  OPV_REQUIRE(cell_nodes.size() == static_cast<std::size_t>(ncells) * nodes_per_cell,
              "cell_nodes size mismatch");
  OPV_REQUIRE(edge_nodes.size() == static_cast<std::size_t>(nedges) * 2,
              "edge_nodes size mismatch");
  OPV_REQUIRE(edge_cells.size() == static_cast<std::size_t>(nedges) * 2,
              "edge_cells size mismatch");
  OPV_REQUIRE(bedge_nodes.size() == static_cast<std::size_t>(nbedges) * 2,
              "bedge_nodes size mismatch");
  OPV_REQUIRE(bedge_cell.size() == static_cast<std::size_t>(nbedges), "bedge_cell size mismatch");
  OPV_REQUIRE(bedge_bound.size() == static_cast<std::size_t>(nbedges),
              "bedge_bound size mismatch");

  for (idx_t n = 0; n < nnodes; ++n) {
    const double* xy = &node_xy[static_cast<std::size_t>(n) * 2];
    const double x = xy[0], y = xy[1];
    OPV_REQUIRE(std::isfinite(x) && std::isfinite(y),
                "node " << n << " has a non-finite coordinate (" << x << ", " << y << ")");
  }
  check_range(cell_nodes, nnodes, "cell_nodes");
  check_range(edge_nodes, nnodes, "edge_nodes");
  check_range(edge_cells, ncells, "edge_cells");
  check_range(bedge_nodes, nnodes, "bedge_nodes");
  check_range(bedge_cell, ncells, "bedge_cell");

  for (idx_t e = 0; e < nedges; ++e) {
    const idx_t n0 = edge_nodes[2 * e], n1 = edge_nodes[2 * e + 1];
    const idx_t c0 = edge_cells[2 * e], c1 = edge_cells[2 * e + 1];
    OPV_REQUIRE(n0 != n1, "edge " << e << " has repeated node " << n0);
    OPV_REQUIRE(c0 != c1, "edge " << e << " has repeated cell " << c0);
    OPV_REQUIRE(cell_has_node(*this, c0, n0) && cell_has_node(*this, c0, n1),
                "edge " << e << " nodes not part of left cell " << c0);
    OPV_REQUIRE(cell_has_node(*this, c1, n0) && cell_has_node(*this, c1, n1),
                "edge " << e << " nodes not part of right cell " << c1);
  }
  for (idx_t e = 0; e < nbedges; ++e) {
    const idx_t n0 = bedge_nodes[2 * e], n1 = bedge_nodes[2 * e + 1];
    const idx_t c = bedge_cell[e];
    OPV_REQUIRE(n0 != n1, "bedge " << e << " has repeated node " << n0);
    OPV_REQUIRE(cell_has_node(*this, c, n0) && cell_has_node(*this, c, n1),
                "bedge " << e << " nodes not part of cell " << c);
    OPV_REQUIRE(bedge_bound[e] == kBoundFarfield || bedge_bound[e] == kBoundWall,
                "bedge " << e << " has unknown bound id " << bedge_bound[e]);
  }
}

MeshStats compute_stats(const UnstructuredMesh& m) {
  MeshStats s;
  aligned_vector<idx_t> deg(static_cast<std::size_t>(m.ncells), 0);
  for (idx_t e = 0; e < m.nedges; ++e) {
    ++deg[m.edge_cells[2 * e]];
    ++deg[m.edge_cells[2 * e + 1]];
    s.edge_bandwidth = std::max<std::int64_t>(
        s.edge_bandwidth, std::abs(static_cast<std::int64_t>(m.edge_cells[2 * e]) -
                                   static_cast<std::int64_t>(m.edge_cells[2 * e + 1])));
  }
  for (idx_t c = 0; c < m.ncells; ++c) {
    s.max_edges_per_cell = std::max<int>(s.max_edges_per_cell, deg[c]);
    if (deg[c] == 0) ++s.isolated_cells;
  }
  s.avg_edges_per_cell =
      m.ncells > 0 ? 2.0 * static_cast<double>(m.nedges) / static_cast<double>(m.ncells) : 0.0;
  return s;
}

CellEdges build_cell_edges(const UnstructuredMesh& m) {
  CellEdges ce;
  ce.offset.assign(static_cast<std::size_t>(m.ncells) + 1, 0);
  for (idx_t e = 0; e < m.nedges; ++e) {
    ++ce.offset[m.edge_cells[2 * e] + 1];
    ++ce.offset[m.edge_cells[2 * e + 1] + 1];
  }
  for (idx_t c = 0; c < m.ncells; ++c) ce.offset[c + 1] += ce.offset[c];
  ce.edges.assign(ce.offset[m.ncells], 0);
  aligned_vector<idx_t> cursor(ce.offset.begin(), ce.offset.end() - 1);
  for (idx_t e = 0; e < m.nedges; ++e) {
    ce.edges[cursor[m.edge_cells[2 * e]]++] = e;
    ce.edges[cursor[m.edge_cells[2 * e + 1]]++] = e;
  }
  return ce;
}

aligned_vector<idx_t> build_cell_edges_flat3(const UnstructuredMesh& m) {
  OPV_REQUIRE(m.nodes_per_cell == 3, "flat3 cell->edge map requires a triangle mesh");
  const CellEdges ce = build_cell_edges(m);
  aligned_vector<idx_t> flat(static_cast<std::size_t>(m.ncells) * 3);
  for (idx_t c = 0; c < m.ncells; ++c) {
    OPV_REQUIRE(ce.offset[c + 1] - ce.offset[c] == 3,
                "cell " << c << " has " << (ce.offset[c + 1] - ce.offset[c])
                        << " interior edges, expected 3 (mesh must be closed/periodic)");
    for (int k = 0; k < 3; ++k) flat[static_cast<std::size_t>(c) * 3 + k] = ce.edges[ce.offset[c] + k];
  }
  return flat;
}

}  // namespace opv::mesh
