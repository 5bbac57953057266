#include "core/reorder.hpp"

#include <algorithm>
#include <queue>
#include <utility>

#include "common/error.hpp"

namespace opv::reorder {

bool is_permutation(const aligned_vector<idx_t>& p, idx_t n) {
  if (p.size() != static_cast<std::size_t>(n)) return false;
  std::vector<char> seen(static_cast<std::size_t>(n), 0);
  for (idx_t v : p) {
    if (v < 0 || v >= n || seen[static_cast<std::size_t>(v)]) return false;
    seen[static_cast<std::size_t>(v)] = 1;
  }
  return true;
}

aligned_vector<idx_t> invert(const aligned_vector<idx_t>& p) {
  aligned_vector<idx_t> inv(p.size());
  for (std::size_t e = 0; e < p.size(); ++e)
    inv[static_cast<std::size_t>(p[e])] = static_cast<idx_t>(e);
  return inv;
}

namespace {

/// Deduplicated symmetric CSR from an undirected edge list.
void build_csr(idx_t n, std::vector<std::pair<idx_t, idx_t>>& edges,
               aligned_vector<idx_t>& offset, aligned_vector<idx_t>& adj) {
  // Symmetrize, then sort+unique.
  const std::size_t half = edges.size();
  edges.reserve(half * 2);
  for (std::size_t i = 0; i < half; ++i) edges.emplace_back(edges[i].second, edges[i].first);
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());

  offset.assign(static_cast<std::size_t>(n) + 1, 0);
  for (const auto& [a, b] : edges) ++offset[static_cast<std::size_t>(a) + 1];
  for (idx_t v = 0; v < n; ++v)
    offset[static_cast<std::size_t>(v) + 1] += offset[static_cast<std::size_t>(v)];
  adj.resize(edges.size());
  std::size_t k = 0;
  for (const auto& [a, b] : edges) adj[k++] = b;  // edges sorted by (a, b)
  (void)k;
}

}  // namespace

void seed_adjacency(const std::vector<idx_t>& set_sizes, const std::vector<MapView>& maps,
                    int seed, aligned_vector<idx_t>& offset, aligned_vector<idx_t>& adj) {
  const idx_t n = set_sizes[static_cast<std::size_t>(seed)];
  std::vector<std::pair<idx_t, idx_t>> edges;

  bool have_incoming = false;
  for (const MapView& m : maps) {
    if (m.to != seed || m.dim < 2) continue;
    have_incoming = true;
    const idx_t rows = set_sizes[static_cast<std::size_t>(m.from)];
    for (idx_t e = 0; e < rows; ++e) {
      const idx_t* row = m.data + static_cast<std::size_t>(e) * m.dim;
      for (int i = 0; i < m.dim; ++i)
        for (int j = i + 1; j < m.dim; ++j)
          if (row[i] != row[j]) edges.emplace_back(row[i], row[j]);
    }
  }

  if (!have_incoming) {
    // Inverted-map fallback: seed elements sharing a target are adjacent.
    for (const MapView& m : maps) {
      if (m.from != seed) continue;
      const idx_t ntgt = set_sizes[static_cast<std::size_t>(m.to)];
      // target -> referencing seed elements (CSR).
      aligned_vector<idx_t> toff(static_cast<std::size_t>(ntgt) + 1, 0);
      const std::size_t nent = static_cast<std::size_t>(n) * m.dim;
      for (std::size_t i = 0; i < nent; ++i) ++toff[static_cast<std::size_t>(m.data[i]) + 1];
      for (idx_t t = 0; t < ntgt; ++t)
        toff[static_cast<std::size_t>(t) + 1] += toff[static_cast<std::size_t>(t)];
      aligned_vector<idx_t> telems(nent);
      aligned_vector<idx_t> cursor(toff.begin(), toff.end() - 1);
      for (idx_t e = 0; e < n; ++e)
        for (int k = 0; k < m.dim; ++k)
          telems[static_cast<std::size_t>(
              cursor[static_cast<std::size_t>(m.data[static_cast<std::size_t>(e) * m.dim + k])]++)] = e;
      for (idx_t t = 0; t < ntgt; ++t)
        for (idx_t i = toff[static_cast<std::size_t>(t)]; i < toff[static_cast<std::size_t>(t) + 1];
             ++i)
          for (idx_t j = i + 1; j < toff[static_cast<std::size_t>(t) + 1]; ++j)
            if (telems[static_cast<std::size_t>(i)] != telems[static_cast<std::size_t>(j)])
              edges.emplace_back(telems[static_cast<std::size_t>(i)],
                                 telems[static_cast<std::size_t>(j)]);
    }
  }

  build_csr(n, edges, offset, adj);
}

aligned_vector<idx_t> rcm_order(idx_t n, const aligned_vector<idx_t>& offset,
                                const aligned_vector<idx_t>& adj) {
  auto degree = [&offset](idx_t v) {
    return offset[static_cast<std::size_t>(v) + 1] - offset[static_cast<std::size_t>(v)];
  };
  aligned_vector<idx_t> order;  // order[k] = old id visited k-th
  order.reserve(static_cast<std::size_t>(n));
  std::vector<char> visited(static_cast<std::size_t>(n), 0);
  aligned_vector<idx_t> nbrs;

  for (idx_t seed = 0; seed < n; ++seed) {
    if (visited[static_cast<std::size_t>(seed)]) continue;
    std::queue<idx_t> q;
    q.push(seed);
    visited[static_cast<std::size_t>(seed)] = 1;
    while (!q.empty()) {
      const idx_t v = q.front();
      q.pop();
      order.push_back(v);
      nbrs.clear();
      for (idx_t k = offset[static_cast<std::size_t>(v)];
           k < offset[static_cast<std::size_t>(v) + 1]; ++k) {
        const idx_t u = adj[static_cast<std::size_t>(k)];
        if (!visited[static_cast<std::size_t>(u)]) nbrs.push_back(u);
      }
      std::sort(nbrs.begin(), nbrs.end(), [&degree](idx_t a, idx_t b) {
        const idx_t da = degree(a), db = degree(b);
        return da != db ? da < db : a < b;
      });
      for (idx_t u : nbrs) {
        visited[static_cast<std::size_t>(u)] = 1;
        q.push(u);
      }
    }
  }

  aligned_vector<idx_t> perm(static_cast<std::size_t>(n));
  for (idx_t k = 0; k < n; ++k)
    perm[static_cast<std::size_t>(order[static_cast<std::size_t>(k)])] = n - 1 - k;
  return perm;
}

namespace {

/// Stable index sort by a flattened fixed-width key matrix.
aligned_vector<idx_t> lex_sort(idx_t n, int keydim, const aligned_vector<idx_t>& keys) {
  aligned_vector<idx_t> by_old(static_cast<std::size_t>(n));
  for (idx_t e = 0; e < n; ++e) by_old[static_cast<std::size_t>(e)] = e;
  std::sort(by_old.begin(), by_old.end(), [&](idx_t a, idx_t b) {
    const idx_t* ka = keys.data() + static_cast<std::size_t>(a) * keydim;
    const idx_t* kb = keys.data() + static_cast<std::size_t>(b) * keydim;
    for (int c = 0; c < keydim; ++c)
      if (ka[c] != kb[c]) return ka[c] < kb[c];
    return a < b;  // stability: ties keep declaration order
  });
  aligned_vector<idx_t> perm(static_cast<std::size_t>(n));
  for (idx_t k = 0; k < n; ++k) perm[static_cast<std::size_t>(by_old[static_cast<std::size_t>(k)])] = k;
  return perm;
}

}  // namespace

aligned_vector<idx_t> sort_rows_perm(const idx_t* rows, idx_t n, int dim,
                                     const aligned_vector<idx_t>* relabel) {
  aligned_vector<idx_t> keys(static_cast<std::size_t>(n) * dim);
  for (idx_t e = 0; e < n; ++e) {
    idx_t* key = keys.data() + static_cast<std::size_t>(e) * dim;
    for (int k = 0; k < dim; ++k) {
      const idx_t t = rows[static_cast<std::size_t>(e) * dim + k];
      key[k] = relabel ? (*relabel)[static_cast<std::size_t>(t)] : t;
    }
    std::sort(key, key + dim);  // orientation-insensitive key
  }
  return lex_sort(n, dim, keys);
}

Permutations compute(const std::vector<idx_t>& set_sizes, const std::vector<MapView>& maps,
                     int seed) {
  const int nsets = static_cast<int>(set_sizes.size());
  OPV_REQUIRE(seed >= 0 && seed < nsets, "reorder: seed set " << seed << " out of range");
  Permutations p;
  p.perm.resize(static_cast<std::size_t>(nsets));

  // 1. RCM over the seed set's derived connectivity graph.
  aligned_vector<idx_t> offset, adj;
  seed_adjacency(set_sizes, maps, seed, offset, adj);
  p.perm[static_cast<std::size_t>(seed)] =
      rcm_order(set_sizes[static_cast<std::size_t>(seed)], offset, adj);

  // 2. Rounds of lexicographic from-set sorting: a set is renumbered as soon
  //    as at least one of its maps targets an already-renumbered set; the
  //    sort key concatenates the sorted renumbered rows of every such map
  //    (declaration order), so e.g. edges order by the cells they touch.
  std::vector<char> renumbered(static_cast<std::size_t>(nsets), 0);
  renumbered[static_cast<std::size_t>(seed)] = 1;
  bool changed = true;
  while (changed) {
    changed = false;
    for (int s = 0; s < nsets; ++s) {
      if (renumbered[static_cast<std::size_t>(s)]) continue;
      std::vector<const MapView*> qual;
      for (const MapView& m : maps)
        if (m.from == s && renumbered[static_cast<std::size_t>(m.to)]) qual.push_back(&m);
      if (qual.empty()) continue;

      const idx_t n = set_sizes[static_cast<std::size_t>(s)];
      int keydim = 0;
      for (const MapView* m : qual) keydim += m->dim;
      aligned_vector<idx_t> keys(static_cast<std::size_t>(n) * keydim);
      for (idx_t e = 0; e < n; ++e) {
        idx_t* key = keys.data() + static_cast<std::size_t>(e) * keydim;
        int at = 0;
        for (const MapView* m : qual) {
          const aligned_vector<idx_t>& tp = p.perm[static_cast<std::size_t>(m->to)];
          for (int k = 0; k < m->dim; ++k) {
            const idx_t t = m->data[static_cast<std::size_t>(e) * m->dim + k];
            key[at + k] = tp.empty() ? t : tp[static_cast<std::size_t>(t)];
          }
          std::sort(key + at, key + at + m->dim);
          at += m->dim;
        }
      }
      p.perm[static_cast<std::size_t>(s)] = lex_sort(n, keydim, keys);
      renumbered[static_cast<std::size_t>(s)] = 1;
      changed = true;
    }
  }

  for (int s = 0; s < nsets; ++s)
    OPV_REQUIRE(p.identity(s) || is_permutation(p.of(s), set_sizes[static_cast<std::size_t>(s)]),
                "reorder: computed permutation for set " << s << " is not a bijection");
  return p;
}

void apply_to_maps(const Permutations& p, std::vector<MapView>& maps,
                   const std::vector<idx_t>& set_sizes) {
  for (MapView& m : maps) {
    const std::size_t rows = static_cast<std::size_t>(set_sizes[static_cast<std::size_t>(m.from)]);
    if (!p.identity(m.to)) {
      const aligned_vector<idx_t>& tp = p.of(m.to);
      for (std::size_t i = 0; i < rows * m.dim; ++i)
        m.data[i] = tp[static_cast<std::size_t>(m.data[i])];
    }
    if (!p.identity(m.from)) permute_rows(p.of(m.from), m.data, m.dim);
  }
}

}  // namespace opv::reorder
