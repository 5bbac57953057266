// Context-level mesh renumbering (paper sections 6.2/6.4).
//
// The paper attributes much of res_calc's behavior to the caching efficiency
// of its indirect gathers ("superfluous data movement"); bench/
// ablation_locality quantifies it: a shuffled edge ordering inflates
// res_calc severalfold, while RCM cell renumbering plus edge sorting
// restores most of the gap. This pass turns that observation into a runtime
// guarantee: given the universe of declared sets and maps, it computes one
// permutation per set —
//
//   * the SEED set (the one the application partitions on) is renumbered by
//     reverse Cuthill-McKee over its connectivity graph, derived from the
//     declared maps (two seed elements are adjacent when some row of a map
//     targeting the seed set contains both — e.g. the two cells of an edge);
//   * every FROM-set of a map targeting a renumbered set is then sorted
//     lexicographically by its renumbered targets (e.g. edges ordered by the
//     cells they touch), in rounds until no set changes;
//   * remaining sets (targets only, e.g. nodes) keep their numbering.
//
// Contexts apply the result to the maps in place (every Map row-permuted
// and target-relabeled) and keep the permutations: each Dat is built in its
// renumbered order from its declared rows (DatBase::materialize, or the dist
// rank replicas through the inverses), and fetch() hands values back in the
// original declaration order. The contract is relayout transparency: a
// context with renumbering enabled is bitwise-identical to the caller
// permuting its arrays by hand before declaration and un-permuting fetched
// results (tests/test_reorder.cpp).
// Note that a renumbered run is NOT bitwise-identical to an un-renumbered
// one: reordering an indirect-increment loop reassociates the per-target
// floating-point sums (docs/API.md, "Context-level renumbering").
#pragma once

#include <algorithm>
#include <vector>

#include "common/aligned.hpp"
#include "core/set.hpp"

namespace opv::reorder {

/// Context-neutral mutable view of one declared map: connectivity from set
/// `from` to set `to` with fixed arity, element-major rows in `data`.
struct MapView {
  int from = -1;
  int to = -1;
  int dim = 0;
  idx_t* data = nullptr;  ///< set_sizes[from] * dim entries
};

/// Per-set permutations computed by compute(): perm[s][old_id] = new_id.
/// An empty vector means the set keeps its declaration numbering.
struct Permutations {
  std::vector<aligned_vector<idx_t>> perm;

  [[nodiscard]] int nsets() const { return static_cast<int>(perm.size()); }
  [[nodiscard]] bool identity(int s) const { return perm[static_cast<std::size_t>(s)].empty(); }
  [[nodiscard]] const aligned_vector<idx_t>& of(int s) const {
    return perm[static_cast<std::size_t>(s)];
  }
};

/// True iff p maps [0,n) onto [0,n) bijectively (n == p.size()).
[[nodiscard]] bool is_permutation(const aligned_vector<idx_t>& p, idx_t n);

/// Inverse of a permutation (old->new becomes new->old).
[[nodiscard]] aligned_vector<idx_t> invert(const aligned_vector<idx_t>& p);

/// CSR adjacency of the seed set derived from the declared maps: two seed
/// elements are adjacent when some row of a map with to == seed contains
/// both (deduplicated, symmetric). When no map targets the seed set with
/// arity >= 2, elements sharing a target of a map FROM the seed set are
/// connected instead (the inverted-map fallback).
void seed_adjacency(const std::vector<idx_t>& set_sizes, const std::vector<MapView>& maps,
                    int seed, aligned_vector<idx_t>& offset, aligned_vector<idx_t>& adj);

/// Reverse Cuthill-McKee order of a CSR graph: BFS visiting unvisited
/// neighbors in ascending degree (ties by id), over every component, then
/// reversed. Returns perm with perm[old] = new.
[[nodiscard]] aligned_vector<idx_t> rcm_order(idx_t n, const aligned_vector<idx_t>& offset,
                                              const aligned_vector<idx_t>& adj);

/// Stable sort permutation (old->new) of a from-set by its row targets:
/// each element's key is its row sorted ascending (after applying `relabel`
/// to every target when non-null), compared lexicographically; ties keep
/// declaration order. This is the generalization of the bench's
/// sort-edges-by-cell.
[[nodiscard]] aligned_vector<idx_t> sort_rows_perm(const idx_t* rows, idx_t n, int dim,
                                                   const aligned_vector<idx_t>* relabel = nullptr);

/// The full context-level pass: RCM on the seed set, then rounds of
/// lexicographic from-set sorting until no set changes. Pure — applies
/// nothing; every returned non-identity permutation is a bijection.
[[nodiscard]] Permutations compute(const std::vector<idx_t>& set_sizes,
                                   const std::vector<MapView>& maps, int seed);

/// Apply the permutations to every map in place: rows move with
/// perm[from], targets relabel through perm[to].
void apply_to_maps(const Permutations& p, std::vector<MapView>& maps,
                   const std::vector<idx_t>& set_sizes);

/// Row-permute element-major data in place:
/// new[perm[e]*arity + c] = old[e*arity + c].
template <class T>
void permute_rows(const aligned_vector<idx_t>& perm, T* data, int arity) {
  const auto a = static_cast<std::size_t>(arity);
  const std::vector<T> old(data, data + perm.size() * a);
  for (std::size_t e = 0; e < perm.size(); ++e)
    std::copy_n(old.data() + e * a, a, data + static_cast<std::size_t>(perm[e]) * a);
}

}  // namespace opv::reorder
