// Halo construction for the distributed-rank model: ownership derivation,
// per-rank local layouts (owned | execute-halo | non-execute-halo), and the
// localized sets/maps each rank executes against.
//
// This reproduces OP2's MPI import/export halo design (paper section 3):
//   * every element has exactly one owner rank;
//   * a rank redundantly executes ("execute halo") every non-owned element
//     whose mapping touches one of its owned elements, so indirect
//     increments into owned data complete without communication;
//   * every element referenced through a mapping from an executed element
//     is locally addressable — if not owned or executed it becomes
//     "non-execute halo" (readable, never executed).
#pragma once

#include <string>
#include <vector>

#include "common/aligned.hpp"
#include "core/map.hpp"
#include "core/set.hpp"

namespace opv::dist {

/// The global (pre-partitioning) universe of sets and maps, as declared
/// through DistCtx before finalize().
struct GlobalSpec {
  struct SetSpec {
    std::string name;
    idx_t size = 0;
  };
  struct MapSpec {
    std::string name;
    int from = -1;
    int to = -1;
    int dim = 0;
    aligned_vector<idx_t> data;  ///< sets[from].size * dim entries
  };

  std::vector<SetSpec> sets;
  std::vector<MapSpec> maps;

  int add_set(std::string name, idx_t size);
  /// Copies sets[from].size * dim entries from data.
  int add_map(std::string name, int from, int to, int dim, const idx_t* data);
};

/// Derive per-set ownership from the primary set's partition by walking the
/// declared maps (in declaration order) until every set is resolved:
///   * a map whose FROM set is unresolved and whose TO set is resolved
///     assigns each from-element the owner of its first target (index 0) —
///     e.g. an edge inherits from its first cell;
///   * a map whose FROM set is resolved and whose TO set is unresolved
///     assigns each still-unowned target the owner of the first resolved
///     from-element that references it — e.g. a node is owned by some cell
///     containing it.
/// Throws opv::Error if any set is unreachable through the maps.
std::vector<aligned_vector<int>> derive_ownership(const GlobalSpec& spec, int primary_set,
                                                  const aligned_vector<int>& primary_owner,
                                                  int nranks);

/// One rank's view of one set. Local ids are ordered
/// [0, ncore) owned core (ascending global id),
/// [ncore, nowned) the rest of the owned elements (ascending global id),
/// [nowned, nowned+nexec) execute halo (ascending global id),
/// [nowned+nexec, ntotal) non-execute halo (ascending global id).
/// An owned element is core when every map from its set takes it to owned
/// elements only, so a loop runs the core while the halo exchange is in
/// flight (paper section 6.5).
struct LocalLayout {
  idx_t ncore = 0;
  idx_t nowned = 0;
  idx_t nexec = 0;
  idx_t ntotal = 0;
  aligned_vector<idx_t> local_to_global;  ///< size ntotal
  /// For halo slot i (local id nowned+i): the owning rank and the owner's
  /// LOCAL index of the same global element — the halo exchange copies
  /// rank-src data from src_local[i] into slot i.
  aligned_vector<int> src_rank;     ///< size ntotal - nowned
  aligned_vector<idx_t> src_local;  ///< size ntotal - nowned
};

/// The partitioned universe: per-rank layouts, localized Sets (with the
/// owned/exec/total size triple) and localized Maps (entries rewritten to
/// rank-local indices; rows of never-executed elements are zero-filled).
class Partitioned {
 public:
  Partitioned(const GlobalSpec& spec, const std::vector<aligned_vector<int>>& owner, int nranks);

  [[nodiscard]] int nranks() const { return nranks_; }
  [[nodiscard]] int nsets() const { return static_cast<int>(nsets_); }

  [[nodiscard]] const LocalLayout& layout(int rank, int set) const {
    return layouts_[static_cast<std::size_t>(rank) * nsets_ + set];
  }
  [[nodiscard]] const Set& set(int rank, int set_id) const {
    return sets_[static_cast<std::size_t>(rank) * nsets_ + set_id];
  }
  [[nodiscard]] const Map& map(int rank, int map_id) const {
    return maps_[static_cast<std::size_t>(rank) * nmaps_ + map_id];
  }

 private:
  int nranks_ = 0;
  std::size_t nsets_ = 0;
  std::size_t nmaps_ = 0;
  std::vector<LocalLayout> layouts_;  ///< [rank*nsets + set]
  std::vector<Set> sets_;             ///< [rank*nsets + set]
  std::vector<Map> maps_;             ///< [rank*nmaps + map]
};

}  // namespace opv::dist
