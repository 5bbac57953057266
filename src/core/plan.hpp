// Execution plans: the run-time pre-processing OP2 performs for loops with
// data-driven races (paper section 3 and 4).
//
// A plan decomposes the iteration set into contiguous mini-partitions
// ("blocks") and colors them so that blocks of one color share no
// indirectly-incremented target element and can run on different threads
// without synchronization. Three element-level schemes are built on top:
//
//   TwoLevel     elements inside a block are colored (work-item / vector
//                lane level); execution order inside a block is unchanged,
//                increments are serialized per lane (SIMD) or done color-by-
//                color (SIMT, Figure 3a).
//   FullPermute  a single global element coloring; the loop executes all
//                elements of color 0, then color 1, ... — every vector of
//                lanes is race-free so hardware scatter is legal, but there
//                is no data reuse between elements of one color.
//   BlockPermute elements are permuted inside each block so same-color
//                elements are adjacent; blocks still fit in cache, lanes
//                are independent within a color run (paper section 4).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/aligned.hpp"
#include "core/config.hpp"
#include "core/map.hpp"
#include "core/set.hpp"

namespace opv {

/// One indirect-increment conflict source: the loop increments some dataset
/// through map index `idx` of `map`.
struct IncRef {
  const Map* map = nullptr;
  int idx = 0;

  friend bool operator<(const IncRef& a, const IncRef& b) {
    return a.map != b.map ? a.map < b.map : a.idx < b.idx;
  }
  friend bool operator==(const IncRef& a, const IncRef& b) = default;
};

/// A computed execution plan for (element range, conflicts, block size,
/// strategy). The plan covers the elements [first, first + nelems).
struct Plan {
  idx_t first = 0;   ///< first element covered
  idx_t nelems = 0;  ///< elements covered (the set's exec size for run())
  int block_size = 0;
  ColoringStrategy strategy = ColoringStrategy::TwoLevel;

  // ---- block decomposition: block b = elements [block_begin(b), block_end(b))
  idx_t nblocks = 0;
  std::vector<int> block_color;                 ///< per block
  int nblock_colors = 0;
  std::vector<std::vector<idx_t>> color_blocks; ///< blocks of each color

  // ---- TwoLevel / BlockPermute: per-element color within its block -------
  aligned_vector<std::int32_t> elem_color;      ///< element first+i at [i]
  std::vector<int> block_nelem_colors;          ///< per block
  int max_elem_colors = 0;

  // ---- FullPermute: execute permute[color_offsets[c]..color_offsets[c+1]) -
  aligned_vector<idx_t> permute;                ///< element ids
  std::vector<idx_t> color_offsets;             ///< nglobal_colors+1
  int nglobal_colors = 0;

  // ---- BlockPermute: per-block permutation grouped by element color ------
  // Elements of block b, color c: block_permute[bcol_off[bcol_base[b]+c] ..
  //                                             bcol_off[bcol_base[b]+c+1])
  aligned_vector<idx_t> block_permute;          ///< element ids
  std::vector<idx_t> bcol_off;
  std::vector<idx_t> bcol_base;                 ///< nblocks+1

  [[nodiscard]] idx_t block_begin(idx_t b) const { return first + b * block_size; }
  [[nodiscard]] idx_t block_end(idx_t b) const {
    const idx_t e = (b + 1) * block_size;
    return first + (e < nelems ? e : nelems);
  }
};

/// Build a plan from scratch (exposed for tests; normal use goes through
/// PlanCache). `conflicts` lists every (map, idx) the loop increments
/// through; an empty list yields a trivially parallel plan (one color).
///
/// The plan schedules the contiguous elements [first, first + nelems):
/// blocks are contiguous pieces of that range, the permutations hold
/// element ids, and `elem_color` is indexed from `first`. opv::Loop's
/// slices (phased interior/boundary runs, chain tiles) pass their range
/// start; whole-set plans start at 0.
///
/// `nthreads` bounds the team size of the internal per-block coloring
/// parallelism (0 = the OpenMP default). Callers holding a per-rank thread
/// budget (dist rank loops) pass theirs so plan builds do not oversubscribe.
std::shared_ptr<const Plan> build_plan(idx_t nelems, const std::vector<IncRef>& conflicts,
                                       int block_size, ColoringStrategy strategy,
                                       idx_t first = 0, int nthreads = 0);

/// Process-wide plan cache keyed purely by CONTENT: the iteration set's
/// shape plus a fingerprint of each conflict map's data, block size and
/// strategy — no Set/Map addresses. Content keys are both safer and more
/// shareable than pointer keys: a map rewritten in place by the renumbering
/// pass changes its fingerprint (a stale coloring under different
/// connectivity would silently race), while two contexts built from the
/// same mesh — e.g. ensemble instances sharing a mesh (serve/ensemble.hpp)
/// — produce identical keys and share one plan build. Conflict order is
/// canonicalized by content, so permuted/duplicated conflict lists hit the
/// same entry. Plans are immutable and shared; construction happens once
/// per key (single-flight).
class PlanCache {
 public:
  /// Cumulative lookup counters since the last reset_counters(): a hit is a
  /// get() that found an existing entry (including one still being built by
  /// another thread), a miss is a get() that had to build. Surfaced through
  /// perf::loop_stats_table's ensemble rows — the measurable form of the
  /// cross-instance plan-sharing claim.
  struct Counters {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
  };

  static PlanCache& instance();

  std::shared_ptr<const Plan> get(const Set& set, const std::vector<IncRef>& conflicts,
                                  int block_size, ColoringStrategy strategy, int nthreads = 0);

  void clear();
  [[nodiscard]] std::size_t size() const;

  [[nodiscard]] Counters counters() const;
  void reset_counters();

 private:
  struct Impl;
  std::shared_ptr<Impl> impl_;
  PlanCache();
};

}  // namespace opv
