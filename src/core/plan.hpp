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

/// A computed execution plan for (set, conflicts, block size, strategy).
struct Plan {
  idx_t nelems = 0;  ///< elements covered (the set's exec size)
  int block_size = 0;
  ColoringStrategy strategy = ColoringStrategy::TwoLevel;

  // ---- block decomposition: block b = [b*block_size, min((b+1)*bs, n)) ----
  idx_t nblocks = 0;
  std::vector<int> block_color;                 ///< per block
  int nblock_colors = 0;
  std::vector<std::vector<idx_t>> color_blocks; ///< blocks of each color

  // ---- TwoLevel / BlockPermute: per-element color within its block -------
  aligned_vector<std::int32_t> elem_color;      ///< size nelems
  std::vector<int> block_nelem_colors;          ///< per block
  int max_elem_colors = 0;

  // ---- FullPermute: execute permute[color_offsets[c]..color_offsets[c+1]) -
  aligned_vector<idx_t> permute;
  std::vector<idx_t> color_offsets;             ///< nglobal_colors+1
  int nglobal_colors = 0;

  // ---- BlockPermute: per-block permutation grouped by element color ------
  // Elements of block b, color c: block_permute[bcol_off[bcol_base[b]+c] ..
  //                                             bcol_off[bcol_base[b]+c+1])
  aligned_vector<idx_t> block_permute;
  std::vector<idx_t> bcol_off;
  std::vector<idx_t> bcol_base;                 ///< nblocks+1

  [[nodiscard]] idx_t block_begin(idx_t b) const { return b * block_size; }
  [[nodiscard]] idx_t block_end(idx_t b) const {
    const idx_t e = (b + 1) * block_size;
    return e < nelems ? e : nelems;
  }
};

/// Build a plan from scratch (exposed for tests; normal use goes through
/// PlanCache). `conflicts` lists every (map, idx) the loop increments
/// through; an empty list yields a trivially parallel plan (one color).
///
/// `subset`, when non-null, points at `nelems` element ids: the plan then
/// schedules exactly those elements (conflict slots are looked up through
/// the subset ids, and the produced `permute`/`block_permute` arrays contain
/// subset ids, so the permuted executors run them unchanged). Blocks and
/// `elem_color` stay in subset-position space — subset plans are only valid
/// for the permuted strategies (FullPermute/BlockPermute), which is what
/// opv::Loop's slice execution uses (phased interior/boundary runs).
///
/// `nthreads` bounds the team size of the internal per-block coloring
/// parallelism (0 = the OpenMP default). Callers holding a per-rank thread
/// budget (dist rank loops) pass theirs so plan builds do not oversubscribe.
std::shared_ptr<const Plan> build_plan(idx_t nelems, const std::vector<IncRef>& conflicts,
                                       int block_size, ColoringStrategy strategy,
                                       const idx_t* subset = nullptr, int nthreads = 0);

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
