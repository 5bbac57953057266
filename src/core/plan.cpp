#include "core/plan.hpp"

#include <omp.h>

#include <algorithm>
#include <bit>
#include <exception>
#include <future>
#include <map>
#include <mutex>
#include <tuple>

#include "common/error.hpp"

namespace opv {

namespace {

/// Flattens the target elements of all conflict maps into one slot space
/// (distinct target sets get disjoint offset ranges).
class SlotSpace {
 public:
  explicit SlotSpace(const std::vector<IncRef>& conflicts) {
    for (const IncRef& c : conflicts) {
      const Set* to = &c.map->to();
      if (std::find(sets_.begin(), sets_.end(), to) == sets_.end()) {
        sets_.push_back(to);
        offsets_.push_back(total_);
        total_ += to->total_size();
      }
    }
  }

  [[nodiscard]] idx_t total() const { return total_; }

  /// Global slot of conflict c's target for element e.
  [[nodiscard]] idx_t slot(const IncRef& c, idx_t e) const {
    const Set* to = &c.map->to();
    for (std::size_t i = 0; i < sets_.size(); ++i)
      if (sets_[i] == to) return offsets_[i] + (*c.map)(e, c.idx);
    return -1;  // unreachable: every conflict's set was registered
  }

 private:
  std::vector<const Set*> sets_;
  std::vector<idx_t> offsets_;
  idx_t total_ = 0;
};

/// Greedy multi-round coloring of `items` (each item owns a list of target
/// slots). Within a round, 32 colors are packed into a bitmask per slot;
/// items that cannot be colored roll over to the next round (OP2's scheme).
/// `slots_of(item, out)` appends the item's slots to out.
template <class SlotsOf>
int greedy_color(idx_t nitems, idx_t nslots, SlotsOf&& slots_of, std::vector<int>& color) {
  color.assign(static_cast<std::size_t>(nitems), -1);
  if (nitems == 0) return 0;
  std::vector<std::uint32_t> work(static_cast<std::size_t>(nslots), 0);
  std::vector<idx_t> slots;
  int base = 0;
  idx_t remaining = nitems;
  int ncolors = 0;
  while (remaining > 0) {
    std::fill(work.begin(), work.end(), 0u);
    for (idx_t it = 0; it < nitems; ++it) {
      if (color[it] >= 0) continue;
      slots.clear();
      slots_of(it, slots);
      std::uint32_t mask = 0;
      for (idx_t s : slots) mask |= work[s];
      const std::uint32_t avail = ~mask;
      if (avail == 0) continue;  // next round
      const int bit = std::countr_zero(avail);
      color[it] = base + bit;
      ncolors = std::max(ncolors, color[it] + 1);
      const std::uint32_t flag = 1u << bit;
      for (idx_t s : slots) work[s] |= flag;
      --remaining;
    }
    base += 32;
    OPV_REQUIRE(base < (1 << 20), "coloring failed to converge (degenerate conflicts?)");
  }
  return ncolors;
}

/// Per-block element coloring with an epoch-tagged work array (avoids
/// clearing the whole slot space for every block).
struct BlockColorer {
  std::vector<std::uint32_t> work;
  std::vector<idx_t> epoch;
  idx_t cur_epoch = 0;

  explicit BlockColorer(idx_t nslots)
      : work(static_cast<std::size_t>(nslots), 0), epoch(static_cast<std::size_t>(nslots), -1) {}

  /// Colors elements [begin,end); writes into elem_color; returns #colors.
  /// `subset` maps positions to element ids (nullptr = identity).
  int color_block(idx_t begin, idx_t end, const std::vector<IncRef>& conflicts,
                  const SlotSpace& space, aligned_vector<std::int32_t>& elem_color,
                  const idx_t* subset) {
    int ncolors = 0;
    int base = 0;
    idx_t remaining = end - begin;
    for (idx_t e = begin; e < end; ++e) elem_color[e] = -1;
    while (remaining > 0) {
      ++cur_epoch;
      for (idx_t e = begin; e < end; ++e) {
        if (elem_color[e] >= 0) continue;
        std::uint32_t mask = 0;
        for (const IncRef& c : conflicts) {
          const idx_t s = space.slot(c, subset ? subset[e] : e);
          if (epoch[s] == cur_epoch) mask |= work[s];
        }
        const std::uint32_t avail = ~mask;
        if (avail == 0) continue;
        const int bit = std::countr_zero(avail);
        elem_color[e] = base + bit;
        ncolors = std::max(ncolors, elem_color[e] + 1);
        for (const IncRef& c : conflicts) {
          const idx_t s = space.slot(c, subset ? subset[e] : e);
          if (epoch[s] != cur_epoch) {
            epoch[s] = cur_epoch;
            work[s] = 0;
          }
          work[s] |= 1u << bit;
        }
        --remaining;
      }
      base += 32;
      OPV_REQUIRE(base < (1 << 20), "element coloring failed to converge");
    }
    return ncolors;
  }
};

}  // namespace

std::shared_ptr<const Plan> build_plan(idx_t nelems, const std::vector<IncRef>& conflicts,
                                       int block_size, ColoringStrategy strategy,
                                       const idx_t* subset, int nthreads) {
  OPV_REQUIRE(block_size >= 16 && block_size % 16 == 0,
              "block size must be a positive multiple of 16, got " << block_size);
  auto plan = std::make_shared<Plan>();
  Plan& p = *plan;
  p.nelems = nelems;
  p.block_size = block_size;
  p.strategy = strategy;
  p.nblocks = (nelems + block_size - 1) / block_size;

  const SlotSpace space(conflicts);
  // Position -> element id (identity without a subset). Coloring runs in
  // position space; conflict slots are resolved through the actual ids.
  const auto elem_of = [subset](idx_t e) { return subset ? subset[e] : e; };

  // ---- block coloring (TwoLevel & BlockPermute; trivial without conflicts)
  if (conflicts.empty() || strategy == ColoringStrategy::FullPermute) {
    p.block_color.assign(static_cast<std::size_t>(p.nblocks), 0);
    p.nblock_colors = p.nblocks > 0 ? 1 : 0;
  } else {
    auto block_slots = [&](idx_t b, std::vector<idx_t>& out) {
      for (idx_t e = p.block_begin(b); e < p.block_end(b); ++e)
        for (const IncRef& c : conflicts) out.push_back(space.slot(c, elem_of(e)));
    };
    p.nblock_colors = greedy_color(p.nblocks, space.total(), block_slots, p.block_color);
  }
  p.color_blocks.assign(static_cast<std::size_t>(std::max(p.nblock_colors, 1)), {});
  for (idx_t b = 0; b < p.nblocks; ++b) p.color_blocks[p.block_color[b]].push_back(b);

  // ---- element colors within blocks (TwoLevel & BlockPermute) -------------
  if (strategy != ColoringStrategy::FullPermute) {
    p.elem_color.assign(static_cast<std::size_t>(nelems), 0);
    p.block_nelem_colors.assign(static_cast<std::size_t>(p.nblocks), nelems > 0 ? 1 : 0);
    if (!conflicts.empty()) {
      // Blocks are independent (each writes its own elem_color range and
      // block_nelem_colors slot), so the per-block coloring — the dominant
      // plan-construction cost — runs across threads, each worker with its
      // own epoch-tagged BlockColorer. Results are identical to the serial
      // sweep; exceptions (degenerate-conflict convergence failures) are
      // rethrown on the calling thread.
      int max_colors = 0;
      std::exception_ptr error;
      const int nt = nthreads > 0 ? nthreads : omp_get_max_threads();
#pragma omp parallel num_threads(nt)
      {
        BlockColorer bc(space.total());
        int local_max = 0;
#pragma omp for schedule(static)
        for (idx_t b = 0; b < p.nblocks; ++b) {
          try {
            const int nc = bc.color_block(p.block_begin(b), p.block_end(b), conflicts, space,
                                          p.elem_color, subset);
            p.block_nelem_colors[b] = nc;
            local_max = std::max(local_max, nc);
          } catch (...) {
#pragma omp critical(opv_plan_error)
            if (!error) error = std::current_exception();
          }
        }
#pragma omp critical(opv_plan_max)
        max_colors = std::max(max_colors, local_max);
      }
      if (error) std::rethrow_exception(error);
      p.max_elem_colors = max_colors;
    } else {
      p.max_elem_colors = nelems > 0 ? 1 : 0;
    }
  }

  // ---- FullPermute: one global coloring, permutation sorted by color ------
  if (strategy == ColoringStrategy::FullPermute) {
    std::vector<int> gcolor;
    if (conflicts.empty()) {
      gcolor.assign(static_cast<std::size_t>(nelems), 0);
      p.nglobal_colors = nelems > 0 ? 1 : 0;
    } else {
      auto elem_slots = [&](idx_t e, std::vector<idx_t>& out) {
        for (const IncRef& c : conflicts) out.push_back(space.slot(c, elem_of(e)));
      };
      p.nglobal_colors = greedy_color(nelems, space.total(), elem_slots, gcolor);
    }
    // Stable counting sort by color.
    p.color_offsets.assign(static_cast<std::size_t>(p.nglobal_colors) + 1, 0);
    for (idx_t e = 0; e < nelems; ++e) ++p.color_offsets[gcolor[e] + 1];
    for (int c = 0; c < p.nglobal_colors; ++c) p.color_offsets[c + 1] += p.color_offsets[c];
    p.permute.assign(static_cast<std::size_t>(nelems), 0);
    std::vector<idx_t> cursor(p.color_offsets.begin(), p.color_offsets.end() - 1);
    for (idx_t e = 0; e < nelems; ++e) p.permute[cursor[gcolor[e]]++] = e;
  }

  // ---- BlockPermute: per-block stable sort by element color ---------------
  if (strategy == ColoringStrategy::BlockPermute) {
    p.block_permute.assign(static_cast<std::size_t>(nelems), 0);
    p.bcol_base.assign(static_cast<std::size_t>(p.nblocks) + 1, 0);
    for (idx_t b = 0; b < p.nblocks; ++b)
      p.bcol_base[b + 1] = p.bcol_base[b] + p.block_nelem_colors[b] + 1;
    p.bcol_off.assign(static_cast<std::size_t>(p.bcol_base[p.nblocks]), 0);
    for (idx_t b = 0; b < p.nblocks; ++b) {
      const idx_t begin = p.block_begin(b), end = p.block_end(b);
      const int nc = p.block_nelem_colors[b];
      idx_t* off = p.bcol_off.data() + p.bcol_base[b];
      for (int c = 0; c <= nc; ++c) off[c] = 0;
      for (idx_t e = begin; e < end; ++e) ++off[p.elem_color[e] + 1];
      off[0] = begin;
      for (int c = 0; c < nc; ++c) off[c + 1] += off[c];
      std::vector<idx_t> cursor(off, off + nc);
      for (idx_t e = begin; e < end; ++e) p.block_permute[cursor[p.elem_color[e]]++] = e;
    }
  }

  // ---- subset translation: permutations carry element ids, not positions --
  if (subset) {
    for (idx_t& e : p.permute) e = subset[e];
    for (idx_t& e : p.block_permute) e = subset[e];
  }

  return plan;
}

// ---- PlanCache ---------------------------------------------------------------

namespace {

/// FNV-1a fingerprint of one conflict map's contents (arity, endpoint set
/// sizes, full connectivity data). Hashing is linear in the map data but
/// runs only on plan ACQUISITION — once per (loop, strategy, block size),
/// orders of magnitude rarer and cheaper than the coloring it guards.
std::uint64_t map_fingerprint(const Map& m) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(static_cast<std::uint64_t>(m.dim()));
  mix(static_cast<std::uint64_t>(m.from().total_size()));
  mix(static_cast<std::uint64_t>(m.to().total_size()));
  const std::size_t n = static_cast<std::size_t>(m.from().total_size()) * m.dim();
  const idx_t* data = m.data();
  for (std::size_t i = 0; i < n; ++i) mix(static_cast<std::uint64_t>(data[i]));
  return h;
}

}  // namespace

struct PlanCache::Impl {
  // Content key: set shape + per-conflict (map fingerprint, idx) pairs in
  // canonical (content-sorted) order + block size + strategy. No pointers:
  // two sets/maps with identical content are the same key by construction,
  // which is what lets ensemble instances built from one shared mesh reuse
  // a single plan build, and what turns a map rewritten in place (the
  // renumbering pass) into a clean miss rather than a stale hit.
  using ConflictSig = std::vector<std::pair<std::uint64_t, int>>;
  using Key = std::tuple<idx_t, idx_t, idx_t, ConflictSig, int, ColoringStrategy>;
  // Single-flight: the cache stores a shared_future per key, inserted
  // BEFORE the build runs, so concurrent callers for the same key block on
  // one build instead of each constructing (and racing to insert) their
  // own plan. A failed build erases its entry so later callers can retry.
  std::map<Key, std::shared_future<std::shared_ptr<const Plan>>> cache;
  Counters counters;
  mutable std::mutex mu;
};

PlanCache::PlanCache() : impl_(std::make_shared<Impl>()) {}

PlanCache& PlanCache::instance() {
  static PlanCache pc;
  return pc;
}

std::shared_ptr<const Plan> PlanCache::get(const Set& set, const std::vector<IncRef>& conflicts,
                                           int block_size, ColoringStrategy strategy,
                                           int nthreads) {
  std::vector<IncRef> sorted = conflicts;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  // Canonicalize by CONTENT, not address: fingerprint each conflict map
  // once, then order conflicts by (fingerprint, idx). Any permutation or
  // duplication of the caller's conflict list lands on the same key, and
  // the order is stable across contexts holding distinct-but-identical
  // maps (a plan is valid for the conflict SET regardless of list order).
  Impl::ConflictSig sig;
  sig.reserve(sorted.size());
  {
    std::uint64_t prev_fp = 0;
    const Map* prev_map = nullptr;
    for (const IncRef& c : sorted) {  // pointer-sorted: equal maps adjacent
      if (c.map != prev_map) {
        prev_fp = map_fingerprint(*c.map);
        prev_map = c.map;
      }
      sig.emplace_back(prev_fp, c.idx);
    }
  }
  std::vector<std::size_t> order(sorted.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return sig[a] < sig[b]; });
  std::vector<IncRef> canonical;
  canonical.reserve(sorted.size());
  Impl::ConflictSig canonical_sig;
  canonical_sig.reserve(sorted.size());
  for (const std::size_t i : order) {
    canonical.push_back(sorted[i]);
    canonical_sig.push_back(sig[i]);
  }
  const idx_t nelems = conflicts.empty() ? set.size() : set.exec_size();
  Impl::Key key{nelems, set.size(), set.total_size(), canonical_sig, block_size, strategy};

  std::promise<std::shared_ptr<const Plan>> promise;
  std::shared_future<std::shared_ptr<const Plan>> future;
  bool builder = false;
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    auto it = impl_->cache.find(key);
    if (it != impl_->cache.end()) {
      future = it->second;
      ++impl_->counters.hits;
    } else {
      future = promise.get_future().share();
      impl_->cache.emplace(key, future);
      ++impl_->counters.misses;
      builder = true;
    }
  }
  if (!builder) return future.get();

  try {
    // Build from the canonical order so the plan a key maps to does not
    // depend on which caller's conflict order got there first.
    auto plan = build_plan(nelems, canonical, block_size, strategy, nullptr, nthreads);
    promise.set_value(plan);
    return plan;
  } catch (...) {
    {
      std::lock_guard<std::mutex> lock(impl_->mu);
      impl_->cache.erase(key);
    }
    promise.set_exception(std::current_exception());
    throw;
  }
}

void PlanCache::clear() {
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->cache.clear();
}

std::size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->cache.size();
}

PlanCache::Counters PlanCache::counters() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->counters;
}

void PlanCache::reset_counters() {
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->counters = Counters{};
}

}  // namespace opv
