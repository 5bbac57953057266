// LoopChain inspector and executor (see chain.hpp for the model).
#include "core/chain.hpp"

#include <algorithm>
#include <cstdint>
#include <unordered_map>

#include "common/error.hpp"
#include "common/timer.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace opv {
namespace chain_detail {

std::vector<Segment> segment_chain(const std::vector<LoopSpec>& specs) {
  std::vector<Segment> segs;
  const int n = static_cast<int>(specs.size());
  int i = 0;
  while (i < n) {
    // Indirect RW: the one access shape whose element-level dependences the
    // tile planner cannot bound through the maps — isolate and run plain.
    if (specs[i].fp->has_indirect_rw()) {
      segs.push_back({i, i + 1, false, 0, {}});
      ++i;
      continue;
    }
    // Grow the maximal fusible run [i, j): stop at an indirect-RW loop, or
    // before a loop that READS a global an earlier loop in THIS run reduces
    // into (the reduced value is only complete once the reducer's every
    // tile ran, so the reader cannot interleave tile-wise with it).
    std::vector<const void*> reduced;
    int j = i;
    while (j < n && !specs[j].fp->has_indirect_rw()) {
      bool raw = false;
      for (const void* g : reduced)
        if (specs[j].fp->reads_gbl(g)) {
          raw = true;
          break;
        }
      if (raw) break;
      for (const void* g : specs[j].fp->gbl_reductions()) reduced.push_back(g);
      ++j;
    }
    segs.push_back({i, j, j - i >= 2, 0, {}});
    i = j;
  }
  return segs;
}

namespace {

/// One dat-bound argument of the loop being assigned, with its label array
/// resolved once (the per-element loop only does array indexing).
struct LabeledAccess {
  std::vector<int>* lam;          ///< λ of the accessed dat
  const idx_t* map = nullptr;     ///< nullptr = direct (target is i)
  int stride = 0, slot = 0;       ///< map row stride / addressed slot
  [[nodiscard]] idx_t target(idx_t i) const {
    return map ? map[static_cast<std::size_t>(i) * stride + slot] : i;
  }
};

}  // namespace

ChainPlan plan_chain(const std::vector<LoopSpec>& specs, idx_t tile_elems) {
  OPV_REQUIRE(tile_elems >= 1, "chain plan: tile_elems must be >= 1, got " << tile_elems);
  ChainPlan plan;
  plan.tile_elems = tile_elems;
  plan.segments = segment_chain(specs);
  for (Segment& seg : plan.segments) {
    if (!seg.fused) continue;
    plan.fused_loops += seg.end - seg.begin;
    const idx_t n0 = specs[static_cast<std::size_t>(seg.begin)].n;
    seg.ntiles = static_cast<int>(std::max<idx_t>(1, (n0 + tile_elems - 1) / tile_elems));
    plan.ntiles += seg.ntiles;

    // λ[d][e]: highest tile that touched (read OR write — reads matter for
    // WAR ordering) element e of dat d so far in this segment. Segments are
    // full barriers, so labels reset per segment. unordered_map mapped
    // values are address-stable, so LabeledAccess may cache pointers.
    std::unordered_map<const DatBase*, std::vector<int>> lambda;
    auto labels = [&](const DatBase* d) -> std::vector<int>& {
      auto it = lambda.find(d);
      if (it == lambda.end())
        it = lambda.emplace(d, std::vector<int>(static_cast<std::size_t>(d->set().total_size()),
                                                -1))
                 .first;
      return it->second;
    };

    seg.offsets.assign(static_cast<std::size_t>(seg.end - seg.begin), {});
    std::vector<int> tile_of;
    for (int l = seg.begin; l < seg.end; ++l) {
      const LoopFootprint& fp = *specs[static_cast<std::size_t>(l)].fp;
      const idx_t n = specs[static_cast<std::size_t>(l)].n;

      std::vector<LabeledAccess> accs;
      for (const ArgFootprint& a : fp.args) {
        if (!a.dat) continue;
        LabeledAccess acc{&labels(a.dat)};
        if (a.indirect) {
          acc.map = a.map->data();
          acc.stride = a.map->dim();
          acc.slot = a.map_idx;
        }
        accs.push_back(acc);
      }

      tile_of.assign(static_cast<std::size_t>(n), 0);
      int prev = 0;
      for (idx_t i = 0; i < n; ++i) {
        int t;
        if (l == seg.begin) {
          // Seed loop: contiguous tile_elems-sized ranges.
          t = static_cast<int>(std::min<idx_t>(i / tile_elems, seg.ntiles - 1));
        } else {
          // Join the highest tile that last touched any accessed datum;
          // unconstrained elements spread position-proportionally so they
          // do not all pile into tile 0.
          t = -1;
          for (const LabeledAccess& a : accs) t = std::max(t, (*a.lam)[a.target(i)]);
          if (t < 0)
            t = static_cast<int>(static_cast<std::int64_t>(i) * seg.ntiles /
                                 std::max<idx_t>(n, 1));
        }
        // Monotone clamp: tiles non-decreasing in element order makes every
        // (tile, loop) subset a contiguous ascending range — the property
        // the bitwise-identical Seq executor and the pinned slices rest on.
        t = std::max(t, prev);
        prev = t;
        tile_of[static_cast<std::size_t>(i)] = t;
        for (const LabeledAccess& a : accs) {
          int& lam = (*a.lam)[a.target(i)];
          lam = std::max(lam, t);
        }
      }

      // Monotone tile_of → offsets: off[t] = first element with tile >= t.
      std::vector<idx_t>& off = seg.offsets[static_cast<std::size_t>(l - seg.begin)];
      off.assign(static_cast<std::size_t>(seg.ntiles) + 1, n);
      off[0] = 0;
      int cur = 0;
      for (idx_t i = 0; i < n; ++i)
        while (cur < tile_of[static_cast<std::size_t>(i)])
          off[static_cast<std::size_t>(++cur)] = i;
    }
  }
  return plan;
}

std::vector<int> tile_candidates(const std::vector<LoopSpec>& specs) {
  // Bytes the chain's distinct dats hold per seed element: the footprint a
  // tile of t elements drags through cache is roughly t * bytes_per_elem.
  double total_bytes = 0.0;
  std::vector<const DatBase*> seen;
  for (const LoopSpec& s : specs)
    for (const ArgFootprint& a : s.fp->args) {
      if (!a.dat || std::find(seen.begin(), seen.end(), a.dat) != seen.end()) continue;
      seen.push_back(a.dat);
      total_bytes += static_cast<double>(a.dat->elem_bytes()) *
                     static_cast<double>(a.dat->set().total_size());
    }
  const idx_t n0 = specs.empty() ? 0 : specs.front().n;
  const double bytes_per_elem = total_bytes / std::max<double>(1.0, static_cast<double>(n0));

  // Cache budget: the per-core L2 by preference — the LLC is shared (other
  // cores, other tenants on cloud parts), so its nominal size wildly
  // overstates what a tile can keep resident, while L2-sized tiles win even
  // when the LLC share is unknown. The tuner's x4 bracket around t0 still
  // reaches LLC-scale tiles when they happen to be better.
  long cache = -1;
#if defined(_SC_LEVEL2_CACHE_SIZE)
  cache = sysconf(_SC_LEVEL2_CACHE_SIZE);
#endif
#if defined(_SC_LEVEL3_CACHE_SIZE)
  if (cache <= 0) cache = sysconf(_SC_LEVEL3_CACHE_SIZE) / 8;
#endif
  if (cache <= 0) cache = 2L << 20;
  const double budget = static_cast<double>(cache);

  std::int64_t t0 = static_cast<std::int64_t>(budget / std::max(bytes_per_elem, 1.0));
  t0 = std::clamp<std::int64_t>(t0, 64, 1 << 24);

  // Bracket t0 for the online tuner (candidates must be positive multiples
  // of 16, ascending, distinct).
  std::vector<int> out;
  for (std::int64_t c : {t0 / 4, t0 / 2, t0, t0 * 2, t0 * 4}) {
    c = std::clamp<std::int64_t>(c / 16 * 16, 16, 1 << 26);
    const int ci = static_cast<int>(c);
    if (std::find(out.begin(), out.end(), ci) == out.end()) out.push_back(ci);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace chain_detail

std::vector<std::string> LoopChain::members() const {
  std::vector<std::string> out;
  out.reserve(nodes_.size());
  for (const auto& nd : nodes_) out.push_back(nd->loop_name());
  return out;
}

idx_t LoopChain::resolve_tile_elems(const ExecConfig& cfg) {
  if (cfg.chain_tile_elems != ExecConfig::kAuto) {
    OPV_REQUIRE(cfg.chain_tile_elems >= 1, "chain '" << name_ << "': chain_tile_elems must be "
                                                     << ">= 1 (or kAuto), got "
                                                     << cfg.chain_tile_elems);
    return cfg.chain_tile_elems;
  }
  if (!tuner_) {
    std::vector<chain_detail::LoopSpec> specs;
    specs.reserve(nodes_.size());
    for (const auto& nd : nodes_) specs.push_back({&nd->footprint(), nd->iter_count()});
    tuner_ = std::make_unique<perf::OnlineTuner>(chain_detail::tile_candidates(specs));
  }
  return tuner_->propose();
}

void LoopChain::materialize(idx_t tile_elems) {
  std::vector<chain_detail::LoopSpec> specs;
  specs.reserve(nodes_.size());
  for (const auto& nd : nodes_) specs.push_back({&nd->footprint(), nd->iter_count()});

  WallTimer timer;
  auto plan = std::make_unique<chain_detail::ChainPlan>(
      chain_detail::plan_chain(specs, tile_elems));
  for (const chain_detail::Segment& seg : plan->segments) {
    if (!seg.fused) continue;
    for (int l = seg.begin; l < seg.end; ++l)
      nodes_[static_cast<std::size_t>(l)]->set_tiles(
          seg.offsets[static_cast<std::size_t>(l - seg.begin)]);
  }
  plan_secs_ += timer.seconds();
  plan_ = std::move(plan);
  ++plans_built_;
}

void LoopChain::run(const ExecConfig& cfg) {
  if (nodes_.empty()) return;
  const idx_t tile = resolve_tile_elems(cfg);
  if (!plan_ || plan_->tile_elems != tile) materialize(tile);

  WallTimer total;
  std::vector<double> secs(nodes_.size(), 0.0);
  for (const chain_detail::Segment& seg : plan_->segments) {
    if (!seg.fused) {
      // Plain per-loop execution (self-records its own stats).
      for (int l = seg.begin; l < seg.end; ++l) nodes_[static_cast<std::size_t>(l)]->run_full(cfg);
      continue;
    }
    // Tile waves: all member loops back-to-back per tile, so the tile's
    // data stays cache-resident across the whole segment.
    for (int t = 0; t < seg.ntiles; ++t)
      for (int l = seg.begin; l < seg.end; ++l) {
        WallTimer wt;
        nodes_[static_cast<std::size_t>(l)]->run_tile(cfg, t);
        secs[static_cast<std::size_t>(l)] += wt.seconds();
      }
  }
  const double elapsed = total.seconds();
  if (tuner_ && !tuner_->settled()) tuner_->observe(static_cast<int>(tile), elapsed);

  if (!cfg.collect_stats) return;
  StatsRegistry& reg = StatsRegistry::instance();
  if (stats_ == nullptr) {
    stats_ = &reg.chain_slot(name_);
    reg.set_chain_members(*stats_, members());
    member_slots_.clear();
    for (const auto& nd : nodes_) member_slots_.push_back(&reg.slot(nd->loop_name()));
  }
  // Member rows for FUSED loops only — unfused members self-recorded in
  // run_full. Slice/plan acquisition time flows to the member's own plan
  // column; the chain row's plan column is the inspector alone.
  for (const chain_detail::Segment& seg : plan_->segments) {
    if (!seg.fused) continue;
    for (int l = seg.begin; l < seg.end; ++l) {
      const auto li = static_cast<std::size_t>(l);
      reg.record(*member_slots_[li], secs[li], nodes_[li]->iter_count());
      const double fresh = nodes_[li]->take_fresh_plan_seconds();
      if (fresh > 0.0) reg.record_plan(*member_slots_[li], fresh);
    }
  }
  const double fresh_plan = plan_secs_ - plan_secs_reported_;
  if (fresh_plan > 0.0) {
    reg.record_chain_plan(*stats_, fresh_plan);
    plan_secs_reported_ = plan_secs_;
  }
  reg.record_chain(*stats_, elapsed, plan_->ntiles, plan_->fused_loops, size());
}

}  // namespace opv
