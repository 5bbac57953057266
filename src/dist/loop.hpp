// dist::Loop: persistent distributed-loop handles — the dist analog of
// opv::Loop (core/par_loop.hpp).
//
// The paper's execution model builds per-loop plans once and amortizes them
// over thousands of timesteps (PPoPP'14 section 3); DistCtx::loop used to
// re-derive the stale-dataset set, re-prep per-rank argument bindings and
// re-resolve per-rank plans on every call. A dist::Loop pins all of it at
// construction:
//   * argument validation against the iteration set (direct dats must live
//     on it, indirect maps must be FROM it);
//   * the ExchangePlan: which dats the loop reads stale (refreshed through
//     the context's Exchanger before the run, dirty ones only) and which it
//     dirties (halo copies invalidated after the run);
//   * per-rank argument bindings: every DistArg resolved to a typed opv::Arg
//     on the rank's replica; globals bound to pinned per-rank scratch;
//   * one opv::Loop per rank, so the per-rank conflict analysis, coloring
//     plan and stats slot are pinned too.
// Steady-state run() therefore performs no per-call derivation, prep or
// lookup: refresh dirty halos, wake the rank pool, merge globals, flip dirty
// bits. run() also records each rank's wall time (max/min/mean accumulated
// in the loop's stats slot) so partition imbalance is visible (paper
// section 6; perf::rank_imbalance), plus the exchange wall time and value
// count (the section 6.5 communication share).
//
// Phased execution (paper section 6.5): each rank numbers its owned
// elements core-first (halo.hpp), so the INTERIOR phase — elements no map
// takes to a halo slot, safe to execute while an exchange is in flight —
// is the range [0, ncore), and the BOUNDARY phase (may read or write halo
// slots — must wait) is [ncore, exec_limit()), which includes the execute
// halo of INC loops. Construction pins one opv::Loop::Slice per phase per
// rank. Under ExchangeMode::Overlap (the default) run() does
//   begin_exchange -> interior slices | wait_exchange -> boundary slices
// with the wait running on the driver thread while the ranks compute the
// interior, hiding exchange latency behind the halo-independent majority
// of the work; ExchangeMode::Phased runs the same slices after a blocking
// exchange (bitwise-identical results, no overlap — the measurement
// control), and loops that cannot legally overlap (nothing to exchange, or
// a dat both read stale and written, whose owner values the in-flight
// transport could observe mid-write) automatically fall back to the
// Blocking contiguous path. On Seq all three run each rank's elements in
// the same order.
#pragma once

#include "dist/context.hpp"

#include <algorithm>
#include <cstdint>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

namespace opv::dist {

namespace detail {

/// The opv argument type a DistArg resolves to on each rank. The
/// compile-time Dim carries straight through, so every rank's engine loop
/// gets the same fully-unrolled gather/scatter instantiations a local
/// opv::Loop would.
template <class DA>
struct rank_arg;
template <class T, AccessMode A, int Dim, bool Ind>
struct rank_arg<DistArgDat<T, A, Dim, Ind>> {
  using type = opv::Arg<T, A, Dim, Ind>;
};
template <class T, AccessMode A>
struct rank_arg<DistArgGbl<T, A>> {
  using type = opv::ArgGbl<T, A>;
};
template <class DA>
using rank_arg_t = typename rank_arg<DA>::type;

/// Pinned per-argument state: dat args need none (they are bound into the
/// rank loops); globals get per-rank scratch merged after the rank barrier.
struct NoPin {};
template <class T, AccessMode A>
struct GblPin {
  T* target = nullptr;
  int dim = 0;
  aligned_vector<T> buf;  ///< nranks * dim, pinned for the Loop's lifetime
};
template <class DA>
struct pin {
  using type = NoPin;
};
template <class T, AccessMode A>
struct pin<DistArgGbl<T, A>> {
  using type = GblPin<T, A>;
};
template <class DA>
using pin_t = typename pin<DA>::type;

// Same conflict rule the core engine's arg_traits uses for coloring:
// keeping them on one predicate keeps halo execution and plan coloring
// in agreement.
template <class... DA>
inline constexpr bool dist_has_inc_v =
    ((!DA::is_gbl && DA::indirect && access_conflicting(DA::access)) || ...);

}  // namespace detail

/// A distributed parallel loop bound to its kernel, iteration set and typed
/// rank-addressable arguments.
///
///   dist::Loop loop(ctx, ResCalc<double>{consts}, "res_calc", edges, args...);
///   for (int it = 0; it < 1000; ++it) loop.run();
///
/// Construction finalizes the context (first use partitions the mesh) and
/// pins the exchange plan, the per-rank bindings and one opv::Loop per rank.
/// Global argument pointers are captured at construction and must outlive
/// the Loop.
template <class Kernel, class... DArgs>
class Loop {
 public:
  static constexpr bool has_inc = detail::dist_has_inc_v<DArgs...>;
  static constexpr bool has_gbl_reduction =
      ((DArgs::is_gbl && DArgs::access != AccessMode::READ) || ...);
  using RankLoop = opv::Loop<Kernel, detail::rank_arg_t<DArgs>...>;

  Loop(DistCtx& ctx, Kernel kernel, std::string name, DistCtx::SetHandle set, DArgs... dargs)
      : ctx_(&ctx), name_(std::move(name)), set_(set) {
    ctx.finalize();
    global_size_ = ctx.spec_.sets[set].size;
    (validate(dargs), ...);
    (collect_read(dargs), ...);
    (collect_write(dargs), ...);
    setup_pins(std::index_sequence_for<DArgs...>{}, dargs...);
    rank_secs_.assign(static_cast<std::size_t>(ctx.nranks_), 0.0);
    rank_loops_.reserve(static_cast<std::size_t>(ctx.nranks_));
    for (int r = 0; r < ctx.nranks_; ++r)
      build_rank_loop(r, kernel, std::index_sequence_for<DArgs...>{}, dargs...);
    build_phases();
  }

  /// Execute under the given per-rank configuration. The exchange schedule
  /// follows the context's ExchangeMode; loops whose plan cannot legally
  /// overlap always take the Blocking path.
  void run(const ExecConfig& cfg) {
    DistCtx& ctx = *ctx_;
    const ExchangeMode mode = effective_mode();

    std::apply([&](auto&... p) { (reset_pin(p), ...); }, pins_);
    ExecConfig rank_cfg = cfg;
    rank_cfg.collect_stats = false;  // this layer records loop stats itself

    double secs = 0.0;       // compute wall time (both phases)
    double exch_secs = 0.0;  // exchange wall time (begin + wait, or blocking)
    std::int64_t exchanged = 0;

    // Once a rank has computed, the write dats' halo copies are stale on
    // every exit, a failed one included.
    bool computed = false;
    auto run_ranks = [&](std::vector<typename RankLoop::Slice>* slices, auto&& task) {
      computed = true;
      WallTimer timer;
      ctx.pool_.run(
          [&](int r) {
            const std::size_t i = static_cast<std::size_t>(r);
            WallTimer rt;
            if (slices) rank_loops_[i].run_slice(rank_cfg, (*slices)[i]);
            else rank_loops_[i].run(rank_cfg);
            rank_secs_[i] += rt.seconds();
          },
          task);
      secs += timer.seconds();
    };
    std::fill(rank_secs_.begin(), rank_secs_.end(), 0.0);

    // Under Overlap the exchanges begun below are completed exactly once,
    // by wait_pending (which waits for every pending dat, even after a
    // failure) — on the success path while the ranks run the interior.
    bool waited = mode != ExchangeMode::Overlap;
    auto wait_pending = [&] {
      waited = true;
      WallTimer wt;
      exchanged = ctx.wait_halos(pending_);
      exch_secs += wt.seconds();
    };
    try {
      if (mode == ExchangeMode::Blocking) {
        // Lazy blocking halo refresh of the pinned stale-read set, then one
        // contiguous run of the pinned per-rank loops.
        WallTimer ht;
        exchanged = ctx.refresh_halos(plan_.read_dats);
        exch_secs = ht.seconds();
        run_ranks(nullptr, [] {});
      } else {
        // 1. Start (Overlap) or complete (Phased) the refresh of dirty
        //    stale-read dats.
        pending_.clear();
        WallTimer ht;
        if (mode == ExchangeMode::Overlap) ctx.begin_halos(plan_.read_dats, pending_);
        else exchanged = ctx.refresh_halos(plan_.read_dats);
        exch_secs += ht.seconds();
        // 2. Interior elements touch no halo slot, so they run while the
        //    driver thread completes the exchange: every begin is matched
        //    by exactly one wait before any boundary element (which may
        //    read halo slots) executes.
        run_ranks(&interior_slices_, [&] {
          if (!waited) wait_pending();
        });
        // 3. Boundary elements (plus the execute halo for INC loops).
        run_ranks(&boundary_slices_, [] {});
      }
    } catch (...) {
      // No exchange outlives the run that began it: the transport could
      // still be writing halo slots, and its next begin() for the dat would
      // find the previous one unmatched. The first error wins.
      if (!waited) {
        try {
          wait_pending();
        } catch (...) {
        }
      }
      if (computed) ctx.mark_dirty(plan_.write_dats);
      throw;
    }
    std::apply([&](auto&... p) { (merge_pin(p), ...); }, pins_);

    // Modified datasets now have stale halo copies everywhere.
    ctx.mark_dirty(plan_.write_dats);

    if (cfg.collect_stats) {
      auto& reg = StatsRegistry::instance();
      if (!stats_) stats_ = &reg.slot(name_);
      reg.record(*stats_, secs, global_size_);
      reg.record_ranks(*stats_, rank_secs_.data(), static_cast<int>(rank_secs_.size()));
      if (exchanged > 0) {
        reg.record_exchange(*stats_, exch_secs, exchanged);
        if (!halo_stats_) halo_stats_ = &reg.slot(name_ + "/halo");
        reg.record(*halo_stats_, exch_secs, exchanged);
      }
      // Plan acquisition happens inside the rank loops (full and subset
      // plans alike); flush the freshly accumulated share into this loop's
      // plan column. Safe to read here: the rank pool has joined.
      double plan_total = 0.0;
      for (const RankLoop& rl : rank_loops_) plan_total += rl.plan_build_seconds();
      if (plan_total > plan_secs_reported_) {
        reg.record_plan(*stats_, plan_total - plan_secs_reported_);
        plan_secs_reported_ = plan_total;
      }
    }
  }

  /// Execute under the context's CURRENT configuration (mutations through
  /// DistCtx::config() take effect, as they always did for DistCtx::loop).
  void run() { run(ctx_->cfg_); }

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] int nranks() const { return static_cast<int>(rank_loops_.size()); }

  /// The pinned halo-exchange schedule — one object for the Loop's lifetime
  /// (tests verify pinning through its address and contents).
  [[nodiscard]] const ExchangePlan& exchange_plan() const { return plan_; }

  /// The schedule the next run() will actually use: the context's
  /// ExchangeMode, demoted to Blocking when the plan cannot legally
  /// overlap.
  [[nodiscard]] ExchangeMode effective_mode() const {
    return plan_.can_overlap ? ctx_->exchange_mode() : ExchangeMode::Blocking;
  }

  /// Fraction of owned elements (across all ranks) in the interior, i.e.
  /// sum(ncore) / sum(nowned) — the share of work available to hide the
  /// exchange behind (0 when the loop is not phased).
  [[nodiscard]] double interior_fraction() const {
    if (!plan_.can_overlap) return 0.0;
    double interior = 0.0, owned = 0.0;
    for (int r = 0; r < ctx_->nranks_; ++r) {
      const LocalLayout& L = ctx_->part_->layout(r, set_);
      interior += static_cast<double>(L.ncore);
      owned += static_cast<double>(L.nowned);
    }
    return owned > 0.0 ? interior / owned : 0.0;
  }

  /// The pinned per-rank engine handle (exposes the rank's coloring plan).
  [[nodiscard]] RankLoop& rank_loop(int r) {
    return rank_loops_[static_cast<std::size_t>(r)];
  }

  /// Per-rank wall seconds of the most recent run().
  [[nodiscard]] const std::vector<double>& rank_seconds() const { return rank_secs_; }

 private:
  // ---- construction-time derivation ----------------------------------------

  template <class T, AccessMode A, int Dim, bool Ind>
  void validate(const DistArgDat<T, A, Dim, Ind>& a) const {
    const GlobalSpec& spec = ctx_->spec_;
    if constexpr (Ind) {
      OPV_REQUIRE(spec.maps[a.map].from == set_,
                  "dist::Loop '" << name_ << "': map '" << spec.maps[a.map].name
                                 << "' is not from the iteration set '" << spec.sets[set_].name
                                 << "'");
    } else {
      OPV_REQUIRE(ctx_->dats_[a.dat]->set == set_,
                  "dist::Loop '" << name_ << "': direct dat '" << ctx_->dats_[a.dat]->name
                                 << "' does not live on the iteration set '"
                                 << spec.sets[set_].name << "'");
    }
  }
  template <class T, AccessMode A>
  void validate(const DistArgGbl<T, A>&) const {}

  /// Which datasets must have fresh halos before this loop: indirect reads
  /// always; direct reads too when the loop redundantly executes the halo
  /// (the kernel then consumes halo-element data to build owned increments).
  template <class DA>
  void collect_read(const DA& a) {
    if constexpr (!DA::is_gbl) {
      constexpr AccessMode A = DA::access;
      if constexpr (DA::indirect ? access_reads(A)
                                 : (has_inc && (access_reads(A) || A == AccessMode::INC))) {
        if (std::find(plan_.read_dats.begin(), plan_.read_dats.end(), a.dat) ==
            plan_.read_dats.end())
          plan_.read_dats.push_back(a.dat);
      }
    }
  }

  template <class DA>
  void collect_write(const DA& a) {
    if constexpr (!DA::is_gbl && access_writes(DA::access)) {
      if (std::find(plan_.write_dats.begin(), plan_.write_dats.end(), a.dat) ==
          plan_.write_dats.end())
        plan_.write_dats.push_back(a.dat);
    }
  }

  /// Pin the interior/boundary phases (paper section 6.5) as range slices:
  /// the core [0, ncore) reaches no halo slot through any map from the
  /// iteration set, so it can run while the exchange is in flight;
  /// [ncore, exec_limit()) is the boundary. Loops with nothing to exchange
  /// or with a dat both read stale and written stay unphased.
  void build_phases() {
    bool disjoint = true;
    for (int d : plan_.read_dats)
      disjoint &= std::find(plan_.write_dats.begin(), plan_.write_dats.end(), d) ==
                  plan_.write_dats.end();
    // has_inc + global reduction stays unphased: the blocking path's
    // per-rank engine guard (exec_size == size) is what correctly rejects
    // halo-executed reductions, which would double-count across ranks.
    plan_.can_overlap =
        !plan_.read_dats.empty() && disjoint && !(has_inc && has_gbl_reduction);
    if (!plan_.can_overlap) return;

    for (int r = 0; r < ctx_->nranks_; ++r) {
      RankLoop& rl = rank_loops_[static_cast<std::size_t>(r)];
      const idx_t ncore = ctx_->part_->layout(r, set_).ncore;
      interior_slices_.push_back(rl.make_slice(0, ncore));
      boundary_slices_.push_back(rl.make_slice(ncore, rl.exec_limit()));
    }
  }

  template <std::size_t... Is>
  void setup_pins(std::index_sequence<Is...>, const DArgs&... dargs) {
    (setup_pin(std::get<Is>(pins_), dargs), ...);
  }
  template <class T, AccessMode A, int Dim, bool Ind>
  void setup_pin(detail::NoPin&, const DistArgDat<T, A, Dim, Ind>&) {}
  template <class T, AccessMode A>
  void setup_pin(detail::GblPin<T, A>& g, const DistArgGbl<T, A>& a) {
    g.target = a.ptr;
    g.dim = a.dim;
    g.buf.assign(static_cast<std::size_t>(ctx_->nranks_) * a.dim, T{});
  }

  template <std::size_t... Is>
  void build_rank_loop(int r, const Kernel& kernel, std::index_sequence<Is...>,
                       const DArgs&... dargs) {
    rank_loops_.emplace_back(kernel, name_, ctx_->part_->set(r, set_),
                             bind_rank(r, dargs, std::get<Is>(pins_))...);
  }
  template <class T, AccessMode A, int Dim, bool Ind>
  auto bind_rank(int r, const DistArgDat<T, A, Dim, Ind>& a, detail::NoPin&) {
    Dat<T>& d = ctx_->template entry<T>(a.dat).rank[static_cast<std::size_t>(r)];
    if constexpr (Ind) return opv::arg<A, Dim>(d, a.idx, ctx_->part_->map(r, a.map));
    else return opv::arg<A, Dim>(d);
  }
  template <class T, AccessMode A>
  auto bind_rank(int r, const DistArgGbl<T, A>& a, detail::GblPin<T, A>& g) {
    return opv::arg_gbl<A>(g.buf.data() + static_cast<std::size_t>(r) * a.dim, a.dim);
  }

  // ---- per-run global scratch ----------------------------------------------

  void reset_pin(detail::NoPin&) {}
  template <class T, AccessMode A>
  void reset_pin(detail::GblPin<T, A>& g) {
    for (int r = 0; r < ctx_->nranks_; ++r)
      for (int c = 0; c < g.dim; ++c) {
        T& v = g.buf[static_cast<std::size_t>(r) * g.dim + c];
        if constexpr (A == AccessMode::READ) v = g.target[c];
        else v = reduction_identity<A, T>();
      }
  }

  void merge_pin(detail::NoPin&) {}
  template <class T, AccessMode A>
  void merge_pin(detail::GblPin<T, A>& g) {
    if constexpr (A != AccessMode::READ)
      for (int r = 0; r < ctx_->nranks_; ++r)
        for (int c = 0; c < g.dim; ++c)
          g.target[c] =
              reduction_combine<A>(g.target[c], g.buf[static_cast<std::size_t>(r) * g.dim + c]);
  }

  DistCtx* ctx_;
  std::string name_;
  DistCtx::SetHandle set_;
  idx_t global_size_ = 0;
  ExchangePlan plan_;
  std::tuple<detail::pin_t<DArgs>...> pins_;
  std::vector<RankLoop> rank_loops_;
  /// Per-rank pinned phase schedules (empty unless plan_.can_overlap).
  std::vector<typename RankLoop::Slice> interior_slices_;
  std::vector<typename RankLoop::Slice> boundary_slices_;
  std::vector<int> pending_;  ///< dats with an exchange in flight (reused)
  std::vector<double> rank_secs_;
  LoopRecord* stats_ = nullptr;
  LoopRecord* halo_stats_ = nullptr;
  double plan_secs_reported_ = 0.0;  ///< rank-loop plan share already flushed
};

template <class Kernel, class... DArgs>
Loop(DistCtx&, Kernel, std::string, DistCtx::SetHandle, DArgs...) -> Loop<Kernel, DArgs...>;

// ---- the one-shot wrapper ---------------------------------------------------

/// Mirrors opv::par_loop over opv::Loop: identical call shape, throwaway
/// handle. The nranks engine handles are built serially on the caller
/// thread, and phased loops on multi-thread teams additionally rebuild
/// their per-rank range plans (deliberately uncached — they are handle
/// state, so the wrapper stays bitwise-identical to handle construction +
/// run). This path's per-call overhead grows with the rank
/// count; steady-state iteration should construct the Loop once (the
/// dispatch ablation bench measures the gap).
template <class Kernel, class... DArgs>
void DistCtx::loop(Kernel kernel, const char* name, SetHandle set, DArgs... dargs) {
  Loop<Kernel, DArgs...> l(*this, std::move(kernel), name, set, dargs...);
  l.run();
}

/// The persistent-handle factory shared with LocalCtx::make_loop: a driver
/// templated over the context concept builds its handles once through
/// `ctx.make_loop(...)` and runs them every timestep, on either context.
template <class Kernel, class... DArgs>
Loop<Kernel, DArgs...> DistCtx::make_loop(Kernel kernel, const char* name, SetHandle set,
                                          DArgs... dargs) {
  return Loop<Kernel, DArgs...>(*this, std::move(kernel), name, set, dargs...);
}

}  // namespace opv::dist
