// opv::LoopChain: cross-loop sparse tiling (loop fusion) over persistent
// Loop handles — the locality optimization one level above PR 5's mesh
// renumbering. Every timestep of the mini-apps runs a fixed chain of loops
// and each loop streams the whole mesh through cache before the next starts;
// fusing the chain into cache-sized tiles executed across ALL loops keeps a
// tile's data resident for the whole chain (Luporini et al. arXiv:1708.03183,
// Sulyok et al. arXiv:1802.03749 — the sparse-tiling inspector/executor
// model; see docs/ARCHITECTURE.md "Cross-loop sparse tiling").
//
// Inspector (plan, built once per tile size and pinned):
//   1. Dependence segmentation. The chain's cross-loop dependence graph is
//      derived from each member's pinned LoopFootprint. Loops the planner
//      cannot tile safely (indirect RW arguments), and points where a loop
//      READS a global an earlier in-segment loop reduces into, split the
//      chain into segments; segments of >= 2 loops fuse, the rest fall back
//      to plain run() (effective_fused() reports the split).
//   2. Tile assignment. Tiles seed as contiguous ranges of the FIRST
//      loop's iteration set (ExecConfig::chain_tile_elems; kAuto = cache
//      budget + online tuning). Each subsequent loop's elements join the
//      highest tile that last touched any datum they access (the "last
//      toucher" label propagated through the maps), clamped to be monotone
//      non-decreasing in element order. Monotonicity makes every (tile,
//      loop) subset a contiguous ascending range, so serial tile execution
//      replays each loop's exact sequential element order — chained Seq
//      execution is bitwise-identical to unchained, indirect increments
//      included.
//
// Executor (chain.run(cfg)): for each segment, either plain run() per loop
// (unfused) or tile waves: for tile t, run every member loop's subset
// back-to-back. Each (tile, member) subset is a pinned Loop::Slice over its
// contiguous range, on every backend: it runs under the schedule run()
// would pick, and a conflicted member's range plan is built once — there
// the per-tile color order reassociates increment sums exactly like run()'s
// coloring does (the documented reassociation carve-out).
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/footprint.hpp"
#include "core/par_loop.hpp"
#include "perf/tuner.hpp"

namespace opv {

namespace chain_detail {

/// One member loop, type-erased for the planner: its footprint and the
/// element count run() would cover.
struct LoopSpec {
  const LoopFootprint* fp = nullptr;
  idx_t n = 0;
};

/// One maximal fusible (or deliberately unfused) run of chain members.
struct Segment {
  int begin = 0, end = 0;  ///< member index range [begin, end)
  bool fused = false;
  int ntiles = 0;
  /// Per member loop (index l - begin), ntiles+1 ascending offsets: tile t
  /// of that loop is the contiguous element range [off[t], off[t+1]).
  std::vector<std::vector<idx_t>> offsets;
};

/// The pinned chain plan: segmentation plus per-segment tile offsets.
struct ChainPlan {
  idx_t tile_elems = 0;
  std::vector<Segment> segments;
  int ntiles = 0;       ///< total tiles across fused segments
  int fused_loops = 0;  ///< members executing through tiled subsets
};

/// Dependence segmentation only (step 1 of the inspector).
std::vector<Segment> segment_chain(const std::vector<LoopSpec>& specs);

/// The full inspector: segmentation + monotone contiguous tile assignment.
ChainPlan plan_chain(const std::vector<LoopSpec>& specs, idx_t tile_elems);

/// kAuto seed-tile candidates: the chain's distinct-dat bytes per seed
/// element against a cache budget (per-core L2 by preference — the LLC is
/// shared), bracketed for the online tuner (multiples of 16, ascending,
/// deduplicated).
std::vector<int> tile_candidates(const std::vector<LoopSpec>& specs);

}  // namespace chain_detail

/// A handle over an ordered list of existing persistent Loop handles
/// (opv::Loop, or the LocalCtx::make_loop handles derived from it),
/// executing them as one fused sparse-tiled chain:
///
///   LoopChain chain("airfoil_step", save, adt, ...);
///   for (int it = 0; it < n; ++it) chain.run(cfg);
///
/// The chain only REFERENCES its members (they must outlive it) and owns
/// its tiling — the same Loop can belong to several chains and still be
/// run() standalone. Members must form a host-code-free sequence: any host
/// work between two loops (resetting a reduction target, reading one back)
/// belongs before or after the chain, or at a chain boundary.
class LoopChain {
 public:
  explicit LoopChain(std::string name) : name_(std::move(name)) {}

  template <class... Loops>
  explicit LoopChain(std::string name, Loops&... loops) : name_(std::move(name)) {
    (add(loops), ...);
  }

  LoopChain(LoopChain&&) = default;
  LoopChain& operator=(LoopChain&&) = default;

  /// Append a member loop (chain order = execution order).
  template <class Kernel, class... Args>
  void add(Loop<Kernel, Args...>& loop) {
    nodes_.push_back(std::make_unique<NodeImpl<Loop<Kernel, Args...>>>(&loop));
    plan_.reset();  // membership changed: re-plan on next run
  }

  /// Execute the whole chain under cfg. The first run (per tile size)
  /// builds and pins the plan; steady-state runs do zero planning.
  void run(const ExecConfig& cfg);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] int size() const { return static_cast<int>(nodes_.size()); }
  [[nodiscard]] std::vector<std::string> members() const;

  /// Members executing through tiled subsets under the pinned plan (the
  /// rest fall back to plain run()); 0 before the first run.
  [[nodiscard]] int effective_fused() const { return plan_ ? plan_->fused_loops : 0; }
  /// Total tiles across fused segments under the pinned plan.
  [[nodiscard]] int ntiles() const { return plan_ ? plan_->ntiles : 0; }
  /// The pinned seed-tile size (0 before the first run).
  [[nodiscard]] idx_t tile_elems() const { return plan_ ? plan_->tile_elems : 0; }
  /// How many times the inspector ran (plan pinning: stays at 1 across
  /// steady-state runs with an explicit tile size).
  [[nodiscard]] int plans_built() const { return plans_built_; }
  /// Wall seconds spent in the inspector (tile assignment) so far.
  [[nodiscard]] double plan_build_seconds() const { return plan_secs_; }
  /// The pinned plan (nullptr before the first run) — test introspection.
  [[nodiscard]] const chain_detail::ChainPlan* plan() const { return plan_.get(); }

 private:
  /// Type-erased member: the virtual surface the untemplated executor in
  /// chain.cpp drives. Each chain owns its member slices (pinned per (tile,
  /// loop)); the underlying Loop is only referenced.
  struct Node {
    virtual ~Node() = default;
    [[nodiscard]] virtual const LoopFootprint& footprint() const = 0;
    [[nodiscard]] virtual const std::string& loop_name() const = 0;
    [[nodiscard]] virtual idx_t iter_count() const = 0;  ///< run()'s element count
    virtual void run_full(const ExecConfig& cfg) = 0;    ///< plain Loop::run
    /// Pin one slice per tile: tile t is [off[t], off[t+1]) (replacing
    /// previously pinned slices).
    virtual void set_tiles(const std::vector<idx_t>& off) = 0;
    /// Execute tile t's pinned slice.
    virtual void run_tile(const ExecConfig& cfg, int t) = 0;
    /// Unflushed plan-acquisition seconds of the underlying loop.
    [[nodiscard]] virtual double take_fresh_plan_seconds() = 0;
  };

  template <class L>
  struct NodeImpl final : Node {
    explicit NodeImpl(L* l) : loop(l) {}
    L* loop;
    std::vector<typename L::Slice> slices;  ///< one per tile

    [[nodiscard]] const LoopFootprint& footprint() const override { return loop->footprint(); }
    [[nodiscard]] const std::string& loop_name() const override { return loop->name(); }
    [[nodiscard]] idx_t iter_count() const override { return loop->exec_limit(); }
    void run_full(const ExecConfig& cfg) override { loop->run(cfg); }
    void set_tiles(const std::vector<idx_t>& off) override {
      slices.clear();
      for (std::size_t t = 0; t + 1 < off.size(); ++t)
        slices.push_back(loop->make_slice(off[t], off[t + 1]));
    }
    void run_tile(const ExecConfig& cfg, int t) override {
      loop->run_slice(cfg, slices[static_cast<std::size_t>(t)]);
    }
    [[nodiscard]] double take_fresh_plan_seconds() override {
      return loop->fresh_plan_seconds();
    }
  };

  /// Resolve the seed-tile size for the next run (explicit or tuner) and
  /// (re)build the pinned plan if it changed.
  idx_t resolve_tile_elems(const ExecConfig& cfg);
  void materialize(idx_t tile_elems);

  std::string name_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::unique_ptr<chain_detail::ChainPlan> plan_;
  std::unique_ptr<perf::OnlineTuner> tuner_;
  int plans_built_ = 0;
  double plan_secs_ = 0.0;
  double plan_secs_reported_ = 0.0;         ///< share already flushed to stats
  ChainRecord* stats_ = nullptr;            ///< bound on first recording run
  std::vector<LoopRecord*> member_slots_;   ///< bound alongside stats_
};

}  // namespace opv
