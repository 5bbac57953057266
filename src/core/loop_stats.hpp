// Per-loop timing registry: accumulates wall time and element counts for
// every named op_par_loop so benches can report the paper's per-kernel
// time / bandwidth / GFLOP-s breakdowns (Tables V-VIII).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/timer.hpp"

namespace opv {

struct LoopRecord {
  double seconds = 0.0;
  std::int64_t calls = 0;
  std::int64_t elements = 0;  ///< total elements processed across calls

  // Per-rank imbalance accounting (distributed loops; nranks == 0 until a
  // dist::Loop records rank times). Each field accumulates its per-call
  // statistic, so rank_max_seconds / rank_mean_seconds is the aggregate
  // max/mean imbalance ratio over the whole run (paper section 6).
  int nranks = 0;
  double rank_max_seconds = 0.0;   ///< sum over calls of the slowest rank
  double rank_min_seconds = 0.0;   ///< sum over calls of the fastest rank
  double rank_mean_seconds = 0.0;  ///< sum over calls of the rank mean

  // Halo-exchange accounting (distributed loops; paper section 6.5): wall
  // time spent moving halo bytes for this loop (begin+wait of the
  // non-blocking pair, or the blocking exchange) and the number of scalar
  // values moved. Both accumulate across calls; `seconds` above is compute
  // only, so exchange_seconds / (seconds + exchange_seconds) is the loop's
  // communication fraction.
  double exchange_seconds = 0.0;
  std::int64_t exchanged_values = 0;

  // Plan-construction accounting (the run-time pre-processing cost the
  // ROADMAP names): wall time this loop spent acquiring coloring plans
  // (cache lookups plus the builds they trigger, including per-slice subset
  // plans). Amortizes toward zero over a long run — the `plan` column in
  // perf::loop_stats_table makes the remaining share visible.
  double plan_seconds = 0.0;

  // Memory-layout tag (core/layout.hpp): the layouts of the dats the loop's
  // arguments bound at its last run, e.g. "SoA" when uniform or "AoS+SoA"
  // when mixed; empty until a loop stamps it. Surfaces as the `layout`
  // column in perf::loop_stats_table so ablation runs show which physical
  // layout each kernel actually executed against.
  std::string layout;
};

/// Aggregate accounting for one LoopChain (core/chain.hpp): total chained
/// wall time plus the chain-level plan (inspector) cost and tiling shape.
/// Member loops still record their own LoopRecord rows; perf::
/// loop_stats_table groups them under the chain row via `members`.
struct ChainRecord {
  double seconds = 0.0;       ///< total chained execution wall time
  std::int64_t calls = 0;     ///< chain.run() invocations
  int tiles = 0;              ///< tiles under the pinned plan (last run)
  int fused_loops = 0;        ///< members executing tiled (last run)
  int member_loops = 0;       ///< chain size (last run)
  double plan_seconds = 0.0;  ///< inspector (tile assignment) wall time
  std::vector<std::string> members;  ///< member loop names, chain order
};

/// Aggregate accounting for one serve::Ensemble run (serve/ensemble.hpp):
/// scheduler wall time, work throughput and the shared-resource statistics
/// (pool occupancy, cross-instance plan-cache traffic) that motivate
/// running N instances in one process at all.
struct EnsembleRecord {
  double seconds = 0.0;            ///< total run() wall time
  std::int64_t runs = 0;           ///< Ensemble::run() invocations
  std::int64_t steps = 0;          ///< instance timesteps executed
  std::int64_t completed = 0;      ///< instances that finished all steps
  std::int64_t failed = 0;         ///< instances retired by an exception
  int instances = 0;               ///< ensemble size (last run)
  int workers = 0;                 ///< pool size (last run)
  double busy_seconds = 0.0;       ///< summed per-worker stepping time
  std::int64_t plan_hits = 0;      ///< PlanCache hits during run()
  std::int64_t plan_misses = 0;    ///< PlanCache builds during run()

  // Resilience accounting (serve/resilience.hpp): checkpoint-restore-retry
  // activity under a HealthPolicy. All zero for an ensemble running without
  // a policy, so the stats table shows its resilience row only when the
  // recovery machinery actually engaged.
  std::int64_t retries = 0;            ///< recovery attempts (restore + re-run)
  std::int64_t restores = 0;           ///< successful checkpoint restores
  std::int64_t degraded = 0;           ///< degrade() hook invocations
  std::int64_t checkpoints = 0;        ///< checkpoints taken during run()
  double checkpoint_seconds = 0.0;     ///< wall time spent snapshotting
  double backoff_seconds = 0.0;        ///< wall time slept backing off
  [[nodiscard]] bool any_resilience() const {
    return retries + restores + degraded + checkpoints != 0;
  }
};

class StatsRegistry {
 public:
  static StatsRegistry& instance();

  /// Stable accumulator slot for a loop name. The reference stays valid for
  /// the process lifetime (clear() zeroes records, it does not erase them),
  /// so Loop handles resolve their slot once at construction and record with
  /// no per-call name lookup.
  ///
  /// Under an active StatsScope (below) the name is prefixed with
  /// "<scope>/" before lookup — the per-instance isolation mechanism:
  /// ensemble instances run their loops under distinct scopes, so N
  /// instances of one app record into N distinct rows instead of blurring
  /// into one.
  [[nodiscard]] LoopRecord& slot(const std::string& loop);

  /// Accumulate into a slot obtained from slot() (thread-safe).
  void record(LoopRecord& slot, double seconds, std::int64_t elements);

  /// Accumulate one distributed call's per-rank wall times into a slot:
  /// max/min/mean are summed across calls so max/mean exposes the aggregate
  /// partition imbalance (perf::rank_imbalance).
  void record_ranks(LoopRecord& slot, const double* seconds, int nranks);

  /// Accumulate one distributed call's halo-exchange wall time and moved
  /// scalar-value count into a slot (perf::loop_stats_table's exchange
  /// column).
  void record_exchange(LoopRecord& slot, double seconds, std::int64_t values);

  /// Accumulate plan-acquisition wall time into a slot (perf::
  /// loop_stats_table's plan column).
  void record_plan(LoopRecord& slot, double seconds);

  [[nodiscard]] LoopRecord get(const std::string& loop) const;

  /// All records with at least one call, sorted by name.
  [[nodiscard]] std::vector<std::pair<std::string, LoopRecord>> all() const;

  /// Stable accumulator slot for a chain name (same lifetime contract as
  /// slot(): clear() zeroes, never erases).
  [[nodiscard]] ChainRecord& chain_slot(const std::string& chain);

  /// Accumulate one chain.run()'s wall time and record the tiling shape of
  /// the plan it executed under (thread-safe).
  void record_chain(ChainRecord& slot, double seconds, int tiles, int fused_loops,
                    int member_loops);

  /// Accumulate chain-level inspector wall time into a chain slot.
  void record_chain_plan(ChainRecord& slot, double seconds);

  /// Pin the chain's member loop names (chain order) on its slot, so the
  /// stats table can group member rows under the chain row.
  void set_chain_members(ChainRecord& slot, std::vector<std::string> members);

  [[nodiscard]] ChainRecord get_chain(const std::string& chain) const;

  /// All chain records with at least one call, sorted by name.
  [[nodiscard]] std::vector<std::pair<std::string, ChainRecord>> all_chains() const;

  /// Stable accumulator slot for an ensemble name (same lifetime contract
  /// as slot(): clear() zeroes, never erases).
  [[nodiscard]] EnsembleRecord& ensemble_slot(const std::string& ensemble);

  /// Accumulate one Ensemble::run()'s aggregate statistics (thread-safe).
  void record_ensemble(EnsembleRecord& slot, const EnsembleRecord& delta);

  [[nodiscard]] EnsembleRecord get_ensemble(const std::string& ensemble) const;

  /// All ensemble records with at least one run, sorted by name.
  [[nodiscard]] std::vector<std::pair<std::string, EnsembleRecord>> all_ensembles() const;

  /// Zero every record (loop, chain and ensemble). Slot references remain
  /// valid.
  void clear();

 private:
  struct Impl;
  Impl* impl_;
  StatsRegistry();
};

/// RAII stats scope: while alive on a thread, every slot()/chain_slot()
/// lookup on that thread resolves "<scope>/<name>" instead of "<name>".
/// Scopes nest by replacement (the inner scope's string wins until it
/// exits). The ensemble scheduler opens one around each instance's steps;
/// a Loop whose FIRST recording run happens inside the scope binds its
/// pinned stats slot to the scoped row, isolating per-instance stats even
/// though instances share one process-wide registry.
class StatsScope {
 public:
  explicit StatsScope(std::string scope);
  ~StatsScope();
  StatsScope(const StatsScope&) = delete;
  StatsScope& operator=(const StatsScope&) = delete;

  /// The scope active on the calling thread ("" when none).
  [[nodiscard]] static const std::string& current();

 private:
  std::string prev_;
};

}  // namespace opv
