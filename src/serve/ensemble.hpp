// opv::serve::Ensemble: a batch scheduler that owns N simulation instances
// and multiplexes their timesteps across one shared worker pool.
//
// The ROADMAP's ensemble-serving item: Volna's production use case is
// probabilistic hazard assessment — hundreds of scenario instances of one
// (often small) mesh, where no single instance can fill the machine but
// the ensemble can. Each instance is a user-built simulation (typically a
// LocalCtx plus pinned Loop/LoopChain handles, constructed by the caller's
// InstanceFactory) exposing exactly one operation: step(). The scheduler
// interleaves instances over a WorkQueue (common/worker_pool.hpp) so
// small-mesh steps batch together, while two invariants hold:
//
//   * Per-instance step ordering. An instance id is owned exclusively
//     between acquire() and release(); its steps execute strictly in
//     order (possibly on different workers across batches — the queue
//     mutex sequences the handoff), so results on the Seq backend are
//     bitwise-identical to running the instance alone.
//   * Fault isolation. An exception thrown by one instance's step()
//     retires that instance (error captured in the report) and never
//     propagates to siblings or the pool.
//
// What makes N-in-one-process better than N processes is the shared
// runtime state: instances built from the same mesh produce identical
// content keys in the PlanCache, so N instances pay for ONE coloring-plan
// build (the cache is single-flight — concurrent first-steps block on one
// build instead of racing). Per-instance stats stay separable through
// StatsScope: each instance's steps run under scope "<ensemble>/i<NNN>",
// so its loops bind scoped registry rows.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/worker_pool.hpp"
#include "core/loop_stats.hpp"
#include "core/snapshot.hpp"
#include "serve/resilience.hpp"

namespace opv::serve {

/// One simulation instance: anything that can advance by one timestep.
/// Implementations own their full simulation state (context, mesh data,
/// pinned loop handles). step() is called with exclusive ownership — never
/// concurrently for one instance — but different instances step
/// concurrently, so anything shared BETWEEN instances must be immutable or
/// thread-safe (a shared input mesh read at construction is fine).
class Instance {
 public:
  virtual ~Instance() = default;

  /// Advance the simulation by one timestep. Throwing retires this
  /// instance from the ensemble (captured in the report) — unless a
  /// HealthPolicy with recovery is active and the instance is
  /// Checkpointable, in which case the scheduler rolls it back and
  /// retries. Siblings continue either way.
  virtual void step() = 0;

  /// Health probe, called at HealthPolicy::check_every cadence with the
  /// same exclusive ownership as step(). Return false when the state has
  /// gone bad (the canonical implementation scans a state dat with
  /// opv::guard::check_finite); the scheduler treats it like a failed step.
  [[nodiscard]] virtual bool healthy() { return true; }
};

/// An Instance whose full state can be captured and re-installed — the
/// recoverable half of the resilience layer. The contract that makes
/// recovery (and kill-and-resume) bitwise-faithful on Seq:
/// restore(checkpoint()) followed by k steps must reproduce exactly the
/// state k steps from the checkpoint would have produced. That means the
/// checkpoint covers ALL evolving state — context dats via
/// LocalCtx::snapshot() plus app globals like the adaptive dt — while
/// derived schedule state (coloring plans, pinned loop handles) may be
/// reused or rebuilt freely (the content-keyed PlanCache makes rebuilds
/// hit the same plans).
class Checkpointable : public Instance {
 public:
  /// Capture the instance's full recoverable state.
  [[nodiscard]] virtual Checkpoint checkpoint() = 0;

  /// Re-install previously captured state. Throws opv::Error when the
  /// checkpoint does not match this instance's declarations.
  virtual void restore(const Checkpoint& c) = 0;

  /// Permanently reduce fidelity to survive (e.g. halve dt). Called by the
  /// scheduler right after a restore once HealthPolicy::degrade_after
  /// attempts have failed; `attempt` is the 1-based recovery attempt.
  /// NOTE: a degraded instance no longer reproduces the fault-free run
  /// bitwise — the default policy never degrades for exactly that reason.
  virtual void degrade(int attempt) { (void)attempt; }
};

/// Builds instance `id` (0-based). Called once per instance at
/// add_instances() time, on the caller's thread, under the instance's
/// stats scope (so loops that record during construction already land in
/// scoped rows).
using InstanceFactory = std::function<std::unique_ptr<Instance>(int id)>;

struct EnsembleOptions {
  std::string name = "ensemble";  ///< stats-registry key + scope prefix
  int workers = 0;                ///< pool size; 0 = hardware_threads()
  int batch_steps = 1;            ///< steps per queue grab (interleave grain)
  bool collect_stats = true;      ///< record an EnsembleRecord per run()
  HealthPolicy health;            ///< resilience regime (default: off)
};

/// Per-instance outcome of one Ensemble::run().
struct InstanceReport {
  int id = -1;
  std::string scope;            ///< "<ensemble>/i<NNN>"
  std::int64_t steps_done = 0;  ///< net steps executed in this run
  double seconds = 0.0;         ///< wall time spent stepping this instance
  std::string error;            ///< non-empty once the instance failed
  // Resilience accounting (zero without a HealthPolicy):
  std::int64_t attempts = 0;     ///< recovery attempts consumed in this run
  std::int64_t restores = 0;     ///< checkpoint restores in this run
  std::int64_t degraded = 0;     ///< degrade() invocations in this run
  std::int64_t checkpoints = 0;  ///< checkpoints taken in this run
  [[nodiscard]] bool failed() const { return !error.empty(); }
};

/// Aggregate outcome of one Ensemble::run().
struct EnsembleReport {
  double seconds = 0.0;          ///< run() wall time
  int workers = 0;               ///< pool size
  std::int64_t steps = 0;        ///< instance timesteps executed
  std::int64_t completed = 0;    ///< instances that finished all steps
  std::int64_t failed = 0;       ///< instances retired by an exception
  double busy_seconds = 0.0;     ///< summed per-worker stepping time
  std::int64_t plan_hits = 0;    ///< PlanCache hits during the run
  std::int64_t plan_misses = 0;  ///< PlanCache builds during the run
  // Resilience accounting (zero without a HealthPolicy):
  std::int64_t retries = 0;         ///< recovery attempts across instances
  std::int64_t restores = 0;        ///< checkpoint restores
  std::int64_t degraded = 0;        ///< degrade() invocations
  std::int64_t checkpoints = 0;     ///< checkpoints taken
  double checkpoint_seconds = 0.0;  ///< wall time spent snapshotting
  double backoff_seconds = 0.0;     ///< wall time slept backing off
  std::vector<InstanceReport> instances;

  /// Completed instances per wall second — the bench headline.
  [[nodiscard]] double instances_per_sec() const {
    return seconds > 0.0 ? static_cast<double>(completed) / seconds : 0.0;
  }
  /// Fraction of the pool's wall capacity spent stepping (1.0 = every
  /// worker busy for the whole run; low values mean the queue starved).
  [[nodiscard]] double occupancy() const {
    return seconds > 0.0 && workers > 0 ? busy_seconds / (seconds * workers) : 0.0;
  }
  /// Plan-cache hit fraction across the run (0 when no plan traffic).
  [[nodiscard]] double plan_hit_rate() const {
    const auto total = plan_hits + plan_misses;
    return total > 0 ? static_cast<double>(plan_hits) / static_cast<double>(total) : 0.0;
  }
};

/// The scheduler. Owns its instances and one WorkerPool; run(steps)
/// advances every live instance by `steps` timesteps, multiplexed over the
/// pool, and reports throughput + shared-resource statistics. run() may be
/// called repeatedly (e.g. stepping an ensemble in windows with host-side
/// output between); failed instances stay retired.
class Ensemble {
 public:
  explicit Ensemble(EnsembleOptions opts = {});
  ~Ensemble();
  Ensemble(const Ensemble&) = delete;
  Ensemble& operator=(const Ensemble&) = delete;

  /// Build and adopt one instance; returns its id.
  int add_instance(const InstanceFactory& factory);

  /// Build and adopt `n` instances (factory sees ids size()..size()+n-1).
  void add_instances(int n, const InstanceFactory& factory);

  [[nodiscard]] int size() const { return static_cast<int>(slots_.size()); }
  [[nodiscard]] int workers() const { return pool_.size(); }
  [[nodiscard]] const std::string& name() const { return opts_.name; }

  /// The instance's stats scope, "<ensemble>/i<NNN>" — the prefix its loop
  /// rows carry in StatsRegistry.
  [[nodiscard]] std::string scope_of(int id) const;

  /// Access an adopted instance (e.g. to fetch results after run()).
  [[nodiscard]] Instance& instance(int id);
  [[nodiscard]] const Instance& instance(int id) const;

  /// The error that retired instance `id` ("" while healthy).
  [[nodiscard]] const std::string& error_of(int id) const;

  /// Cumulative steps instance `id` has executed across run()/run_to()
  /// calls (and any restored progress) — the resume bookkeeping.
  [[nodiscard]] std::int64_t steps_done(int id) const;

  /// Advance every live instance by `steps` timesteps over the shared
  /// pool. Blocks until all instances complete or fail.
  EnsembleReport run(std::int64_t steps);

  /// Advance every live instance TO cumulative step `target` (instances
  /// already past it run zero steps) — the resume spelling: after
  /// restore(), run_to(total) finishes an interrupted sweep regardless of
  /// how far each instance had gotten.
  EnsembleReport run_to(std::int64_t target);

  /// Capture the whole ensemble (per-instance checkpoints + progress) for
  /// serialization to an OPVK file (mesh/io write_checkpoint). Requires
  /// every live instance to be Checkpointable; retired instances are
  /// recorded with their error and no state. `target_steps` is stored so a
  /// resuming driver knows the sweep's goal (0 = unknown).
  [[nodiscard]] EnsembleCheckpoint save(std::int64_t target_steps = 0);

  /// Re-install saved state into the matching instances of THIS ensemble
  /// (same ids; typically rebuilt by the same factories). Restored
  /// instances continue from their checkpointed progress on the next
  /// run_to(); retired instances stay retired.
  void restore(const EnsembleCheckpoint& chk);

 private:
  struct Slot {
    std::unique_ptr<Instance> inst;
    Checkpointable* chk_inst = nullptr;  ///< non-null iff inst is Checkpointable
    std::int64_t remaining = 0;   ///< steps left in the current run
    std::int64_t done_total = 0;  ///< cumulative steps across runs/restores
    std::string error;            ///< retired-by-exception marker

    // Recovery state (only touched while the id is owned):
    Checkpoint last_chk;           ///< most recent good checkpoint
    bool has_chk = false;
    std::int64_t chk_step = 0;     ///< done_total at last checkpoint
    std::uint64_t chk_window = 0;  ///< run window last_chk was refreshed in
    int attempts = 0;              ///< recovery attempts consumed (lifetime)
    double pending_backoff = 0.0;  ///< sleep owed before the next batch
  };

  /// Shared engine of run()/run_to(): drains every slot's `remaining`.
  EnsembleReport execute();
  void take_checkpoint(Slot& s, InstanceReport& ir);

  EnsembleOptions opts_;
  WorkerPool pool_;
  std::vector<Slot> slots_;
  std::uint64_t run_windows_ = 0;    ///< run()/run_to() invocations
  EnsembleRecord* stats_ = nullptr;  ///< bound on first recording run
};

}  // namespace opv::serve
