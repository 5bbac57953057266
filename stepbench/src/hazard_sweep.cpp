// hazard_sweep: ensemble serving. 12 Volna scenarios (float) share one
// 160x160 periodic triangle mesh (51,200 cells each); one worker steps them
// in batches of 4, each step on the scalar OpenMP path with 3 threads. The
// HealthPolicy checks finiteness every 10 steps and checkpoints every 50
// (plus the scheduler's baseline checkpoint at the start of each run
// window); recovery is armed so checkpoints are taken at all.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>

#include "apps/volna/hazard.hpp"
#include "common/rng.hpp"
#include "mesh/generators.hpp"
#include "serve/ensemble.hpp"
#include "workloads.hpp"

namespace stepbench {
namespace {

using opv::volna::HazardInstance;

constexpr opv::idx_t kMeshN = 160;
constexpr int kInstances = 12;
/// One worker whose instance steps run 3 OpenMP threads, rather than 3
/// workers of one Seq thread each: on the reference VM a single thread's
/// speed switches between two levels 1.45x apart for seconds to minutes at
/// a time (the host's load on its core, not visible as steal), so the
/// median of single-threaded steps spread 0.21-0.34 (interquartile range
/// over median) across runs, against 0.03-0.17 for 3-thread steps.
constexpr int kWorkers = 1;
constexpr int kInstanceThreads = 3;
constexpr int kBatch = 4;
/// Steps per Ensemble::run window, one measured block (about 2 s): equal to
/// the checkpoint cadence, so every window takes the scheduler's baseline
/// checkpoint and one cadence checkpoint, and short enough that a run holds
/// several blocks for the steal check to choose from.
constexpr int kWindowSteps = 50;
/// Relative volume drift an instance may show at the end of a run: float
/// state, a few thousand steps.
constexpr double kDriftBound = 1e-4;

/// Forwards the Checkpointable interface to a HazardInstance, timing every
/// step() for the step-time samples and, while the tracer is enabled,
/// tallying healthy() and checkpoint() calls. The scheduler owns an
/// instance exclusively during each call, so the tallies need no lock.
class TimedInstance final : public opv::serve::Checkpointable {
 public:
  TimedInstance(std::unique_ptr<HazardInstance> inner, int id, Tracer& tracer)
      : inner_(std::move(inner)), id_(id), tracer_(tracer) {}

  void step() override {
    ScopedSpan sp(tracer_, "step", step_id());
    inner_->step();
    step_ms.push_back(1e3 * sp.stop());
    step_end.push_back(tracer_.now());
    ++steps_;
  }

  [[nodiscard]] bool healthy() override {
    ScopedSpan sp(tracer_, "serve.health", step_id());
    const bool ok = inner_->healthy();
    if (tracer_.enabled()) health.add(sp.stop());
    return ok;
  }

  [[nodiscard]] opv::Checkpoint checkpoint() override {
    ScopedSpan sp(tracer_, "serve.checkpoint", step_id());
    opv::Checkpoint c = inner_->checkpoint();
    if (tracer_.enabled()) checkpoints.add(sp.stop());
    return c;
  }

  void restore(const opv::Checkpoint& c) override {
    ScopedSpan sp(tracer_, "serve.restore", step_id());
    inner_->restore(c);
  }

  void degrade(int attempt) override { inner_->degrade(attempt); }

  [[nodiscard]] HazardInstance& inner() { return *inner_; }

  struct Tally {
    double seconds = 0.0;
    std::int64_t calls = 0;
    void add(double s) {
      seconds += s;
      ++calls;
    }
  };
  std::vector<double> step_ms;   ///< drained by the driver thread between windows
  std::vector<double> step_end;  ///< Tracer::now() at each step's end, drained likewise
  Tally health, checkpoints;

 private:
  /// One id per instance step: instance in the high half, step in the low.
  [[nodiscard]] std::int64_t step_id() const {
    return (static_cast<std::int64_t>(id_) << 32) | steps_;
  }

  std::unique_ptr<HazardInstance> inner_;
  int id_;
  Tracer& tracer_;
  std::int64_t steps_ = 0;
};

/// The seed draws each scenario's amplitude and width from the ranges
/// volna::hazard_sweep fans over ([0.5, 1.5] x 0.25 and [0.8, 1.2] x 0.05).
std::vector<opv::volna::Scenario> draw_scenarios(std::uint64_t seed) {
  opv::Rng rng(seed);
  std::vector<opv::volna::Scenario> out(kInstances);
  for (auto& sc : out) {
    sc.amp = 0.25 * rng.uniform(0.5, 1.5);
    sc.width = 0.05 * rng.uniform(0.8, 1.2);
  }
  return out;
}

opv::ExecConfig instance_config(opv::Backend backend, int threads, bool stats) {
  opv::ExecConfig cfg;
  cfg.backend = backend;
  cfg.nthreads = threads;
  cfg.collect_stats = stats;
  return cfg;
}

struct System {
  std::unique_ptr<opv::serve::Ensemble> ensemble;
  std::vector<TimedInstance*> instances;  ///< owned by the ensemble
  double cells = 0.0;                     ///< per instance
};

System make_system(const opv::mesh::UnstructuredMesh& mesh,
                   const std::vector<opv::volna::Scenario>& scenarios, const std::string& name,
                   bool stats, Tracer& tr) {
  opv::serve::EnsembleOptions opts;
  opts.name = name;
  opts.workers = kWorkers;
  opts.batch_steps = kBatch;
  opts.collect_stats = stats;
  opts.health.checkpoint_every = 50;
  opts.health.check_every = 10;
  opts.health.retry.max_attempts = 2;
  System s;
  s.cells = static_cast<double>(mesh.ncells);
  s.ensemble = std::make_unique<opv::serve::Ensemble>(opts);
  const opv::ExecConfig cfg = instance_config(opv::Backend::OpenMP, kInstanceThreads, stats);
  s.ensemble->add_instances(kInstances, [&](int id) -> std::unique_ptr<opv::serve::Instance> {
    auto inst = std::make_unique<TimedInstance>(
        std::make_unique<HazardInstance>(mesh, scenarios[static_cast<std::size_t>(id)], cfg),
        id, tr);
    s.instances.push_back(inst.get());
    return inst;
  });
  return s;
}

/// Everything the scheduler reported over a set of run windows.
struct ServeTally {
  double wall = 0.0, busy = 0.0;
  std::int64_t steps = 0, failed = 0, retries = 0, checkpoints = 0;
};

/// One Ensemble::run window; its instance steps land in `w`, and so do the
/// throughputs of its 0.1 s sub-windows, taken from the steps' end times
/// (the one worker runs the steps one after another, with the window's
/// checkpoints and health checks between them).
void run_window(System& s, int steps, Window& w, ServeTally& t, Tracer& tr) {
  ScopedSpan sp(tr, "ensemble.run");
  const double start = tr.now();
  const opv::serve::EnsembleReport rep = s.ensemble->run(steps);
  sp.stop();
  std::vector<double> ends;
  for (TimedInstance* inst : s.instances) {
    w.step_ms.insert(w.step_ms.end(), inst->step_ms.begin(), inst->step_ms.end());
    ends.insert(ends.end(), inst->step_end.begin(), inst->step_end.end());
    inst->step_ms.clear();
    inst->step_end.clear();
  }
  const std::vector<double> rates = sub_window_rates(std::move(ends), start, s.cells);
  w.rates.insert(w.rates.end(), rates.begin(), rates.end());
  w.cell_steps += static_cast<double>(rep.steps) * s.cells;
  t.wall += rep.seconds;
  t.busy += rep.busy_seconds;
  t.steps += rep.steps;
  t.failed += rep.failed;
  t.retries += rep.retries;
  t.checkpoints += rep.checkpoints;
}

std::unique_ptr<System> build(std::uint64_t seed, bool stats, Tracer& tr, SetupTimes& t,
                              ServeTally& all) {
  ScopedSpan setup(tr, "setup");
  opv::mesh::UnstructuredMesh mesh;
  {
    ScopedSpan sp(tr, "mesh.build");
    mesh = opv::mesh::make_tri_periodic(kMeshN, kMeshN, 10.0, 10.0);
    t.mesh = sp.stop();
  }
  auto s = std::make_unique<System>();
  {
    ScopedSpan sp(tr, "context.build");
    *s = make_system(mesh, draw_scenarios(seed), "hazard", stats, tr);
    t.context = sp.stop();
  }
  Window first;
  run_window(*s, 1, first, all, tr);
  t.total = setup.stop();
  read_plan_counters(t);
  return s;
}

/// Every instance must end finite and conserve volume to kDriftBound.
void check_instances(System& s, Outcome& out) {
  double worst = 0.0;
  for (TimedInstance* inst : s.instances) {
    HazardInstance& h = inst->inner();
    const double drift = std::abs(h.volume() - h.initial_volume()) / h.initial_volume();
    worst = std::max(worst, drift);
    out.check(h.healthy() && drift <= kDriftBound,
              "hazard instance (amp " + sci(h.scenario().amp) + ") finite, volume drift " +
                  sci(drift));
  }
  out.record["check.worst_volume_drift"] = worst;
}

/// The timing wrapper must leave Seq results bitwise-unchanged, across a
/// checkpoint and restore too.
void check_wrapper_bitwise(std::uint64_t seed, Tracer& tr, Outcome& out) {
  constexpr int kSteps = 6;
  const auto mesh = opv::mesh::make_tri_periodic(16, 16, 10.0, 10.0);
  const auto sc = draw_scenarios(seed).front();
  const opv::ExecConfig seq = instance_config(opv::Backend::Seq, 1, false);
  HazardInstance plain(mesh, sc, seq);
  for (int k = 0; k < kSteps; ++k) plain.step();

  TimedInstance timed(std::make_unique<HazardInstance>(mesh, sc, seq), 0, tr);
  for (int k = 0; k < kSteps / 2; ++k) timed.step();
  const opv::Checkpoint mid = timed.checkpoint();
  for (int k = 0; k < kSteps / 2; ++k) timed.step();
  timed.restore(mid);
  for (int k = 0; k < kSteps / 2; ++k) timed.step();
  out.attempted += 2 * kSteps + kSteps / 2;

  const auto a = plain.state();
  const auto b = timed.inner().state();
  const bool same = timed.healthy() && a.size() == b.size() &&
                    std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
  out.check(same, "timed instance leaves Seq Volna bitwise-unchanged across checkpoint/restore");
}

}  // namespace

Outcome run_hazard_sweep(const Options& o, Tracer& tr) {
  Outcome out;
  tr.enable(o.trace);
  ServeTally all;  // every window of the run, for failure accounting
  std::unique_ptr<System> sys;
  std::vector<SetupTimes> setups;
  const auto build_one = [&](SetupTimes& t) { return build(o.seed, o.trace, tr, t, all); };
  repeat_setup(kSetupsBefore, sys, build_one, setups);

  // The traced run compares against an identical ensemble with every
  // instrument off (an instance's ExecConfig is fixed at construction).
  std::unique_ptr<System> plain_sys;
  tr.enable(false);
  if (o.trace) {
    const auto mesh = opv::mesh::make_tri_periodic(kMeshN, kMeshN, 10.0, 10.0);
    plain_sys = std::make_unique<System>(
        make_system(mesh, draw_scenarios(o.seed), "hazard_plain", false, tr));
  }
  System& untraced = o.trace ? *plain_sys : *sys;

  Window warm, plain, traced;
  ServeTally traced_tally;
  run_window(*sys, 20, warm, all, tr);
  if (o.trace) run_window(untraced, 20, warm, all, tr);
  opv::StatsRegistry::instance().clear();
  for (TimedInstance* inst : sys->instances) inst->health = inst->checkpoints = {};
  const CpuClock cpu0 = read_cpu_clock();

  if (o.trace) {
    alternate(plain, traced, o.seconds, kTracedSamples, [&](bool on) { tr.enable(on); },
              [&](Window& w, bool on) {
                run_window(on ? *sys : untraced, kWindowSteps, w, on ? traced_tally : all, tr);
              });
  } else {
    extend(
        plain, o.seconds, [&](Window& w) { run_window(untraced, kWindowSteps, w, all, tr); },
        /*drop_stolen=*/true);
  }
  record_window(plain, cpu0, o.trace, out);

  // One instance's loops run at a time, on kInstanceThreads threads.
  out.host = measure_host(kInstanceThreads);
  if (o.trace) {
    double loops_s = loop_metrics(volna_loops(), sizeof(float), out.host.triad_gbs, out.metrics);
    step_metrics(plain, traced, out.host.triad_gbs, out.metrics);
    TimedInstance::Tally health, chk;
    for (TimedInstance* inst : sys->instances) {
      health.seconds += inst->health.seconds;
      health.calls += inst->health.calls;
      chk.seconds += inst->checkpoints.seconds;
      chk.calls += inst->checkpoints.calls;
    }
    const ServeTally& t = traced_tally;
    const double capacity = kWorkers * t.wall;
    const double ensemble_steps = static_cast<double>(t.steps) / kInstances;
    out.metrics["serve.busy_frac"] = t.busy / capacity;
    out.metrics["serve.idle_ms"] = 1e3 * (capacity - t.busy) / ensemble_steps;
    out.metrics["serve.checkpoint_ms"] = chk.calls ? 1e3 * chk.seconds / chk.calls : 0.0;
    out.metrics["serve.checkpoints"] = static_cast<double>(t.checkpoints);
    out.metrics["serve.health_ms"] = health.calls ? 1e3 * health.seconds / health.calls : 0.0;
    out.metrics["serve.retries"] = static_cast<double>(t.retries);
    out.metrics["serve.failed"] = static_cast<double>(t.failed);
    // Worker time inside the scheduler's batches that no loop, checkpoint
    // or health span covers.
    loops_s += chk.seconds + health.seconds;
    out.metrics["step.unattributed_pct"] = 100.0 * (t.busy - loops_s) / t.busy;
    zero_missing("dist.", out.metrics);
  } else {
    end_to_end_metrics(plain, out.metrics);
  }
  check_instances(*sys, out);
  check_wrapper_bitwise(o.seed, tr, out);
  plain_sys.reset();
  tr.enable(o.trace);
  repeat_setup(kSetupsAfter, sys, build_one, setups);
  setup_metrics(setups, o.trace, out);

  out.attempted += all.steps + traced_tally.steps;
  const std::int64_t failed = all.failed + traced_tally.failed;
  const std::int64_t retried = all.retries + traced_tally.retries;
  out.failed += failed + retried;
  out.record["serve.failed_instances"] = static_cast<double>(failed);
  out.record["serve.retried_steps"] = static_cast<double>(retried);
  return out;
}

}  // namespace stepbench
