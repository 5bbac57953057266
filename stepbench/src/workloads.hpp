// The three workloads and the pieces they share. Each workload builds its
// system from the seed several times (setup_s is the median), warms up,
// measures steps for the requested seconds, reads the program's own
// counters, and checks its outputs outside the timed window.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/loop_stats.hpp"
#include "harness.hpp"

namespace stepbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// nproc, compiled ISA and vector widths, and a STREAM triad with `threads`
/// threads measured now; printed as the run record's "host" object.
struct Host {
  int nproc = 0;
  std::string isa;
  int lanes_double = 0;
  int lanes_float = 0;
  int triad_threads = 0;
  double triad_array_mib = 0.0;
  double triad_gbs = 0.0;
  std::string cpu;
};

/// What one run measured and checked.
struct Outcome {
  bool correct = true;
  std::int64_t attempted = 0;  ///< steps taken plus output checks made
  std::int64_t failed = 0;     ///< failed checks, retired instances, retried steps
  Metrics metrics;             ///< end-to-end or per-layer figures, per Options::trace
  Metrics record;              ///< further figures for the run record
  std::vector<std::string> checks;  ///< one line per output check
  Host host;

  /// Count one output check; a failed one makes the run incorrect.
  void check(bool ok, const std::string& what);
};

/// Setup phase times of one build of a workload's system.
struct SetupTimes {
  double mesh = 0.0;        ///< mesh generator call
  double context = 0.0;     ///< app or instance constructors
  double total = 0.0;       ///< mesh generation start to first step end
  double plan = 0.0;        ///< sum of LoopRecord::plan_seconds (stats on only)
  double plan_hits = 0.0;   ///< PlanCache::counters() over the build
  double plan_misses = 0.0;
};

/// Builds per run, before and after the measured window; setup_s and the
/// setup-phase layer figures are their medians. Spreading the builds over
/// the run makes the median less sensitive to a noisy stretch of the host.
inline constexpr int kSetupsBefore = 3;
inline constexpr int kSetupsAfter = 4;
/// A traced run holds at least this many step samples, so p99 is reportable.
inline constexpr std::size_t kTracedSamples = 1000;
/// Relative L2 tolerance of a vector backend against Seq.
inline constexpr double kFieldTolerance = 1e-9;

Outcome run_airfoil_vec(const Options& o, Tracer& tracer);
Outcome run_tet3d_ranks(const Options& o, Tracer& tracer);
Outcome run_hazard_sweep(const Options& o, Tracer& tracer);

// ---- shared by the workloads ------------------------------------------------

/// Forget every plan and loop record, so the next build pays its own plans.
void reset_program_state();

/// Record what the measured window saw: peak RSS so far (read before any
/// check allocates), sample count, whole-window throughput, the share of
/// CPU time the hypervisor stole since `start` and the sub-windows dropped
/// for it; peak RSS is also the end-to-end peak_rss_mb of an untraced run.
void record_window(const Window& w, const CpuClock& start, bool trace, Outcome& out);

/// Time `build` n times, dropping each system before building the next
/// and clearing the plan cache and loop records first; appends the times
/// and keeps the last system.
template <class System, class Build>
void repeat_setup(int n, System& keep, Build&& build, std::vector<SetupTimes>& times) {
  for (int k = 0; k < n; ++k) {
    keep.reset();
    reset_program_state();
    SetupTimes t;
    keep = build(t);
    times.push_back(t);
  }
}

/// The setup figures: setup_s (end to end) or the mesh/context/plan layer
/// figures (traced), medians over the builds; plan counts are exact. Each
/// build's total goes to the record.
void setup_metrics(const std::vector<SetupTimes>& setups, bool trace, Outcome& out);

/// Read the plan counters and summed plan seconds into `t` (end of a build).
void read_plan_counters(SetupTimes& t);

/// The end-to-end figures of an untraced window.
void end_to_end_metrics(const Window& w, Metrics& m);

/// Per-loop figures over the traced window for every loop the benchmark
/// knows; loops of other apps read 0. Rows recorded under an ensemble scope
/// ("<scope>/<loop>") are summed into their loop. Returns the loops' summed
/// compute, exchange and plan seconds.
double loop_metrics(const std::vector<std::string>& loops, std::size_t value_bytes,
                    double triad_gbs, Metrics& m);

/// Set every metric whose name starts with `prefix` and is not yet set to 0
/// (layers a workload does not run).
void zero_missing(const std::string& prefix, Metrics& m);

/// Step tail, sample count, tracing overhead and triad.
void step_metrics(const Window& plain, const Window& traced, double triad_gbs, Metrics& m);

/// Measure the host fingerprint now, with a triad of `triad_threads` threads.
Host measure_host(int triad_threads);


/// Short scientific form for check messages.
std::string sci(double v);

/// ||a - b|| / ||b|| over two equally long vectors.
template <class T, class A>
double relative_l2(const std::vector<T, A>& a, const std::vector<T, A>& b) {
  if (a.size() != b.size() || b.empty()) return 1.0;
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    num += d * d;
    den += static_cast<double>(b[i]) * static_cast<double>(b[i]);
  }
  return den > 0.0 ? std::sqrt(num / den) : std::sqrt(num);
}

/// The run of a workload whose driver thread advances the whole system one
/// step at a time (airfoil_vec, tet3d_ranks). `build(SetupTimes&)` returns a
/// std::unique_ptr<System>; System has step(), cells(), set_stats(bool)
/// (ExecConfig::collect_stats) and reset_counts() (its own wrappers'
/// tallies). `layers(System&, steps, Metrics&)` adds the workload's own
/// per-layer figures and `check(System&, Outcome&)` its output checks.
template <class Build, class Layers, class Check>
Outcome run_stepped(const Options& o, Tracer& tr, int threads,
                    const std::vector<std::string>& loops, std::size_t value_bytes, Build&& build,
                    Layers&& layers, Check&& check) {
  Outcome out;
  tr.enable(o.trace);
  decltype(build(std::declval<SetupTimes&>())) sys;
  std::vector<SetupTimes> setups;
  repeat_setup(kSetupsBefore, sys, build, setups);

  std::int64_t step_id = 1;
  const auto advance = [&](Window& w) {
    ScopedSpan sp(tr, "step", step_id++);
    sys->step();
    w.step_ms.push_back(1e3 * sp.stop());
    w.cell_steps += sys->cells();
  };
  const auto set_traced = [&](bool on) {
    tr.enable(on);
    sys->set_stats(on);
  };

  set_traced(false);
  Window warm, plain, traced;
  extend(warm, std::min(1.0, o.seconds / 5.0), advance);
  opv::StatsRegistry::instance().clear();
  sys->reset_counts();
  const CpuClock cpu0 = read_cpu_clock();
  if (o.trace)
    alternate(plain, traced, o.seconds, kTracedSamples, set_traced,
              [&](Window& w, bool) { advance(w); });
  else
    extend(plain, o.seconds, advance, /*drop_stolen=*/true);
  out.attempted += static_cast<std::int64_t>(warm.step_ms.size() + plain.step_ms.size() +
                                             traced.step_ms.size()) +
                   plain.dropped_steps;
  record_window(plain, cpu0, o.trace, out);

  out.host = measure_host(threads);
  if (o.trace) {
    const double attributed = loop_metrics(loops, value_bytes, out.host.triad_gbs, out.metrics);
    step_metrics(plain, traced, out.host.triad_gbs, out.metrics);
    double step_s = 0.0;
    for (const double ms : traced.step_ms) step_s += ms / 1e3;
    out.metrics["step.unattributed_pct"] = 100.0 * (step_s - attributed) / step_s;
    layers(*sys, static_cast<double>(traced.step_ms.size()), out.metrics);
    zero_missing("dist.", out.metrics);
    zero_missing("serve.", out.metrics);
  } else {
    end_to_end_metrics(plain, out.metrics);
  }
  check(*sys, out);

  tr.enable(o.trace);
  repeat_setup(kSetupsAfter, sys, build, setups);
  out.attempted += static_cast<std::int64_t>(setups.size());  // their first steps
  setup_metrics(setups, o.trace, out);
  return out;
}

}  // namespace stepbench
