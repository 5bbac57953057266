#include <sys/resource.h>

#include <algorithm>
#include <cstdio>

#include "common/cpu.hpp"
#include "core/kernel_info.hpp"
#include "core/loop_stats.hpp"
#include "core/plan.hpp"
#include "perf/probes.hpp"
#include "simd/simd.hpp"
#include "workloads.hpp"

namespace stepbench {

void Outcome::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    correct = false;
  }
  checks.push_back(std::string(ok ? "ok   " : "FAIL ") + what);
}

void reset_program_state() {
  opv::PlanCache::instance().clear();
  opv::PlanCache::instance().reset_counters();
  opv::StatsRegistry::instance().clear();
}

void record_window(const Window& w, const CpuClock& start, bool trace, Outcome& out) {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  const double rss_mib = static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
  out.record["peak_rss_mb"] = rss_mib;
  out.record["step.samples"] = static_cast<double>(w.step_ms.size());
  out.record["mcell_steps_per_s.window_mean"] = w.mean_mcell_steps_per_s();
  out.record["host.steal_pct"] = steal_pct(start, read_cpu_clock());
  out.record["window.dropped_blocks"] = w.dropped;
  out.record["window.dropped_s"] = w.dropped_wall;
  if (!trace) out.metrics["peak_rss_mb"] = rss_mib;
}

std::string sci(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3g", v);
  return buf;
}

void read_plan_counters(SetupTimes& t) {
  const auto c = opv::PlanCache::instance().counters();
  t.plan_hits = static_cast<double>(c.hits);
  t.plan_misses = static_cast<double>(c.misses);
  for (const auto& [name, rec] : opv::StatsRegistry::instance().all()) t.plan += rec.plan_seconds;
}

void setup_metrics(const std::vector<SetupTimes>& setups, bool trace, Outcome& out) {
  for (std::size_t k = 0; k < setups.size(); ++k)
    out.record["setup_s." + std::to_string(k + 1)] = setups[k].total;
  Metrics& m = out.metrics;
  const auto med = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& t : setups) v.push_back(t.*field);
    return median(v);
  };
  if (!trace) {
    m["setup_s"] = med(&SetupTimes::total);
    return;
  }
  m["mesh.build_s"] = med(&SetupTimes::mesh);
  m["context.build_s"] = med(&SetupTimes::context);
  m["plan.build_s"] = med(&SetupTimes::plan);
  m["plan.misses"] = setups.back().plan_misses;
  m["plan.hits"] = setups.back().plan_hits;
}

void end_to_end_metrics(const Window& w, Metrics& m) {
  m["mcell_steps_per_s"] = w.mcell_steps_per_s();
  const auto p50 = percentile(w.step_ms, 0.5);
  if (!p50) throw std::runtime_error("too few step samples for a median");
  m["step_ms_p50"] = *p50;
}

double loop_metrics(const std::vector<std::string>& loops, std::size_t value_bytes,
                    double triad_gbs, Metrics& m) {
  const auto rows = opv::StatsRegistry::instance().all();
  double attributed = 0.0;
  for (const std::string& loop : loops) {
    double secs = 0.0, elems = 0.0, calls = 0.0;
    for (const auto& [name, rec] : rows) {
      const bool match = name == loop || (name.size() > loop.size() &&
                                          name.compare(name.size() - loop.size(), loop.size(),
                                                       loop) == 0 &&
                                          name[name.size() - loop.size() - 1] == '/');
      if (!match) continue;
      secs += rec.seconds;
      elems += static_cast<double>(rec.elements);
      calls += static_cast<double>(rec.calls);
      attributed += rec.seconds + rec.exchange_seconds + rec.plan_seconds;
    }
    if (calls == 0.0 || secs <= 0.0) throw std::runtime_error("loop " + loop + " did not run");
    // KernelInfo bytes are computed (useful values x value size), not
    // measured traffic.
    const double bytes =
        elems * opv::KernelRegistry::instance().get(loop).bytes_per_elem(value_bytes);
    const double gbs = bytes / secs / 1e9;
    m["loop." + loop + ".ms"] = 1e3 * secs / calls;
    m["loop." + loop + ".gbs"] = gbs;
    m["loop." + loop + ".stream_pct"] = 100.0 * gbs / triad_gbs;
  }
  zero_missing("loop.", m);
  return attributed;
}

void zero_missing(const std::string& prefix, Metrics& m) {
  for (const MetricSpec& s : metric_specs())
    if (s.per_layer && s.name.rfind(prefix, 0) == 0) m.emplace(s.name, 0.0);
}

void step_metrics(const Window& plain, const Window& traced, double triad_gbs, Metrics& m) {
  const auto p90 = percentile(traced.step_ms, 0.90);
  const auto p99 = percentile(traced.step_ms, 0.99);
  if (!p90 || !p99)
    throw std::runtime_error("traced window too short: " + std::to_string(traced.step_ms.size()) +
                             " step samples leave fewer than 10 beyond p99");
  m["step.ms_p90"] = *p90;
  m["step.ms_p99"] = *p99;
  m["step.samples"] = static_cast<double>(traced.step_ms.size());
  m["trace.overhead_pct"] =
      100.0 * (1.0 - traced.mcell_steps_per_s() / plain.mcell_steps_per_s());
  m["host.stream_triad_gbs"] = triad_gbs;
}

Host measure_host(int triad_threads) {
  // 3 x 256 MiB arrays: past the last-level cache of hosts this runs on
  // (300 MiB L3 on the 4-core reference host), so the triad reads DRAM.
  constexpr std::size_t kTriadDoubles = std::size_t{1} << 25;
  Host h;
  h.nproc = opv::hardware_threads();
  h.isa = opv::simd::kHaveAvx512 ? "avx512" : opv::simd::kHaveAvx2 ? "avx2" : "portable";
  h.lanes_double = opv::simd::max_lanes<double>;
  h.lanes_float = opv::simd::max_lanes<float>;
  h.triad_threads = triad_threads;
  h.triad_array_mib = static_cast<double>(kTriadDoubles * sizeof(double)) / (1024.0 * 1024.0);
  h.triad_gbs = opv::perf::stream_bandwidth(kTriadDoubles, 4, triad_threads).triad_gbs;
  h.cpu = opv::cpu_summary();
  return h;
}

}  // namespace stepbench
