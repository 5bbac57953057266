#include "harness.hpp"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <unordered_map>

namespace stepbench {

// ---- statistics -------------------------------------------------------------

std::optional<double> percentile(std::vector<double> samples, double q) {
  if (samples.empty() || q <= 0.0 || q >= 1.0) return std::nullopt;
  const std::size_t n = samples.size();
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  if (n - rank < kTailSamples) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double median(std::vector<double> samples) {
  if (samples.empty()) throw std::invalid_argument("median of an empty sample");
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

// ---- host CPU time ------------------------------------------------------------

CpuClock read_cpu_clock() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double v[8] = {};
  CpuClock c;
  if (in >> cpu && cpu == "cpu") {
    for (double& x : v) in >> x;  // user nice system idle iowait irq softirq steal
    for (const double x : v) c.total += x;
    c.steal = v[7];
  }
  return c;
}

double steal_pct(const CpuClock& from, const CpuClock& to) {
  return to.total > from.total ? 100.0 * (to.steal - from.steal) / (to.total - from.total) : 0.0;
}

int usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

IdlePollers::IdlePollers(int n) {
  try {
    for (int i = 0; i < n; ++i)
      threads_.emplace_back([this] {
        const sched_param param{};
        // Without SCHED_IDLE a poller would compete with the program.
        if (pthread_setschedparam(pthread_self(), SCHED_IDLE, &param) != 0) return;
        running_.fetch_add(1);
        while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
          __builtin_ia32_pause();
#endif
        }
      });
  } catch (...) {
    stop();
    throw;
  }
}

IdlePollers::~IdlePollers() { stop(); }

void IdlePollers::stop() {
  stop_.store(true);
  for (std::thread& t : threads_) t.join();
  threads_.clear();
}

// ---- measurement windows ----------------------------------------------------

void Window::merge(const Window& o) {
  wall += o.wall;
  cell_steps += o.cell_steps;
  step_ms.insert(step_ms.end(), o.step_ms.begin(), o.step_ms.end());
  rates.insert(rates.end(), o.rates.begin(), o.rates.end());
  dropped += o.dropped;
  dropped_wall += o.dropped_wall;
  dropped_steps += o.dropped_steps;
}

std::vector<double> sub_window_rates(std::vector<double> step_ends, double start, double cells) {
  std::sort(step_ends.begin(), step_ends.end());
  std::vector<double> rates;
  double steps = 0.0;
  for (const double end : step_ends) {
    ++steps;
    if (const double sub = end - start; sub >= kSubWindowSeconds) {
      rates.push_back(steps * cells / sub / 1e6);
      start = end;
      steps = 0.0;
    }
  }
  return rates;
}

std::vector<std::size_t> pick_blocks(const std::vector<double>& walls,
                                     const std::vector<double>& steals, double seconds) {
  std::vector<std::size_t> order(walls.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return steals[a] < steals[b]; });
  std::vector<std::size_t> kept;
  double span = 0.0;
  for (const std::size_t i : order) {
    if (span >= seconds) break;
    kept.push_back(i);
    span += walls[i];
  }
  std::sort(kept.begin(), kept.end());
  return kept;
}

// ---- spans ------------------------------------------------------------------

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::unordered_map<std::int64_t, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index.emplace(spans[i].id, i);
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    const auto it = index.find(s.parent);
    if (it != index.end()) children[it->second].emplace_back(s.start, s.end);
  }
  std::vector<double> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& p = spans[i];
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double reach = p.start;  // end of the union so far, clipped to the parent
    for (const auto& [b, e] : iv) {
      const double lo = std::max(b, reach);
      const double hi = std::min(e, p.end);
      if (hi > lo) {
        covered += hi - lo;
        reach = hi;
      }
    }
    out[i] = (p.end - p.start) - covered;
  }
  return out;
}

namespace {
thread_local const Span* tls_open = nullptr;  // innermost open span on this thread

int thread_number() {
  static std::mutex mu;
  static std::unordered_map<std::thread::id, int> ids;
  const std::lock_guard<std::mutex> lock(mu);
  return ids.emplace(std::this_thread::get_id(), static_cast<int>(ids.size())).first->second;
}
}  // namespace

Tracer::Tracer() : epoch_(clock::now()) {}

double Tracer::now() const {
  return std::chrono::duration<double>(clock::now() - epoch_).count();
}

void Tracer::record(Span s) {
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(s);
}

std::vector<Span> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

void Tracer::write_chrome_trace(const std::string& path) const {
  const std::vector<Span> all = spans();
  const std::vector<double> self = self_times(all);
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  out << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    out << (i ? ",\n" : "") << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
        << s.thread << ",\"ts\":" << json_number(s.start * 1e6)
        << ",\"dur\":" << json_number((s.end - s.start) * 1e6) << ",\"args\":{\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"step\":" << s.step
        << ",\"self_us\":" << json_number(self[i] * 1e6) << "}}";
  }
  out << "\n]}\n";
}

ScopedSpan::ScopedSpan(Tracer& tracer, std::string_view name, std::int64_t step)
    : tracer_(tracer), outer_(tls_open) {
  span_.name = name;
  span_.parent = outer_ ? outer_->id : -1;
  span_.step = step != kInheritStep ? step : (outer_ ? outer_->step : -1);
  if (tracer_.enabled()) {
    const std::lock_guard<std::mutex> lock(tracer_.mu_);
    span_.id = tracer_.next_id_++;
  } else {
    span_.id = -1;
  }
  tls_open = &span_;
  span_.start = tracer_.now();
}

double ScopedSpan::stop() {
  if (!open_) return seconds_;
  span_.end = tracer_.now();
  open_ = false;
  tls_open = outer_;
  seconds_ = span_.end - span_.start;
  if (span_.id >= 0) {
    span_.thread = thread_number();
    tracer_.record(span_);
  }
  return seconds_;
}

// ---- metrics ----------------------------------------------------------------

const std::vector<std::string>& airfoil_loops() {
  static const std::vector<std::string> v = {"save_soln", "adt_calc", "res_calc", "bres_calc",
                                             "update"};
  return v;
}

const std::vector<std::string>& tet3d_loops() {
  static const std::vector<std::string> v = {"t3d_save_u",   "t3d_grad_calc",  "t3d_bgrad_calc",
                                             "t3d_flux_calc", "t3d_bflux_calc", "t3d_update_u"};
  return v;
}

const std::vector<std::string>& volna_loops() {
  static const std::vector<std::string> v = {"sim_1", "compute_flux", "numerical_flux",
                                             "space_disc", "RK_1", "RK_2"};
  return v;
}

const std::vector<MetricSpec>& metric_specs() {
  static const std::vector<MetricSpec> specs = [] {
    std::vector<MetricSpec> v = {
        {"mcell_steps_per_s", "Mcell-steps/s", false},
        {"step_ms_p50", "ms", false},
        {"setup_s", "s", false},
        {"peak_rss_mb", "MiB", false},
        {"mesh.build_s", "s", true},
        {"context.build_s", "s", true},
        {"plan.build_s", "s", true},
        {"plan.misses", "count", true},
        {"plan.hits", "count", true},
    };
    for (const auto* loops : {&airfoil_loops(), &tet3d_loops(), &volna_loops()})
      for (const std::string& l : *loops) {
        v.push_back({"loop." + l + ".ms", "ms", true});
        v.push_back({"loop." + l + ".gbs", "GB/s", true});
        v.push_back({"loop." + l + ".stream_pct", "%", true});
      }
    const std::vector<MetricSpec> rest = {
        {"dist.exchange_ms", "ms", true},     {"dist.wait_ms", "ms", true},
        {"dist.values", "count", true},       {"dist.exchanges", "count", true},
        {"dist.rank_imbalance", "ratio", true}, {"serve.busy_frac", "ratio", true},
        {"serve.idle_ms", "ms", true},        {"serve.checkpoint_ms", "ms", true},
        {"serve.checkpoints", "count", true}, {"serve.health_ms", "ms", true},
        {"serve.retries", "count", true},     {"serve.failed", "count", true},
        {"step.ms_p90", "ms", true},          {"step.ms_p99", "ms", true},
        {"step.samples", "count", true},      {"step.unattributed_pct", "%", true},
        {"host.stream_triad_gbs", "GB/s", true}, {"trace.overhead_pct", "%", true},
    };
    v.insert(v.end(), rest.begin(), rest.end());
    for (const MetricSpec& s : v)
      if (!valid_metric_name(s.name)) throw std::logic_error("bad metric name " + s.name);
    return v;
  }();
  return specs;
}

bool valid_metric_name(std::string_view name) {
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9');
  };
  if (name.empty() || name.size() > 64 || !alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(),
                     [&](char c) { return alnum(c) || c == '_' || c == '.' || c == '-'; });
}

std::string json_number(double v) {
  if (!std::isfinite(v)) throw std::runtime_error("non-finite value in JSON output");
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string result_json(bool correct, std::int64_t attempted, std::int64_t failed,
                        const Metrics& values, bool per_layer) {
  std::string m;
  std::size_t used = 0;
  for (const MetricSpec& s : metric_specs()) {
    if (s.per_layer != per_layer) continue;
    const auto it = values.find(s.name);
    if (it == values.end()) throw std::runtime_error("metric " + s.name + " was not measured");
    if (!std::isfinite(it->second)) throw std::runtime_error("metric " + s.name + " is not finite");
    m += (used++ ? ", \"" : "\"") + s.name + "\": {\"value\": " + json_number(it->second) +
         ", \"unit\": \"" + s.unit + "\"}";
  }
  if (used != values.size()) throw std::runtime_error("a metric outside the table was measured");
  return std::string("{\"correct\": ") + (correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted) + ", \"failed\": " +
         std::to_string(failed) + ", \"metrics\": {" + m + "}}";
}

std::string metric_table_json() {
  std::string out = "{";
  for (const bool per_layer : {false, true}) {
    out += per_layer ? ", \"per_layer\": [" : "\"end_to_end\": [";
    bool first = true;
    for (const MetricSpec& s : metric_specs()) {
      if (s.per_layer != per_layer) continue;
      out += (first ? "" : ", ") + std::string("{\"name\": \"") + s.name + "\", \"unit\": \"" +
             s.unit + "\"}";
      first = false;
    }
    out += "]";
  }
  return out + "}";
}

}  // namespace stepbench
