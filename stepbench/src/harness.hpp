// Helpers of the step benchmark that do not touch the library under test:
// percentiles with a tail-sample rule, an in-memory span tracer with self
// times, measurement windows, and the metric table whose names and units
// BENCHMARK.json lists.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace stepbench {

// ---- statistics -------------------------------------------------------------

/// A percentile is reported only when at least this many samples lie above it.
inline constexpr std::size_t kTailSamples = 10;

/// Nearest-rank q-quantile (0 < q < 1) of `samples`: the value at 1-based
/// rank ceil(q*n) of the sorted samples. nullopt when fewer than
/// kTailSamples samples rank above it.
std::optional<double> percentile(std::vector<double> samples, double q);

/// Median of a non-empty sample (mean of the two middle values when even).
double median(std::vector<double> samples);

// ---- spans ------------------------------------------------------------------

/// One timed call into a layer. Times are seconds since the tracer's epoch;
/// `parent` is the id of the enclosing span on the same thread (-1 for a
/// root), and every span of one step carries that step's id.
struct Span {
  std::string_view name;
  double start = 0.0;
  double end = 0.0;
  std::int64_t id = 0;
  std::int64_t parent = -1;
  std::int64_t step = -1;
  int thread = 0;
};

/// Self time of each span: its duration minus the part of its interval that
/// the union of its direct children covers (children may overlap each other
/// or run past their parent's end; neither is counted twice or outside).
std::vector<double> self_times(const std::vector<Span>& spans);

/// Keeps spans in memory until the run ends. Recording is off until
/// enable(true); spans are cheap to open either way, so a disabled tracer
/// still times its ScopedSpans.
class Tracer {
 public:
  Tracer();

  void enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Seconds since the tracer was built.
  [[nodiscard]] double now() const;

  void record(Span s);
  [[nodiscard]] std::vector<Span> spans() const;

  /// Write the spans as a Chrome trace-event file (chrome://tracing,
  /// Perfetto), each event carrying its id, parent, step and self time.
  void write_chrome_trace(const std::string& path) const;

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point epoch_;
  std::atomic<bool> enabled_{false};  ///< read by ensemble workers
  mutable std::mutex mu_;
  std::vector<Span> spans_;  ///< guarded by mu_
  std::int64_t next_id_ = 0;  ///< guarded by mu_
  friend class ScopedSpan;
};

/// Times one call. Spans nest through a per-thread current span: a span
/// opened while another is open on the same thread becomes its child and
/// inherits its step id unless one is given.
class ScopedSpan {
 public:
  static constexpr std::int64_t kInheritStep = -2;

  ScopedSpan(Tracer& tracer, std::string_view name, std::int64_t step = kInheritStep);
  ~ScopedSpan() { stop(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Close the span (recorded when the tracer is enabled) and return its
  /// duration in seconds; later calls return the same duration.
  double stop();

 private:
  Tracer& tracer_;
  Span span_;
  const Span* outer_;
  bool open_ = true;
  double seconds_ = 0.0;
};

// ---- host CPU time ------------------------------------------------------------

/// Aggregate CPU time of the machine from /proc/stat (zeros where absent).
struct CpuClock {
  double steal = 0.0;
  double total = 0.0;
};
CpuClock read_cpu_clock();

/// Share of the machine's CPU time the hypervisor stole between two reads.
double steal_pct(const CpuClock& from, const CpuClock& to);

/// CPUs this process may run on (its affinity mask, as nproc counts them).
int usable_cpus();

/// One SCHED_IDLE thread per CPU that spins while nothing else wants the
/// CPU, for as long as the object lives. On a virtual machine an idle vCPU
/// halts and the host deschedules it; waking a thread on it then waits for
/// the host to run the vCPU again, which takes longer the busier the host's
/// other tenants are. A program that parks threads many times per step
/// (the dist rank pool) pays that wait on every wake. Pollers keep the
/// vCPUs running, so the wake is a guest context switch and the figures
/// follow the program rather than the host's load. A poller never delays a
/// runnable thread of the program: the guest scheduler preempts a
/// SCHED_IDLE thread at once. Stops and joins its threads on destruction.
class IdlePollers {
 public:
  explicit IdlePollers(int n);
  ~IdlePollers();
  IdlePollers(const IdlePollers&) = delete;
  IdlePollers& operator=(const IdlePollers&) = delete;

  /// Pollers that got SCHED_IDLE (the others exited at once).
  [[nodiscard]] int running() const { return running_.load(); }

 private:
  void stop();

  std::atomic<bool> stop_{false};
  std::atomic<int> running_{0};
  std::vector<std::thread> threads_;
};

// ---- measurement windows ----------------------------------------------------

/// Throughput is taken per sub-window of at least this many seconds and
/// reported as the median, so a stall that hits a few sub-windows moves it
/// less than a window mean would.
inline constexpr double kSubWindowSeconds = 0.1;

/// Steps run in blocks of at least this many seconds. A block in which the
/// hypervisor stole more than kMaxStealPct of the machine's CPU time times
/// the host's other tenants rather than the program, so an untraced window
/// measures blocks until the clean ones span its length, or until all of
/// them span kMaxMeasuredFactor times its length, and keeps the
/// least-stolen blocks (see pick_blocks). The drops are recorded.
inline constexpr double kBlockSeconds = 0.5;
inline constexpr double kMaxStealPct = 2.0;
inline constexpr double kMaxMeasuredFactor = 2.0;

/// One measured stretch of steps.
struct Window {
  double wall = 0.0;          ///< seconds of kept blocks
  double cell_steps = 0.0;    ///< cells advanced x steps
  std::vector<double> step_ms;
  std::vector<double> rates;  ///< Mcell-steps/s of each sub-window of a kept block
  int dropped = 0;            ///< blocks dropped for steal
  double dropped_wall = 0.0;
  std::int64_t dropped_steps = 0;

  /// Median sub-window throughput, in Mcell-steps/s.
  [[nodiscard]] double mcell_steps_per_s() const { return median(rates); }
  /// Throughput over the kept blocks together, stalls included.
  [[nodiscard]] double mean_mcell_steps_per_s() const { return cell_steps / wall / 1e6; }

  /// Add another window's steps, rates and wall time to this one.
  void merge(const Window& o);
};

/// Throughput of consecutive sub-windows of at least kSubWindowSeconds, in
/// Mcell-steps/s, from the end times of steps (any order) that each advance
/// `cells` cells, starting at `start`; a last sub-window shorter than
/// kSubWindowSeconds is left out.
std::vector<double> sub_window_rates(std::vector<double> step_ends, double start, double cells);

/// The blocks to keep, given each block's wall seconds and steal share in
/// measurement order: least steal first (earlier first among equals) until
/// the kept ones span `seconds`, or every block when they span less.
std::vector<std::size_t> pick_blocks(const std::vector<double>& walls,
                                     const std::vector<double>& steals, double seconds);

/// Run blocks, each calling `advance(b)` on a fresh window until it spans
/// kBlockSeconds; every kSubWindowSeconds inside a block close a sub-window
/// whose throughput joins the block's rates (a call longer than that makes
/// one sub-window, unless the call adds its own sub-window rates to `b`). Without `drop_stolen`, blocks run until they span
/// `seconds` and all join `w`. With it, blocks run until those with at most
/// kMaxStealPct steal span `seconds` or all span kMaxMeasuredFactor x
/// `seconds`, and the blocks pick_blocks keeps join `w`; the rest count as
/// dropped.
template <class Advance>
void extend(Window& w, double seconds, Advance&& advance, bool drop_stolen = false) {
  using clock = std::chrono::steady_clock;
  const auto secs = [](clock::duration d) { return std::chrono::duration<double>(d).count(); };
  std::vector<Window> blocks;
  std::vector<double> walls, steals;
  double measured = 0.0, clean = 0.0;
  while (drop_stolen ? clean < seconds && measured < kMaxMeasuredFactor * seconds
                     : measured < seconds) {
    Window& b = blocks.emplace_back();
    const CpuClock cpu0 = read_cpu_clock();
    const auto t0 = clock::now();
    auto sub_t0 = t0;
    double sub_cells0 = 0.0;
    do {
      const std::size_t rates0 = b.rates.size();
      advance(b);
      const auto t = clock::now();
      b.wall = secs(t - t0);
      if (b.rates.size() > rates0) {
        sub_t0 = t;
        sub_cells0 = b.cell_steps;
      } else if (const double sub = secs(t - sub_t0); sub >= kSubWindowSeconds) {
        b.rates.push_back((b.cell_steps - sub_cells0) / sub / 1e6);
        sub_t0 = t;
        sub_cells0 = b.cell_steps;
      }
    } while (b.wall < kBlockSeconds);
    const double steal = steal_pct(cpu0, read_cpu_clock());
    measured += b.wall;
    if (steal <= kMaxStealPct) clean += b.wall;
    walls.push_back(b.wall);
    steals.push_back(drop_stolen ? steal : 0.0);
  }
  std::vector<bool> keep(blocks.size(), false);
  for (const std::size_t i : pick_blocks(walls, steals, seconds)) keep[i] = true;
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    if (keep[i]) {
      w.merge(blocks[i]);
    } else {
      ++w.dropped;
      w.dropped_wall += blocks[i].wall;
      w.dropped_steps += static_cast<std::int64_t>(blocks[i].step_ms.size());
    }
  }
}

/// The traced run's schedule: run segments of one block each,
/// untraced and traced in a 1:2 ratio of wall time so both see the same
/// machine state, until the traced ones span two thirds of `seconds` and
/// hold `min_samples` step times and the untraced ones a third. Stops at
/// 8x `seconds` regardless (slow steps on a contended host need longer to
/// reach `min_samples`), once each kind has run a block.
template <class SetTraced, class Advance>
void alternate(Window& plain, Window& traced, double seconds, std::size_t min_samples,
               SetTraced&& set_traced, Advance&& advance) {
  const auto done = [&] {
    return traced.wall >= seconds * 2.0 / 3.0 && plain.wall >= seconds / 3.0 &&
           traced.step_ms.size() >= min_samples;
  };
  while (!done() && (plain.rates.empty() || traced.rates.empty() ||
                     plain.wall + traced.wall < 8.0 * seconds)) {
    const bool trace_next = plain.wall >= traced.wall / 2.0;
    set_traced(trace_next);
    extend(trace_next ? traced : plain, kBlockSeconds,
           [&](Window& w) { advance(w, trace_next); });
  }
  set_traced(false);
}

// ---- metrics ----------------------------------------------------------------

/// One reported figure: its name, unit and whether the traced run reports
/// it (per-layer) or the untraced one (end to end).
struct MetricSpec {
  std::string name;
  std::string unit;
  bool per_layer = false;
};

/// The loops each workload's app runs, in step order.
const std::vector<std::string>& airfoil_loops();
const std::vector<std::string>& tet3d_loops();
const std::vector<std::string>& volna_loops();

/// Every metric the benchmark prints, in BENCHMARK.json order.
const std::vector<MetricSpec>& metric_specs();

/// The metric-name grammar: 1 to 64 of [A-Za-z0-9_.-], starting with a
/// letter or digit.
bool valid_metric_name(std::string_view name);

using Metrics = std::map<std::string, double>;

/// The result line: {"correct", "attempted", "failed", "metrics"} with every
/// metric of the chosen kind, in table order. Throws when a metric of that
/// kind is missing or not finite, or when `values` holds one that is not.
std::string result_json(bool correct, std::int64_t attempted, std::int64_t failed,
                        const Metrics& values, bool per_layer);

/// `--list-metrics`: the metric table as JSON, for the name check.
std::string metric_table_json();

/// JSON number with every digit a double holds.
std::string json_number(double v);

}  // namespace stepbench
