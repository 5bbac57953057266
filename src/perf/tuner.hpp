// Block-size auto-tuner: the paper tunes the mini-partition size by hand
// (Fig. 8b); this utility automates the search for a given loop workload.
// An extension feature beyond the paper (its "plan construction" future
// work), exposed through the public API and used by the tuning bench.
#pragma once

#include <functional>
#include <vector>

namespace opv::perf {

struct TuneResult {
  int best_block_size = 0;
  double best_seconds = 0.0;
  std::vector<std::pair<int, double>> samples;  ///< (block size, seconds)
};

/// Time `workload(block_size)` for each candidate (repeating `reps` times,
/// keeping the minimum) and return the fastest block size. Candidates must
/// be positive multiples of 16; default sweep 128..4096.
TuneResult tune_block_size(const std::function<double(int)>& workload,
                           std::vector<int> candidates = {128, 256, 512, 1024, 2048, 4096},
                           int reps = 3);

/// Online variant backing ExecConfig::kAuto. A Loop handle asks propose()
/// for the block size of its next run and reports the measured wall time
/// through observe(); after `reps` timed passes over the candidate list the
/// tuner settles on the fastest and propose() returns it forever after.
/// Unlike tune_block_size, no extra kernel executions happen: every tuning
/// sample is a real, correct run of the loop — only the block size varies
/// across the first candidates*reps calls.
///
/// Lifetime: each opv::Loop INSTANCE owns its tuner; the pinned winner is
/// never shared across handles or stored under a kernel/set key. That is
/// deliberate: the optimal block size depends on the generated code, and
/// re-templating a loop — e.g. a different kernel type or different
/// argument descriptors (core/arg.hpp) — changes the instantiation.
/// A retyped handle therefore starts untuned and re-tunes from scratch
/// instead of inheriting a pin measured on different code
/// (test_loop_handle: RetypedHandleReTunes).
class OnlineTuner {
 public:
  explicit OnlineTuner(std::vector<int> candidates = {128, 256, 512, 1024, 2048, 4096},
                       int reps = 2);

  /// Block size the next run should use (stable until observe()).
  [[nodiscard]] int propose() const;

  /// Record one run's wall time; ignored unless block_size is the current
  /// candidate (a caller may interleave explicitly-sized runs).
  void observe(int block_size, double seconds);

  [[nodiscard]] bool settled() const { return settled_; }

  /// Fastest candidate observed so far (0 before any observation).
  [[nodiscard]] int best() const { return best_; }

  /// (block size, best seconds) per candidate observed so far.
  [[nodiscard]] const std::vector<std::pair<int, double>>& samples() const { return samples_; }

 private:
  std::vector<int> candidates_;
  std::vector<double> best_seconds_;  ///< per candidate; +inf = unobserved
  std::vector<std::pair<int, double>> samples_;
  int reps_;
  int pass_ = 0;
  std::size_t cursor_ = 0;
  int best_ = 0;
  bool settled_ = false;
};

}  // namespace opv::perf
