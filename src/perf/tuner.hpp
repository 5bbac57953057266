// Online seed-tile tuner for cross-loop sparse tiling (core/chain.hpp): the
// tile size is the parameter Luporini et al. (arXiv:1708.03183) tune. The
// paper tunes the mini-partition block size by hand instead (Fig. 8b,
// bench/fig8b_tuning.cpp).
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace opv::perf {

/// Backs ExecConfig::chain_tile_elems = kAuto. A LoopChain asks propose()
/// for the seed-tile size of its next run and reports the measured wall
/// time through observe(); after `reps` timed passes over the candidate
/// list the tuner settles on the fastest and propose() returns it forever
/// after. No extra executions happen: every tuning sample is a real,
/// correct run of the chain — only the tile size varies across the first
/// candidates*reps calls.
class OnlineTuner {
 public:
  /// Candidates must be positive multiples of 16; reps >= 1.
  explicit OnlineTuner(std::vector<int> candidates, int reps = 2);

  /// Size the next run should use (stable until observe()).
  [[nodiscard]] int propose() const;

  /// Record one run's wall time; ignored unless `size` is the current
  /// candidate (a caller may interleave explicitly-sized runs).
  void observe(int size, double seconds);

  [[nodiscard]] bool settled() const { return settled_; }

  /// Fastest candidate observed so far (0 before any observation).
  [[nodiscard]] int best() const { return best_; }

  /// (size, seconds) per observation so far.
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
