#include "perf/tuner.hpp"

#include <limits>

#include "common/error.hpp"

namespace opv::perf {

OnlineTuner::OnlineTuner(std::vector<int> candidates, int reps)
    : candidates_(std::move(candidates)), reps_(reps) {
  OPV_REQUIRE(!candidates_.empty(), "OnlineTuner: no candidates");
  OPV_REQUIRE(reps_ >= 1, "OnlineTuner: reps must be >= 1");
  for (int bs : candidates_)
    OPV_REQUIRE(bs >= 16 && bs % 16 == 0,
                "OnlineTuner: candidate " << bs << " must be a positive multiple of 16");
  best_seconds_.assign(candidates_.size(), std::numeric_limits<double>::infinity());
}

int OnlineTuner::propose() const {
  return settled_ ? best_ : candidates_[cursor_];
}

void OnlineTuner::observe(int size, double seconds) {
  if (settled_ || size != candidates_[cursor_]) return;
  if (seconds < best_seconds_[cursor_]) best_seconds_[cursor_] = seconds;
  samples_.emplace_back(size, seconds);
  std::size_t arg = 0;
  for (std::size_t i = 1; i < candidates_.size(); ++i)
    if (best_seconds_[i] < best_seconds_[arg]) arg = i;
  best_ = candidates_[arg];
  if (++cursor_ == candidates_.size()) {
    cursor_ = 0;
    if (++pass_ >= reps_) settled_ = true;
  }
}

}  // namespace opv::perf
