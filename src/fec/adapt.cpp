#include "fec/adapt.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace lossburst::fec {

AdaptiveFitter::AdaptiveFitter(std::size_t window) {
  if (window < 2) throw std::invalid_argument("AdaptiveFitter: window must be >= 2");
  // lossburst-lint: allow(datapath-alloc): one-time ring pre-size
  ring_.assign(window, 0);
}

void AdaptiveFitter::push(bool lost) {
  const std::size_t n = ring_.size();
  const std::size_t newest = head_ == 0 ? n - 1 : head_ - 1;
  if (counts_.length == n) {
    // Full: the oldest entry (at head_) leaves, with its transition into
    // the next one.
    const bool oldest = ring_[head_] != 0;
    const std::size_t next = head_ + 1 == n ? 0 : head_ + 1;
    --counts_.transition(oldest, ring_[next] != 0);
    if (oldest) --counts_.losses;
    --counts_.length;
  }
  if (counts_.length > 0) ++counts_.transition(ring_[newest] != 0, lost);
  if (lost) ++counts_.losses;
  ++counts_.length;
  ring_[head_] = lost ? 1 : 0;
  head_ = head_ + 1 == n ? 0 : head_ + 1;
}

const analysis::GilbertFit& AdaptiveFitter::refresh() {
  const analysis::GilbertFit candidate = counts_.fit();
  if (candidate.low_confidence && have_fit_) {
    // Hold the last trustworthy estimate; the degenerate candidate would
    // slew p/q to 0 and whipsaw the controller.
    held_ = true;
    return fit_;
  }
  held_ = false;
  fit_ = candidate;
  if (!candidate.low_confidence) have_fit_ = true;
  return fit_;
}

RepairController::RepairController(RepairPolicy policy, std::uint32_t window_cap,
                                   double initial_rate, std::uint32_t initial_window)
    : policy_(policy),
      window_cap_(window_cap),
      rate_(std::clamp(initial_rate, policy.min_rate, policy.budget)),
      window_(std::clamp(initial_window, policy.min_window, window_cap)) {}

void RepairController::update(const analysis::GilbertFit& fit, bool held) {
  if (held || fit.low_confidence) {
    // Degenerate record: hold every knob at its last trustworthy setting.
    ++held_count_;
    return;
  }
  ++applied_;
  const double loss = fit.loss_rate;
  if (degraded_) {
    if (loss < policy_.recover_loss) degraded_ = false;
  } else {
    if (loss > policy_.degrade_loss) degraded_ = true;
  }
  const double burst = std::max(1.0, fit.mean_burst_length());
  if (degraded_) {
    // The code rate cannot cover this outage: stop spending the budget on
    // repairs that cannot keep up and let NACK-driven retransmissions do
    // the recovery.
    rate_ = policy_.min_rate;
    group_ = 1;
  } else {
    // Provision for the burst concentration of erasures, not the average:
    // see the header comment. Reduces to margin x loss when burst == 1.
    rate_ = std::clamp(policy_.margin * loss * burst, policy_.min_rate,
                       policy_.budget);
    const double g = std::ceil(policy_.burst_group_mult * burst);
    group_ = static_cast<std::uint32_t>(
        std::clamp(g, 1.0, static_cast<double>(policy_.max_group)));
  }
  const double w = policy_.window_burst_mult * burst;
  window_ = static_cast<std::uint32_t>(std::clamp(
      w, static_cast<double>(policy_.min_window), static_cast<double>(window_cap_)));
}

}  // namespace lossburst::fec
