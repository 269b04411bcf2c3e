// Burst-adaptive repair control (DESIGN.md §15).
//
// The closed loop the paper's "implications" section asks for: the
// *receiver* maintains a bounded record of per-symbol loss indicators
// (gap-detected against the deterministic source schedule), periodically
// fits a Gilbert model to it, and feeds the fitted (p, q) back to the
// sender. The record's transition counts (analysis::GilbertCounts) are
// updated as each indicator enters and the oldest leaves, so each push and
// each fit costs O(1) however deep the record, and the fit is bit-identical
// to analysis::fit_gilbert over the same record. The *sender*-side
// RepairController turns the fit into three knobs:
//   - repair rate: stationary loss times the fitted mean burst length times
//     a safety margin, capped by the redundancy budget. The burst factor is
//     the point: a burst of B erasures needs B innovative repairs before the
//     release frontier can cross it, so provisioning to the *average* loss
//     rate leaves the frontier stalled for ~B/rate symbols after every
//     burst. For Bernoulli loss (burst length 1) the rule reduces to the
//     classic margin x loss.
//   - repair clustering: repairs are emitted in groups sized to the fitted
//     mean burst length — a burst of B losses needs B innovative repairs
//     before the frontier can cross it, so spreading repairs one-by-one at
//     the same budget (the Bernoulli-optimal shape) roughly multiplies the
//     stall time by B;
//   - window depth: proportional to the fitted burst length, so the
//     encoding window always spans a whole burst plus the feedback delay.
// When the fitted outage exceeds what the budget can cover (link flap),
// the controller degrades to ARQ-style operation — repairs throttle to a
// trickle and recovery rides on NACK-driven retransmissions — and returns
// when the fit improves (hysteresis on both edges).
//
// fit_gilbert flags low-confidence records (fewer than 2 state changes);
// both the fitter and the controller *hold* their previous estimate in
// that case instead of slewing to a degenerate p/q.
#pragma once

#include <cstdint>
#include <vector>

#include "analysis/gilbert.hpp"

namespace lossburst::fec {

/// Bounded loss-record ring + hold-last Gilbert fitting (receiver side).
class AdaptiveFitter {
 public:
  /// Loss-record depth of the FEC sink's fitter.
  static constexpr std::size_t kDefaultWindow = 2048;

  /// Throws std::invalid_argument for a window below 2: a one-entry record
  /// holds no transition, so it can never yield a fit.
  explicit AdaptiveFitter(std::size_t window = kDefaultWindow);

  /// Appends one indicator, retiring the oldest once the window is full.
  void push(bool lost);

  /// Re-fit over the current record. Low-confidence fits (too short / too
  /// uniform to constrain p and q) do not replace the held estimate.
  const analysis::GilbertFit& refresh();

  [[nodiscard]] const analysis::GilbertFit& current() const { return fit_; }
  /// True when the last refresh() held the previous estimate.
  [[nodiscard]] bool held() const { return held_; }
  /// Counts over the current record, oldest to newest: counts().fit() is
  /// the candidate refresh() weighs before the hold-last rule.
  [[nodiscard]] const analysis::GilbertCounts& counts() const { return counts_; }

 private:
  std::vector<std::uint8_t> ring_;
  std::size_t head_ = 0;  ///< next slot to write; the oldest once full
  analysis::GilbertCounts counts_;
  analysis::GilbertFit fit_;
  bool have_fit_ = false;
  bool held_ = false;
};

struct RepairPolicy {
  double margin = 2.0;         ///< rate = margin x fitted loss x mean burst
  double min_rate = 0.02;      ///< floor: keep probing even when loss ~ 0
  double budget = 0.125;       ///< redundancy cap (repairs per source symbol)
  double burst_group_mult = 1.5;  ///< repair group size = mult x mean burst
  std::uint32_t max_group = 16;
  double window_burst_mult = 16.0;  ///< window depth = mult x mean burst
  /// Window-depth floor. The window must keep a lost symbol covered until
  /// repairs provoked by it can arrive — roughly the frontier-feedback lag
  /// (one-way delay each way plus the feedback interval) in symbols — or
  /// coding recovery silently degenerates to ARQ.
  std::uint32_t min_window = 64;
  double degrade_loss = 0.35;  ///< fitted loss above this: fall back to ARQ
  double recover_loss = 0.15;  ///< fitted loss below this: resume coding
};

/// Sender-side knob mapper (pure state machine; no sim dependencies).
class RepairController {
 public:
  RepairController(RepairPolicy policy, std::uint32_t window_cap,
                   double initial_rate, std::uint32_t initial_window);

  /// Apply a feedback report. `held` marks a low-confidence fit relayed
  /// from the receiver: the controller keeps all knobs unchanged.
  void update(const analysis::GilbertFit& fit, bool held);

  [[nodiscard]] double repair_rate() const { return rate_; }
  [[nodiscard]] std::uint32_t repair_group() const { return group_; }
  [[nodiscard]] std::uint32_t window_depth() const { return window_; }
  /// True while the fitted outage exceeds the repair budget: the sender
  /// should stop spending on coding and lean on retransmission requests.
  [[nodiscard]] bool degraded() const { return degraded_; }
  [[nodiscard]] std::uint64_t updates_applied() const { return applied_; }
  [[nodiscard]] std::uint64_t updates_held() const { return held_count_; }

 private:
  RepairPolicy policy_;
  std::uint32_t window_cap_;
  double rate_;
  std::uint32_t group_ = 1;
  std::uint32_t window_;
  bool degraded_ = false;
  std::uint64_t applied_ = 0;
  std::uint64_t held_count_ = 0;
};

}  // namespace lossburst::fec
