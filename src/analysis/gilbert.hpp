// Gilbert-Elliott two-state loss model fitting — the "more rigorous model"
// the paper's future-work section calls for. A packet stream is reduced to a
// boolean loss sequence; we estimate the Good->Bad and Bad->Good transition
// probabilities by maximum likelihood (transition counting).
#pragma once

#include <cstddef>
#include <vector>

namespace lossburst::analysis {

struct GilbertFit {
  double p_good_to_bad = 0.0;  ///< P(loss_{i+1} | delivered_i)
  double p_bad_to_good = 0.0;  ///< P(delivered_{i+1} | loss_i)
  double loss_rate = 0.0;      ///< overall fraction lost
  /// Good<->Bad state changes observed (gb + bg transition counts). Both
  /// probabilities are ratios of these counts, so with fewer than 2 the fit
  /// is degenerate: a record that never leaves one state pins one side to
  /// zero and leaves the other unconstrained.
  std::size_t state_changes = 0;
  /// True when the record is too short or too uniform to constrain p and q
  /// (state_changes < 2). Online consumers — the burst-adaptive FEC
  /// controller — must hold their previous estimate instead of retuning to
  /// these degenerate values.
  bool low_confidence = false;

  /// Stationary probability of the Bad state: p_gb / (p_gb + p_bg).
  [[nodiscard]] double stationary_bad() const;

  /// Mean loss burst length: 1 / p_bg.
  [[nodiscard]] double mean_burst_length() const;

  /// Burstiness index: mean burst length of the fit divided by the mean
  /// burst length an independent (Bernoulli) loss process of the same rate
  /// would produce, 1/(1-r). Equals 1 for independent losses, > 1 when
  /// losses cluster.
  [[nodiscard]] double burstiness_vs_bernoulli() const;
};

/// Sufficient statistics of the fit: the maximum-likelihood estimate
/// depends on a loss record only through its length, its losses and its
/// four transition counts (g = delivered, b = lost; `gb` counts
/// delivered-then-lost pairs). fit_gilbert() and the online fitter
/// (fec::AdaptiveFitter, which keeps these counts as its window slides) both
/// go through fit(), so they agree bit for bit over the same record.
struct GilbertCounts {
  std::size_t length = 0;
  std::size_t losses = 0;
  std::size_t gg = 0, gb = 0, bg = 0, bb = 0;

  /// The count of `from` -> `to` transitions.
  [[nodiscard]] std::size_t& transition(bool from, bool to) {
    return from ? (to ? bb : bg) : (to ? gb : gg);
  }

  /// Requires length >= 2 for a fit; shorter records come back zeroed and
  /// low_confidence.
  [[nodiscard]] GilbertFit fit() const;
};

/// Fit from a per-packet loss indicator sequence (true = lost), in send
/// order. Requires at least 2 packets; degenerate sequences (no losses or
/// all losses) produce zero transition probabilities on the missing side.
GilbertFit fit_gilbert(const std::vector<bool>& lost);

/// Loss-run statistics: lengths of maximal runs of consecutive losses.
std::vector<std::size_t> loss_run_lengths(const std::vector<bool>& lost);

}  // namespace lossburst::analysis
