#include "analysis/gilbert.hpp"

namespace lossburst::analysis {

double GilbertFit::stationary_bad() const {
  const double denom = p_good_to_bad + p_bad_to_good;
  return denom > 0.0 ? p_good_to_bad / denom : 0.0;
}

double GilbertFit::mean_burst_length() const {
  return p_bad_to_good > 0.0 ? 1.0 / p_bad_to_good : 0.0;
}

double GilbertFit::burstiness_vs_bernoulli() const {
  if (loss_rate <= 0.0 || loss_rate >= 1.0) return 0.0;
  const double bernoulli_burst = 1.0 / (1.0 - loss_rate);
  const double fitted = mean_burst_length();
  return bernoulli_burst > 0.0 && fitted > 0.0 ? fitted / bernoulli_burst : 0.0;
}

GilbertFit GilbertCounts::fit() const {
  GilbertFit out;
  out.low_confidence = true;
  if (length < 2) return out;
  out.loss_rate = static_cast<double>(losses) / static_cast<double>(length);
  if (gb + gg > 0) out.p_good_to_bad = static_cast<double>(gb) / static_cast<double>(gb + gg);
  if (bg + bb > 0) out.p_bad_to_good = static_cast<double>(bg) / static_cast<double>(bg + bb);
  out.state_changes = gb + bg;
  out.low_confidence = out.state_changes < 2;
  return out;
}

GilbertFit fit_gilbert(const std::vector<bool>& lost) {
  GilbertCounts c;
  c.length = lost.size();
  for (std::size_t i = 0; i < lost.size(); ++i) {
    if (lost[i]) ++c.losses;
    if (i > 0) ++c.transition(lost[i - 1], lost[i]);
  }
  return c.fit();
}

std::vector<std::size_t> loss_run_lengths(const std::vector<bool>& lost) {
  std::vector<std::size_t> runs;
  std::size_t current = 0;
  for (bool l : lost) {
    if (l) {
      ++current;
    } else if (current > 0) {
      runs.push_back(current);
      current = 0;
    }
  }
  if (current > 0) runs.push_back(current);
  return runs;
}

}  // namespace lossburst::analysis
