#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "analysis/dispersion.hpp"
#include "analysis/episodes.hpp"
#include "analysis/gilbert.hpp"
#include "analysis/loss_intervals.hpp"
#include "core/competition_experiment.hpp"
#include "core/dumbbell_experiment.hpp"
#include "core/fec_experiment.hpp"
#include "inet/shard_campaign.hpp"

namespace perfbench {

namespace {

using namespace lossburst;
using util::Duration;

/// FNV-1a over 64-bit words, the library's own digest construction.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (i * 8)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    add(bits);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Records the first failed property of a check.
void require(Check& c, bool holds, const char* what) {
  if (!holds && c.ok) {
    c.ok = false;
    c.why = what;
  }
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

// ---- fig2_sweep: the Fig. 2 plan, serially ---------------------------------

constexpr std::size_t kFig2Flows[] = {2, 8, 32};
constexpr double kFig2Buffers[] = {0.125, 0.5, 2.0};
constexpr std::size_t kFig2Runs = 9;

core::DumbbellExperimentConfig fig2_config(std::uint64_t seed, std::size_t i) {
  core::DumbbellExperimentConfig cfg;
  cfg.seed = seed + i;
  cfg.tcp_flows = kFig2Flows[i / 3];
  cfg.buffer_bdp_fraction = kFig2Buffers[i % 3];
  cfg.duration = Duration::seconds(60);
  cfg.warmup = Duration::seconds(5);
  return cfg;
}

std::vector<std::uint64_t> fig2_seeds(std::uint64_t seed) {
  std::vector<std::uint64_t> seeds;
  for (std::size_t i = 0; i < kFig2Runs; ++i) seeds.push_back(fig2_config(seed, i).seed);
  return seeds;
}

void fig2_setup(std::uint64_t seed, Pass& pass) {
  for (std::size_t i = 0; i < kFig2Runs; ++i) {
    core::DumbbellExperimentConfig cfg = fig2_config(seed, i);
    cfg.duration = Duration::zero();
    cfg.warmup = Duration::zero();
    pass.call("setup.dumbbell", cfg.obs, [&] { return core::run_dumbbell_experiment(cfg); });
  }
}

std::vector<Check> fig2_run(std::uint64_t seed, Pass& pass) {
  std::vector<core::DumbbellExperimentResult> results(kFig2Runs);
  for (std::size_t i = 0; i < kFig2Runs; ++i) {
    core::DumbbellExperimentConfig cfg = fig2_config(seed, i);
    cfg.obs = pass.obs(false);
    results[i] =
        pass.call("dumbbell", cfg.obs, [&] { return core::run_dumbbell_experiment(cfg); });
  }

  Check c{"fig2_sweep", static_cast<int>(kFig2Runs), 0, true, ""};
  Digest d;
  std::vector<double> pooled;
  {
    // The figure's own analysis: pooled normalised inter-loss PDF, then the
    // episodes and the dispersion curve of the 32-flow, 0.5 BDP run.
    Pass::Scope s(pass, "analysis.pdf");
    std::vector<double> representative;
    double representative_rtt = 0.0;
    for (std::size_t i = 0; i < kFig2Runs; ++i) {
      const core::DumbbellExperimentResult& r = results[i];
      d.add(r.total_drops);
      std::vector<double> times = r.drop_times_s;
      std::sort(times.begin(), times.end());
      for (double iv : analysis::inter_loss_intervals(times)) pooled.push_back(iv / r.mean_rtt_s);
      if (i == 7) {
        representative = std::move(times);
        representative_rtt = r.mean_rtt_s;
      }
    }
    const analysis::LossIntervalAnalysis merged = analysis::analyze_normalized_intervals(pooled);
    require(c, merged.loss_count > 0, "the pooled analysis is empty");
    const analysis::EpisodeStats eps =
        analysis::episode_stats(representative, 0.5 * representative_rtt);
    require(c, eps.total_drops == representative.size(), "episodes lost drops");
    const analysis::DispersionCurve curve = analysis::dispersion_curve(
        representative, 0.01 * representative_rtt, 20.0 * representative_rtt, 8);
    require(c, curve.idc.size() == 8, "dispersion curve has the wrong length");
    s.arg("samples", static_cast<std::uint64_t>(pooled.size()));
  }
  for (double v : pooled) d.add(v);
  c.digest = d.value();
  return {c};
}

// ---- fig7_observed: the Fig. 7 headline with telemetry exporting -----------

core::CompetitionConfig fig7_config(std::uint64_t seed) {
  core::CompetitionConfig cfg;
  cfg.seed = seed;
  cfg.paced_flows = 16;
  cfg.window_flows = 16;
  cfg.rtt = Duration::millis(50);
  cfg.duration = Duration::seconds(40);
  return cfg;
}

std::vector<std::uint64_t> fig7_seeds(std::uint64_t seed) { return {seed}; }

void fig7_setup(std::uint64_t seed, Pass& pass) {
  core::CompetitionConfig cfg = fig7_config(seed);
  cfg.duration = Duration::zero();
  pass.call("setup.competition", cfg.obs, [&] { return core::run_competition(cfg); });
}

Check fig7_check(const core::CompetitionResult& r) {
  Check c{"fig7_observed", 1, 0, true, ""};
  require(c, r.paced_mbps.size() == 40 && r.window_mbps.size() == 40,
          "throughput series is not one sample per second");
  require(c, r.paced_mean_mbps > 0.0 && r.window_mean_mbps > 0.0, "a class moved no data");
  Digest d;
  for (double v : r.paced_mbps) d.add(v);
  for (double v : r.window_mbps) d.add(v);
  c.digest = d.value();
  return c;
}

std::vector<Check> fig7_run(std::uint64_t seed, Pass& pass) {
  core::CompetitionConfig cfg = fig7_config(seed);
  cfg.obs = pass.obs(true);
  return {fig7_check(pass.call("competition", cfg.obs, [&] { return core::run_competition(cfg); }))};
}

std::vector<Extra> fig7_extras(std::uint64_t seed, Pass& pass, const std::vector<Check>& ref) {
  // The same call detached from telemetry: its wall time prices the obs
  // layer, and its output must equal the observed one.
  const core::CompetitionConfig cfg = fig7_config(seed);
  const auto t0 = std::chrono::steady_clock::now();
  Check c = fig7_check(pass.call("competition", cfg.obs, [&] { return core::run_competition(cfg); }));
  Extra e{"fig7_detached", seconds_since(t0), std::move(c)};
  e.check.label = "fig7_detached";
  require(e.check, e.check.digest == ref.front().digest, "detached result differs from observed");
  return {e};
}

// ---- fec_stream: FIG9's repair disciplines at steady-state length ----------

constexpr std::uint64_t kFecSymbols = 150'000;

core::FecRunConfig fec_base(std::uint64_t seed) {
  core::FecRunConfig cfg;
  cfg.seed = seed;
  cfg.plan.seed = seed;
  cfg.fec.symbols = kFecSymbols;
  cfg.fec.interval = Duration::millis(2);
  cfg.horizon = cfg.fec.interval * static_cast<std::int64_t>(kFecSymbols) + Duration::seconds(20);
  fault::GilbertSpec g;
  g.link = "path.fwd";
  g.p_good_to_bad = 0.005;
  g.p_bad_to_good = 0.25;
  cfg.plan.gilbert.push_back(g);
  return cfg;
}

struct FecCase {
  const char* label;
  core::FecRunConfig cfg;
  bool must_complete;
};

std::vector<FecCase> fec_cases(std::uint64_t seed) {
  core::FecRunConfig arq = fec_base(seed);
  arq.fec.mode = fec::FecMode::kArq;

  core::FecRunConfig block = fec_base(seed);
  block.fec.mode = fec::FecMode::kBlock;
  block.fec.block_k = 16;
  block.fec.block_r = 2;

  core::FecRunConfig adaptive = fec_base(seed);
  adaptive.fec.mode = fec::FecMode::kSliding;
  adaptive.fec.adaptive = true;
  adaptive.fec.policy.budget = 0.125;

  // Two 1.5 s outages on an otherwise clean path: block FEC without an ARQ
  // fallback stalls for good, the adaptive controller degrades and recovers.
  auto flapped = [](core::FecRunConfig cfg) {
    cfg.plan.gilbert.clear();
    fault::FlapSpec f;
    f.link = "path.fwd";
    f.at_s = 3.0;
    f.down_s = 1.5;
    f.up_s = 2.0;
    f.cycles = 2;
    f.policy = fault::DownPolicy::kDrop;
    cfg.plan.flaps.push_back(f);
    return cfg;
  };
  core::FecRunConfig block_nf = flapped(block);
  block_nf.fec.arq_fallback = false;

  return {{"fec.arq", arq, false},
          {"fec.block", block, false},
          {"fec.adaptive", adaptive, true},
          {"fec.flap.block_nf", block_nf, false},
          {"fec.flap.adaptive", flapped(adaptive), true}};
}

std::vector<std::uint64_t> fec_seeds(std::uint64_t seed) { return {seed}; }

void fec_setup(std::uint64_t seed, Pass& pass) {
  for (FecCase& fc : fec_cases(seed)) {
    fc.cfg.horizon = Duration::zero();
    pass.call("setup.fec_stream", fc.cfg.obs, [&] { return core::run_fec_stream(fc.cfg); });
  }
}

std::vector<Check> fec_run(std::uint64_t seed, Pass& pass) {
  std::vector<Check> checks;
  for (FecCase& fc : fec_cases(seed)) {
    fc.cfg.obs = pass.obs(false);
    const core::FecRunResult r =
        pass.call("fec_stream", fc.cfg.obs, [&] { return core::run_fec_stream(fc.cfg); });
    Check c{fc.label, 1, r.digest, true, ""};
    require(c, r.source_sent == kFecSymbols, "the source did not send the whole stream");
    if (fc.must_complete) require(c, r.completed, "adaptive stream left symbols undelivered");
    checks.push_back(std::move(c));
  }
  return checks;
}

// ---- shard_campaign: the faulted 8000-site campaign on two shards ----------

inet::ShardCampaignConfig shard_config(std::uint64_t seed, std::size_t shards) {
  inet::ShardCampaignConfig cfg;
  cfg.seed = seed;
  cfg.shards = shards;
  cfg.sites = 8000;
  cfg.flows = 4096;
  cfg.fault_backbone = true;
  return cfg;
}

std::vector<std::uint64_t> shard_seeds(std::uint64_t seed) { return {seed}; }

void shard_setup(std::uint64_t seed, Pass& pass) {
  inet::ShardCampaignConfig cfg = shard_config(seed, 2);
  cfg.duration = Duration::zero();
  pass.call("setup.shard_campaign", cfg.obs, [&] { return inet::run_shard_campaign(cfg); });
}

Check shard_call(std::uint64_t seed, std::size_t shards, Pass& pass, bool traced_obs) {
  inet::ShardCampaignConfig cfg = shard_config(seed, shards);
  if (traced_obs) cfg.obs = pass.obs(false);
  inet::ShardCampaignResult r;
  {
    Pass::Scope s(pass, "shard_campaign");
    s.arg("call", std::string("true"));
    if (!cfg.obs.dir.empty()) s.arg("prefix", "\"" + cfg.obs.prefix + "\"");
    r = inet::run_shard_campaign(cfg);
    s.arg("shards", static_cast<std::uint64_t>(shards));
    s.arg("events", r.events);
    s.arg("epochs", r.epochs);
  }
  Check c{"shard_campaign", 1, r.digest, true, ""};
  require(c, r.flows.size() == cfg.flows, "a probe flow is missing from the report");
  require(c, r.probes_received > 0 && r.probes_received <= r.probes_sent,
          "probe accounting is inconsistent");
  require(c, r.fault_totals.gilbert_drops > 0, "the faulted backbone dropped nothing");
  {
    // The campaign's analysis: one Gilbert fit over the probes that crossed
    // the faulted backbone.
    Pass::Scope s(pass, "analysis.fit");
    std::vector<bool> pooled;
    for (const inet::ShardFlowReport& f : r.flows) {
      if (f.crosses_fault_link) {
        pooled.insert(pooled.end(), f.loss_indicator.begin(), f.loss_indicator.end());
      }
    }
    const analysis::GilbertFit fit = analysis::fit_gilbert(pooled);
    require(c, fit.loss_rate > 0.0 && fit.loss_rate < 1.0, "the crossing flows' fit is degenerate");
    s.arg("samples", static_cast<std::uint64_t>(pooled.size()));
  }
  return c;
}

std::vector<Check> shard_run(std::uint64_t seed, Pass& pass) {
  return {shard_call(seed, 2, pass, true)};
}

std::vector<Extra> shard_extras(std::uint64_t seed, Pass& pass, const std::vector<Check>& ref) {
  // One shard: the serial reference for the two-shard run's speed-up, and
  // for its digest, which must not depend on the shard count.
  const auto t0 = std::chrono::steady_clock::now();
  Check c = shard_call(seed, 1, pass, false);
  Extra e{"shard_k1", seconds_since(t0), std::move(c)};
  e.check.label = "shard_k1";
  require(e.check, e.check.digest == ref.front().digest, "K=1 digest differs from K=2");
  return {e};
}

std::vector<Extra> no_extras(std::uint64_t, Pass&, const std::vector<Check>&) { return {}; }

const Workload kWorkloads[] = {
    {"fig2_sweep", 50, 0, static_cast<int>(kFig2Runs), fig2_seeds, fig2_setup, fig2_run,
     no_extras},
    {"fig7_observed", 50, 0, 1, fig7_seeds, fig7_setup, fig7_run, fig7_extras},
    {"fec_stream", 8, 0, 5, fec_seeds, fec_setup, fec_run, no_extras},
    {"shard_campaign", 8, 2, 1, shard_seeds, shard_setup, shard_run, shard_extras},
};

}  // namespace

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::vector<std::string_view> workload_names() {
  std::vector<std::string_view> names;
  for (const Workload& w : kWorkloads) names.push_back(w.name);
  return names;
}

}  // namespace perfbench
