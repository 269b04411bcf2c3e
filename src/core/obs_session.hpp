// Per-run observability glue (DESIGN.md §8): attaches a Telemetry bundle to
// the simulator before the topology is built (so every link/flow registers
// itself at construction), samples the metric registry on a periodic process
// during the run, and writes the exported artifacts at the end.
//
// Declare an ObsSession after the Simulator and before the Network: links
// and flows deregister their metrics in their destructors, so the registry
// must still be alive when they go.
#pragma once

#include <memory>

#include "obs/export.hpp"
#include "obs/live/publisher.hpp"
#include "obs/telemetry.hpp"
#include "sim/process.hpp"
#include "sim/simulator.hpp"

namespace lossburst::core {

class ObsSession {
 public:
  ObsSession(sim::Simulator& sim, const obs::ObsConfig& cfg) : sim_(sim), cfg_(cfg) {
    if (!cfg_.enabled()) return;
    telemetry_ = std::make_unique<obs::Telemetry>();
    telemetry_->recorder().configure(cfg_.trace_capacity, cfg_.trace_kinds);
    if (cfg_.profile) telemetry_->enable_profiler();
    sim_.set_telemetry(telemetry_.get());
    if (cfg_.live != nullptr) cfg_.live->attach(*telemetry_);
  }

  ~ObsSession() {
    if (telemetry_) sim_.set_telemetry(nullptr);
  }

  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  /// Freeze the metric column set (call once every component is built) and
  /// start interval sampling. `horizon` pre-sizes the sample buffer so the
  /// run itself allocates nothing. Throws std::invalid_argument when the
  /// configured interval is not positive.
  void start_sampling(util::Duration horizon) {
    if (!telemetry_) return;
    const std::size_t rows = obs::series_rows(horizon, cfg_.interval);
    series_ = std::make_unique<obs::IntervalSeries>(telemetry_->registry());
    series_->reserve(rows);
    if (cfg_.live != nullptr) cfg_.live->freeze(sim_.now().ns(), cfg_.interval.ns());
    sampler_ = std::make_unique<sim::PeriodicProcess>(sim_, cfg_.interval, [this] {
      series_->sample(sim_.now());
      if (cfg_.live != nullptr) cfg_.live->publish(sim_.now().ns());
    });
    sampler_->start(cfg_.interval);
  }

  /// Take a final sample (unless one just happened at this instant) and
  /// write <dir>/<prefix>{intervals.csv, trace.json, profile.txt}. Call
  /// after run_until, while the flows are still alive.
  void finish() {
    if (!telemetry_ || !series_) return;
    sampler_->stop();
    if (series_->last_time() != sim_.now()) series_->sample(sim_.now());
    if (cfg_.writes_artifacts()) obs::export_artifacts(cfg_, *telemetry_, *series_);
  }

  [[nodiscard]] obs::Telemetry* telemetry() { return telemetry_.get(); }
  [[nodiscard]] const obs::IntervalSeries* series() const { return series_.get(); }

 private:
  sim::Simulator& sim_;
  obs::ObsConfig cfg_;
  std::unique_ptr<obs::Telemetry> telemetry_;
  std::unique_ptr<obs::IntervalSeries> series_;
  std::unique_ptr<sim::PeriodicProcess> sampler_;
};

}  // namespace lossburst::core
