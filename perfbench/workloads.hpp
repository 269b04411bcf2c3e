// The benchmark's four workloads (README.md). Each calls only the library's
// public entry points and the analysis functions the figures use, one call
// after another on the caller's thread.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/telemetry.hpp"
#include "spans.hpp"

namespace perfbench {

/// One checked group of entry-point calls: `ops` calls whose outputs
/// `digest` summarises. `ok` is false when a property that holds at every
/// seed failed; `why` names it.
struct Check {
  std::string label;
  int ops = 1;
  std::uint64_t digest = 0;
  bool ok = true;
  std::string why;
};

/// A traced-pass-only call made outside the iterations: its wall time and
/// whether its output agreed with the iterations'.
struct Extra {
  std::string name;
  double wall_s = 0.0;
  Check check;
};

/// What one iteration of a workload runs under.
class Pass {
 public:
  Pass(SpanLog& spans, std::string dir, int run, bool traced, int parent)
      : spans_(spans), dir_(std::move(dir)), run_(run), traced_(traced), parent_(parent) {}

  /// Telemetry for the next entry-point call. Traced: artifacts and the loop
  /// profile under a prefix unique to the call, sampled once per simulated
  /// second (totals do not depend on the period, the export cost does).
  /// Untraced: artifacts under "user_" for a call users run observed
  /// (`observed`), nothing otherwise.
  lossburst::obs::ObsConfig obs(bool observed) {
    lossburst::obs::ObsConfig cfg;
    if (traced_) {
      cfg.dir = dir_;
      cfg.prefix = "r" + std::to_string(run_) + "c" + std::to_string(calls_++) + "_";
      cfg.interval = lossburst::util::Duration::seconds(1);
      cfg.profile = true;
    } else if (observed) {
      cfg.dir = dir_;
      cfg.prefix = "user_";
    }
    return cfg;
  }

  /// A span under this iteration; closes when it goes out of scope.
  class Scope {
   public:
    Scope(Pass& pass, const char* name)
        : spans_(pass.spans_), id_(spans_.open(name, pass.run_, pass.parent_)) {}
    ~Scope() { spans_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    void arg(const char* key, std::string json_value) {
      spans_.arg(id_, key, std::move(json_value));
    }
    void arg(const char* key, std::uint64_t v) { arg(key, std::to_string(v)); }

   private:
    SpanLog& spans_;
    int id_;
  };

  /// Span around one entry-point call, tagged with its artifact prefix.
  template <typename F>
  auto call(const char* name, const lossburst::obs::ObsConfig& cfg, F&& fn) {
    Scope s(*this, name);
    s.arg("call", std::string("true"));
    if (!cfg.dir.empty()) s.arg("prefix", "\"" + cfg.prefix + "\"");
    return fn();
  }

 private:
  SpanLog& spans_;
  std::string dir_;
  int run_;
  bool traced_;
  int parent_;
  int calls_ = 0;
};

struct Workload {
  std::string_view name;
  int setup_burst;        ///< set-up samples taken before each iteration
  int threads;            ///< threads the workload starts (beyond the caller)
  int ops_per_iteration;  ///< entry-point calls in one iteration
  /// The seeds the entry points receive for workload seed `seed`.
  std::vector<std::uint64_t> (*seeds)(std::uint64_t seed);
  /// The entry points with zero simulated duration: one set-up sample.
  void (*setup)(std::uint64_t seed, Pass& pass);
  /// One iteration; its checks cover every call it made.
  std::vector<Check> (*run)(std::uint64_t seed, Pass& pass);
  /// Traced pass only: calls that put the iterations in context (a detached
  /// or single-shard reference), checked against `reference`.
  std::vector<Extra> (*extras)(std::uint64_t seed, Pass& pass,
                               const std::vector<Check>& reference);
};

/// The workload named `name`, or null.
const Workload* find_workload(std::string_view name);

/// Every workload name, for usage text.
std::vector<std::string_view> workload_names();

}  // namespace perfbench
