// perfbench: runs one benchmark workload in this process and prints what it
// measured as one JSON object on the last line of standard output. run.py
// builds it, checks the digests and turns the samples into metrics; see
// README.md.
//
//   perfbench --workload NAME --seed N --dir DIR [--seconds S] [--trace 0|1]
//
// Untraced (--trace 0): whole iterations back to back until S seconds have
// passed, each after a fixed burst of zero-duration set-up calls; the peak
// resident set is read after the first iteration. Traced
// (--trace 1): one untraced iteration as the reference, traced iterations
// (telemetry and the loop profiler on every call, artifacts in DIR) until S
// seconds have passed, then the workload's extra reference calls; the
// benchmark's spans go to DIR/spans.json.
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "spans.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Check;
using perfbench::Extra;
using perfbench::Pass;
using perfbench::SpanLog;
using perfbench::Workload;
using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::optional<std::uint64_t> seed;
  double seconds = 10.0;
  bool trace = false;
  std::string dir;  ///< scratch directory for artifacts and spans
};

bool parse_u64(const char* s, std::uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0' || s[0] == '-') return false;
  *out = v;
  return true;
}

bool parse_options(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    std::uint64_t n = 0;
    if (flag == "--workload") {
      opt->workload = value;
    } else if (flag == "--seed" && parse_u64(value, &n)) {
      opt->seed = n;
    } else if (flag == "--seconds" && parse_u64(value, &n) && n >= 1 && n <= 3600) {
      opt->seconds = static_cast<double>(n);
    } else if (flag == "--trace" && parse_u64(value, &n) && n <= 1) {
      opt->trace = n == 1;
    } else if (flag == "--dir") {
      opt->dir = value;
    } else {
      return false;
    }
  }
  return !opt->workload.empty() && opt->seed && !opt->dir.empty();
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// User plus system CPU time of the whole process (every thread).
double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/// Peak resident set of this process image. VmHWM, not ru_maxrss: Linux
/// carries the parent's peak across fork+exec into ru_maxrss, so the
/// launcher's own footprint would set the floor.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      status >> kib;
      return kib / 1024.0;
    }
    status.ignore(4096, '\n');
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

struct Iteration {
  int run = 0;
  bool traced = false;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::vector<Check> checks;
  std::string error;  ///< what a throwing call said; its checks are then empty
};

Iteration run_iteration(const Workload& w, std::uint64_t seed, SpanLog& spans,
                        const std::string& dir, int run, bool traced) {
  Iteration it;
  it.run = run;
  it.traced = traced;
  const int parent = spans.open(traced ? "iteration.traced" : "iteration", run, -1);
  Pass pass(spans, dir, run, traced, parent);
  const double cpu0 = cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  try {
    it.checks = w.run(seed, pass);
  } catch (const std::exception& e) {
    it.error = e.what();
  }
  it.wall_s = seconds_since(t0);
  it.cpu_s = cpu_seconds() - cpu0;
  spans.close(parent);
  return it;
}

// ---- JSON output -------------------------------------------------------------

std::string str(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::string check_json(const Check& c) {
  char digest[24];
  std::snprintf(digest, sizeof(digest), "%016llx", static_cast<unsigned long long>(c.digest));
  return "{\"label\":" + str(c.label) + ",\"ops\":" + std::to_string(c.ops) +
         ",\"digest\":\"" + digest + "\",\"ok\":" + (c.ok ? "true" : "false") +
         ",\"why\":" + str(c.why) + "}";
}

template <typename T, typename F>
std::string list(const std::vector<T>& items, F&& fmt) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ',';
    out += fmt(items[i]);
  }
  return out + "]";
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_options(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --dir DIR [--seconds S] "
                 "[--trace 0|1]\nworkloads:");
    for (std::string_view n : perfbench::workload_names()) {
      std::fprintf(stderr, " %.*s", static_cast<int>(n.size()), n.data());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  // Timings from an instrumented build measure the instrumentation.
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0 || LOSSBURST_INVARIANTS_ENABLED != 0) {
    std::fprintf(stderr,
                 "perfbench: refusing to measure a '%s' build with invariants %s; configure "
                 "with -DCMAKE_BUILD_TYPE=Release\n",
                 PERFBENCH_BUILD_TYPE, LOSSBURST_INVARIANTS_ENABLED ? "on" : "off");
    return 2;
  }
  const Workload* w = perfbench::find_workload(opt.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  const std::uint64_t seed = *opt.seed;

  try {
    std::filesystem::create_directories(opt.dir);
    SpanLog spans(opt.trace);

    // Fixed cost per run: the entry points with zero simulated duration.
    // The samples are taken in bursts of a fixed size before every
    // iteration, so that their median sees the same host as the iterations
    // do, and so that the allocations made up to the end of the first
    // iteration do not depend on timing.
    std::vector<double> setup_s;
    auto sample_setup = [&](int run) {
      const int parent = spans.open("setup", run, -1);
      Pass pass(spans, opt.dir, run, false, parent);
      for (int n = 0; n < w->setup_burst; ++n) {
        const Clock::time_point t = Clock::now();
        w->setup(seed, pass);
        setup_s.push_back(seconds_since(t));
      }
      spans.close(parent);
    };
    auto iterate = [&](int run, bool traced) {
      sample_setup(run);
      return run_iteration(*w, seed, spans, opt.dir, run, traced);
    };

    // The peak resident set is read once the first iteration is done: the
    // allocation history up to there is the same in every run of a seed,
    // whereas the number of later iterations depends on the host's speed.
    std::vector<Iteration> iterations;
    std::vector<Extra> extras;
    const Clock::time_point t0 = Clock::now();
    int run = 1;
    iterations.push_back(iterate(run++, false));
    const double peak_mb = peak_rss_mb();
    if (opt.trace) iterations.push_back(iterate(run++, true));
    while (seconds_since(t0) < opt.seconds) iterations.push_back(iterate(run++, opt.trace));
    if (opt.trace && iterations.front().error.empty()) {
      const int parent = spans.open("extras", run, -1);
      Pass pass(spans, opt.dir, run, false, parent);
      try {
        extras = w->extras(seed, pass, iterations.front().checks);
      } catch (const std::exception& e) {
        extras.push_back(Extra{"extras", 0.0, Check{"extras", 1, 0, false, e.what()}});
      }
      spans.close(parent);
    }

    std::string spans_path;
    if (opt.trace) {
      spans_path = opt.dir + "/spans.json";
      std::ofstream f(spans_path);
      spans.write_chrome_trace(f);
    }

    const std::string manifest =
        std::string("{\"build_type\":") + str(PERFBENCH_BUILD_TYPE) +
        ",\"invariants\":" + std::to_string(LOSSBURST_INVARIANTS_ENABLED) +
        ",\"lossburst_trace\":" + std::to_string(PERFBENCH_TRACE) +
        ",\"compiler\":" + str(PERFBENCH_COMPILER) +
        ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency()) +
        ",\"worker_threads\":" + std::to_string(w->threads) + ",\"seeds\":" +
        list(w->seeds(seed), [](std::uint64_t s) { return std::to_string(s); }) + "}";
    const std::string out =
        "{\"workload\":" + str(std::string(w->name)) + ",\"seed\":" + std::to_string(seed) +
        ",\"trace\":" + (opt.trace ? "1" : "0") + ",\"dir\":" + str(opt.dir) +
        ",\"spans\":" + str(spans_path) + ",\"manifest\":" + manifest +
        ",\"ops_per_iteration\":" + std::to_string(w->ops_per_iteration) +
        ",\"peak_rss_mb\":" + num(peak_mb) +
        ",\"setup_s\":" + list(setup_s, num) + ",\"iterations\":" +
        list(iterations,
             [](const Iteration& it) {
               return "{\"run\":" + std::to_string(it.run) +
                      ",\"traced\":" + (it.traced ? "true" : "false") +
                      ",\"wall_s\":" + num(it.wall_s) + ",\"cpu_s\":" + num(it.cpu_s) +
                      ",\"error\":" + str(it.error) +
                      ",\"checks\":" + list(it.checks, check_json) + "}";
             }) +
        ",\"extras\":" +
        list(extras,
             [](const Extra& e) {
               return "{\"name\":" + str(e.name) + ",\"wall_s\":" + num(e.wall_s) +
                      ",\"check\":" + check_json(e.check) + "}";
             }) +
        "}";
    std::printf("%s\n", out.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }
  return 0;
}
