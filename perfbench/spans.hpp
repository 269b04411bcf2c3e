// Benchmark-side spans: name, start, end, parent and run id around every
// call the benchmark makes into the library. They are kept in memory and
// written once, at exit, as Chrome trace_event JSON (the format
// obs::write_chrome_trace produces), so one viewer opens both.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  /// Opens a span and returns its id, or -1 when the log is disabled.
  int open(std::string name, int run, int parent) {
    if (!enabled_) return -1;
    spans_.push_back(Span{std::move(name), now_ns(), 0, parent, run, {}});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  }
  /// Attaches `key` with an already-formatted JSON value.
  void arg(int id, std::string key, std::string json_value) {
    if (id >= 0) {
      spans_[static_cast<std::size_t>(id)].args.emplace_back(std::move(key),
                                                             std::move(json_value));
    }
  }

  /// One complete ("X") event per span; ts and dur in microseconds since the
  /// log was created, the span id, parent and run id in args.
  void write_chrome_trace(std::ostream& out) const {
    out << "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i == 0 ? "" : ",\n") << R"({"name":")" << s.name
          << R"(","cat":"perfbench","ph":"X","pid":1,"tid":1,"ts":)";
      char buf[128];
      std::snprintf(buf, sizeof(buf), R"(%.3f,"dur":%.3f,"args":{"id":%zu,"parent":%d,"run":%d)",
                    static_cast<double>(s.start_ns) / 1e3,
                    static_cast<double>(s.end_ns - s.start_ns) / 1e3, i, s.parent, s.run);
      out << buf;
      for (const auto& [key, value] : s.args) out << ",\"" << key << "\":" << value;
      out << "}}";
    }
    out << "\n]\n";
  }

 private:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
    int run = 0;
    std::vector<std::pair<std::string, std::string>> args;
  };

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  bool enabled_;
  std::chrono::steady_clock::time_point origin_ = std::chrono::steady_clock::now();
  std::vector<Span> spans_;
};

}  // namespace perfbench
