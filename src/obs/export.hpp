// Exporters: interval-sampled CSV time series and Chrome trace_event JSON
// (DESIGN.md §8). Everything written here is keyed to simulated time, so
// identically-seeded runs emit byte-identical artifacts.
#pragma once

#include <charconv>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <ostream>
#include <string_view>
#include <vector>

#include "obs/telemetry.hpp"
#include "util/time.hpp"

namespace lossburst::obs {

/// The exporters' one text formatter. Text is built in a fixed 64 KiB chunk
/// and each full chunk goes to the stream in a single write(), so an export
/// holds at most one chunk of text and pays no ostream call per field. A
/// string longer than a whole chunk is the one write that may exceed it.
/// Numbers go through std::to_chars, which is specified to print what printf
/// prints for the same format, so the bytes never depend on the locale or
/// on stream state. Call flush() when done: nothing is written on
/// destruction, so a stream that throws never throws from a destructor.
class ChunkWriter {
 public:
  static constexpr std::size_t kChunkBytes = 64 * 1024;

  explicit ChunkWriter(std::ostream& out) : out_(out) {}

  ChunkWriter& operator<<(char c) {
    *room(1) = c;
    ++used_;
    return *this;
  }

  ChunkWriter& operator<<(std::string_view s) {
    if (s.size() > kChunkBytes - used_) {
      flush();
      if (s.size() > kChunkBytes) {
        out_.write(s.data(), static_cast<std::streamsize>(s.size()));
        return *this;
      }
    }
    used_ += s.copy(buf_ + used_, s.size());
    return *this;
  }

  /// Decimal, as printf's %d / %u family prints it.
  template <std::integral T>
  ChunkWriter& operator<<(T v) {
    char* p = room(kNumberBytes);
    advance(std::to_chars(p, p + kNumberBytes, v).ptr);
    return *this;
  }

  /// printf("%.10g", v), byte for byte.
  void put_value(double v) {
    char* p = room(kNumberBytes);
    advance(std::to_chars(p, p + kNumberBytes, v, std::chars_format::general, 10).ptr);
  }

  /// printf("%lld.%0*lld", v / 10^Digits, Digits, v % 10^Digits) for
  /// v >= 0: simulated nanoseconds as seconds (9) or microseconds (3).
  template <int Digits>
  void put_fixed(std::int64_t v) {
    static_assert(Digits > 0 && Digits <= 9, "whole + '.' + Digits must fit kNumberBytes");
    std::int64_t scale = 1;
    for (int i = 0; i < Digits; ++i) scale *= 10;
    char* p = room(kNumberBytes);
    p = std::to_chars(p, p + kNumberBytes, v / scale).ptr;
    *p++ = '.';
    std::int64_t frac = v % scale;
    for (int i = Digits - 1; i >= 0; --i, frac /= 10) p[i] = static_cast<char>('0' + frac % 10);
    advance(p + Digits);
  }

  void flush() {
    if (used_ > 0) out_.write(buf_, static_cast<std::streamsize>(used_));
    used_ = 0;
  }

 private:
  /// Longest number put_* prints: a 20-character int64, '.', 9 digits.
  static constexpr std::size_t kNumberBytes = 32;

  char* room(std::size_t n) {
    if (kChunkBytes - used_ < n) flush();
    return buf_ + used_;
  }
  void advance(const char* end) { used_ = static_cast<std::size_t>(end - buf_); }

  std::ostream& out_;
  std::size_t used_ = 0;
  char buf_[kChunkBytes];
};

/// Periodically snapshots every registered metric into a pre-reserved flat
/// buffer (sampling allocates nothing once reserved). Column set is frozen
/// at construction: build it after all components have registered. CSV rows
/// report counters as per-interval deltas and gauges raw.
class IntervalSeries {
 public:
  explicit IntervalSeries(const Registry& registry);

  /// Pre-size the row buffer so sample() never reallocates mid-run.
  void reserve(std::size_t rows);

  void sample(util::TimePoint t);

  [[nodiscard]] std::size_t rows() const { return times_.size(); }
  [[nodiscard]] std::size_t columns() const { return names_.size(); }
  [[nodiscard]] util::TimePoint last_time() const {
    return times_.empty() ? util::TimePoint(-1) : times_.back();
  }
  /// Raw (undifferenced) value of column c in row r.
  [[nodiscard]] double value(std::size_t r, std::size_t c) const {
    return values_[r * names_.size() + c];
  }

  void write_csv(std::ostream& out) const;

 private:
  const Registry* registry_;
  std::vector<std::string> names_;
  std::vector<MetricKind> kinds_;
  std::vector<util::TimePoint> times_;
  std::vector<double> values_;  ///< rows() x columns(), row-major
};

/// Serialize the flight recorder as Chrome trace_event JSON (JSON Array
/// Format), loadable in Perfetto / chrome://tracing. Queue residency is
/// emitted as async "b"/"e" span pairs (FIFO spans overlap, so stack-nested
/// "X" events cannot represent them); drops/marks/delivers/dispatches as
/// instants; FEC repairs and decodes as instants; cwnd changes as "C"
/// counter tracks. Timestamps are simulated microseconds printed with fixed
/// precision — deterministic byte-for-byte.
void write_chrome_trace(std::ostream& out, const FlightRecorder& rec);

/// Multi-recorder variant for sharded runs: one trace_event process (pid)
/// per recorder, named "shard <k>", with each shard's tracks as that
/// process's threads. Passing a single recorder emits byte-identical output
/// to the single-recorder overload (pid 1, process "lossburst").
void write_chrome_trace(std::ostream& out,
                        const std::vector<const FlightRecorder*>& shards);

/// Rows an IntervalSeries needs to sample every `interval` up to `horizon`,
/// plus a final sample at the end. Throws std::invalid_argument when
/// `interval` is not positive: there is no sampling period to size for.
[[nodiscard]] std::size_t series_rows(util::Duration horizon, util::Duration interval);

/// The one way an artifact file is written: any file at `path` is removed,
/// a new one is created and `write` streams the content into it. A fresh
/// file, never a truncated or renamed-over one: replacing a file's data
/// either way makes ext4 wait for the old data's writeback (DESIGN.md §8).
/// Throws std::runtime_error naming `path` when the old file cannot be
/// removed or the new one cannot be created or written.
void write_artifact(const std::filesystem::path& path,
                    const std::function<void(std::ostream&)>& write);

/// Write every artifact the config asks for into cfg.dir (created if
/// missing): <prefix>intervals.csv, <prefix>trace.json and, when profiling,
/// <prefix>profile.txt. No-op when cfg.writes_artifacts() is false.
void export_artifacts(const ObsConfig& cfg, const Telemetry& telemetry,
                      const IntervalSeries& series);

}  // namespace lossburst::obs
