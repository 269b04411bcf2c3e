// Minimal CSV writer for experiment output (fed to plotting scripts).
#pragma once

#include <fstream>
#include <initializer_list>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace lossburst::util {

/// Writes `s` as one CSV field to `out` (a std::ostream or anything else
/// with `<<` for char and std::string_view). RFC 4180: a field holding a
/// comma, quote, CR or LF is quoted, with each embedded quote doubled.
/// This is the project's one quoting rule: CsvWriter and the telemetry
/// exporter (obs/export.hpp) both write fields through it.
template <typename Out>
void write_csv_field(Out& out, std::string_view s) {
  if (s.find_first_of(",\"\n\r") == std::string_view::npos) {
    out << s;
    return;
  }
  out << '"';
  for (char c : s) {
    if (c == '"') out << '"';
    out << c;
  }
  out << '"';
}

/// Streams rows of comma-separated values to any std::ostream. Fields
/// containing commas, quotes, or newlines are quoted per RFC 4180.
class CsvWriter {
 public:
  explicit CsvWriter(std::ostream& out) : out_(&out) {}

  void header(std::initializer_list<std::string_view> names) { row_strings(names.begin(), names.end()); }

  template <typename... Ts>
  void row(const Ts&... fields) {
    bool first = true;
    ((write_field(fields, first), first = false), ...);
    *out_ << '\n';
  }

  void row_vector(const std::vector<double>& values);

  /// Incremental interface for rows whose column count is only known at
  /// runtime (e.g. one column per registered metric): append fields one at
  /// a time, then terminate the line.
  template <typename T>
  void row_append(const T& field) {
    write_field(field, at_row_start_);
    at_row_start_ = false;
  }

  void end_row() {
    *out_ << '\n';
    at_row_start_ = true;
  }

 private:
  template <typename It>
  void row_strings(It begin, It end) {
    bool first = true;
    for (It it = begin; it != end; ++it) {
      write_field(*it, first);
      first = false;
    }
    *out_ << '\n';
  }

  template <typename T>
  void write_field(const T& value, bool first) {
    if (!first) *out_ << ',';
    if constexpr (std::is_convertible_v<T, std::string_view>) {
      write_csv_field(*out_, std::string_view(value));
    } else {
      std::ostringstream ss;
      ss << value;
      write_csv_field(*out_, ss.str());
    }
  }

  std::ostream* out_;
  bool at_row_start_ = true;
};

/// Opens a file, writes via CsvWriter, flushes on destruction.
class CsvFile {
 public:
  explicit CsvFile(const std::string& path) : file_(path), writer_(file_) {}

  [[nodiscard]] bool ok() const { return file_.good(); }
  CsvWriter& writer() { return writer_; }

 private:
  // lossburst-lint: allow(raw-file): util sits below obs, so figure CSVs cannot reach obs::write_artifact; callers check ok()
  std::ofstream file_;
  CsvWriter writer_;
};

}  // namespace lossburst::util
