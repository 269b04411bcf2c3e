#include "util/csv.hpp"

namespace lossburst::util {

void CsvWriter::row_vector(const std::vector<double>& values) {
  bool first = true;
  for (double v : values) {
    if (!first) *out_ << ',';
    *out_ << v;
    first = false;
  }
  *out_ << '\n';
}

}  // namespace lossburst::util
