#include "io/triplets.h"

#include <algorithm>
#include <sstream>
#include <vector>

#include "io/file_util.h"

namespace ivmf {

using io_internal::FormatDouble;
using io_internal::ReadFileToString;
using io_internal::WriteStringToFile;

std::string SparseIntervalMatrixToTriplets(const SparseIntervalMatrix& m,
                                           int precision) {
  std::string out = kTripletHeader;
  out += "\n";
  out += std::to_string(m.rows()) + " " + std::to_string(m.cols()) + " " +
         std::to_string(m.nnz()) + "\n";
  const std::vector<size_t>& row_ptr = m.row_ptr();
  const std::vector<size_t>& col_idx = m.col_idx();
  const std::vector<double>& lo = m.lower_values();
  const std::vector<double>& hi = m.upper_values();
  for (size_t i = 0; i < m.rows(); ++i) {
    for (size_t k = row_ptr[i]; k < row_ptr[i + 1]; ++k) {
      out += std::to_string(i + 1);
      out += " ";
      out += std::to_string(col_idx[k] + 1);
      out += " ";
      out += FormatDouble(lo[k], precision);
      out += " ";
      out += FormatDouble(hi[k], precision);
      out += "\n";
    }
  }
  return out;
}

std::optional<SparseIntervalMatrix> SparseIntervalMatrixFromTriplets(
    const std::string& text, DuplicatePolicy duplicates) {
  std::istringstream in(text);
  std::string line;

  // Header line.
  if (!std::getline(in, line)) return std::nullopt;
  if (!LooksLikeTriplets(line)) return std::nullopt;

  // Size line (after any comment lines).
  size_t rows = 0, cols = 0, nnz = 0;
  bool have_sizes = false;
  while (std::getline(in, line)) {
    const size_t content = line.find_first_not_of(" \t\r");
    if (content == std::string::npos || line[content] == '%') continue;
    std::istringstream sizes(line);
    if (!(sizes >> rows >> cols >> nnz)) return std::nullopt;
    std::string rest;
    if (sizes >> rest) return std::nullopt;  // trailing tokens
    have_sizes = true;
    break;
  }
  if (!have_sizes) return std::nullopt;

  // Sanity-bound the declared sizes BEFORE allocating anything: a corrupt
  // (or hostile) size line must produce a parse error, not an allocation
  // crash. nnz may not exceed rows * cols (evaluated overflow-free), and
  // dimensions beyond 2^27 are rejected — the CSR row pointer alone would
  // exceed a GiB; matrices that large are built through the in-memory API.
  constexpr size_t kMaxDimension = size_t{1} << 27;
  if (rows > kMaxDimension || cols > kMaxDimension) return std::nullopt;
  if (nnz > 0 && (rows == 0 || cols == 0 || (nnz - 1) / rows >= cols)) {
    return std::nullopt;
  }

  std::vector<IntervalTriplet> triplets;
  triplets.reserve(std::min(nnz, size_t{1} << 20));
  while (std::getline(in, line)) {
    const size_t content = line.find_first_not_of(" \t\r");
    if (content == std::string::npos || line[content] == '%') continue;
    std::istringstream entry(line);
    size_t i = 0, j = 0;
    double lo = 0.0, hi = 0.0;
    if (!(entry >> i >> j >> lo >> hi)) return std::nullopt;
    std::string rest;
    if (entry >> rest) return std::nullopt;  // trailing tokens
    // 1-based in the file; index 0 wraps to SIZE_MAX, out of shape.
    const IntervalTriplet triplet{i - 1, j - 1, Interval(lo, hi)};
    if (ValidateTriplet(triplet, rows, cols) != TripletDefect::kNone) {
      return std::nullopt;
    }
    if (triplets.size() == nnz) return std::nullopt;  // more entries than declared
    triplets.push_back(triplet);
  }
  if (triplets.size() != nnz) return std::nullopt;
  SparseIntervalMatrix m =
      SparseIntervalMatrix::FromTriplets(rows, cols, std::move(triplets));
  // FromTriplets hulls duplicate coordinates. Under kReject a serialized
  // stream is sorted and unique, so a shrunken entry count means the file
  // double-declared a cell — reject it instead of guessing which value was
  // meant. Under kMergeHull the hull IS the requested semantics and the
  // declared nnz only counts entry lines.
  if (duplicates == DuplicatePolicy::kReject && m.nnz() != nnz) {
    return std::nullopt;
  }
  return m;
}

bool LooksLikeTriplets(const std::string& text) {
  const size_t start = text.find_first_not_of(" \t\r\n");
  if (start == std::string::npos) return false;
  return text.compare(start, sizeof(kTripletHeader) - 1, kTripletHeader) == 0;
}

bool SaveSparseIntervalTriplets(const std::string& path,
                                const SparseIntervalMatrix& m, int precision) {
  return WriteStringToFile(path, SparseIntervalMatrixToTriplets(m, precision));
}

std::optional<SparseIntervalMatrix> LoadSparseIntervalTriplets(
    const std::string& path, DuplicatePolicy duplicates) {
  const std::optional<std::string> text = ReadFileToString(path);
  if (!text) return std::nullopt;
  return SparseIntervalMatrixFromTriplets(*text, duplicates);
}

}  // namespace ivmf
