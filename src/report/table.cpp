#include "report/table.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>
#include <stdexcept>

namespace knl::report {

TextTable::TextTable(std::vector<std::string> headers) : headers_(std::move(headers)) {
  if (headers_.empty()) throw std::invalid_argument("TextTable: no headers");
}

void TextTable::add_row(std::vector<std::string> cells) {
  if (cells.size() != headers_.size()) {
    throw std::invalid_argument("TextTable::add_row: cell count mismatch");
  }
  rows_.push_back(std::move(cells));
}

std::string TextTable::to_string() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::ostringstream os;
  auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      os << std::left << std::setw(static_cast<int>(widths[c])) << cells[c];
      if (c + 1 < cells.size()) os << "  ";
    }
    os << '\n';
  };
  emit(headers_);
  std::string rule;
  for (std::size_t c = 0; c < widths.size(); ++c) {
    rule.append(widths[c], '-');
    if (c + 1 < widths.size()) rule.append("  ");
  }
  os << rule << '\n';
  for (const auto& row : rows_) emit(row);
  return os.str();
}

std::string TextTable::to_csv() const {
  std::ostringstream os;
  auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      os << cells[c];
      if (c + 1 < cells.size()) os << ',';
    }
    os << '\n';
  };
  emit(headers_);
  for (const auto& row : rows_) emit(row);
  return os.str();
}

std::string format_gb(double bytes) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(1) << bytes / 1e9 << " GB";
  return os.str();
}

}  // namespace knl::report
