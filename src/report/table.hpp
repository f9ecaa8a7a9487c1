// Generic aligned text table (used for Table I/II style output and the
// EXPERIMENTS summaries).
#pragma once

#include <string>
#include <vector>

namespace knl::report {

/// Fixed-column table of strings: headers set once, rows appended, rendered
/// in two formats. Column widths auto-size to the longest cell.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> headers);

  /// Add a row; must match the header count.
  void add_row(std::vector<std::string> cells);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_.size(); }

  /// Space-aligned plain text (what the bench binaries print).
  [[nodiscard]] std::string to_string() const;
  /// Comma-separated values, one line per row, headers first.
  [[nodiscard]] std::string to_csv() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Format a byte count the way the paper labels axes ("11.4 GB").
[[nodiscard]] std::string format_gb(double bytes);

}  // namespace knl::report
