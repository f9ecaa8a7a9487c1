// Figure: named series of (x, y) points with text/CSV rendering — the
// container every bench binary fills and prints, one per paper figure.
#pragma once

#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace knl::report {

struct Series {
  std::string name;
  std::vector<std::pair<double, double>> points;
};

class Figure {
 public:
  Figure(std::string title, std::string x_label, std::string y_label)
      : title_(std::move(title)), x_label_(std::move(x_label)),
        y_label_(std::move(y_label)) {}

  [[nodiscard]] const std::string& title() const noexcept { return title_; }

  /// Append a point to `series` (created on first use, order preserved).
  void add(const std::string& series, double x, double y);

  [[nodiscard]] const std::vector<Series>& series() const noexcept { return series_; }
  [[nodiscard]] const Series* find(const std::string& name) const;

  /// y value of `series` at `x` (exact match), if present.
  [[nodiscard]] std::optional<double> value_at(const std::string& series, double x) const;

  /// Aligned text table: one row per distinct x, one column per series.
  /// Missing points render as "-" (the paper's "no measurement" bars).
  [[nodiscard]] std::string to_table() const;

  /// CSV with the same layout.
  [[nodiscard]] std::string to_csv() const;

  /// JSON object: {title, x_label, y_label, series: [{name, points: [[x,y]...]}]}.
  [[nodiscard]] std::string to_json() const;

 private:
  std::string title_;
  std::string x_label_;
  std::string y_label_;
  std::vector<Series> series_;
};

}  // namespace knl::report
