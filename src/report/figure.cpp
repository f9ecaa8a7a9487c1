#include "report/figure.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <set>
#include <sstream>

namespace knl::report {

void Figure::add(const std::string& series, double x, double y) {
  for (auto& s : series_) {
    if (s.name == series) {
      s.points.emplace_back(x, y);
      return;
    }
  }
  series_.push_back(Series{series, {{x, y}}});
}

const Series* Figure::find(const std::string& name) const {
  for (const auto& s : series_) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::optional<double> Figure::value_at(const std::string& series, double x) const {
  const Series* s = find(series);
  if (s == nullptr) return std::nullopt;
  for (const auto& [px, py] : s->points) {
    if (px == x) return py;
  }
  return std::nullopt;
}

namespace {

std::string format_value(double v) {
  std::ostringstream os;
  if (v != 0.0 && (std::abs(v) >= 1e6 || std::abs(v) < 1e-3)) {
    os << std::scientific << std::setprecision(3) << v;
  } else {
    os << std::fixed << std::setprecision(3) << v;
  }
  return os.str();
}

}  // namespace

std::string Figure::to_table() const {
  std::set<double> xs;
  for (const auto& s : series_) {
    for (const auto& [x, y] : s.points) xs.insert(x);
  }

  // Column widths.
  std::vector<std::size_t> widths;
  widths.push_back(std::max<std::size_t>(x_label_.size(), 12));
  for (const auto& s : series_) widths.push_back(std::max<std::size_t>(s.name.size(), 12));

  std::ostringstream os;
  os << "# " << title_ << "  [y: " << y_label_ << "]\n";
  os << std::left << std::setw(static_cast<int>(widths[0])) << x_label_;
  for (std::size_t i = 0; i < series_.size(); ++i) {
    os << "  " << std::setw(static_cast<int>(widths[i + 1])) << series_[i].name;
  }
  os << '\n';
  for (const double x : xs) {
    os << std::left << std::setw(static_cast<int>(widths[0])) << format_value(x);
    for (std::size_t i = 0; i < series_.size(); ++i) {
      const auto v = value_at(series_[i].name, x);
      os << "  " << std::setw(static_cast<int>(widths[i + 1]))
         << (v.has_value() ? format_value(*v) : std::string("-"));
    }
    os << '\n';
  }
  return os.str();
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

}  // namespace

std::string Figure::to_json() const {
  std::ostringstream os;
  os << "{\"title\":\"" << json_escape(title_) << "\",\"x_label\":\""
     << json_escape(x_label_) << "\",\"y_label\":\"" << json_escape(y_label_)
     << "\",\"series\":[";
  for (std::size_t s = 0; s < series_.size(); ++s) {
    if (s > 0) os << ',';
    os << "{\"name\":\"" << json_escape(series_[s].name) << "\",\"points\":[";
    for (std::size_t i = 0; i < series_[s].points.size(); ++i) {
      if (i > 0) os << ',';
      os << '[' << series_[s].points[i].first << ',' << series_[s].points[i].second
         << ']';
    }
    os << "]}";
  }
  os << "]}";
  return os.str();
}

std::string Figure::to_csv() const {
  std::set<double> xs;
  for (const auto& s : series_) {
    for (const auto& [x, y] : s.points) xs.insert(x);
  }
  std::ostringstream os;
  os << x_label_;
  for (const auto& s : series_) os << ',' << s.name;
  os << '\n';
  for (const double x : xs) {
    os << format_value(x);
    for (const auto& s : series_) {
      const auto v = value_at(s.name, x);
      os << ',' << (v.has_value() ? format_value(*v) : std::string());
    }
    os << '\n';
  }
  return os.str();
}

}  // namespace knl::report
