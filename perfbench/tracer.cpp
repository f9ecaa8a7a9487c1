#include "tracer.hpp"

#include <algorithm>
#include <fstream>
#include <utility>

#include "repro/json.hpp"

namespace perfbench {

double Tracer::since_epoch_us(Clock::time_point t) const {
  return std::chrono::duration<double, std::micro>(t - epoch_).count();
}

std::int64_t Tracer::record(const std::string& name, Clock::time_point start,
                            Clock::time_point end, std::int64_t parent,
                            std::uint64_t request) {
  if (!enabled_) return kNoSpan;
  Span span{name, since_epoch_us(start), since_epoch_us(end), parent, request};
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::size_t index = spans_.size();
  spans_.push_back(std::move(span));
  children_.emplace_back();
  if (parent >= 0 && static_cast<std::size_t>(parent) < children_.size()) {
    children_[static_cast<std::size_t>(parent)].push_back(index);
  }
  return static_cast<std::int64_t>(index);
}

std::int64_t Tracer::open(const std::string& name, std::int64_t parent,
                          std::uint64_t request) {
  const Clock::time_point now = Clock::now();
  return record(name, now, now, parent, request);
}

void Tracer::finish(std::int64_t id) {
  if (id < 0) return;
  const double end = since_epoch_us(Clock::now());
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id)].end_us = end;
}

double Tracer::self_us_locked(std::size_t index) const {
  const Span& span = spans_[index];
  std::vector<std::pair<double, double>> covered;
  for (const std::size_t child : children_[index]) {
    const double lo = std::max(span.start_us, spans_[child].start_us);
    const double hi = std::min(span.end_us, spans_[child].end_us);
    if (hi > lo) covered.emplace_back(lo, hi);
  }
  std::sort(covered.begin(), covered.end());
  double union_us = 0.0;
  double reach = span.start_us;
  for (const auto& [lo, hi] : covered) {
    const double from = std::max(lo, reach);
    if (hi > from) union_us += hi - from;
    reach = std::max(reach, hi);
  }
  return (span.end_us - span.start_us) - union_us;
}

std::vector<double> Tracer::durations_us(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name) out.push_back(span.end_us - span.start_us);
  }
  return out;
}

std::vector<double> Tracer::self_times_us(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) out.push_back(self_us_locked(i));
  }
  return out;
}

bool Tracer::write_json(const std::string& path) const {
  using knl::repro::json::Value;
  Value spans = Value::array();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      Value one = Value::object();
      one.set("id", static_cast<double>(i));
      one.set("name", span.name);
      one.set("start_us", span.start_us);
      one.set("end_us", span.end_us);
      one.set("parent", static_cast<double>(span.parent));
      one.set("request", static_cast<double>(span.request));
      one.set("self_us", self_us_locked(i));
      spans.push_back(std::move(one));
    }
  }
  Value doc = Value::object();
  doc.set("spans", std::move(spans));
  std::ofstream out(path);
  out << doc.dump(0) << '\n';
  return static_cast<bool>(out);
}

}  // namespace perfbench
