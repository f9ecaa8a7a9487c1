// In-memory span recorder of the traced run. Spans are recorded by the
// benchmark around its calls into each layer (the program itself carries no
// instrumentation); they stay in memory and are written as one JSON file
// when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  double start_us = 0.0;  ///< since the tracer's epoch
  double end_us = 0.0;
  std::int64_t parent = -1;  ///< index of the causing span, -1 = root
  std::uint64_t request = 0;  ///< spans of one request/pass share this id
};

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;
  static constexpr std::int64_t kNoSpan = -1;

  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  /// Record a finished span; returns its id (kNoSpan when disabled).
  std::int64_t record(const std::string& name, Clock::time_point start,
                      Clock::time_point end, std::int64_t parent,
                      std::uint64_t request);

  /// Open a span now and close it with finish(); for spans that parent
  /// others (the parent id must exist before its children are recorded).
  std::int64_t open(const std::string& name, std::int64_t parent, std::uint64_t request);
  void finish(std::int64_t id);

  /// Durations of every span with this name, in us.
  [[nodiscard]] std::vector<double> durations_us(const std::string& name) const;
  /// Self times of every span with this name, in us: a span's duration
  /// minus the part of it its children cover (children clipped to the
  /// parent, overlapping children counted once).
  [[nodiscard]] std::vector<double> self_times_us(const std::string& name) const;

  /// Write every span as JSON. False on I/O error.
  [[nodiscard]] bool write_json(const std::string& path) const;

 private:
  [[nodiscard]] double since_epoch_us(Clock::time_point t) const;
  [[nodiscard]] double self_us_locked(std::size_t index) const;

  bool enabled_;
  Clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::vector<std::vector<std::size_t>> children_;
};

/// Closes an opened span on scope exit.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const std::string& name, std::int64_t parent,
             std::uint64_t request)
      : tracer_(tracer), id_(tracer.open(name, parent, request)) {}
  ~ScopedSpan() { tracer_.finish(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::int64_t id() const noexcept { return id_; }

 private:
  Tracer& tracer_;
  std::int64_t id_;
};

}  // namespace perfbench
