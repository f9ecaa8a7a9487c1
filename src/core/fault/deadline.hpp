// knl::Deadline — a wall-clock budget that travels with a request.
//
// A Deadline is created once at admission (service entry, CLI flag, test
// fixture) and then *checked* — never extended — at every expensive
// boundary it crosses: acquiring a service query slot, each sweep cell,
// each profiling pass. Checks are cheap (one steady_clock read, no locks), so
// sprinkling them between cells costs nanoseconds while saving seconds of
// dead work once the client has already given up.
//
// Deadlines are shared by const pointer (`std::shared_ptr<const Deadline>`)
// so a request hands every sweep cell and profiling pass the same budget
// without copies or ownership puzzles. A default-constructed or
// null deadline is unbounded: library callers that never opt in (knl-repro,
// the golden pipeline) see bit-identical behavior.
//
// `cancel()` trips the deadline immediately regardless of remaining
// budget — the same expiry path doubles as a cooperative cancellation
// primitive for graceful drain.
#pragma once

#include <atomic>
#include <chrono>
#include <memory>
#include <string>

#include "core/fault/error.hpp"

namespace knl {

/// Stable error-code slug carried by every deadline failure; the service
/// layer maps it to HTTP 504.
inline constexpr const char* kDeadlineExceededCode = "deadline/exceeded";

class Deadline {
 public:
  /// Unbounded: never expires (unless cancelled).
  Deadline() = default;

  // Copyable despite the atomic flag (a copy carries the flag's value).
  Deadline(const Deadline& other)
      : start_(other.start_),
        budget_ms_(other.budget_ms_),
        bounded_(other.bounded_),
        cancelled_(other.cancelled_.load(std::memory_order_relaxed)) {}
  Deadline& operator=(const Deadline& other) {
    if (this != &other) {
      start_ = other.start_;
      budget_ms_ = other.budget_ms_;
      bounded_ = other.bounded_;
      cancelled_.store(other.cancelled_.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
    }
    return *this;
  }

  /// Bounded: expires `budget_ms` milliseconds after construction. A
  /// non-positive budget is already expired — useful for tests and for
  /// clients that discover mid-retry their budget is gone.
  static Deadline after_ms(double budget_ms);

  /// Bounded deadline as a shared const handle — the shape SweepOptions
  /// and the service layer pass around. Returns nullptr when
  /// `budget_ms <= 0` is to be interpreted as "no deadline requested".
  static std::shared_ptr<const Deadline> shared_after_ms(double budget_ms);

  [[nodiscard]] bool bounded() const noexcept { return bounded_; }
  [[nodiscard]] double budget_ms() const noexcept { return budget_ms_; }

  /// Milliseconds since construction.
  [[nodiscard]] double elapsed_ms() const noexcept;

  /// Remaining budget in ms; +infinity when unbounded, clamped at 0 once
  /// expired.
  [[nodiscard]] double remaining_ms() const noexcept;

  /// True once the budget is spent or cancel() was called.
  [[nodiscard]] bool expired() const noexcept;

  /// Trip the deadline now. Safe from any thread; checks on other threads
  /// observe the expiry on their next call.
  void cancel() const noexcept { cancelled_.store(true, std::memory_order_relaxed); }

  /// Throw Error(Resource, "deadline/exceeded") when expired, annotated
  /// with `what` (e.g. "sweep cell 12/64"). Resource — not Transient — so
  /// retry loops never burn attempts re-running work the client already
  /// abandoned.
  void check(const std::string& what) const;

  /// Convenience for call sites holding the shared form: a null pointer is
  /// unbounded.
  static bool expired(const std::shared_ptr<const Deadline>& deadline) noexcept {
    return deadline != nullptr && deadline->expired();
  }

 private:
  using Clock = std::chrono::steady_clock;

  Clock::time_point start_ = Clock::now();
  double budget_ms_ = 0.0;
  bool bounded_ = false;
  mutable std::atomic<bool> cancelled_{false};
};

}  // namespace knl
