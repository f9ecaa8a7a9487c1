// Deterministic, seeded fault injection — the chaos harness the resilience
// stack is tested (and CI-gated) against.
//
// A FaultPlan is a list of FaultSites: named injection points in the
// execution stack, each with a *keyed* selection rule (hash-rate, modulo,
// or exact key) and an attempt budget. Selection is a pure function of
// (plan seed, site name, key) — never of wall time, thread id, or call
// order — so the same plan produces the identical failure schedule whether
// the repro pipeline runs on 1 worker or 8, and CI can replay an exact
// schedule with `KNL_FAULT_PLAN`.
//
// Grammar (clauses ';'-separated, fields ','-separated):
//
//   seed=42;site=sweep-cell,rate=0.15,kind=transient,attempts=2;site=...
//
//   rate=F       fail keys where hash(seed,site,key) < F        (0 < F <= 1)
//   every=N      fail keys where key % N == 0
//   key=N        fail exactly key N
//   attempts=N   each selected key fails N times, then succeeds (default 1)
//   kind=K       transient | corrupt-input | resource | internal
//
// Injection points live behind `maybe_inject(site, key)`: a single relaxed
// atomic load when no plan is armed, so production paths pay nothing.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/fault/error.hpp"

namespace knl::fault {

// Injection-site names (the keyed unit in parentheses).
inline constexpr const char* kSiteThreadPoolDispatch =
    "thread-pool-dispatch";                            // (submission sequence)
inline constexpr const char* kSiteSweepCell = "sweep-cell";  // (grid cell index)
inline constexpr const char* kSiteJsonRead = "json-read";    // (filename hash)
inline constexpr const char* kSiteJsonWrite = "json-write";  // (filename hash)
inline constexpr const char* kSitePipelineInterrupt =
    "pipeline-interrupt";  // (experiment index); non-throwing, SIGINT-style
inline constexpr const char* kSiteHttpRead =
    "http-read";  // (connection ordinal); torn/aborted request read
inline constexpr const char* kSiteHttpWrite =
    "http-write";  // (connection ordinal); truncated response frame
inline constexpr const char* kSiteSlowClient =
    "slow-client";  // (request index); client-side stalled writes (slow-loris)

inline constexpr const char* kFaultPlanEnvVar = "KNL_FAULT_PLAN";

/// One injection clause of a plan.
struct FaultSite {
  std::string site;
  double rate = 0.0;        ///< hash-rate selection when > 0
  std::uint64_t every = 0;  ///< modulo selection when > 0 (and rate == 0)
  std::int64_t key = -1;    ///< exact-key selection when >= 0 (highest priority)
  int attempts = 1;         ///< failures per selected key before it succeeds
  ErrorCategory kind = ErrorCategory::Transient;

  friend bool operator==(const FaultSite&, const FaultSite&) = default;
};

struct FaultPlan {
  std::uint64_t seed = 0;
  std::vector<FaultSite> sites;

  /// Parse the KNL_FAULT_PLAN grammar; throws knl::Error (corrupt-input)
  /// with the offending clause on malformed input.
  [[nodiscard]] static FaultPlan parse(const std::string& spec);
  /// Canonical spec string; parse(to_string()) == *this.
  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const FaultPlan&, const FaultPlan&) = default;
};

/// Process-wide injector. arm() installs a plan and resets the per-key
/// attempt ledger; disarm() removes it. Thread-safe: selection is pure,
/// the attempt ledger is mutex-guarded, and the armed flag is a relaxed
/// atomic so un-armed fast paths cost one load.
class FaultInjector {
 public:
  static FaultInjector& instance();

  void arm(FaultPlan plan);
  void disarm();
  /// Forget which keys have already consumed their attempt budgets (the
  /// plan stays armed) — re-runs then replay the identical schedule.
  void reset_schedule();

  [[nodiscard]] bool armed() const noexcept {
    return armed_.load(std::memory_order_relaxed);
  }

  /// Throw the planned knl::Error if (site, key) is selected and its
  /// attempt budget is not yet exhausted. No-op when disarmed.
  void maybe_inject(std::string_view site, std::uint64_t key);

  /// Non-throwing variant for control-flow sites (pipeline-interrupt):
  /// true when the fault fires, consuming one attempt.
  [[nodiscard]] bool fires(std::string_view site, std::uint64_t key);

  /// Pure selection query: would the plan ever fail (site, key)? Does not
  /// consume attempts — tests use it to compute expected schedules.
  [[nodiscard]] bool selects(std::string_view site, std::uint64_t key) const;

  /// Total faults fired since the last arm()/reset_schedule().
  [[nodiscard]] std::uint64_t injected() const noexcept {
    return injected_.load(std::memory_order_relaxed);
  }

 private:
  FaultInjector() = default;

  /// The clause selecting (site, key), or nullptr. Pure.
  [[nodiscard]] const FaultSite* match(std::string_view site,
                                       std::uint64_t key) const;

  mutable std::mutex mutex_;
  FaultPlan plan_;
  std::atomic<bool> armed_{false};
  std::atomic<std::uint64_t> injected_{0};
  /// (site index in plan, key) -> attempts already consumed.
  std::map<std::pair<std::size_t, std::uint64_t>, int> consumed_;
};

/// Fast-path helper: costs one relaxed load when no plan is armed.
inline void maybe_inject(std::string_view site, std::uint64_t key) {
  FaultInjector& injector = FaultInjector::instance();
  if (injector.armed()) injector.maybe_inject(site, key);
}

/// Non-throwing helper for control-flow sites; false when disarmed.
inline bool fires(std::string_view site, std::uint64_t key) {
  FaultInjector& injector = FaultInjector::instance();
  return injector.armed() && injector.fires(site, key);
}

/// Arm from $KNL_FAULT_PLAN when set. Returns false (with *error) on a
/// malformed spec; true (armed or not) otherwise.
bool arm_from_env(std::string* error);

/// RAII plan scope for tests and CLI invocations: arms on construction,
/// disarms on destruction.
class ScopedFaultPlan {
 public:
  explicit ScopedFaultPlan(FaultPlan plan) {
    FaultInjector::instance().arm(std::move(plan));
  }
  ~ScopedFaultPlan() { FaultInjector::instance().disarm(); }
  ScopedFaultPlan(const ScopedFaultPlan&) = delete;
  ScopedFaultPlan& operator=(const ScopedFaultPlan&) = delete;
};

/// FNV-1a hash of a string — the key derivation for path-keyed sites.
[[nodiscard]] std::uint64_t site_key(std::string_view text) noexcept;

}  // namespace knl::fault
