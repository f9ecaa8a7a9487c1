#include "service/health.hpp"

#include <algorithm>
#include <cstdio>

namespace knl::service {

const char* to_string(HealthState state) {
  switch (state) {
    case HealthState::Healthy:
      return "healthy";
    case HealthState::Degraded:
      return "degraded";
    case HealthState::Shedding:
      return "shedding";
  }
  return "unknown";
}

HealthMonitor::HealthMonitor(HealthOptions options) : options_(options) {
  ring_.resize(std::max<std::size_t>(1, options_.window), 0.0);
}

void HealthMonitor::set_transition_log(TransitionLog log) {
  const std::lock_guard<std::mutex> lock(mutex_);
  log_ = std::move(log);
}

void HealthMonitor::record(double latency_ms, std::size_t inflight,
                           std::size_t max_inflight) {
  const std::lock_guard<std::mutex> lock(mutex_);
  ring_[next_] = latency_ms;
  next_ = (next_ + 1) % ring_.size();
  count_ = std::min(count_ + 1, ring_.size());
  evaluate_locked(inflight, max_inflight);
}

void HealthMonitor::note_queue(std::size_t inflight, std::size_t max_inflight) {
  const std::lock_guard<std::mutex> lock(mutex_);
  evaluate_locked(inflight, max_inflight);
}

double HealthMonitor::p99_locked() const {
  // An empty window (min_samples = 0, or just reset by a transition) has
  // no p99; indexing it would read sorted[(0 - 1) * 0.99].
  if (count_ == 0 || count_ < options_.min_samples) return 0.0;
  // nth_element over a copy of the live window: ~window doubles, cheap next
  // to the request that produced the sample.
  std::vector<double> sorted(ring_.begin(),
                             ring_.begin() + static_cast<std::ptrdiff_t>(count_));
  const auto nth = static_cast<std::size_t>(
      static_cast<double>(count_ - 1) * 0.99);
  std::nth_element(sorted.begin(),
                   sorted.begin() + static_cast<std::ptrdiff_t>(nth), sorted.end());
  return sorted[nth];
}

HealthState HealthMonitor::desired_locked(double p99, double queue_fraction,
                                          double scale) const {
  if (p99 >= options_.shedding_p99_ms * scale ||
      queue_fraction >= options_.shedding_queue_fraction * scale) {
    return HealthState::Shedding;
  }
  if (p99 >= options_.degraded_p99_ms * scale ||
      queue_fraction >= options_.degraded_queue_fraction * scale) {
    return HealthState::Degraded;
  }
  return HealthState::Healthy;
}

void HealthMonitor::transition_locked(HealthState to, const std::string& why) {
  const HealthState from = state_.load(std::memory_order_relaxed);
  state_.store(to, std::memory_order_relaxed);
  ++transitions_;
  last_transition_ = Clock::now();
  // Fresh probation window: the new state is judged on its own traffic.
  count_ = 0;
  next_ = 0;
  if (log_) log_(from, to, why);
}

void HealthMonitor::evaluate_locked(std::size_t inflight, std::size_t max_inflight) {
  if (pinned_) return;
  const double p99 = p99_locked();
  const double queue_fraction =
      max_inflight == 0 ? 1.0
                        : static_cast<double>(inflight) /
                              static_cast<double>(max_inflight);
  const HealthState current = state_.load(std::memory_order_relaxed);

  // Escalation: immediate.
  const HealthState up = desired_locked(p99, queue_fraction, 1.0);
  if (static_cast<int>(up) > static_cast<int>(current)) {
    char why[160];
    std::snprintf(why, sizeof(why),
                  "p99 %.1f ms, queue %.0f%% of max_inflight", p99,
                  queue_fraction * 100.0);
    transition_locked(up, why);
    return;
  }

  // De-escalation: one level at a time, only past the dwell, and only when
  // the metrics clear the hysteresis band (recover_fraction of threshold).
  if (static_cast<int>(current) == 0) return;
  const double dwell_ms = std::chrono::duration<double, std::milli>(
                              Clock::now() - last_transition_)
                              .count();
  if (dwell_ms < options_.min_dwell_ms) return;
  const HealthState relaxed =
      desired_locked(p99, queue_fraction, options_.recover_fraction);
  if (static_cast<int>(relaxed) < static_cast<int>(current)) {
    const auto down = static_cast<HealthState>(static_cast<int>(current) - 1);
    char why[160];
    std::snprintf(why, sizeof(why),
                  "recovered: p99 %.1f ms, queue %.0f%% of max_inflight", p99,
                  queue_fraction * 100.0);
    transition_locked(down, why);
  }
}

HealthSnapshot HealthMonitor::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  HealthSnapshot snap;
  snap.state = state_.load(std::memory_order_relaxed);
  snap.p99_ms = p99_locked();
  snap.samples = count_;
  snap.transitions = transitions_;
  return snap;
}

void HealthMonitor::force_state_for_testing(HealthState state, bool pin) {
  const std::lock_guard<std::mutex> lock(mutex_);
  pinned_ = pin;
  state_.store(state, std::memory_order_relaxed);
}

}  // namespace knl::service
