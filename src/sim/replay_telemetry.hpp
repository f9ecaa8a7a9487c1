// Process-wide replay-engine telemetry.
//
// The batched replay substrate (CacheSim/TlbSim block paths) surfaces its
// activity through the service's /stats endpoint. Counters are relaxed
// atomics bumped once per *block* — never per address — so the hot loops pay
// one fetch_add per few thousand events.
#pragma once

#include <atomic>
#include <cstdint>

namespace knl::sim {

/// Monotonic counters snapshot (see ReplayTelemetry::snapshot()).
struct ReplayTelemetrySnapshot {
  std::uint64_t classified_blocks = 0;     ///< access_block calls (cache + TLB)
  std::uint64_t classified_addresses = 0;  ///< addresses those blocks carried
};

class ReplayTelemetry {
 public:
  static ReplayTelemetry& instance() noexcept {
    static ReplayTelemetry telemetry;
    return telemetry;
  }

  void record_block(std::uint64_t addresses) noexcept {
    classified_blocks_.fetch_add(1, std::memory_order_relaxed);
    classified_addresses_.fetch_add(addresses, std::memory_order_relaxed);
  }

  [[nodiscard]] ReplayTelemetrySnapshot snapshot() const noexcept {
    ReplayTelemetrySnapshot s;
    s.classified_blocks = classified_blocks_.load(std::memory_order_relaxed);
    s.classified_addresses = classified_addresses_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  ReplayTelemetry() = default;

  std::atomic<std::uint64_t> classified_blocks_{0};
  std::atomic<std::uint64_t> classified_addresses_{0};
};

}  // namespace knl::sim
