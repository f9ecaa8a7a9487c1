// Device-level DRAM timing model: a test helper, header-only.
//
// The machine model's per-node bandwidth caps (stream_bw_gbs,
// random_bw_gbs in knl_params.hpp) are calibrated to the paper's
// measurements. This module derives the same quantities from JEDEC-style
// device timing — channels, banks, row-buffer policy, tCL/tRCD/tRP/tRAS —
// so the calibration can be cross-checked against device physics
// (tests/sim/dram_model_test.cpp asserts the derived numbers bracket the
// calibrated caps). It also explains *why* random line traffic reaches only
// ~half of streaming bandwidth on DDR4: every line miss pays a row cycle,
// and bank-level parallelism, not the bus, becomes the limit.
#pragma once

#include <algorithm>
#include <stdexcept>

namespace knl::sim {

/// JEDEC-ish device/channel timing (all times in ns unless noted).
struct DramTiming {
  double clock_mhz = 1066.0;   ///< I/O clock (DDR: 2x data rate)
  int channels = 6;
  double bus_bytes = 8.0;      ///< per channel per beat
  int banks_per_channel = 16;
  double tCL = 14.06;          ///< CAS latency (15 cycles @ 1066 MHz)
  double tRCD = 14.06;         ///< RAS-to-CAS
  double tRP = 14.06;          ///< precharge
  double tRAS = 32.0;          ///< row active time
  double tFAW = 30.0;          ///< four-activate window
  double burst_ns = 3.75;      ///< 64 B line: BL8 @ 2133 MT/s
  /// Fraction of streaming accesses that hit an open row (prefetched
  /// sequential traffic with open-page policy).
  double stream_row_hit = 0.94;
  /// Controller + on-die fabric overhead added to the device latency.
  double controller_ns = 55.0;
};

/// DDR4-2133, six channels — the testbed's off-package memory.
inline DramTiming ddr4_2133_6ch() {
  DramTiming t;
  t.clock_mhz = 1066.0;
  t.channels = 6;
  t.bus_bytes = 8.0;
  t.banks_per_channel = 16;
  t.tCL = 14.06;
  t.tRCD = 14.06;
  t.tRP = 14.06;
  t.tRAS = 32.0;
  t.tFAW = 30.0;
  t.burst_ns = 3.75;        // BL8 @ 2133 MT/s
  t.stream_row_hit = 0.96;  // open-page policy under prefetched streams
  t.controller_ns = 100.0;  // controller + on-die fabric to the core
  return t;
}

/// MCDRAM: eight on-package devices with wide internal buses and deep
/// banking; per-device timings are close to DDR but the aggregate beats it
/// on parallelism, not latency (Chang et al., cited by the paper).
inline DramTiming mcdram_8dev() {
  DramTiming t;
  // Eight devices, two pseudo-channels each, higher I/O rate: aggregate
  // parallelism is the point; per-access timing is DDR-like or worse
  // (Chang et al. — "latency is not reduced as expected").
  t.clock_mhz = 1800.0;
  t.channels = 16;
  t.bus_bytes = 8.0;
  t.banks_per_channel = 16;
  t.tCL = 15.0;
  t.tRCD = 15.0;
  t.tRP = 15.0;
  t.tRAS = 34.0;
  t.tFAW = 16.0;            // deep banking: activates come faster
  t.burst_ns = 2.22;        // 64 B @ 28.8 GB/s per pseudo-channel
  t.stream_row_hit = 0.99;
  t.controller_ns = 124.0;  // longer path: through the EDC mesh stops
  return t;
}

class DramModel {
 public:
  explicit DramModel(DramTiming timing) : timing_(timing) {
    if (timing_.channels < 1 || timing_.banks_per_channel < 1) {
      throw std::invalid_argument("DramModel: need >= 1 channel and bank");
    }
    if (timing_.clock_mhz <= 0.0 || timing_.bus_bytes <= 0.0 || timing_.burst_ns <= 0.0 ||
        timing_.tFAW <= 0.0) {
      throw std::invalid_argument("DramModel: timing values must be positive");
    }
    if (timing_.stream_row_hit < 0.0 || timing_.stream_row_hit > 1.0) {
      throw std::invalid_argument("DramModel: stream_row_hit outside [0,1]");
    }
  }

  [[nodiscard]] const DramTiming& timing() const noexcept { return timing_; }

  /// Row cycle time tRC = tRAS + tRP.
  [[nodiscard]] double row_cycle_ns() const { return timing_.tRAS + timing_.tRP; }

  /// Device access latency for a row-buffer hit / closed bank / conflict.
  [[nodiscard]] double row_hit_ns() const { return timing_.tCL; }
  [[nodiscard]] double row_closed_ns() const { return timing_.tRCD + timing_.tCL; }
  [[nodiscard]] double row_conflict_ns() const {
    return timing_.tRP + timing_.tRCD + timing_.tCL;
  }

  /// Unloaded end-to-end latency (controller + average device access under
  /// a mostly-idle system with closed pages).
  [[nodiscard]] double idle_latency_ns() const {
    return timing_.controller_ns + row_closed_ns();
  }

  /// Pin-rate peak bandwidth: channels * bus * data rate (2 beats per clock).
  [[nodiscard]] double peak_bw_gbs() const {
    return static_cast<double>(timing_.channels) * timing_.bus_bytes *
           (2.0 * timing_.clock_mhz * 1e6) / 1e9;
  }

  /// Attainable streaming bandwidth: per line and channel the bus is busy
  /// for `burst`; the occasional row miss stalls the open-page stream for
  /// precharge + activate.
  [[nodiscard]] double stream_bw_gbs() const {
    const double miss = 1.0 - timing_.stream_row_hit;
    const double line_ns = timing_.burst_ns + miss * (timing_.tRP + timing_.tRCD);
    return static_cast<double>(timing_.channels) * 64.0 / line_ns;  // B/ns == GB/s
  }

  /// Attainable uniform-random line bandwidth: essentially every access
  /// activates a new row. The four-activate window bounds activates per
  /// channel (4 per tFAW), and bank-level parallelism is a second ceiling:
  /// each bank serves one line per row cycle.
  [[nodiscard]] double random_bw_gbs() const {
    const double activates_per_s =
        static_cast<double>(timing_.channels) * 4.0 / (timing_.tFAW * 1e-9);
    const double bank_lines_per_s =
        static_cast<double>(timing_.channels) *
        static_cast<double>(timing_.banks_per_channel) / (row_cycle_ns() * 1e-9);
    return std::min(activates_per_s, bank_lines_per_s) * 64.0 / 1e9;
  }

 private:
  DramTiming timing_;
};

}  // namespace knl::sim
