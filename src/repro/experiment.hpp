// ExperimentSpec: every figure and table of the paper's evaluation as data.
//
// Each spec names the workload, the sweep grid (sizes or thread counts),
// the memory configurations, the derived series of the published plot, the
// paper's qualitative expectation for the shape, and tolerance-aware
// assertions of that shape. The registry is the single source of truth:
// the knl-repro pipeline, its one-figure text output, and the
// golden-baseline conformance gate all execute these same descriptions.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/types.hpp"

namespace knl::repro {

/// Version of the artifact JSON schema. Bump when the artifact layout
/// changes; goldens with a different version fail the hygiene test and the
/// diff, forcing a deliberate re-bless.
inline constexpr int kSchemaVersion = 1;

enum class ExperimentKind : std::uint8_t {
  SizeSweep,    ///< metric vs problem size at fixed threads (Figs. 2, 4a-e)
  ThreadSweep,  ///< metric vs thread count at fixed size (Fig. 6a-d)
  HtGrid,       ///< size sweep per hardware-thread multiplier (Fig. 5)
  Latency,      ///< latency-probe block sweep (Fig. 3)
  Table,        ///< static text table (Tables I-II)
};

[[nodiscard]] std::string to_string(ExperimentKind kind);

/// Derived ratio series of the published figure (e.g. "Speedup by HBM
/// w.r.t. DRAM"): numerator(x) / denominator(x) where both exist.
struct RatioSeries {
  std::string numerator;
  std::string denominator;
  std::string name;
};

/// Per-metric tolerances for the golden diff. The model is deterministic,
/// so same-binary reruns are bit-identical; the defaults absorb only
/// compiler/libm ULP drift across toolchains.
struct Tolerance {
  double rel = 1e-6;
  double abs = 1e-9;

  /// True when |actual - expected| is acceptable under either bound.
  [[nodiscard]] bool accepts(double expected, double actual) const;
};

/// One qualitative assertion about a produced figure — the machine-checked
/// form of the paper's prose claims ("HBM/DDR speedup exceeds 1 for
/// bandwidth-bound apps at large sizes"). Ratio checks evaluate at the
/// sweep point whose x is nearest `x`; growth checks compare a series'
/// last point to its first.
struct ShapeCheck {
  enum class Kind : std::uint8_t {
    RatioAtLeast,      ///< series_a(x) / series_b(x) >= threshold
    RatioAtMost,       ///< series_a(x) / series_b(x) <= threshold
    PointCountAtMost,  ///< series_a has <= threshold points (infeasible tail)
    GrowthAtLeast,     ///< last(series_a) / first(series_a) >= threshold
    GrowthAtMost,      ///< last(series_a) / first(series_a) <= threshold
  };

  Kind kind = Kind::RatioAtLeast;
  std::string series_a;
  std::string series_b;  ///< ratio kinds only
  double x = 0.0;        ///< ratio kinds only: evaluate at nearest sweep x
  double threshold = 0.0;
  std::string description;
};

struct ExperimentSpec {
  std::string id;           ///< stable artifact name, e.g. "fig4a_dgemm"
  std::string title;        ///< figure/table title as published
  std::string x_label;
  std::string y_label;
  std::string paper_shape;  ///< the paper's qualitative expectation, prose

  ExperimentKind kind = ExperimentKind::SizeSweep;
  std::string workload;     ///< workloads::find_workload name; empty for Table

  std::vector<std::uint64_t> sizes_bytes;  ///< SizeSweep/HtGrid/Latency grid
  int fixed_threads = 64;                  ///< SizeSweep thread count
  std::vector<int> thread_counts;  ///< ThreadSweep points; HtGrid multipliers
  std::uint64_t fixed_bytes = 0;   ///< ThreadSweep problem size
  std::vector<MemConfig> configs;

  bool self_speedup = false;        ///< add per-series "<name> speedup" lines
  std::vector<RatioSeries> ratios;  ///< derived ratio series to add
  std::vector<ShapeCheck> checks;
  Tolerance tolerance;
};

/// All experiments of the paper's evaluation, in publication order.
[[nodiscard]] const std::vector<ExperimentSpec>& experiments();

/// Lookup by id; nullptr when unknown.
[[nodiscard]] const ExperimentSpec* find_experiment(const std::string& id);

}  // namespace knl::repro
