// Pipeline: execute ExperimentSpecs through the parallel sweep engine and
// emit one canonical, schema-versioned JSON artifact per experiment plus a
// run manifest.
//
// The artifact is the machine-checked record of what the model currently
// predicts for one paper figure/table: every series point, the rendered
// table text, and the outcome of each qualitative shape check. Checked-in
// artifacts under golden/ are the conformance baseline the GoldenDiff
// comparator gates against.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/machine.hpp"
#include "report/figure.hpp"
#include "report/sweep.hpp"
#include "repro/experiment.hpp"
#include "repro/json.hpp"

namespace knl::repro {

/// Read cap for artifact, manifest and golden files (each a few KiB): a
/// longer file is reported as unreadable instead of being loaded.
inline constexpr std::size_t kMaxArtifactBytes = std::size_t{64} << 20;

struct PipelineOptions {
  /// Sweep worker threads per experiment: 0 = one per hardware thread,
  /// 1 = serial, N = N workers.
  int jobs = 0;
  /// Consult/populate the process-wide SweepCache (results are unchanged
  /// either way; the model is deterministic).
  bool memoize = true;
  /// Per-cell retry budget for transient faults (forwarded to the sweep
  /// engine; see report::SweepOptions::retry).
  fault::RetryPolicy retry{};
  /// Per-cell watchdog deadline in ms, 0 = disabled (forwarded to the
  /// sweep engine; see report::SweepOptions::cell_deadline_ms).
  double cell_deadline_ms = 0.0;
};

/// Outcome of one ShapeCheck against the produced figure.
struct CheckOutcome {
  ShapeCheck check;
  bool passed = false;
  std::string detail;  ///< e.g. "HBM/DRAM = 4.28 at x=6 (want >= 3.5)"
};

/// One executed experiment: the figure (or table text), the sweep engine's
/// accounting, and every shape-check outcome.
struct ExperimentResult {
  std::string id;
  report::Figure figure{"", "", ""};
  std::string table_text;  ///< Table experiments only
  std::string notes;       ///< extra deterministic record (e.g. idle anchors)
  report::SweepStats stats;
  std::vector<CheckOutcome> checks;

  [[nodiscard]] bool checks_passed() const;
};

class Pipeline {
 public:
  explicit Pipeline(const Machine& machine, PipelineOptions options = {});

  /// Execute one spec. Throws std::invalid_argument on a malformed spec
  /// (unknown workload, empty grid).
  [[nodiscard]] ExperimentResult run(const ExperimentSpec& spec) const;

  /// Execute every given spec, in order.
  [[nodiscard]] std::vector<ExperimentResult> run_all(
      const std::vector<const ExperimentSpec*>& specs) const;

 private:
  const Machine& machine_;
  PipelineOptions options_;
};

/// y value of `series` at the point whose x is nearest `x`; nullopt when
/// the series is missing or empty. The nearest-x rule keeps shape checks
/// robust to workloads whose realized footprint rounds away from the
/// nominal sweep size.
[[nodiscard]] std::optional<double> value_near(const report::Figure& figure,
                                               const std::string& series, double x);

/// Evaluate one shape check against a produced figure.
[[nodiscard]] CheckOutcome evaluate_check(const ShapeCheck& check,
                                          const report::Figure& figure);

// ---------------------------------------------------------------------------
// Artifact serialization
// ---------------------------------------------------------------------------

/// Canonical artifact filename of an experiment id ("<id>.json").
[[nodiscard]] std::string artifact_filename(const std::string& id);

/// Serialize one result to its schema-versioned artifact.
[[nodiscard]] json::Value artifact_json(const ExperimentResult& result,
                                        const Machine& machine);

/// The run manifest: schema version, machine fingerprint, experiment ids.
[[nodiscard]] json::Value manifest_json(const std::vector<ExperimentResult>& results,
                                        const Machine& machine);

/// Same, from bare experiment ids (bless merges subsets this way).
[[nodiscard]] json::Value manifest_json(const std::vector<std::string>& ids,
                                        const Machine& machine);

/// Write every artifact plus manifest.json into `dir` (created if needed).
/// Returns false and sets `*error` on I/O failure.
bool write_artifacts(const std::vector<ExperimentResult>& results,
                     const Machine& machine, const std::string& dir,
                     std::string* error);

/// Read and parse one JSON file; nullopt (with `*error`) when unreadable or
/// malformed.
[[nodiscard]] std::optional<json::Value> load_json_file(const std::string& path,
                                                        std::string* error);

}  // namespace knl::repro
