// Pipeline: execute ExperimentSpecs and emit one canonical, schema-versioned
// JSON artifact per experiment plus a run manifest.
//
// The unit of parallelism is the experiment, not the sweep cell: a cell
// evaluates in a few microseconds, so a pool hand-off per cell costs more
// than it saves, while the 14 experiments are independent. run_all and
// run_each spread the experiments over one thread pool per call; every
// sweep inside an experiment runs serially, so pools never nest.
//
// The artifact is the machine-checked record of what the model currently
// predicts for one paper figure/table: every series point, the rendered
// table text, and the outcome of each qualitative shape check. Checked-in
// artifacts under golden/ are the conformance baseline the GoldenDiff
// comparator gates against.
#pragma once

#include <cstddef>
#include <exception>
#include <functional>
#include <optional>
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
  /// Experiments run_all/run_each execute at once: 0 = one per hardware
  /// thread, 1 = serial, N = N workers (never more than there are specs).
  /// Sweeps inside an experiment always run serially.
  int jobs = 0;
  /// Consult/populate the process-wide SweepCache (results are unchanged
  /// either way; the model is deterministic).
  bool memoize = true;
  /// Per-cell retry budget for transient faults (forwarded to the sweep
  /// engine; see report::SweepOptions::retry).
  fault::RetryPolicy retry{};
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
  /// Times Pipeline::run_each re-ran this experiment inline after a
  /// ThreadPool dispatch fault.
  std::size_t serial_fallbacks = 0;

  [[nodiscard]] bool checks_passed() const;
};

/// One slot of Pipeline::run_each: the result, or the exception the
/// experiment threw, or neither when it was never started.
struct ExperimentOutcome {
  std::optional<ExperimentResult> result;
  std::exception_ptr error;
};

class Pipeline {
 public:
  explicit Pipeline(const Machine& machine, PipelineOptions options = {});

  /// Execute one spec on the calling thread. Throws std::invalid_argument
  /// on a malformed spec (unknown workload, empty grid).
  [[nodiscard]] ExperimentResult run(const ExperimentSpec& spec) const;

  /// Execute every given spec (see run_each); results in the given order.
  /// Of the experiments' exceptions, the first in the given order is
  /// rethrown, as a serial loop would have thrown it.
  [[nodiscard]] std::vector<ExperimentResult> run_all(
      const std::vector<const ExperimentSpec*>& specs) const;

  /// The scheduler under run_all. With more than one worker and more than
  /// one spec, each experiment is one task on a pool of min(jobs, specs)
  /// workers; otherwise they run inline, stopping at the first error. A
  /// pool dispatch fault (the "thread-pool-dispatch" site, keyed by the
  /// spec's index) re-runs that experiment inline and counts one
  /// `serial_fallbacks`. `stop`, when given, is polled before each
  /// experiment starts: once it returns true, experiments not yet started
  /// are skipped and their slots stay empty. `finish`, when given, is
  /// called with a slot's index and result on the thread that ran it, so
  /// per-result work (serializing the artifact) runs in parallel too; what
  /// it throws counts as that experiment's error.
  [[nodiscard]] std::vector<ExperimentOutcome> run_each(
      const std::vector<const ExperimentSpec*>& specs,
      const std::function<bool()>& stop = {},
      const std::function<void(std::size_t, const ExperimentResult&)>& finish = {}) const;

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

/// The exact bytes of one artifact file (dump plus a trailing newline):
/// what goes to disk and what the run journal hashes.
[[nodiscard]] std::string artifact_text(const ExperimentResult& result,
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
