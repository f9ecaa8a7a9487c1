// Shared plumbing of the perfbench harness: options, clocks, order
// statistics, the result record every workload fills, and its printing.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "tracer.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its span JSON ("" = do not write).
  std::string trace_out;
  /// Scratch directory for files a workload writes (repro artifacts).
  std::string scratch_dir = ".bench_build/perfbench-scratch";
  /// Baseline artifacts the repro workload must reproduce exactly.
  std::string golden_dir = "golden";
  /// Offered rate of the serve workload's open-loop phase (requests/s).
  double serve_rate = 2000.0;
  /// Print the digest of the seed-derived inputs and exit (self-test).
  bool digest_only = false;
  /// Write the result with its host record to this file (Release only).
  std::string record;
  /// Commit the binary was built from, for the host record ("" = unknown).
  std::string git_sha;
};

[[nodiscard]] double ms_since(Clock::time_point start);
[[nodiscard]] double us_between(Clock::time_point a, Clock::time_point b);
/// CPU time of the whole process / of the calling thread, ms.
[[nodiscard]] double process_cpu_ms();
[[nodiscard]] double thread_cpu_ms();

/// Linear-interpolated quantile of a sample; 0 when empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);
/// The highest of p99, p90 and p50 with at least ten samples beyond it, as
/// (label, value). Falls back to ("p50", median) for tiny samples.
struct Tail {
  std::string label;
  double value = 0.0;
};
[[nodiscard]] Tail supported_tail(const std::vector<double>& values);

/// Note on tail percentiles that are printed but kept out of BENCHMARK.json:
/// on a shared host they do not repeat within a tenth between runs.
inline constexpr const char* kUngatedTail = "not gated: does not repeat within 10%";
/// Same for wall times of work spread over every vCPU: one descheduled vCPU
/// stalls the whole operation.
inline constexpr const char* kUngatedParallel = "not gated: waits on every vCPU";
/// And for a median that falls between the two modes of a bimodal mix.
inline constexpr const char* kUngatedMix = "not gated: median sits between two modes";
/// And for latency under load, which amplifies the host's speed swings.
inline constexpr const char* kUngatedLoaded = "not gated: amplifies host speed swings";

/// The gated wall times (the `slots`) report the host's fast moments. A
/// shared host flips between a fast and a slow speed every few seconds, up to
/// 1.6x apart; a run's median then follows the share of the run spent slow,
/// while the fast moments of every run agree. A round is about kRoundS of
/// the run; a gated value is the kFastQuantile of its rounds' medians, or,
/// for a fixed list of requests, the median of each request's fastest time.
inline constexpr double kRoundS = 0.5;
inline constexpr double kFastQuantile = 0.10;
/// Set-up runs kSetupReps times before the timed phase and once more every
/// kSetupEveryS during it; setup_s is the kFastQuantile of all of them.
inline constexpr int kSetupReps = 5;
inline constexpr double kSetupEveryS = 2.0;

/// One timed quantity sampled in rounds: each closed round keeps the median
/// of its samples.
class RoundSeries {
 public:
  void add(double value) { current_.push_back(value); }
  /// Close the current round (a no-op if it has no samples).
  void close_round();
  /// kFastQuantile of the round medians.
  [[nodiscard]] double fast() const { return quantile(medians_, kFastQuantile); }
  [[nodiscard]] std::size_t rounds() const { return medians_.size(); }

 private:
  std::vector<double> current_;
  std::vector<double> medians_;
};

/// Latencies of a fixed list of requests, repeated over the run: each
/// item's fastest time is kept, and the gated value is the median over
/// items. A request takes far less than a round, so its fastest repeat finds
/// a fast moment of the host even in a run where no whole round does.
class FastestPerItem {
 public:
  explicit FastestPerItem(std::size_t items);
  void add(std::size_t item, double value);
  [[nodiscard]] double median() const { return quantile(best_, 0.5); }

 private:
  std::vector<double> best_;
};

/// SplitMix64, the generator of every seed-derived input.
[[nodiscard]] std::uint64_t mix64(std::uint64_t x);

/// getrusage max RSS of this process, MiB.
[[nodiscard]] double peak_rss_mb();

/// Hardware threads available (at least 1).
[[nodiscard]] int hardware_threads();

/// One named measurement with its unit and the samples behind it.
struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
  std::string note;
};

/// What a workload run produces. `report` holds the path-named end-to-end
/// metrics printed for people; `slots` the BENCHMARK.json end-to-end names;
/// `layers` the per-layer names of the traced run.
struct Result {
  std::string workload;
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
  std::map<std::string, Metric> report;
  std::map<std::string, Metric> slots;
  std::map<std::string, Metric> layers;

  void fail(const std::string& problem);
};

/// Every per-layer metric name with its unit, across all workloads; a
/// traced run reports each, 0 where its workload never reaches that layer.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>& layer_catalog();

/// Print the human report, the host record and, last, the one-line JSON
/// result. Returns the process exit code.
int emit(const Options& options, Result& result);

// Workload entry points (one translation unit each).
void run_repro(const Options& options, Result& result);
void run_serve(const Options& options, Result& result);
void run_capacity(const Options& options, Result& result);

/// Digest of the seed-derived inputs of a workload (self-test: the serve
/// log and the capacity trace change with the seed, repro does not).
[[nodiscard]] std::uint64_t repro_input_digest(const Options& options);
[[nodiscard]] std::uint64_t serve_input_digest(const Options& options);
[[nodiscard]] std::uint64_t capacity_input_digest(const Options& options);

}  // namespace perfbench
