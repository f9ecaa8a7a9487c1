// repro workload: the full 14-experiment suite as `knl-repro run` does it.
// Each timed pass starts from an empty SweepCache, runs Pipeline::run_all at
// jobs = hardware threads and writes the artifacts into a scratch directory.
// Every written artifact must equal its golden/ file byte for byte, and the
// first and last passes also go through repro::diff_against_dir, which must
// be clean. The seed is ignored: the paper's grids are fixed.
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>

#include "common.hpp"
#include "core/machine.hpp"
#include "core/machine_profiles.hpp"
#include "report/sweep.hpp"
#include "repro/experiment.hpp"
#include "repro/golden_diff.hpp"
#include "repro/pipeline.hpp"

namespace perfbench {

namespace {

using knl::repro::ExperimentResult;
using knl::repro::ExperimentSpec;

std::optional<std::string> read_text(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::vector<const ExperimentSpec*> all_specs() {
  std::vector<const ExperimentSpec*> specs;
  for (const ExperimentSpec& spec : knl::repro::experiments()) specs.push_back(&spec);
  return specs;
}

/// The suite's machine and its two pipelines: `jobs` workers (the timed
/// path) and one worker (the serial engine, `knl-repro run --jobs 1`).
struct Suite {
  knl::Machine machine;
  knl::repro::Pipeline pipeline;
  knl::repro::Pipeline serial;
  explicit Suite(int jobs)
      : machine(knl::find_machine_profile("knl7210")->make()),
        pipeline(machine, knl::repro::PipelineOptions{.jobs = jobs, .memoize = true}),
        serial(machine, knl::repro::PipelineOptions{.jobs = 1, .memoize = true}) {}
};

class Checker {
 public:
  Checker(const Options& options, Result& result)
      : golden_dir_(options.golden_dir), scratch_(options.scratch_dir), result_(result) {
    const std::vector<std::string> problems =
        knl::repro::golden_integrity_problems(golden_dir_);
    if (!problems.empty()) throw std::runtime_error(problems.front());
    for (const ExperimentSpec& spec : knl::repro::experiments()) {
      const auto text = read_text(std::filesystem::path(golden_dir_) /
                                  knl::repro::artifact_filename(spec.id));
      if (!text) throw std::runtime_error("no golden artifact for " + spec.id);
      golden_[spec.id] = *text;
    }
  }

  /// Byte-compare every written artifact with its golden file; `full` also
  /// runs the tolerance-aware GoldenDiff, which must report zero drift.
  void check(const std::vector<ExperimentResult>& results, const knl::Machine& machine,
             bool full) {
    result_.attempted += results.size();
    for (const ExperimentResult& r : results) {
      const auto text =
          read_text(std::filesystem::path(scratch_) / knl::repro::artifact_filename(r.id));
      if (!text || *text != golden_[r.id] || !r.checks_passed()) {
        ++result_.failed;
        result_.fail(r.id + ": artifact differs from " + golden_dir_);
      }
    }
    if (!full) return;
    const knl::repro::DiffReport report =
        knl::repro::diff_against_dir(golden_dir_, results, machine, true);
    if (!report.clean()) {
      result_.fail("diff_against_dir: " + std::to_string(report.flagged_metrics()) +
                   " metrics drift\n" + report.render());
    }
  }

 private:
  std::string golden_dir_;
  std::string scratch_;
  Result& result_;
  std::map<std::string, std::string> golden_;
};

void write_or_throw(const std::vector<ExperimentResult>& results,
                    const knl::Machine& machine, const std::string& dir) {
  std::string error;
  if (!knl::repro::write_artifacts(results, machine, dir, &error)) {
    throw std::runtime_error("write_artifacts: " + error);
  }
}

}  // namespace

std::uint64_t repro_input_digest(const Options& /*options*/) {
  std::uint64_t h = 0;
  const auto add = [&h](std::uint64_t v) { h = mix64(h ^ v); };
  for (const ExperimentSpec& spec : knl::repro::experiments()) {
    for (const char c : spec.id + "/" + spec.workload) add(static_cast<std::uint64_t>(c));
    for (const std::uint64_t b : spec.sizes_bytes) add(b);
    for (const int t : spec.thread_counts) add(static_cast<std::uint64_t>(t));
    add(spec.fixed_bytes);
    add(static_cast<std::uint64_t>(spec.fixed_threads));
  }
  return h;
}

void run_repro(const Options& options, Result& result) {
  const int jobs = hardware_threads();
  const std::vector<const ExperimentSpec*> specs = all_specs();
  knl::report::SweepCache& cache = knl::report::SweepCache::instance();
  Checker checker(options, result);

  // Set-up: machine, pipelines and a warm-up pass on the serial engine,
  // whose wall time does not wait on every vCPU. The first one's artifacts
  // also go through the full golden diff.
  std::vector<double> setup_s;
  std::optional<Suite> suite;
  const auto set_up = [&] {
    suite.reset();
    cache.clear();
    const Clock::time_point start = Clock::now();
    suite.emplace(jobs);
    const std::vector<ExperimentResult> warm = suite->serial.run_all(specs);
    write_or_throw(warm, suite->machine, options.scratch_dir);
    setup_s.push_back(ms_since(start) / 1e3);
    checker.check(warm, suite->machine, setup_s.size() == 1);
  };
  for (int rep = 0; rep < kSetupReps; ++rep) set_up();

  Tracer tracer(options.trace);
  std::vector<double> pass_ms;
  std::vector<double> serial_ms;
  std::vector<double> cpu_ms;
  std::vector<double> traced_ms;
  Clock::time_point last_setup = Clock::now();
  std::vector<double> cells, evaluated, hits, cell_us, eff, inserts, coalesced;
  std::vector<ExperimentResult> last;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(options.seconds));
  for (std::uint64_t pass = 0; Clock::now() < deadline; ++pass) {
    cache.clear();
    cache.reset_stats();
    // Every other pass runs the serial engine. The traced run alternates
    // traced and untraced parallel passes, so the ratio of their medians is
    // the tracing overhead.
    const bool serial = pass % 2 == 1;
    const bool traced = options.trace && pass % 4 == 2;
    std::vector<ExperimentResult> results;
    const Clock::time_point start = Clock::now();
    const double cpu_start = process_cpu_ms();
    if (!traced) {
      results = (serial ? suite->serial : suite->pipeline).run_all(specs);
      write_or_throw(results, suite->machine, options.scratch_dir);
      (serial ? serial_ms : pass_ms).push_back(ms_since(start));
      if (!serial) cpu_ms.push_back(process_cpu_ms() - cpu_start);
    } else {
      const ScopedSpan span(tracer, "repro.pass", Tracer::kNoSpan, pass);
      for (const ExperimentSpec* spec : specs) {
        const Clock::time_point t0 = Clock::now();
        results.push_back(suite->pipeline.run(*spec));
        tracer.record("repro.run." + spec->id, t0, Clock::now(), span.id(), pass);
      }
      const Clock::time_point t0 = Clock::now();
      write_or_throw(results, suite->machine, options.scratch_dir);
      tracer.record("repro.write", t0, Clock::now(), span.id(), pass);
    }
    if (traced) {
      traced_ms.push_back(ms_since(start));
      // Serialization on its own, outside the pass: artifact_json + dump.
      const Clock::time_point t0 = Clock::now();
      std::size_t bytes = 0;
      for (const ExperimentResult& r : results) {
        bytes += knl::repro::artifact_json(r, suite->machine).dump().size();
      }
      tracer.record("repro.serialize", t0, Clock::now(), Tracer::kNoSpan, pass);
      if (bytes == 0) result.fail("empty artifacts");

      knl::report::SweepStats sum;
      for (const ExperimentResult& r : results) sum += r.stats;
      const knl::report::SweepCacheStats stats = cache.stats();
      cells.push_back(static_cast<double>(sum.cells));
      evaluated.push_back(static_cast<double>(sum.evaluated));
      hits.push_back(static_cast<double>(sum.cache_hits));
      cell_us.push_back(sum.evaluated == 0 ? 0.0
                                           : 1e6 * sum.cell_seconds /
                                                 static_cast<double>(sum.evaluated));
      eff.push_back(sum.wall_seconds <= 0.0
                        ? 0.0
                        : sum.cell_seconds / (sum.wall_seconds * jobs));
      inserts.push_back(static_cast<double>(stats.inserts));
      coalesced.push_back(static_cast<double>(stats.coalesced));
    }
    checker.check(results, suite->machine, false);
    last = std::move(results);
    if (ms_since(last_setup) >= kSetupEveryS * 1e3) {
      set_up();
      last_setup = Clock::now();
    }
  }
  checker.check(last, suite->machine, true);

  const Tail tail = supported_tail(pass_ms);
  const double p50 = quantile(pass_ms, 0.5);
  const double serial_p50 = quantile(serial_ms, 0.5);
  const double cpu = quantile(cpu_ms, 0.5);
  result.report["setup_s"] = {quantile(setup_s, kFastQuantile), "s", setup_s.size(),
                              "p10 of the set-ups spread over the run"};
  result.report["peak_rss_mb"] = {peak_rss_mb(), "MiB", 0, ""};
  result.report["repro_p50_ms"] = {p50, "ms", pass_ms.size(),
                                   "one full suite pass, jobs=" + std::to_string(jobs) + "; " +
                                       kUngatedParallel};
  if (tail.label != "p50") {
    result.report["repro_" + tail.label + "_ms"] = {tail.value, "ms", pass_ms.size(),
                                                    kUngatedTail};
  }
  result.report["repro_cpu_ms"] = {cpu, "ms", cpu_ms.size(),
                                   "process CPU time of one pass, jobs=" + std::to_string(jobs)};
  result.report["repro_serial_p50_ms"] = {serial_p50, "ms", serial_ms.size(),
                                          "one full suite pass, jobs=1"};

  result.slots["setup_s"] = result.report["setup_s"];
  result.slots["peak_rss_mb"] = result.report["peak_rss_mb"];
  result.slots["main_ms"] = {serial_p50, "ms", serial_ms.size(), "repro_serial_p50_ms"};
  result.slots["second_ms"] = {cpu, "ms", cpu_ms.size(), "repro_cpu_ms"};

  if (!options.trace) return;
  const auto median_ms = [&tracer](const std::string& name) {
    return quantile(tracer.durations_us(name), 0.5) / 1e3;
  };
  const std::size_t n = traced_ms.size();
  for (const ExperimentSpec* spec : specs) {
    result.layers["repro.run_ms." + spec->id] = {median_ms("repro.run." + spec->id), "ms", n, ""};
  }
  result.layers["repro.serialize_ms"] = {median_ms("repro.serialize"), "ms", n, ""};
  result.layers["repro.write_ms"] = {median_ms("repro.write"), "ms", n, ""};
  result.layers["repro.pass_self_ms"] = {
      quantile(tracer.self_times_us("repro.pass"), 0.5) / 1e3, "ms", n,
      "pass minus its experiment and write spans"};
  result.layers["sweep.cells"] = {quantile(cells, 0.5), "count", n, "per pass"};
  result.layers["sweep.evaluated"] = {quantile(evaluated, 0.5), "count", n, "per pass"};
  result.layers["sweep.cache_hits"] = {quantile(hits, 0.5), "count", n, "per pass"};
  result.layers["sweep.cell_us"] = {quantile(cell_us, 0.5), "us", n,
                                    "cell_seconds / evaluated"};
  result.layers["sweep.parallel_eff"] = {
      quantile(eff, 0.5), "ratio", n,
      "cell_seconds / (wall_seconds x " + std::to_string(jobs) + " jobs)"};
  result.layers["cache.inserts"] = {quantile(inserts, 0.5), "count", n, "per pass"};
  result.layers["cache.coalesced"] = {quantile(coalesced, 0.5), "count", n, "per pass"};
  result.layers["trace.overhead.repro"] = {
      p50 > 0.0 ? quantile(traced_ms, 0.5) / p50 : 0.0, "ratio", n,
      "traced pass p50 / untraced pass p50"};
  if (!options.trace_out.empty() && !tracer.write_json(options.trace_out)) {
    result.fail("cannot write " + options.trace_out);
  }
}

}  // namespace perfbench
