#include "repro/pipeline.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <future>
#include <sstream>
#include <stdexcept>

#include "core/fault/atomic_io.hpp"
#include "core/thread_pool.hpp"
#include "report/table.hpp"
#include "workloads/latency_probe.hpp"
#include "workloads/registry.hpp"

namespace knl::repro {

namespace {

std::string hex_fingerprint(const Machine& machine) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, machine.fingerprint());
  return buf;
}

report::SweepOptions sweep_options(const PipelineOptions& options) {
  // Sweeps are serial; the parallelism is across experiments (run_each).
  // single_pass stays true: any capacity-sweep experiment the registry grows
  // runs through the single-pass engine, whose cells are exact-equal to the
  // per-cell reference wherever LRU inclusion holds.
  report::SweepOptions sweep;
  sweep.memoize = options.memoize;
  sweep.retry = options.retry;
  sweep.single_pass = true;
  return sweep;
}

/// Turn a sweep's collected cell failures into one aggregate error naming
/// every failed cell — the pipeline must not emit an artifact with silent
/// holes, but callers still deserve the full casualty list, not just the
/// first.
void require_no_failures(const std::string& id, const report::SweepRun& run) {
  if (run.failures.empty()) return;
  std::string detail = std::to_string(run.failures.size()) + " of " +
                       std::to_string(run.stats.cells) + " cells failed:";
  for (const report::CellFailure& failure : run.failures) {
    detail += "\n  cell " + std::to_string(failure.index) + " (" + failure.label +
              ") [" + to_string(failure.category) + "]: " + failure.message;
  }
  throw Error::internal("sweep/cells-failed", std::move(detail))
      .with_context("experiment '" + id + "'");
}

std::string render_table1() {
  report::TextTable table({"Application", "Type", "Access Pattern", "Max. Scale"});
  for (const auto& entry : workloads::registry()) {
    if (entry.info.type == "Micro-benchmark") continue;
    table.add_row({entry.info.name, entry.info.type, entry.info.access_pattern,
                   report::format_gb(static_cast<double>(entry.info.max_scale_bytes))});
  }
  return table.to_string();
}

std::string render_table2(const Machine& machine) {
  std::ostringstream os;
  os << "-- HBM in flat mode (two nodes) --\n"
     << machine.topology(MemConfig::DRAM).hardware_string()
     << "\n-- HBM in cache mode (one node) --\n"
     << machine.topology(MemConfig::CacheMode).hardware_string();
  return os.str();
}

}  // namespace

bool ExperimentResult::checks_passed() const {
  for (const CheckOutcome& outcome : checks) {
    if (!outcome.passed) return false;
  }
  return true;
}

Pipeline::Pipeline(const Machine& machine, PipelineOptions options)
    : machine_(machine), options_(options) {}

ExperimentResult Pipeline::run(const ExperimentSpec& spec) const {
  ExperimentResult result;
  result.id = spec.id;

  switch (spec.kind) {
    case ExperimentKind::SizeSweep: {
      if (spec.sizes_bytes.empty()) {
        throw std::invalid_argument("experiment '" + spec.id + "': empty size grid");
      }
      const auto& entry = workloads::find_workload(spec.workload);
      report::SweepRun run = report::sweep_sizes_run(
          machine_, entry.make, spec.sizes_bytes, spec.fixed_threads, spec.configs,
          report::Figure(spec.title, spec.x_label, spec.y_label),
          sweep_options(options_));
      require_no_failures(spec.id, run);
      result.figure = std::move(run.figure);
      result.stats = run.stats;
      break;
    }
    case ExperimentKind::ThreadSweep: {
      if (spec.thread_counts.empty() || spec.fixed_bytes == 0) {
        throw std::invalid_argument("experiment '" + spec.id + "': bad thread grid");
      }
      const auto workload = workloads::find_workload(spec.workload).make(spec.fixed_bytes);
      report::SweepRun run = report::sweep_threads_run(
          machine_, *workload, spec.thread_counts, spec.configs,
          report::Figure(spec.title, spec.x_label, spec.y_label),
          sweep_options(options_));
      require_no_failures(spec.id, run);
      result.figure = std::move(run.figure);
      result.stats = run.stats;
      break;
    }
    case ExperimentKind::HtGrid: {
      // Fig. 5: one size sweep per hardware-thread multiplier, merged into a
      // single figure with "<config> (ht=N)" series. The sub-sweeps run one
      // after another; series order matches the published figure.
      if (spec.sizes_bytes.empty() || spec.thread_counts.empty()) {
        throw std::invalid_argument("experiment '" + spec.id + "': bad ht grid");
      }
      const auto& entry = workloads::find_workload(spec.workload);
      report::Figure figure(spec.title, spec.x_label, spec.y_label);
      for (const int ht : spec.thread_counts) {
        report::SweepRun sub = report::sweep_sizes_run(
            machine_, entry.make, spec.sizes_bytes, 64 * ht, spec.configs,
            report::Figure("", "", ""), sweep_options(options_));
        require_no_failures(spec.id, sub);
        result.stats += sub.stats;
        for (const report::Series& series : sub.figure.series()) {
          const std::string name = series.name + " (ht=" + std::to_string(ht) + ")";
          for (const auto& [x, y] : series.points) figure.add(name, x, y);
        }
      }
      result.figure = std::move(figure);
      break;
    }
    case ExperimentKind::Latency: {
      if (spec.sizes_bytes.empty()) {
        throw std::invalid_argument("experiment '" + spec.id + "': empty block grid");
      }
      report::Figure figure(spec.title, spec.x_label, spec.y_label);
      for (const std::uint64_t block : spec.sizes_bytes) {
        const workloads::LatencyProbe probe(block, /*chains=*/2);
        const double d = probe.measured_latency_ns(machine_, MemNode::DDR);
        const double h = probe.measured_latency_ns(machine_, MemNode::HBM);
        const double x = static_cast<double>(block) / (1024.0 * 1024.0);
        figure.add("DRAM", x, d);
        figure.add("HBM", x, h);
        figure.add("Gap (%)", x, (h - d) / d * 100.0);
        ++result.stats.cells;
        ++result.stats.evaluated;
      }
      result.figure = std::move(figure);
      char notes[160];
      std::snprintf(notes, sizeof notes,
                    "idle latency anchors (paper 130.4 / 154.0 ns): DRAM %.1f ns, "
                    "HBM %.1f ns",
                    workloads::LatencyProbe::idle_latency_ns(machine_, MemNode::DDR),
                    workloads::LatencyProbe::idle_latency_ns(machine_, MemNode::HBM));
      result.notes = notes;
      break;
    }
    case ExperimentKind::Table: {
      result.figure = report::Figure(spec.title, "", "");
      if (spec.id == "table1_apps") {
        result.table_text = render_table1();
      } else if (spec.id == "table2_numa") {
        result.table_text = render_table2(machine_);
      } else {
        throw std::invalid_argument("experiment '" + spec.id + "': unknown table");
      }
      break;
    }
  }

  for (const RatioSeries& ratio : spec.ratios) {
    report::add_ratio_series(result.figure, ratio.numerator, ratio.denominator,
                             ratio.name);
  }
  if (spec.self_speedup) report::add_self_speedup_series(result.figure);

  result.checks.reserve(spec.checks.size());
  for (const ShapeCheck& check : spec.checks) {
    result.checks.push_back(evaluate_check(check, result.figure));
  }
  return result;
}

std::vector<ExperimentResult> Pipeline::run_all(
    const std::vector<const ExperimentSpec*>& specs) const {
  std::vector<ExperimentResult> results;
  results.reserve(specs.size());
  for (ExperimentOutcome& outcome : run_each(specs)) {
    if (outcome.error) std::rethrow_exception(outcome.error);
    results.push_back(std::move(*outcome.result));
  }
  return results;
}

std::vector<ExperimentOutcome> Pipeline::run_each(
    const std::vector<const ExperimentSpec*>& specs, const std::function<bool()>& stop,
    const std::function<void(std::size_t, const ExperimentResult&)>& finish) const {
  std::vector<ExperimentOutcome> outcomes(specs.size());
  const auto run_one = [&](std::size_t i) {
    if (stop && stop()) return;
    try {
      ExperimentResult result = run(*specs[i]);
      if (finish) finish(i, result);
      outcomes[i].result = std::move(result);
    } catch (...) {
      outcomes[i].error = std::current_exception();
    }
  };

  const std::size_t jobs = options_.jobs <= 0
                               ? core::ThreadPool::hardware_threads()
                               : static_cast<std::size_t>(options_.jobs);
  const std::size_t workers = std::min(jobs, specs.size());
  if (workers <= 1) {
    for (std::size_t i = 0; i < specs.size(); ++i) {
      run_one(i);
      if (outcomes[i].error) break;
    }
    return outcomes;
  }

  std::vector<std::future<void>> futures;
  futures.reserve(specs.size());
  {
    core::ThreadPool pool(static_cast<unsigned>(workers));
    for (std::size_t i = 0; i < specs.size(); ++i) {
      futures.push_back(pool.submit([&run_one, i] { run_one(i); }));
    }
  }  // the pool drains before it joins: every future is ready here
  for (std::size_t i = 0; i < specs.size(); ++i) {
    try {
      futures[i].get();
    } catch (...) {
      // run_one captures the experiment's own errors, so this came from the
      // pool itself (an injected dispatch fault fires in the task wrapper,
      // before the experiment starts): run it here instead.
      run_one(i);
      if (outcomes[i].result) ++outcomes[i].result->serial_fallbacks;
    }
  }
  return outcomes;
}

std::optional<double> value_near(const report::Figure& figure, const std::string& series,
                                 double x) {
  const report::Series* s = figure.find(series);
  if (s == nullptr || s->points.empty()) return std::nullopt;
  double best_y = s->points.front().second;
  double best_dist = std::fabs(s->points.front().first - x);
  for (const auto& [px, py] : s->points) {
    const double dist = std::fabs(px - x);
    if (dist < best_dist) {
      best_dist = dist;
      best_y = py;
    }
  }
  return best_y;
}

namespace {

std::string format_value(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.4g", v);
  return buf;
}

CheckOutcome ratio_outcome(const ShapeCheck& check, const report::Figure& figure,
                           bool at_least) {
  CheckOutcome outcome{check, false, {}};
  const auto num = value_near(figure, check.series_a, check.x);
  const auto den = value_near(figure, check.series_b, check.x);
  if (!num || !den || *den == 0.0) {
    outcome.detail = "series '" + check.series_a + "' / '" + check.series_b +
                     "' unavailable at x=" + format_value(check.x);
    return outcome;
  }
  const double ratio = *num / *den;
  outcome.passed = at_least ? ratio >= check.threshold : ratio <= check.threshold;
  outcome.detail = check.series_a + "/" + check.series_b + " = " + format_value(ratio) +
                   " at x=" + format_value(check.x) + " (want " +
                   (at_least ? ">= " : "<= ") + format_value(check.threshold) + ")";
  return outcome;
}

CheckOutcome growth_outcome(const ShapeCheck& check, const report::Figure& figure,
                            bool at_least) {
  CheckOutcome outcome{check, false, {}};
  const report::Series* s = figure.find(check.series_a);
  if (s == nullptr || s->points.empty() || s->points.front().second == 0.0) {
    outcome.detail = "series '" + check.series_a + "' unavailable";
    return outcome;
  }
  const double growth = s->points.back().second / s->points.front().second;
  outcome.passed = at_least ? growth >= check.threshold : growth <= check.threshold;
  outcome.detail = check.series_a + " last/first = " + format_value(growth) + " (want " +
                   (at_least ? ">= " : "<= ") + format_value(check.threshold) + ")";
  return outcome;
}

}  // namespace

CheckOutcome evaluate_check(const ShapeCheck& check, const report::Figure& figure) {
  switch (check.kind) {
    case ShapeCheck::Kind::RatioAtLeast:
      return ratio_outcome(check, figure, /*at_least=*/true);
    case ShapeCheck::Kind::RatioAtMost:
      return ratio_outcome(check, figure, /*at_least=*/false);
    case ShapeCheck::Kind::PointCountAtMost: {
      CheckOutcome outcome{check, false, {}};
      const report::Series* s = figure.find(check.series_a);
      const std::size_t count = s == nullptr ? 0 : s->points.size();
      outcome.passed = static_cast<double>(count) <= check.threshold;
      outcome.detail = "series '" + check.series_a + "' has " + std::to_string(count) +
                       " points (want <= " + format_value(check.threshold) + ")";
      return outcome;
    }
    case ShapeCheck::Kind::GrowthAtLeast:
      return growth_outcome(check, figure, /*at_least=*/true);
    case ShapeCheck::Kind::GrowthAtMost:
      return growth_outcome(check, figure, /*at_least=*/false);
  }
  return CheckOutcome{check, false, "unknown check kind"};
}

// ---------------------------------------------------------------------------
// Artifact serialization
// ---------------------------------------------------------------------------

std::string artifact_filename(const std::string& id) { return id + ".json"; }

json::Value artifact_json(const ExperimentResult& result, const Machine& machine) {
  const ExperimentSpec* spec = find_experiment(result.id);

  json::Value artifact = json::Value::object();
  artifact.set("schema_version", kSchemaVersion);
  artifact.set("experiment", result.id);
  artifact.set("kind", spec != nullptr ? to_string(spec->kind) : std::string("unknown"));
  artifact.set("title", result.figure.title());
  artifact.set("machine_fingerprint", hex_fingerprint(machine));
  artifact.set("cells", static_cast<double>(result.stats.cells));
  artifact.set("infeasible", static_cast<double>(result.stats.infeasible));

  json::Value series = json::Value::array();
  for (const report::Series& s : result.figure.series()) {
    json::Value entry = json::Value::object();
    entry.set("name", s.name);
    json::Value points = json::Value::array();
    for (const auto& [x, y] : s.points) {
      points.push_back(json::Array{json::Value(x), json::Value(y)});
    }
    entry.set("points", std::move(points));
    series.push_back(std::move(entry));
  }
  artifact.set("series", std::move(series));

  if (!result.table_text.empty()) artifact.set("table_text", result.table_text);
  if (!result.notes.empty()) artifact.set("notes", result.notes);

  json::Value checks = json::Value::array();
  for (const CheckOutcome& outcome : result.checks) {
    json::Value entry = json::Value::object();
    entry.set("description", outcome.check.description);
    entry.set("passed", outcome.passed);
    entry.set("detail", outcome.detail);
    checks.push_back(std::move(entry));
  }
  artifact.set("checks", std::move(checks));
  return artifact;
}

json::Value manifest_json(const std::vector<ExperimentResult>& results,
                          const Machine& machine) {
  std::vector<std::string> ids;
  ids.reserve(results.size());
  for (const ExperimentResult& result : results) ids.push_back(result.id);
  return manifest_json(ids, machine);
}

json::Value manifest_json(const std::vector<std::string>& ids, const Machine& machine) {
  json::Value manifest = json::Value::object();
  manifest.set("schema_version", kSchemaVersion);
  manifest.set("generator", "knl-repro");
  manifest.set("machine_fingerprint", hex_fingerprint(machine));
  json::Value id_list = json::Value::array();
  for (const std::string& id : ids) id_list.push_back(id);
  manifest.set("experiments", std::move(id_list));
  return manifest;
}

std::string artifact_text(const ExperimentResult& result, const Machine& machine) {
  return artifact_json(result, machine).dump() + '\n';
}

bool write_artifacts(const std::vector<ExperimentResult>& results,
                     const Machine& machine, const std::string& dir,
                     std::string* error) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    if (error != nullptr) *error = "could not create " + dir + ": " + ec.message();
    return false;
  }
  // Artifacts are the resume journal's ground truth, so the whole set goes
  // to disk as one atomic batch: after a crash each file is old or new,
  // never torn.
  std::vector<io::FileWrite> files;
  files.reserve(results.size() + 1);
  for (const ExperimentResult& result : results) {
    files.push_back({artifact_filename(result.id), artifact_text(result, machine)});
  }
  files.push_back({"manifest.json", manifest_json(results, machine).dump() + '\n'});
  return io::atomic_write_files(dir, files, error);
}

std::optional<json::Value> load_json_file(const std::string& path, std::string* error) {
  const auto text = io::read_file_with_retry(path, kMaxArtifactBytes, error);
  if (!text) return std::nullopt;
  std::string parse_error;
  auto value = json::Value::parse(*text, &parse_error);
  if (!value && error != nullptr) *error = path + ": " + parse_error;
  return value;
}

}  // namespace knl::repro
