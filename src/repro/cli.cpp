#include "repro/cli.hpp"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <optional>
#include <ostream>
#include <stdexcept>

#include "core/fault/atomic_io.hpp"
#include "core/fault/fault_injection.hpp"
#include "core/machine.hpp"
#include "core/machine_profiles.hpp"
#include "repro/golden_diff.hpp"
#include "repro/journal.hpp"
#include "repro/pipeline.hpp"
#include "repro/registry_doc.hpp"

namespace knl::repro {

namespace {

/// Async-signal-safe interrupt flag (see cli.hpp).
volatile std::sig_atomic_t g_interrupt = 0;

struct CliOptions {
  std::string command;
  std::string out_dir = "repro-out";
  bool out_dir_set = false;  ///< --out given explicitly (resume otherwise
                             ///< restores the journaled directory)
  std::string golden_dir = "golden";
  bool golden_dir_set = false;  ///< --golden given explicitly (the default
                                ///< otherwise follows the profile)
  std::string profile = "knl7210";
  bool profile_set = false;  ///< --profile given explicitly (resume otherwise
                             ///< restores the journaled profile)
  std::string from_dir;  ///< diff: read artifacts instead of recomputing
  std::string runs_dir = "runs";
  std::string run_id;     ///< name of a fresh journaled run
  std::string resume_id;  ///< resume this run's journal instead
  std::string fault_plan;  ///< KNL_FAULT_PLAN grammar, overrides the env
  int jobs = 0;
  bool force = false;     ///< bless despite failing shape checks
  bool markdown = false;  ///< list: print docs/EXPERIMENT_REGISTRY.md text
  std::vector<std::string> only;
};

void usage(std::ostream& os) {
  os << "usage: knl-repro <command> [options]\n"
        "\n"
        "commands:\n"
        "  run    execute every registered figure/table experiment and write\n"
        "         one schema-versioned JSON artifact per experiment plus a\n"
        "         run manifest (default: repro-out/), committed with the run\n"
        "         journal once, after the last experiment; with --only naming\n"
        "         one experiment, also print its figure or table and checks\n"
        "  diff   recompute the suite and compare against the golden\n"
        "         baselines; exit 1 on any out-of-tolerance metric\n"
        "  bless  rewrite the golden baselines from the current model\n"
        "  matrix run every shipped machine profile and diff each against its\n"
        "         per-profile golden baselines (the cross-architecture\n"
        "         conformance matrix); exit 1 on any drift\n"
        "  list   print the experiment registry (--markdown: emit the\n"
        "         docs/EXPERIMENT_REGISTRY.md text)\n"
        "\n"
        "options:\n"
        "  --profile NAME machine profile for run/diff/bless (default\n"
        "                 knl7210; see machines/ and docs/MACHINES.md)\n"
        "  --out DIR      artifact directory for `run` (default repro-out);\n"
        "                 `matrix` writes per-profile subdirectories\n"
        "  --golden DIR   baseline directory (default: golden for knl7210,\n"
        "                 golden/profiles/<name> for other profiles)\n"
        "  --from DIR     diff pre-computed artifacts from DIR instead of\n"
        "                 recomputing\n"
        "  --jobs N       experiments run at once (0 = hardware concurrency,\n"
        "                 1 = serial); each experiment's sweep is serial\n"
        "  --only a,b,c   restrict to the named experiments\n"
        "  --force        bless even when a qualitative shape check fails\n"
        "  --runs-dir DIR journal directory for `run` (default runs)\n"
        "  --run-id ID    name this run's journal (default: run-<unix time>,\n"
        "                 suffixed -2, -3, ... when taken)\n"
        "  --resume ID    resume a journaled run, skipping experiments whose\n"
        "                 artifacts are already on disk and intact; writes to\n"
        "                 the run's original --out unless --out is repeated\n"
        "  --fault-plan S arm the deterministic fault injector with plan S\n"
        "                 (overrides $KNL_FAULT_PLAN)\n"
        "\n"
        "exit codes: 0 success, 1 conformance failure, 2 usage/IO error,\n"
        "            3 interrupted (resume with `run --resume <id>`)\n";
}

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::string part = csv.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    if (!part.empty()) parts.push_back(part);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return parts;
}

/// Parse argv[1..]; returns false (after printing) on a bad invocation.
bool parse(const std::vector<std::string>& args, CliOptions& opts, std::ostream& err) {
  if (args.empty()) {
    usage(err);
    return false;
  }
  opts.command = args[0];
  for (std::size_t i = 1; i < args.size(); ++i) {
    const std::string& arg = args[i];
    const auto take_value = [&](const char* flag) -> const std::string* {
      if (i + 1 >= args.size()) {
        err << flag << " requires a value\n";
        return nullptr;
      }
      return &args[++i];
    };
    if (arg == "--out") {
      const std::string* v = take_value("--out");
      if (v == nullptr) return false;
      opts.out_dir = *v;
      opts.out_dir_set = true;
    } else if (arg == "--golden") {
      const std::string* v = take_value("--golden");
      if (v == nullptr) return false;
      opts.golden_dir = *v;
      opts.golden_dir_set = true;
    } else if (arg == "--profile") {
      const std::string* v = take_value("--profile");
      if (v == nullptr) return false;
      opts.profile = *v;
      opts.profile_set = true;
    } else if (arg == "--from") {
      const std::string* v = take_value("--from");
      if (v == nullptr) return false;
      opts.from_dir = *v;
    } else if (arg == "--jobs") {
      const std::string* v = take_value("--jobs");
      if (v == nullptr) return false;
      opts.jobs = std::atoi(v->c_str());
    } else if (arg == "--only") {
      const std::string* v = take_value("--only");
      if (v == nullptr) return false;
      opts.only = split_csv(*v);
    } else if (arg == "--runs-dir") {
      const std::string* v = take_value("--runs-dir");
      if (v == nullptr) return false;
      opts.runs_dir = *v;
    } else if (arg == "--run-id") {
      const std::string* v = take_value("--run-id");
      if (v == nullptr) return false;
      opts.run_id = *v;
    } else if (arg == "--resume") {
      const std::string* v = take_value("--resume");
      if (v == nullptr) return false;
      opts.resume_id = *v;
    } else if (arg == "--fault-plan") {
      const std::string* v = take_value("--fault-plan");
      if (v == nullptr) return false;
      opts.fault_plan = *v;
    } else if (arg == "--force") {
      opts.force = true;
    } else if (arg == "--markdown") {
      opts.markdown = true;
    } else if (arg == "--help" || arg == "-h") {
      opts.command = "help";
    } else {
      err << "unknown argument: " << arg << '\n';
      usage(err);
      return false;
    }
  }
  return true;
}

/// Resolve --only (or the full registry) to specs; nullptr-free, in
/// registry order. Returns false on an unknown id.
bool select_specs(const CliOptions& opts, std::vector<const ExperimentSpec*>& specs,
                  std::ostream& err) {
  if (opts.only.empty()) {
    for (const ExperimentSpec& spec : experiments()) specs.push_back(&spec);
    return true;
  }
  for (const std::string& id : opts.only) {
    const ExperimentSpec* spec = find_experiment(id);
    if (spec == nullptr) {
      err << "unknown experiment '" << id << "' (see `knl-repro list`)\n";
      return false;
    }
    specs.push_back(spec);
  }
  return true;
}

/// Resolve the --profile option to its registry entry; prints the known
/// profiles on failure.
const MachineProfile* select_profile(const std::string& name, std::ostream& err) {
  const MachineProfile* profile = find_machine_profile(name);
  if (profile == nullptr) {
    err << "unknown machine profile '" << name << "' (known: "
        << machine_profile_names() << ")\n";
  }
  return profile;
}

/// The baseline directory a command diffs/blesses: --golden when given,
/// else the profile's own directory (golden/ for the KNL testbed,
/// golden/profiles/<name>/ for the rest).
std::string golden_dir_for(const CliOptions& opts, const MachineProfile& profile) {
  return opts.golden_dir_set ? opts.golden_dir : profile.golden_dir;
}

void print_result_line(const ExperimentResult& result, std::ostream& out) {
  std::size_t passed = 0;
  for (const CheckOutcome& outcome : result.checks) {
    if (outcome.passed) ++passed;
  }
  out << "  " << result.id << ": " << result.stats.cells << " cells ("
      << result.stats.infeasible << " infeasible), " << result.figure.series().size()
      << " series, checks " << passed << "/" << result.checks.size() << '\n';
  for (const CheckOutcome& outcome : result.checks) {
    if (!outcome.passed) {
      out << "    FAILED check: " << outcome.check.description << " — "
          << outcome.detail << '\n';
    }
  }
}

/// The full text of one experiment: its figure (with the sweep accounting)
/// or table, the paper's expected shape, any notes and every check verdict.
void print_experiment_text(const ExperimentSpec& spec, const ExperimentResult& result,
                           std::ostream& out) {
  if (!result.table_text.empty()) {
    out << "==== " << spec.title << " ====\n\n" << result.table_text << '\n';
    out << "paper: " << spec.paper_shape << '\n';
  } else {
    out << "==== " << spec.title << " ====\n";
    out << "paper shape: " << spec.paper_shape << "\n\n";
    out << result.figure.to_table() << '\n';
    out << result.stats.summary() << '\n';
  }
  if (!result.notes.empty()) out << result.notes << '\n';
  for (const CheckOutcome& outcome : result.checks) {
    out << "check " << (outcome.passed ? "ok" : "FAILED") << ": "
        << outcome.check.description << " (" << outcome.detail << ")\n";
  }
}

bool any_check_failed(const std::vector<ExperimentResult>& results) {
  for (const ExperimentResult& result : results) {
    if (!result.checks_passed()) return true;
  }
  return false;
}

int cmd_list(const CliOptions& opts, std::ostream& out) {
  if (opts.markdown) {
    out << registry_markdown();
    return kExitSuccess;
  }
  out << "registered experiments (schema v" << kSchemaVersion << "):\n";
  for (const ExperimentSpec& spec : experiments()) {
    out << "  " << spec.id << "  [" << to_string(spec.kind) << "]  " << spec.title
        << "  (" << spec.checks.size() << " shape checks)\n";
  }
  return kExitSuccess;
}

/// A fresh run id, "run-<unix seconds>", with a "-N" suffix when that id is
/// taken under `runs_dir`. The id is claimed by creating its run directory
/// (mkdir is atomic), so two runs started in the same second, in one
/// process or two, never share a journal. Empty (with *error) on an I/O
/// failure.
std::string claim_default_run_id(const std::string& runs_dir, std::string* error) {
  const auto now = std::chrono::system_clock::now().time_since_epoch();
  const std::string base =
      "run-" + std::to_string(std::chrono::duration_cast<std::chrono::seconds>(now).count());
  std::error_code ec;
  std::filesystem::create_directories(runs_dir, ec);
  for (int n = 1; !ec; ++n) {
    const std::string id = n == 1 ? base : base + "-" + std::to_string(n);
    if (std::filesystem::create_directory(run_dir(runs_dir, id), ec)) return id;
  }
  *error = "could not create a run directory under " + runs_dir + ": " + ec.message();
  return {};
}

int cmd_run(const CliOptions& opts, const std::vector<const ExperimentSpec*>& specs,
            std::ostream& out, std::ostream& err) {
  const bool resuming = !opts.resume_id.empty();
  // Empty until claimed below when neither --resume nor --run-id names it.
  std::string run_id = resuming ? opts.resume_id : opts.run_id;

  // Resume: trust the journal only where the artifact on disk still matches
  // the recorded hash — a deleted or drifted artifact re-runs.
  RunJournal prior;
  if (resuming) {
    std::string error;
    auto loaded = load_journal(opts.runs_dir, run_id, &error);
    if (!loaded) {
      err << "error: cannot resume: " << error << '\n';
      return kExitUsage;
    }
    prior = std::move(*loaded);
    if (prior.truncated_tail) {
      out << "journal for '" << run_id
          << "' has a torn trailing record (crash mid-append); "
          << prior.completed.size() << " completed experiment(s) salvaged\n";
    }
  }

  // A resumed run finishes on the machine it started on: the journaled
  // profile wins unless --profile restates it, and a conflicting restatement
  // is an error rather than a silent cross-machine splice.
  std::string profile_name = opts.profile;
  if (resuming && !prior.profile.empty()) {
    if (opts.profile_set && opts.profile != prior.profile) {
      err << "error: run '" << run_id << "' was journaled for profile '"
          << prior.profile << "', not '" << opts.profile << "'\n";
      return kExitUsage;
    }
    profile_name = prior.profile;
  }
  const MachineProfile* profile = select_profile(profile_name, err);
  if (profile == nullptr) return kExitUsage;

  const Machine machine(profile->make());
  const Pipeline pipeline(machine, PipelineOptions{.jobs = opts.jobs, .memoize = true});

  // Resume writes where the original run did — the printed `--resume <id>`
  // hint must work verbatim — unless --out is explicitly repeated.
  const std::string out_dir = (resuming && !opts.out_dir_set && !prior.out_dir.empty())
                                  ? prior.out_dir
                                  : opts.out_dir;

  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  if (ec) {
    err << "error: could not create " << out_dir << ": " << ec.message() << '\n';
    return kExitUsage;
  }

  std::string error;
  if (run_id.empty()) run_id = claim_default_run_id(opts.runs_dir, &error);
  if (run_id.empty()) {
    err << "error: " << error << '\n';
    return kExitUsage;
  }
  auto writer = resuming
                    ? JournalWriter::append_to(opts.runs_dir, run_id, &error)
                    : JournalWriter::create(opts.runs_dir, run_id, out_dir, &error,
                                            profile->name);
  if (!writer) {
    err << "error: " << error << '\n';
    return kExitUsage;
  }

  // 1. Sort the specs, in order, into verified-from-the-journal and to-run.
  // Both interrupt paths are checked here, before each experiment: the
  // signal handler's flag and the deterministic injected interrupt (keyed
  // by experiment index).
  const std::filesystem::path base(out_dir);
  std::vector<bool> completed(specs.size(), false);
  std::vector<const ExperimentSpec*> to_run;
  std::vector<std::size_t> to_run_index;
  std::size_t skipped = 0;
  bool interrupted = false;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const ExperimentSpec& spec = *specs[i];
    if (interrupt_requested() || fault::fires(fault::kSitePipelineInterrupt, i)) {
      interrupted = true;
      break;
    }
    if (const JournalEntry* entry = prior.find(spec.id)) {
      const auto text = io::read_file_with_retry((base / artifact_filename(spec.id)).string(),
                                                 kMaxArtifactBytes, nullptr);
      if (text && io::fnv1a_hex(*text) == entry->sha) {
        completed[i] = true;
        ++skipped;
        continue;
      }
      out << "  " << spec.id << ": journaled artifact missing or drifted — "
          << "re-running\n";
    }
    to_run.push_back(&spec);
    to_run_index.push_back(i);
  }

  // 2. Compute, serializing and hashing each artifact on the thread that
  // ran it. A SIGINT now skips the experiments not yet started; an
  // experiment's error keeps only the results before it, as a serial run
  // would have stopped there.
  std::vector<std::string> texts(to_run.size());
  std::vector<std::string> shas(to_run.size());
  std::vector<ExperimentOutcome> outcomes = pipeline.run_each(
      to_run, interrupt_requested, [&](std::size_t j, const ExperimentResult& result) {
        texts[j] = artifact_text(result, machine);
        shas[j] = io::fnv1a_hex(texts[j]);
      });
  std::vector<ExperimentResult> results;
  std::vector<io::FileWrite> files;
  std::vector<JournalEntry> entries;
  std::exception_ptr failure;
  for (std::size_t j = 0; j < outcomes.size(); ++j) {
    if (outcomes[j].error) {
      failure = outcomes[j].error;
      break;
    }
    if (!outcomes[j].result) {
      interrupted = true;
      continue;
    }
    completed[to_run_index[j]] = true;
    const std::string& id = outcomes[j].result->id;
    entries.push_back({id, artifact_filename(id), std::move(shas[j])});
    files.push_back({artifact_filename(id), std::move(texts[j])});
    results.push_back(std::move(*outcomes[j].result));
  }

  // 3. Commit once: every new artifact plus the manifest as one atomic
  // batch, then their journal lines (and a new journal's header) with one
  // fsync. Journal only after the artifacts are durable: a crash between
  // the two re-runs the batch, never trusts a phantom artifact. The
  // manifest covers exactly the completed set, so a resumed run's final
  // manifest is identical to an uninterrupted one.
  std::vector<std::string> completed_ids;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (completed[i]) completed_ids.push_back(specs[i]->id);
  }
  files.push_back({"manifest.json", manifest_json(completed_ids, machine).dump() + '\n'});
  if (!io::atomic_write_files(out_dir, files, &error) ||
      !writer->record_done(entries, &error)) {
    err << "error: " << error << '\n';
    return kExitUsage;
  }
  if (failure) std::rethrow_exception(failure);

  if (interrupted) {
    out << "interrupted after " << completed_ids.size() << "/" << specs.size()
        << " experiment(s); resume with: knl-repro run --resume " << run_id
        << (opts.runs_dir == "runs" ? "" : " --runs-dir " + opts.runs_dir) << '\n';
    return kExitInterrupted;
  }

  out << "ran " << results.size() << " experiment(s)";
  if (skipped != 0) out << " (" << skipped << " resumed from journal)";
  out << " -> " << out_dir << "/ [run " << run_id << "]";
  if (profile->name != "knl7210") out << " [profile " << profile->name << "]";
  out << '\n';
  for (const ExperimentResult& result : results) print_result_line(result, out);
  if (specs.size() == 1 && results.size() == 1) {
    print_experiment_text(*specs.front(), results.front(), out);
  }
  if (profile->paper_checks && any_check_failed(results)) {
    err << "error: a qualitative shape check failed — the model no longer "
           "matches the paper\n";
    return kExitConformance;
  }
  return kExitSuccess;
}

int cmd_diff(const CliOptions& opts, const std::vector<const ExperimentSpec*>& specs,
             std::ostream& out, std::ostream& err) {
  const MachineProfile* profile = select_profile(opts.profile, err);
  if (profile == nullptr) return kExitUsage;
  const std::string golden_dir = golden_dir_for(opts, *profile);

  // Startup integrity pass: a truncated or unparseable baseline is an I/O
  // problem with a readable cure, not a tolerance failure.
  for (const std::string& dir : {golden_dir, opts.from_dir}) {
    if (dir.empty()) continue;
    const std::vector<std::string> problems = golden_integrity_problems(dir);
    if (!problems.empty()) {
      for (const std::string& problem : problems) err << "error: " << problem << '\n';
      return kExitUsage;
    }
  }

  const Machine machine(profile->make());
  DiffReport report;

  if (!opts.from_dir.empty()) {
    // Compare two artifact directories file by file.
    const std::filesystem::path golden_base(golden_dir);
    const std::filesystem::path from_base(opts.from_dir);
    for (const ExperimentSpec* spec : specs) {
      const std::string name = artifact_filename(spec->id);
      std::string error;
      const auto actual = load_json_file((from_base / name).string(), &error);
      if (!actual) {
        err << "error: " << error << '\n';
        return kExitUsage;
      }
      const auto golden = load_json_file((golden_base / name).string(), &error);
      if (!golden) {
        ExperimentDiff diff;
        diff.id = spec->id;
        diff.structural.push_back("no golden baseline (" + error + "); re-bless");
        report.experiments.push_back(std::move(diff));
        continue;
      }
      report.experiments.push_back(
          diff_artifact(spec->id, *golden, *actual, spec->tolerance));
    }
  } else {
    const Pipeline pipeline(machine,
                            PipelineOptions{.jobs = opts.jobs, .memoize = true});
    const std::vector<ExperimentResult> results = pipeline.run_all(specs);
    report = diff_against_dir(golden_dir, results, machine,
                              /*check_strays=*/opts.only.empty());
    if (!report.global.empty() &&
        report.global.front().find("does not exist") != std::string::npos) {
      err << "error: " << report.global.front() << '\n';
      return kExitUsage;
    }
  }

  if (report.clean()) {
    out << "conformance: PASS — " << report.experiments.size() << " experiment(s), "
        << report.compared_metrics() << " metrics within tolerance\n";
    return kExitSuccess;
  }
  out << report.render() << '\n';
  out << "conformance: FAIL\n";
  return kExitConformance;
}

int cmd_bless(const CliOptions& opts, const std::vector<const ExperimentSpec*>& specs,
              std::ostream& out, std::ostream& err) {
  const MachineProfile* profile = select_profile(opts.profile, err);
  if (profile == nullptr) return kExitUsage;
  const std::string golden_dir = golden_dir_for(opts, *profile);

  const Machine machine(profile->make());
  const Pipeline pipeline(machine, PipelineOptions{.jobs = opts.jobs, .memoize = true});
  const std::vector<ExperimentResult> results = pipeline.run_all(specs);

  // The shape checks encode KNL figure claims; they only gate the bless for
  // profiles that model the paper's testbed (see MachineProfile::paper_checks).
  if (profile->paper_checks && any_check_failed(results) && !opts.force) {
    for (const ExperimentResult& result : results) {
      if (!result.checks_passed()) print_result_line(result, err);
    }
    err << "error: refusing to bless a baseline that fails the paper's shape "
           "checks (use --force to override)\n";
    return kExitConformance;
  }

  std::error_code ec;
  std::filesystem::create_directories(golden_dir, ec);
  if (ec) {
    err << "error: could not create " << golden_dir << ": " << ec.message()
        << '\n';
    return kExitUsage;
  }
  // Crash-safe bless: the baselines and the manifest go down as one atomic
  // batch, so a bless killed mid-way leaves each golden either old or new —
  // never torn, and the startup integrity pass stays quiet.
  const std::filesystem::path base(golden_dir);
  std::vector<io::FileWrite> files;
  for (const ExperimentResult& result : results) {
    files.push_back({artifact_filename(result.id), artifact_text(result, machine)});
  }
  // Manifest covers every registry experiment with a baseline once this
  // bless lands, so a subset bless never drops the others.
  std::vector<std::string> ids;
  for (const ExperimentSpec& spec : experiments()) {
    const bool blessed_now =
        std::any_of(results.begin(), results.end(),
                    [&](const ExperimentResult& result) { return result.id == spec.id; });
    if (blessed_now || std::filesystem::exists(base / artifact_filename(spec.id), ec)) {
      ids.push_back(spec.id);
    }
  }
  files.push_back({"manifest.json", manifest_json(ids, machine).dump() + '\n'});
  std::string error;
  if (!io::atomic_write_files(golden_dir, files, &error)) {
    err << "error: " << error << '\n';
    return kExitUsage;
  }
  out << "blessed " << results.size() << " experiment(s) -> " << golden_dir
      << "/ (manifest covers " << ids.size() << ")\n";
  return kExitSuccess;
}

int cmd_matrix(const CliOptions& opts, const std::vector<const ExperimentSpec*>& specs,
               std::ostream& out, std::ostream& err) {
  // The cross-architecture conformance matrix: every shipped profile runs
  // the registry and diffs against its own blessed baselines. All profiles
  // execute even after a failure so the report names every drifting one.
  bool failed = false;
  for (const MachineProfile& profile : machine_profiles()) {
    const std::string golden_dir = profile.golden_dir;
    const std::vector<std::string> problems = golden_integrity_problems(golden_dir);
    if (!problems.empty()) {
      for (const std::string& problem : problems) err << "error: " << problem << '\n';
      return kExitUsage;
    }

    const Machine machine(profile.make());
    const Pipeline pipeline(machine,
                            PipelineOptions{.jobs = opts.jobs, .memoize = true});
    const std::vector<ExperimentResult> results = pipeline.run_all(specs);

    std::string error;
    if (opts.out_dir_set &&
        !write_artifacts(results, machine,
                         (std::filesystem::path(opts.out_dir) / profile.name).string(),
                         &error)) {
      err << "error: " << error << '\n';
      return kExitUsage;
    }

    const DiffReport report = diff_against_dir(golden_dir, results, machine,
                                               /*check_strays=*/opts.only.empty());
    if (report.clean()) {
      out << "  " << profile.name << ": PASS — " << report.experiments.size()
          << " experiment(s), " << report.compared_metrics()
          << " metrics within tolerance [" << golden_dir << "]\n";
    } else {
      failed = true;
      out << "  " << profile.name << ": FAIL [" << golden_dir << "]\n";
      out << report.render() << '\n';
    }
  }
  out << "conformance matrix: " << (failed ? "FAIL" : "PASS") << " ("
      << machine_profiles().size() << " profiles)\n";
  return failed ? kExitConformance : kExitSuccess;
}

}  // namespace

void request_interrupt() noexcept { g_interrupt = 1; }
bool interrupt_requested() noexcept { return g_interrupt != 0; }
void clear_interrupt() noexcept { g_interrupt = 0; }

int cli_main(const std::vector<std::string>& args, std::ostream& out,
             std::ostream& err) {
  CliOptions opts;
  if (!parse(args, opts, err)) return kExitUsage;
  if (opts.command == "help") {
    usage(out);
    return kExitSuccess;
  }
  if (opts.command == "list") return cmd_list(opts, out);

  std::vector<const ExperimentSpec*> specs;
  if (!select_specs(opts, specs, err)) return kExitUsage;

  // Arm the deterministic fault injector for the duration of the command:
  // --fault-plan wins over $KNL_FAULT_PLAN; arming resets the attempt
  // ledger, so repeated invocations replay the identical schedule.
  std::string plan_spec = opts.fault_plan;
  if (plan_spec.empty()) {
    const char* env = std::getenv(fault::kFaultPlanEnvVar);
    if (env != nullptr) plan_spec = env;
  }
  std::optional<fault::ScopedFaultPlan> scoped_plan;
  if (!plan_spec.empty()) {
    try {
      scoped_plan.emplace(fault::FaultPlan::parse(plan_spec));
    } catch (const Error& e) {
      err << "error: " << e.what() << '\n';
      return kExitUsage;
    }
  }

  try {
    if (opts.command == "run") return cmd_run(opts, specs, out, err);
    if (opts.command == "diff") return cmd_diff(opts, specs, out, err);
    if (opts.command == "bless") return cmd_bless(opts, specs, out, err);
    if (opts.command == "matrix") return cmd_matrix(opts, specs, out, err);
  } catch (const Error& e) {
    err << "error: " << e.what() << '\n';
    return kExitUsage;
  } catch (const std::exception& e) {
    err << "error: " << e.what() << '\n';
    return kExitUsage;
  }
  err << "unknown command: " << opts.command << '\n';
  usage(err);
  return kExitUsage;
}

}  // namespace knl::repro
