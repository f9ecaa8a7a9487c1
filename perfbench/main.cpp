// perfbench: the repo benchmark. One process runs one workload:
//
//   perfbench --workload repro|serve|capacity --seed N --seconds S --trace 0|1
//
// and prints its end-to-end metrics (or, with --trace 1, its per-layer
// metrics) by name with units, then one JSON result line. See README.md in
// this directory for the workloads, the metrics and the traced run.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.hpp"

namespace {

[[noreturn]] void usage(int code) {
  std::fprintf(code == 0 ? stdout : stderr,
               "usage: perfbench --workload repro|serve|capacity [--seed N]\n"
               "                 [--seconds S] [--trace 0|1] [--trace-out FILE]\n"
               "                 [--scratch-dir DIR] [--golden-dir DIR]\n"
               "                 [--serve-rate R] [--digest-only] [--record FILE]\n"
               "                 [--git-sha SHA]\n");
  std::exit(code);
}

bool parse_u64(const char* text, std::uint64_t& out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') return false;
  out = v;
  return true;
}

bool parse_double(const char* text, double& out) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || !(v > 0.0)) return false;
  out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage(2);
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      if (!parse_u64(value(), options.seed)) usage(2);
    } else if (arg == "--seconds") {
      if (!parse_double(value(), options.seconds)) usage(2);
    } else if (arg == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") usage(2);
      options.trace = v == "1";
    } else if (arg == "--trace-out") {
      options.trace_out = value();
    } else if (arg == "--scratch-dir") {
      options.scratch_dir = value();
    } else if (arg == "--golden-dir") {
      options.golden_dir = value();
    } else if (arg == "--serve-rate") {
      if (!parse_double(value(), options.serve_rate)) usage(2);
    } else if (arg == "--digest-only") {
      options.digest_only = true;
    } else if (arg == "--record") {
      options.record = value();
    } else if (arg == "--git-sha") {
      options.git_sha = value();
    } else if (arg == "--help") {
      usage(0);
    } else {
      usage(2);
    }
  }
  if (options.workload != "repro" && options.workload != "serve" &&
      options.workload != "capacity") {
    usage(2);
  }
  if (!options.record.empty() && std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr,
                 "perfbench: refusing to record a baseline from a '%s' build; "
                 "configure with -DCMAKE_BUILD_TYPE=Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }

  if (options.digest_only) {
    std::uint64_t digest = 0;
    if (options.workload == "repro") digest = perfbench::repro_input_digest(options);
    if (options.workload == "serve") digest = perfbench::serve_input_digest(options);
    if (options.workload == "capacity") digest = perfbench::capacity_input_digest(options);
    std::printf("%016llx\n", static_cast<unsigned long long>(digest));
    return 0;
  }

  perfbench::Result result;
  result.workload = options.workload;
  try {
    if (options.workload == "repro") perfbench::run_repro(options, result);
    if (options.workload == "serve") perfbench::run_serve(options, result);
    if (options.workload == "capacity") perfbench::run_capacity(options, result);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return perfbench::emit(options, result);
}
