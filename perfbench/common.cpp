#include "common.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <thread>

#include "repro/experiment.hpp"
#include "sim/simd.hpp"

namespace perfbench {

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

namespace {
double cpu_ms(clockid_t clock) {
  timespec t{};
  ::clock_gettime(clock, &t);
  return static_cast<double>(t.tv_sec) * 1e3 + static_cast<double>(t.tv_nsec) / 1e6;
}
}  // namespace

double process_cpu_ms() { return cpu_ms(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_ms() { return cpu_ms(CLOCK_THREAD_CPUTIME_ID); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

void RoundSeries::close_round() {
  if (current_.empty()) return;
  medians_.push_back(quantile(current_, 0.5));
  current_.clear();
}

FastestPerItem::FastestPerItem(std::size_t items)
    : best_(items, std::numeric_limits<double>::infinity()) {}

void FastestPerItem::add(std::size_t item, double value) {
  best_[item] = std::min(best_[item], value);
}

Tail supported_tail(const std::vector<double>& values) {
  const double n = static_cast<double>(values.size());
  for (const auto& [label, q] : {std::pair<const char*, double>{"p99", 0.99},
                                 {"p90", 0.90}}) {
    if (n * (1.0 - q) >= 10.0) return {label, quantile(values, q)};
  }
  return {"p50", quantile(values, 0.5)};
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

double peak_rss_mb() {
  rusage usage{};
  if (::getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int hardware_threads() {
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

void Result::fail(const std::string& problem) {
  correct = false;
  if (problems.size() < 20) problems.push_back(problem);
}

const std::vector<std::pair<std::string, std::string>>& layer_catalog() {
  static const std::vector<std::pair<std::string, std::string>> catalog = [] {
    std::vector<std::pair<std::string, std::string>> c;
    // repro
    for (const knl::repro::ExperimentSpec& spec : knl::repro::experiments()) {
      c.emplace_back("repro.run_ms." + spec.id, "ms");
    }
    c.emplace_back("repro.serialize_ms", "ms");
    c.emplace_back("repro.write_ms", "ms");
    c.emplace_back("repro.pass_self_ms", "ms");
    c.emplace_back("sweep.cells", "count");
    c.emplace_back("sweep.evaluated", "count");
    c.emplace_back("sweep.cache_hits", "count");
    c.emplace_back("sweep.cell_us", "us");
    c.emplace_back("sweep.parallel_eff", "ratio");
    c.emplace_back("cache.inserts", "count");
    c.emplace_back("cache.coalesced", "count");
    c.emplace_back("trace.overhead.repro", "ratio");
    // serve
    c.emplace_back("http.rtt_p50_us", "us");
    c.emplace_back("http.rtt_p99_us", "us");
    c.emplace_back("http.self_p50_us", "us");
    for (const char* endpoint : {"placement", "whatif", "sweep", "stats"}) {
      c.emplace_back(std::string("service.handle_p50_us.") + endpoint, "us");
      c.emplace_back(std::string("service.handle_p99_us.") + endpoint, "us");
    }
    c.emplace_back("advisor.advise_us", "us");
    c.emplace_back("service.placement_self_us", "us");
    c.emplace_back("cache.hit_us", "us");
    c.emplace_back("machine.run_us", "us");
    c.emplace_back("cache.hit_ratio", "ratio");
    c.emplace_back("service.shed", "count");
    c.emplace_back("service.errors", "count");
    c.emplace_back("service.deadline_exceeded", "count");
    c.emplace_back("service.health_transitions", "count");
    c.emplace_back("trace.overhead.serve", "ratio");
    c.emplace_back("trace.parts_ratio.serve", "ratio");
    // capacity
    for (const char* grid : {"regular", "random"}) {
      const std::string g = grid;
      c.emplace_back("synth.ms." + g, "ms");
      c.emplace_back("reuse.profile_ms." + g, "ms");
      c.emplace_back("reuse.refs_per_s." + g, "1/s");
      c.emplace_back("reuse.derive_us." + g, "us");
      c.emplace_back("planner.self_ms." + g, "ms");
      c.emplace_back("planner.warm_self_us." + g, "us");
      c.emplace_back("planner.profile_passes." + g, "count");
      c.emplace_back("planner.profile_hits." + g, "count");
      c.emplace_back("planner.cells_derived." + g, "count");
      c.emplace_back("cache.profile_hits." + g, "count");
      c.emplace_back("cache.profile_misses." + g, "count");
    }
    c.emplace_back("trace.overhead.capacity", "ratio");
    c.emplace_back("trace.parts_ratio.capacity", "ratio");
    return c;
  }();
  return catalog;
}

namespace {

/// Shortest text that reads back as the same double.
std::string number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return ec == std::errc() ? std::string(buf, end) : std::string("0");
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string compiler_name() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string metrics_json(const std::map<std::string, Metric>& metrics) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    if (!first) out += ", ";
    first = false;
    out += quoted(name) + ": {\"value\": " + number(metric.value) +
           ", \"unit\": " + quoted(metric.unit) + "}";
  }
  return out + "}";
}

void print_rows(const std::map<std::string, Metric>& metrics) {
  for (const auto& [name, metric] : metrics) {
    std::printf("  %-36s %14.6g %-8s", name.c_str(), metric.value, metric.unit.c_str());
    if (metric.samples > 0) std::printf(" n=%zu", metric.samples);
    if (!metric.note.empty()) std::printf("  %s", metric.note.c_str());
    std::printf("\n");
  }
}

}  // namespace

int emit(const Options& options, Result& result) {
  const double fail_ratio =
      result.attempted == 0
          ? 1.0
          : static_cast<double>(result.failed) / static_cast<double>(result.attempted);
  result.report["fail_ratio"] = Metric{fail_ratio, "ratio", result.attempted, ""};
  if (result.attempted == 0) result.fail("no operation was attempted");
  if (result.failed > 0) {
    result.fail(std::to_string(result.failed) + " of " +
                std::to_string(result.attempted) + " operations failed");
  }

  std::map<std::string, Metric>* contract = &result.slots;
  if (options.trace) {
    // Every catalogued layer metric appears; layers this workload never
    // reaches read 0.
    for (const auto& [name, unit] : layer_catalog()) {
      auto [it, fresh] = result.layers.try_emplace(name, Metric{0.0, unit, 0, ""});
      if (!fresh && it->second.unit != unit) {
        result.fail("layer metric " + name + " has unit " + it->second.unit);
      }
    }
    contract = &result.layers;
  }

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              result.workload.c_str(), static_cast<unsigned long long>(options.seed),
              options.seconds, options.trace ? 1 : 0);
  std::printf("end-to-end (%s):\n", result.workload.c_str());
  print_rows(result.report);
  if (options.trace) {
    std::printf("per-layer:\n");
    print_rows(result.layers);
  }
  const std::string host =
      std::string("{\"nproc\": ") + std::to_string(hardware_threads()) +
      ", \"simd\": " +
      quoted(knl::sim::simd::level_name(knl::sim::simd::active_level())) +
      ", \"compiler\": " + quoted(compiler_name()) +
      ", \"build_type\": " + quoted(PERFBENCH_BUILD_TYPE) +
      ", \"git_sha\": " + quoted(options.git_sha.empty() ? "unknown" : options.git_sha) +
      "}";
  std::printf("host %s\n", host.c_str());
  for (const std::string& problem : result.problems) {
    std::printf("problem: %s\n", problem.c_str());
  }

  const std::string line =
      std::string("{\"correct\": ") + (result.correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(result.attempted) +
      ", \"failed\": " + std::to_string(result.failed) +
      ", \"metrics\": " + metrics_json(*contract) + "}";

  if (!options.record.empty()) {
    std::ofstream out(options.record);
    out << "{\"workload\": " << quoted(result.workload)
        << ", \"seed\": " << options.seed << ", \"seconds\": " << number(options.seconds)
        << ", \"trace\": " << (options.trace ? 1 : 0) << ", \"host\": " << host
        << ", \"end_to_end\": " << metrics_json(result.report)
        << ", \"result\": " << line << "}\n";
    if (!out) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", options.record.c_str());
      result.correct = false;
    }
  }

  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return result.correct && result.failed == 0 ? 0 : 1;
}

}  // namespace perfbench
