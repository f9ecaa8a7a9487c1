#include "service/service.hpp"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <utility>

#include "core/advisor.hpp"
#include "core/fault/error.hpp"
#include "core/thread_pool.hpp"
#include "service/recovery.hpp"
#include "sim/simd.hpp"
#include "sim/topology.hpp"
#include "workloads/registry.hpp"

namespace knl::service {

namespace {

using repro::json::Value;

// ---------------------------------------------------------------------------
// Body parsing: every helper throws CorruptInput with the field name, which
// the error envelope turns into a 400 naming exactly what was wrong.
// ---------------------------------------------------------------------------
const Value& require_object(const Value& body) {
  if (!body.is_object()) {
    throw Error::corrupt_input("service/bad-body",
                               "request body must be a JSON object");
  }
  return body;
}

double require_number(const Value& body, const std::string& key) {
  const Value* v = body.find(key);
  if (v == nullptr || !v->is_number()) {
    throw Error::corrupt_input("service/bad-field",
                               "missing or non-numeric field '" + key + "'");
  }
  return v->as_number();
}

double number_or(const Value& body, const std::string& key, double fallback) {
  const Value* v = body.find(key);
  if (v == nullptr) return fallback;
  if (!v->is_number()) {
    throw Error::corrupt_input("service/bad-field",
                               "field '" + key + "' must be a number");
  }
  return v->as_number();
}

bool bool_or(const Value& body, const std::string& key, bool fallback) {
  const Value* v = body.find(key);
  if (v == nullptr) return fallback;
  if (!v->is_bool()) {
    throw Error::corrupt_input("service/bad-field",
                               "field '" + key + "' must be a boolean");
  }
  return v->as_bool();
}

std::string require_string(const Value& body, const std::string& key) {
  const Value* v = body.find(key);
  if (v == nullptr || !v->is_string()) {
    throw Error::corrupt_input("service/bad-field",
                               "missing or non-string field '" + key + "'");
  }
  return v->as_string();
}

std::uint64_t require_bytes(const Value& body, const std::string& key) {
  const double raw = require_number(body, key);
  if (!(raw > 0.0) || raw > 1e15) {
    throw Error::corrupt_input("service/bad-field",
                               "field '" + key + "' must be in (0, 1e15] bytes");
  }
  return static_cast<std::uint64_t>(raw);
}

/// The elements of a non-empty array; `shape` completes the error message
/// "field '<key>' must be <shape>".
const repro::json::Array& require_array(const Value& field, const std::string& key,
                                        const char* shape = "a non-empty array") {
  if (!field.is_array() || field.as_array().empty()) {
    throw Error::corrupt_input("service/bad-field", "field '" + key + "' must be " + shape);
  }
  return field.as_array();
}

/// A non-empty array of byte counts, each in (0, 1e15].
std::vector<std::uint64_t> require_byte_counts(const Value& field, const std::string& key,
                                               const char* shape) {
  std::vector<std::uint64_t> out;
  for (const Value& item : require_array(field, key, shape)) {
    if (!item.is_number() || !(item.as_number() > 0.0) || item.as_number() > 1e15) {
      throw Error::corrupt_input("service/bad-field",
                                 "'" + key + "' entries must be in (0, 1e15]");
    }
    out.push_back(static_cast<std::uint64_t>(item.as_number()));
  }
  return out;
}

int require_threads(const Value& body, const std::string& key, int fallback, int lo = 1) {
  const double raw = number_or(body, key, fallback);
  if (raw < lo || raw > 4096.0 || raw != std::floor(raw)) {
    throw Error::corrupt_input("service/bad-field", "field '" + key +
                                                        "' must be an integer in [" +
                                                        std::to_string(lo) + ", 4096]");
  }
  return static_cast<int>(raw);
}

MemConfig parse_config(const std::string& name) {
  if (name == "DRAM") return MemConfig::DRAM;
  if (name == "HBM") return MemConfig::HBM;
  if (name == "Cache Mode" || name == "CacheMode" || name == "CACHE") {
    return MemConfig::CacheMode;
  }
  throw Error::corrupt_input("service/bad-config",
                             "unknown memory config '" + name +
                                 "' (known: DRAM, HBM, Cache Mode)");
}

std::vector<MemConfig> parse_configs(const Value& body) {
  const Value* v = body.find("configs");
  if (v == nullptr) {
    return {MemConfig::DRAM, MemConfig::HBM, MemConfig::CacheMode};
  }
  std::vector<MemConfig> configs;
  for (const Value& item : require_array(*v, "configs")) {
    if (!item.is_string()) {
      throw Error::corrupt_input("service/bad-field",
                                 "field 'configs' must hold strings");
    }
    configs.push_back(parse_config(item.as_string()));
  }
  return configs;
}

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------
Value run_result_json(const RunResult& r) {
  Value out = Value::object();
  out.set("feasible", r.feasible);
  if (!r.feasible) {
    out.set("infeasible_reason", r.infeasible_reason);
    return out;
  }
  out.set("seconds", r.seconds);
  out.set("achieved_bw_gbs", r.achieved_bw_gbs);
  out.set("avg_latency_ns", r.avg_latency_ns);
  out.set("bytes_from_memory", r.bytes_from_memory);
  out.set("flops", r.flops);
  out.set("mcdram_hit_rate", r.mcdram_hit_rate);
  return out;
}

Value figure_json(const report::Figure& figure) {
  Value out = Value::object();
  out.set("title", figure.title());
  Value series = Value::array();
  for (const report::Series& s : figure.series()) {
    Value one = Value::object();
    one.set("name", s.name);
    Value points = Value::array();
    for (const auto& [x, y] : s.points) {
      Value point = Value::array();
      point.push_back(x);
      point.push_back(y);
      points.push_back(std::move(point));
    }
    one.set("points", std::move(points));
    series.push_back(std::move(one));
  }
  out.set("series", std::move(series));
  return out;
}

Value sweep_stats_json(const report::SweepStats& stats) {
  Value out = Value::object();
  out.set("cells", static_cast<double>(stats.cells));
  out.set("evaluated", static_cast<double>(stats.evaluated));
  out.set("cache_hits", static_cast<double>(stats.cache_hits));
  out.set("infeasible", static_cast<double>(stats.infeasible));
  out.set("failed", static_cast<double>(stats.failed));
  out.set("profile_passes", static_cast<double>(stats.profile_passes));
  out.set("profile_hits", static_cast<double>(stats.profile_hits));
  out.set("cells_derived", static_cast<double>(stats.cells_derived));
  return out;
}

Value capacity_cell_json(const report::CapacityCell& cell) {
  Value out = Value::object();
  out.set("capacity_bytes", static_cast<double>(cell.capacity_bytes));
  out.set("ways", static_cast<double>(cell.ways));
  out.set("hit_rate", cell.hit_rate);
  out.set("effective_bw_gbs", cell.effective_bw_gbs);
  out.set("avg_latency_ns", cell.avg_latency_ns);
  out.set("seconds", cell.seconds);
  out.set("profile_hit", cell.profile_hit);
  return out;
}

/// The registry entry named by the body's "workload" field.
const workloads::RegistryEntry& require_workload(const Value& body) {
  const std::string name = require_string(body, "workload");
  try {
    return workloads::find_workload(name);
  } catch (const std::exception&) {
    throw Error::corrupt_input("service/unknown-workload",
                               "unknown workload '" + name + "'");
  }
}

/// Shared grid-geometry parsing for /sweep capacity mode and /whatif's
/// capacity override: optional cache_line_bytes / cache_sets / sample_every
/// with the constraints the profile engine needs, validated here so a bad
/// geometry reads as a 400 naming the field, not a 500 from a deep throw.
report::CapacityGrid parse_capacity_grid(const Value& body,
                                         std::vector<std::uint64_t> capacities) {
  report::CapacityGrid grid;
  grid.capacities_bytes = std::move(capacities);
  grid.line_bytes =
      static_cast<std::uint64_t>(number_or(body, "cache_line_bytes", 64.0));
  if (grid.line_bytes < 8 || grid.line_bytes > 4096 ||
      (grid.line_bytes & (grid.line_bytes - 1)) != 0) {
    throw Error::corrupt_input(
        "service/bad-field",
        "field 'cache_line_bytes' must be a power of two in [8, 4096]");
  }
  grid.num_sets = static_cast<std::uint64_t>(
      number_or(body, "cache_sets", static_cast<double>(grid.num_sets)));
  if (grid.num_sets < 1 || grid.num_sets > (1ull << 26)) {
    throw Error::corrupt_input("service/bad-field",
                               "field 'cache_sets' must be in [1, 2^26]");
  }
  grid.sample_every =
      static_cast<std::uint64_t>(number_or(body, "sample_every", 1.0));
  if (grid.sample_every < 1 || grid.sample_every > grid.num_sets) {
    throw Error::corrupt_input(
        "service/bad-field",
        "field 'sample_every' must be in [1, cache_sets]");
  }
  const std::uint64_t set_bytes = grid.line_bytes * grid.num_sets;
  for (const std::uint64_t capacity : grid.capacities_bytes) {
    if (capacity == 0 || capacity % set_bytes != 0) {
      throw Error::corrupt_input(
          "service/bad-field",
          "capacity " + std::to_string(capacity) +
              " must be a positive multiple of cache_line_bytes*cache_sets (" +
              std::to_string(set_bytes) + ")");
    }
  }
  return grid;
}

Value recommendation_json(const Recommendation& rec) {
  repro::json::Object out;
  out.reserve(5);
  out.emplace_back("config", to_string(rec.config));
  out.emplace_back("threads", rec.threads);
  out.emplace_back("speedup_vs_dram64", rec.predicted_speedup_vs_dram64);
  out.emplace_back("feasible", rec.feasible);
  if (!rec.rationale.empty()) out.emplace_back("rationale", rec.rationale);
  return out;
}

int status_for(ErrorCategory category) {
  switch (category) {
    case ErrorCategory::CorruptInput: return 400;
    case ErrorCategory::Resource: return 429;
    case ErrorCategory::Transient: return 503;
    case ErrorCategory::Internal: return 500;
  }
  return 500;
}

/// RAII in-flight gauge: admission is checked by the caller; this only
/// guarantees the decrement on every exit path.
class InflightGuard {
 public:
  explicit InflightGuard(std::atomic<std::uint64_t>& gauge) : gauge_(gauge) {
    gauge_.fetch_add(1, std::memory_order_relaxed);
  }
  ~InflightGuard() { gauge_.fetch_sub(1, std::memory_order_relaxed); }
  InflightGuard(const InflightGuard&) = delete;
  InflightGuard& operator=(const InflightGuard&) = delete;

 private:
  std::atomic<std::uint64_t>& gauge_;
};

/// Declared-topology summary attached to query responses and /stats: which
/// memory hierarchy a machine actually simulates, so multi-profile
/// deployments can tell fingerprints apart without a registry lookup.
Value topology_json(const Machine& machine) {
  const sim::MemoryTopology& topology = machine.memory_topology();
  char fingerprint[32];
  std::snprintf(fingerprint, sizeof fingerprint, "%016" PRIx64,
                machine.fingerprint());
  Value out = Value::object();
  out.set("name", topology.name);
  out.set("fingerprint", std::string(fingerprint));
  out.set("tiers", static_cast<double>(topology.tier_count()));
  out.set("tier_names", topology.tier_names());
  Value tiers = Value::array();
  for (std::size_t i = 0; i < topology.tier_count(); ++i) {
    const sim::MemoryTier& tier = topology.tier(i);
    Value one = Value::object();
    one.set("name", tier.name);
    one.set("kind", sim::to_string(tier.kind));
    one.set("capacity_bytes", static_cast<double>(tier.params.capacity_bytes));
    one.set("stream_bw_gbs", tier.params.stream_bw_gbs);
    one.set("idle_latency_ns", tier.params.idle_latency_ns);
    one.set("cache_front", tier.cache_front);
    if (tier.backing != -1) {
      one.set("backing", topology.tier(static_cast<std::size_t>(tier.backing)).name);
    }
    tiers.push_back(std::move(one));
  }
  out.set("tier_detail", std::move(tiers));
  return out;
}

}  // namespace

PlacementService::PlacementService(ServiceOptions options)
    : options_(options),
      workers_(options.workers <= 0 ? core::ThreadPool::hardware_threads()
                                    : static_cast<unsigned>(options.workers)),
      slots_(static_cast<std::ptrdiff_t>(workers_)),
      health_(options.health) {
  machines_.emplace("knl7210", Machine(MachineConfig::knl7210()));
  machines_.emplace("knl7210_equal_latency",
                    Machine(MachineConfig::knl7210_equal_latency()));
  machines_.emplace("knl7210_snc4", Machine(MachineConfig::knl7210_snc4()));
  machines_.emplace("ddr_only", Machine(MachineConfig::ddr_only()));
  machines_.emplace("xeonmax", Machine(MachineConfig::xeon_max()));
  machines_.emplace("knl_nvm", Machine(MachineConfig::knl_nvm()));
  report::SweepCache::instance().set_capacity(options_.cache_capacity);
}

std::vector<std::string> PlacementService::machine_names() const {
  std::vector<std::string> names;
  for (const auto& [name, machine] : machines_) names.push_back(name);
  return names;
}

ServiceCounters PlacementService::counters() const {
  ServiceCounters c;
  c.placement = placement_.load(std::memory_order_relaxed);
  c.sweep = sweep_.load(std::memory_order_relaxed);
  c.whatif = whatif_.load(std::memory_order_relaxed);
  c.stats = stats_.load(std::memory_order_relaxed);
  c.healthz = healthz_.load(std::memory_order_relaxed);
  c.shed = shed_.load(std::memory_order_relaxed);
  c.errors = errors_.load(std::memory_order_relaxed);
  c.inflight = inflight_.load(std::memory_order_relaxed);
  c.deadline_exceeded = deadline_exceeded_.load(std::memory_order_relaxed);
  c.brownout = brownout_.load(std::memory_order_relaxed);
  c.degraded = degraded_.load(std::memory_order_relaxed);
  return c;
}

int PlacementService::adaptive_retry_after_ms() const {
  const double base = static_cast<double>(options_.retry_after_ms);
  const double fraction =
      options_.max_inflight == 0
          ? 1.0
          : static_cast<double>(inflight_.load(std::memory_order_relaxed)) /
                static_cast<double>(options_.max_inflight);
  return static_cast<int>(base * (1.0 + 8.0 * std::min(fraction, 1.0)));
}

const Machine& PlacementService::find_machine(const Value& body) const {
  std::string name = "knl7210";
  if (const Value* v = body.find("machine"); v != nullptr) {
    if (!v->is_string()) {
      throw Error::corrupt_input("service/bad-field",
                                 "field 'machine' must be a string");
    }
    name = v->as_string();
  }
  const auto it = machines_.find(name);
  if (it == machines_.end()) {
    std::string known;
    for (const auto& [n, machine] : machines_) {
      if (!known.empty()) known += ", ";
      known += n;
    }
    throw Error::corrupt_input("service/unknown-machine",
                               "unknown machine '" + name + "' (known: " + known + ")");
  }
  return it->second;
}

ServiceResponse PlacementService::handle_text(const std::string& method,
                                              const std::string& target,
                                              const std::string& body_text,
                                              double deadline_ms) {
  Value body;
  if (!body_text.empty()) {
    std::string error;
    auto parsed = Value::parse(body_text, &error);
    if (!parsed) {
      errors_.fetch_add(1, std::memory_order_relaxed);
      Value envelope = Value::object();
      Value detail = Value::object();
      detail.set("status", 400);
      detail.set("category", to_string(ErrorCategory::CorruptInput));
      detail.set("code", "service/bad-json");
      detail.set("message", "request body is not valid JSON: " + error);
      envelope.set("error", std::move(detail));
      return {400, std::move(envelope)};
    }
    body = std::move(*parsed);
  }
  return handle(method, target, body, deadline_ms);
}

ServiceResponse PlacementService::handle(const std::string& method,
                                         const std::string& target,
                                         const Value& body,
                                         double deadline_ms) {
  try {
    return dispatch(method, target, body, deadline_ms);
  } catch (const Error& e) {
    int status = status_for(e.category());
    // Routing failures are CorruptInput in the taxonomy but deserve their
    // classic HTTP spellings; an exhausted budget is the gateway-timeout
    // arm of the Resource category.
    if (e.code() == "service/not-found") status = 404;
    if (e.code() == "service/bad-method") status = 405;
    if (e.code() == kDeadlineExceededCode) status = 504;
    if (status == 429) {
      shed_.fetch_add(1, std::memory_order_relaxed);
      if (e.code() == "service/brownout") {
        brownout_.fetch_add(1, std::memory_order_relaxed);
      }
    } else {
      errors_.fetch_add(1, std::memory_order_relaxed);
      if (status == 504) deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
    }
    Value envelope = Value::object();
    Value detail = Value::object();
    detail.set("status", status);
    detail.set("category", to_string(e.category()));
    detail.set("code", e.code());
    detail.set("message", e.message());
    if (status == 429 || status == 503) {
      // Back-pressure hints: how long to wait (scaled by queue depth) and
      // which brownout state produced the rejection.
      detail.set("retry_after_ms", adaptive_retry_after_ms());
      detail.set("health", to_string(health_.state()));
    }
    envelope.set("error", std::move(detail));
    return {status, std::move(envelope)};
  } catch (const std::exception& e) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    Value envelope = Value::object();
    Value detail = Value::object();
    detail.set("status", 500);
    detail.set("category", to_string(ErrorCategory::Internal));
    detail.set("code", "service/internal");
    detail.set("message", e.what());
    envelope.set("error", std::move(detail));
    return {500, std::move(envelope)};
  }
}

ServiceResponse PlacementService::dispatch(const std::string& method,
                                           const std::string& target,
                                           const Value& body,
                                           double deadline_ms) {
  // Strip any query string: routing is on the path alone.
  const std::string path = target.substr(0, target.find('?'));

  // The two GET endpoints bypass the slot gate and load shedding: health
  // and stats must answer even when the service rejects new work.
  if (path == "/healthz") {
    if (method != "GET") {
      throw Error::corrupt_input("service/bad-method", "/healthz expects GET");
    }
    healthz_.fetch_add(1, std::memory_order_relaxed);
    return {200, do_healthz()};
  }
  if (path == "/stats") {
    if (method != "GET") {
      throw Error::corrupt_input("service/bad-method", "/stats expects GET");
    }
    stats_.fetch_add(1, std::memory_order_relaxed);
    return {200, do_stats()};
  }

  using Query = Value (PlacementService::*)(const Value&, const QueryContext&) const;
  Query query = nullptr;
  std::atomic<std::uint64_t>* counter = nullptr;
  if (path == "/placement") {
    query = &PlacementService::do_placement;
    counter = &placement_;
  } else if (path == "/whatif") {
    query = &PlacementService::do_whatif;
    counter = &whatif_;
  } else if (path == "/sweep") {
    query = &PlacementService::do_sweep;
    counter = &sweep_;
  } else {
    throw Error::corrupt_input("service/not-found", "unknown endpoint " + path);
  }
  if (method != "POST") {
    throw Error::corrupt_input("service/bad-method", path + " expects POST");
  }

  // Resolve the request budget: transport header first, then the body's
  // own `deadline_ms` field, then the server default. A null deadline
  // (default 0 everywhere) stays unbounded.
  double budget_ms = deadline_ms;
  if (budget_ms <= 0.0 && body.is_object()) {
    budget_ms = number_or(body, "deadline_ms", 0.0);
    if (budget_ms < 0.0) {
      throw Error::corrupt_input("service/bad-field",
                                 "field 'deadline_ms' must be positive");
    }
  }
  if (budget_ms <= 0.0) budget_ms = options_.default_deadline_ms;

  QueryContext ctx;
  ctx.deadline = Deadline::shared_after_ms(budget_ms);

  // Load shedding (the Resource arm of the taxonomy): admit at most
  // max_inflight queries; past the bound, reject with a retry-after hint
  // rather than queueing without bound. Shedding state rejects everything
  // the same way — the brownout has decided the service cannot keep its
  // latency promises at all.
  const std::uint64_t inflight_now = inflight_.load(std::memory_order_relaxed);
  health_.note_queue(inflight_now, options_.max_inflight);
  if (inflight_now >= options_.max_inflight) {
    throw Error::resource("service/overloaded",
                          "service at capacity (" +
                              std::to_string(options_.max_inflight) +
                              " queries in flight); retry later");
  }
  if (health_.state() == HealthState::Shedding) {
    throw Error::resource("service/brownout",
                          "service is shedding load (rolling p99 or queue depth "
                          "over the brownout threshold); retry later");
  }
  // Admission deadline check: a request whose budget is already gone (the
  // client queued it behind a slow connection, or sent a stale retry) is
  // answered 504 without costing a query slot.
  if (ctx.deadline != nullptr) ctx.deadline->check("admission of " + path);

  ctx.degraded = health_.state() == HealthState::Degraded;
  if (ctx.degraded) degraded_.fetch_add(1, std::memory_order_relaxed);

  const InflightGuard guard(inflight_);
  counter->fetch_add(1, std::memory_order_relaxed);

  // Journal the admitted request (when knl-serve armed one): a kill between
  // here and JournalGuard's end record leaves a begin without an end, which
  // the restarted daemon replays to re-warm the cache.
  RequestJournal* journal = journal_.load(std::memory_order_acquire);
  struct JournalGuard {
    RequestJournal* journal;
    std::uint64_t seq;
    ~JournalGuard() {
      if (journal != nullptr) journal->end(seq);
    }
  } journal_guard{journal,
                  journal != nullptr ? journal->begin(method, path, body.dump(0)) : 0};

  // Feed the brownout monitor on every admitted query, success or error —
  // the p99 it watches must include the slow failures.
  struct LatencyRecorder {
    HealthMonitor& monitor;
    const std::atomic<std::uint64_t>& inflight;
    std::size_t max_inflight;
    std::chrono::steady_clock::time_point start = std::chrono::steady_clock::now();
    ~LatencyRecorder() {
      const std::chrono::duration<double, std::milli> elapsed =
          std::chrono::steady_clock::now() - start;
      monitor.record(elapsed.count(), inflight.load(std::memory_order_relaxed),
                     max_inflight);
    }
  } latency_recorder{health_, inflight_, options_.max_inflight};

  // Execute on the calling thread once it holds one of the `workers`
  // slots, so at most `workers` queries compute at once. The slot check
  // catches budgets that died waiting for a slot.
  const Value& parsed = require_object(body);
  slots_.acquire();
  struct SlotRelease {
    std::counting_semaphore<>& slots;
    ~SlotRelease() { slots.release(); }
  } slot_release{slots_};
  if (ctx.deadline != nullptr) ctx.deadline->check("waiting for a query slot");
  return {200, (this->*query)(parsed, ctx)};
}

Value PlacementService::do_placement(const Value& body,
                                     const QueryContext& /*ctx*/) const {
  const Machine& machine = find_machine(body);
  const Value* app_field = body.find("app");
  const Value& app_body = app_field != nullptr ? *app_field : body;

  AppCharacteristics app;
  if (const Value* v = app_body.find("name"); v != nullptr && v->is_string()) {
    app.name = v->as_string();
  }
  app.footprint_bytes = require_bytes(app_body, "footprint_bytes");
  app.regular_fraction = number_or(app_body, "regular_fraction", 1.0);
  if (app.regular_fraction < 0.0 || app.regular_fraction > 1.0) {
    throw Error::corrupt_input("service/bad-field",
                               "field 'regular_fraction' must be in [0, 1]");
  }
  app.flops_per_byte = number_or(app_body, "flops_per_byte", 0.0);
  // The advisor's DRAM@64 baseline must be a candidate.
  app.max_threads = require_threads(app_body, "max_threads", app.max_threads, 64);
  app.random_granule_bytes =
      static_cast<std::uint64_t>(number_or(app_body, "random_granule_bytes", 8.0));

  // Validate capacity up front so an impossible footprint reads as a bad
  // request, not as a Resource failure deep in the advisor.
  if (app.footprint_bytes > machine.config().dram_tier().capacity_bytes) {
    throw Error::corrupt_input("service/bad-field",
                               "footprint_bytes exceeds the machine's DDR capacity");
  }

  const Advisor advisor(machine);
  Advice advice = advisor.advise(app);

  repro::json::Array ranked;
  ranked.reserve(advice.ranked.size());
  for (const Recommendation& rec : advice.ranked) ranked.push_back(recommendation_json(rec));
  repro::json::Object out;
  out.reserve(4);
  out.emplace_back("app", std::move(app.name));
  out.emplace_back("classification", std::move(advice.classification));
  out.emplace_back("best", recommendation_json(advice.best));
  out.emplace_back("ranked", std::move(ranked));
  return out;
}

Value PlacementService::do_whatif(const Value& body,
                                  const QueryContext& ctx) const {
  const Machine& machine = find_machine(body);
  const workloads::RegistryEntry& entry = require_workload(body);
  const std::uint64_t bytes = require_bytes(body, "bytes");
  const int threads = require_threads(body, "threads", 64);
  const MemConfig config =
      parse_config(body.find("config") != nullptr ? require_string(body, "config")
                                                  : std::string("DRAM"));

  const auto workload = entry.make(bytes);
  bool cache_hit = false;
  const RunResult result = report::cached_run(
      machine, workload->profile(), RunConfig{config, threads, 0.0}, &cache_hit);

  Value out = Value::object();
  out.set("workload", entry.info.name);
  out.set("config", to_string(config));
  out.set("threads", threads);
  out.set("footprint_bytes", static_cast<double>(workload->footprint_bytes()));
  out.set("result", run_result_json(result));
  if (result.feasible) {
    out.set("metric", workload->metric(result));
    out.set("metric_name", entry.info.metric_name);
  }
  out.set("cache_hit", cache_hit);
  out.set("topology", topology_json(machine));

  // Optional MCDRAM-capacity what-if: a one-cell capacity grid through the
  // single-pass engine. Because profiles are keyed on (trace, machine,
  // threads, geometry) — not on the capacity list — this query hits the
  // profile another grid populated, whatever capacities that grid swept.
  if (body.find("mcdram_capacity_bytes") != nullptr) {
    const std::uint64_t capacity = require_bytes(body, "mcdram_capacity_bytes");
    report::CapacityGrid grid = parse_capacity_grid(body, {capacity});
    report::SweepOptions sweep_options;
    sweep_options.single_pass = bool_or(body, "single_pass", true);
    sweep_options.deadline = ctx.deadline;
    sweep_options.cache_only = ctx.degraded;
    const report::CapacitySweepRun capacity_run = report::sweep_capacities_run(
        machine, workload->profile(), threads, std::move(grid),
        report::Figure("capacity what-if", "GB", ""), sweep_options);
    if (!capacity_run.failures.empty()) {
      const report::CellFailure& f = capacity_run.failures.front();
      throw Error(f.category, "service/capacity-whatif", f.message);
    }
    Value whatif = capacity_cell_json(capacity_run.cells.front());
    whatif.set("stats", sweep_stats_json(capacity_run.stats));
    out.set("capacity_whatif", std::move(whatif));
  }
  return out;
}

Value PlacementService::do_sweep(const Value& body,
                                 const QueryContext& ctx) const {
  const Machine& machine = find_machine(body);
  const workloads::RegistryEntry& entry = require_workload(body);
  const std::vector<MemConfig> configs = parse_configs(body);

  const Value* sizes_field = body.find("sizes_bytes");
  const Value* threads_field = body.find("thread_counts");
  const Value* capacities_field = body.find("capacities_bytes");
  const int modes = (sizes_field != nullptr ? 1 : 0) +
                    (threads_field != nullptr ? 1 : 0) +
                    (capacities_field != nullptr ? 1 : 0);
  if (modes != 1) {
    throw Error::corrupt_input(
        "service/bad-field",
        "exactly one of 'sizes_bytes' (size sweep), 'thread_counts' "
        "(thread sweep) or 'capacities_bytes' (MCDRAM capacity sweep) is "
        "required");
  }
  const auto check_cells = [this](std::size_t cells) {
    if (cells > options_.max_sweep_cells) {
      throw Error::corrupt_input(
          "service/grid-too-large",
          "sweep grid exceeds " + std::to_string(options_.max_sweep_cells) +
              " cells; split the query");
    }
  };

  report::SweepOptions sweep_options;
  sweep_options.deadline = ctx.deadline;
  // Degraded brownout: answer from residency alone — cache hits and
  // already-profiled grids succeed, cold cells fail fast as
  // sweep/cache-only-miss instead of competing for the simulator.
  sweep_options.cache_only = ctx.degraded;

  report::SweepRun run{report::Figure("sweep", "", ""), {}, {}};
  Value cells;  // capacity mode only: one entry per grid cell
  if (capacities_field != nullptr) {
    // Capacity mode: one trace profiling pass answers the whole grid (and,
    // via the profile cache, later grids with the same fingerprint). The
    // literal string "auto" derives the axis from the machine's declared
    // topology (equal steps up to its cache-capable front tier).
    report::CapacityGrid grid;
    if (capacities_field->is_string() && capacities_field->as_string() == "auto") {
      grid = parse_capacity_grid(body, {});
      // Degraded brownout coarsens the derived axis: half the points means
      // half the cells that can miss the cache, so "auto" keeps answering
      // something useful instead of failing most of a fine grid.
      grid.capacities_bytes = report::default_capacity_axis(
          machine.memory_topology(), grid.line_bytes * grid.num_sets,
          ctx.degraded ? 4 : 8);
    } else {
      grid = parse_capacity_grid(
          body, require_byte_counts(*capacities_field, "capacities_bytes",
                                    "a non-empty array or \"auto\""));
    }
    check_cells(grid.capacities_bytes.size());
    const std::uint64_t bytes = require_bytes(body, "bytes");
    const int threads = require_threads(body, "threads", 64);
    sweep_options.single_pass = bool_or(body, "single_pass", true);
    const auto workload = entry.make(bytes);

    report::CapacitySweepRun capacity_run = report::sweep_capacities_run(
        machine, workload->profile(), threads, std::move(grid),
        report::Figure(entry.info.name + " capacity sweep", "GB", ""), sweep_options);
    cells = Value::array();
    for (const report::CapacityCell& cell : capacity_run.cells) {
      cells.push_back(capacity_cell_json(cell));
    }
    run = {std::move(capacity_run.figure), capacity_run.stats,
           std::move(capacity_run.failures)};
  } else if (sizes_field != nullptr) {
    const std::vector<std::uint64_t> sizes =
        require_byte_counts(*sizes_field, "sizes_bytes", "a non-empty array");
    check_cells(sizes.size() * configs.size());
    const int threads = require_threads(body, "threads", 64);
    run = report::sweep_sizes_run(
        machine, [&entry](std::uint64_t b) { return entry.make(b); }, sizes, threads,
        configs, report::Figure(entry.info.name + " sweep", "GB", ""), sweep_options);
  } else {
    std::vector<int> thread_counts;
    for (const Value& item : require_array(*threads_field, "thread_counts")) {
      const double raw = item.is_number() ? item.as_number() : 0.0;
      if (raw < 1.0 || raw > 4096.0 || raw != std::floor(raw)) {
        throw Error::corrupt_input(
            "service/bad-field", "'thread_counts' entries must be integers in [1, 4096]");
      }
      thread_counts.push_back(static_cast<int>(raw));
    }
    check_cells(thread_counts.size() * configs.size());
    const std::uint64_t bytes = require_bytes(body, "bytes");
    const auto workload = entry.make(bytes);
    run = report::sweep_threads_run(
        machine, *workload, thread_counts, configs,
        report::Figure(entry.info.name + " thread sweep", "threads", ""),
        sweep_options);
  }

  if (Deadline::expired(ctx.deadline)) {
    throw Error::resource(kDeadlineExceededCode,
                          "deadline exceeded after completing " +
                              std::to_string(run.stats.cells - run.stats.failed) +
                              " of " + std::to_string(run.stats.cells) +
                              (cells.is_null() ? " sweep cells" : " capacity cells"));
  }

  Value out = Value::object();
  out.set("workload", entry.info.name);
  if (ctx.degraded) out.set("served_degraded", true);
  if (cells.is_null()) out.set("metric_name", entry.info.metric_name);
  out.set("figure", figure_json(run.figure));
  out.set("stats", sweep_stats_json(run.stats));
  if (!cells.is_null()) out.set("cells", std::move(cells));
  if (!run.failures.empty()) {
    Value failures = Value::array();
    for (const report::CellFailure& f : run.failures) {
      Value one = Value::object();
      one.set("cell", f.label);
      one.set("category", to_string(f.category));
      one.set("message", f.message);
      failures.push_back(std::move(one));
    }
    out.set("failures", std::move(failures));
  }
  out.set("topology", topology_json(machine));
  return out;
}

Value PlacementService::do_stats() const {
  const report::SweepCacheStats cache = report::SweepCache::instance().stats();
  const ServiceCounters c = counters();

  Value out = Value::object();
  Value cache_json = Value::object();
  cache_json.set("hits", static_cast<double>(cache.hits));
  cache_json.set("misses", static_cast<double>(cache.misses));
  cache_json.set("evictions", static_cast<double>(cache.evictions));
  cache_json.set("coalesced", static_cast<double>(cache.coalesced));
  cache_json.set("inserts", static_cast<double>(cache.inserts));
  cache_json.set("entries", static_cast<double>(cache.entries));
  cache_json.set("capacity", static_cast<double>(cache.capacity));
  cache_json.set("shards", static_cast<double>(cache.shards));
  const std::uint64_t looked_up = cache.hits + cache.misses;
  cache_json.set("hit_rate", looked_up == 0 ? 0.0
                                            : static_cast<double>(cache.hits) /
                                                  static_cast<double>(looked_up));
  cache_json.set("profile_hits", static_cast<double>(cache.profile_hits));
  cache_json.set("profile_misses", static_cast<double>(cache.profile_misses));
  cache_json.set("profile_inserts", static_cast<double>(cache.profile_inserts));
  cache_json.set("profile_evictions", static_cast<double>(cache.profile_evictions));
  cache_json.set("profile_coalesced", static_cast<double>(cache.profile_coalesced));
  cache_json.set("profile_entries", static_cast<double>(cache.profile_entries));
  cache_json.set("profile_capacity", static_cast<double>(cache.profile_capacity));
  out.set("cache", std::move(cache_json));

  Value requests = Value::object();
  requests.set("placement", static_cast<double>(c.placement));
  requests.set("sweep", static_cast<double>(c.sweep));
  requests.set("whatif", static_cast<double>(c.whatif));
  requests.set("stats", static_cast<double>(c.stats));
  requests.set("healthz", static_cast<double>(c.healthz));
  out.set("requests", std::move(requests));

  out.set("shed", static_cast<double>(c.shed));
  out.set("errors", static_cast<double>(c.errors));
  out.set("inflight", static_cast<double>(c.inflight));
  out.set("max_inflight", static_cast<double>(options_.max_inflight));
  out.set("workers", static_cast<double>(workers_));
  out.set("deadline_exceeded", static_cast<double>(c.deadline_exceeded));
  out.set("brownout_rejects", static_cast<double>(c.brownout));
  out.set("served_degraded", static_cast<double>(c.degraded));
  out.set("retry_after_ms", adaptive_retry_after_ms());

  const HealthSnapshot health = health_.snapshot();
  Value health_json = Value::object();
  health_json.set("state", to_string(health.state));
  health_json.set("rolling_p99_ms", health.p99_ms);
  health_json.set("samples", static_cast<double>(health.samples));
  health_json.set("transitions", static_cast<double>(health.transitions));
  out.set("health", std::move(health_json));

  // The SIMD level the batched cache path's decompose kernels dispatch to.
  Value replay_json = Value::object();
  replay_json.set("simd_level", sim::simd::level_name(sim::simd::active_level()));
  out.set("replay", std::move(replay_json));

  // Per-machine topology identity: cache entries are keyed by fingerprint
  // string alone, so a multi-profile deployment needs this table to map a
  // fingerprint back to the hierarchy it simulates.
  Value machines = Value::array();
  for (const auto& [name, machine] : machines_) {
    Value one = topology_json(machine);
    one.set("machine", name);
    machines.push_back(std::move(one));
  }
  out.set("machines", std::move(machines));
  return out;
}

Value PlacementService::do_healthz() const {
  const HealthSnapshot health = health_.snapshot();
  Value out = Value::object();
  // "ok" only while fully healthy: probes watching /healthz see the
  // brownout state the moment the monitor degrades.
  out.set("status", health.state == HealthState::Healthy ? "ok"
                                                         : to_string(health.state));
  Value health_json = Value::object();
  health_json.set("state", to_string(health.state));
  health_json.set("rolling_p99_ms", health.p99_ms);
  health_json.set("samples", static_cast<double>(health.samples));
  health_json.set("transitions", static_cast<double>(health.transitions));
  out.set("health", std::move(health_json));
  out.set("service", "knl-serve");
  out.set("machine_schema_version", kMachineSchemaVersion);
  Value machines = Value::array();
  for (const std::string& name : machine_names()) machines.push_back(name);
  out.set("machines", std::move(machines));
  Value workload_names = Value::array();
  for (const workloads::RegistryEntry& entry : workloads::registry()) {
    workload_names.push_back(entry.info.name);
  }
  out.set("workloads", std::move(workload_names));
  return out;
}

}  // namespace knl::service
