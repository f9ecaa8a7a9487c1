#include "report/sweep.hpp"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <type_traits>

#include "core/fault/fault_injection.hpp"
#include "sim/mcdram_cache.hpp"
#include "sim/reuse_profile.hpp"

namespace knl::report {

namespace {

// ---------------------------------------------------------------------------
// Hashing (FNV-1a over raw value bytes, matching MachineConfig::fingerprint).
// ---------------------------------------------------------------------------
constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void mix_bytes(std::uint64_t& h, const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= kFnvPrime;
  }
}

template <typename T>
void mix(std::uint64_t& h, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  mix_bytes(h, &value, sizeof(value));
}

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---------------------------------------------------------------------------
// Grid evaluation: `cells` independent cells, evaluated inline in slot order,
// so the caller's merge is deterministic.
//
// Resilience discipline: every cell evaluation runs behind a retry loop
// (Transient errors back off and re-try up to the budget), and a failed cell
// is *captured* into its outcome instead of aborting the grid.
// ---------------------------------------------------------------------------
struct CellOutcome {
  bool feasible = false;
  bool cache_hit = false;
  double x = 0.0;
  double y = 0.0;
  double seconds = 0.0;
  bool ok = true;            ///< false => error captured below, no point
  int attempts = 1;          ///< tries made (retries = attempts - 1)
  ErrorCategory category = ErrorCategory::Internal;
  std::string message;
};

/// One cell through the retry loop, errors captured instead of thrown. The
/// injection point sits *inside* the retried callable, keyed by the cell
/// index, so the outcome (and exact attempt count) is a pure function of
/// the armed plan.
template <typename Eval>
CellOutcome guarded_eval(const SweepOptions& options, std::size_t index,
                         const Eval& eval) {
  CellOutcome cell;
  // Between-cell deadline check: once the request's budget is spent, the
  // remaining cells fail fast (Resource, so the retry loop never re-runs
  // them) instead of computing results the client already abandoned.
  if (Deadline::expired(options.deadline)) {
    cell.ok = false;
    cell.category = ErrorCategory::Resource;
    cell.message = std::string(kDeadlineExceededCode) + ": cell " +
                   std::to_string(index) + " skipped, request budget exhausted";
    return cell;
  }
  fault::RetryStats tries;
  try {
    cell = fault::with_retry(
        options.retry, index,
        [&] {
          fault::maybe_inject(fault::kSiteSweepCell, index);
          return eval(index);
        },
        &tries);
  } catch (const Error& e) {
    cell = CellOutcome{};
    cell.ok = false;
    cell.category = e.category();
    cell.message = e.what();
  } catch (const std::exception& e) {
    cell = CellOutcome{};
    cell.ok = false;
    cell.category = ErrorCategory::Internal;
    cell.message = e.what();
  }
  cell.attempts = tries.attempts;
  return cell;
}

template <typename Eval>
std::vector<CellOutcome> run_grid(const SweepOptions& options, std::size_t cells,
                                  const Eval& eval) {
  std::vector<CellOutcome> out(cells);
  for (std::size_t i = 0; i < cells; ++i) out[i] = guarded_eval(options, i, eval);
  return out;
}

/// Merge one cell into the running stats (figure points are added by the
/// caller, which knows the series naming).
void account(SweepStats& stats, const CellOutcome& cell) {
  ++stats.cells;
  if (cell.attempts > 1) stats.retries += static_cast<std::size_t>(cell.attempts - 1);
  stats.cell_seconds += cell.seconds;
  if (!cell.ok) {
    ++stats.failed;
    return;
  }
  if (cell.cache_hit) {
    ++stats.cache_hits;
  } else {
    ++stats.evaluated;
  }
  if (!cell.feasible) ++stats.infeasible;
}

}  // namespace

std::uint64_t profile_fingerprint(const trace::AccessProfile& profile) {
  std::uint64_t h = kFnvOffset;
  mix(h, profile.resident_bytes());
  mix(h, profile.phases().size());
  for (const trace::AccessPhase& phase : profile.phases()) {
    mix(h, phase.pattern);
    mix(h, phase.footprint_bytes);
    mix(h, phase.logical_bytes);
    mix(h, phase.flops);
    mix(h, phase.granule_bytes);
    mix(h, phase.sweeps);
    mix(h, phase.write_fraction);
    mix(h, phase.stride_bytes);
    mix(h, phase.chains_per_thread);
    mix(h, phase.mlp_override);
    mix(h, phase.l2_hit_override);
    mix(h, phase.smt_beta);
    mix(h, phase.compute_efficiency);
  }
  return h;
}

std::size_t SweepKeyHash::operator()(const SweepKey& key) const noexcept {
  std::uint64_t h = kFnvOffset;
  mix(h, key.profile_hash);
  mix(h, key.machine_hash);
  mix(h, key.config);
  mix(h, key.threads);
  return static_cast<std::size_t>(h);
}

std::size_t ProfileKeyHash::operator()(const ProfileKey& key) const noexcept {
  std::uint64_t h = kFnvOffset;
  mix(h, key.trace_hash);
  mix(h, key.machine_hash);
  mix(h, key.threads);
  mix(h, key.geometry_hash);
  return static_cast<std::size_t>(h);
}

// ---------------------------------------------------------------------------
// SweepCache
// ---------------------------------------------------------------------------
template <typename Key, typename Hash, typename Value>
auto SweepCache::Lru<Key, Hash, Value>::shard_for(const Key& key) const -> Shard& {
  // Top hash bits pick the shard; unordered_map consumes the low bits for
  // its buckets, so the two choices stay uncorrelated.
  return shards_[(Hash{}(key) >> 48) & (kShardCount - 1)];
}

template <typename Key, typename Hash, typename Value>
void SweepCache::Lru<Key, Hash, Value>::evict_past(Shard& shard, std::size_t bound) {
  while (shard.index.size() > bound) {
    shard.index.erase(shard.lru.back().key);
    shard.lru.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

template <typename Key, typename Hash, typename Value>
void SweepCache::Lru<Key, Hash, Value>::store_locked(Shard& shard, const Key& key,
                                                     const Value& value) {
  inserts_.fetch_add(1, std::memory_order_relaxed);
  if (const auto it = shard.index.find(key); it != shard.index.end()) {
    it->second->value = value;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  shard.lru.push_front(Entry{key, value});
  shard.index.emplace(key, shard.lru.begin());
  evict_past(shard, std::max<std::size_t>(1, capacity() / kShardCount));
}

template <typename Key, typename Hash, typename Value>
std::optional<Value> SweepCache::Lru<Key, Hash, Value>::lookup(const Key& key) const {
  Shard& shard = shard_for(key);
  const std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  hits_.fetch_add(1, std::memory_order_relaxed);
  return it->second->value;
}

template <typename Key, typename Hash, typename Value>
void SweepCache::Lru<Key, Hash, Value>::store(const Key& key, const Value& value) {
  Shard& shard = shard_for(key);
  const std::lock_guard<std::mutex> lock(shard.mutex);
  store_locked(shard, key, value);
}

template <typename Key, typename Hash, typename Value>
Value SweepCache::Lru<Key, Hash, Value>::fetch_or_compute(
    const Key& key, const std::function<Value()>& compute, bool* cache_hit) {
  Shard& shard = shard_for(key);
  std::shared_future<Value> herd;
  std::promise<Value> mine;
  bool owner = false;
  {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    if (const auto it = shard.index.find(key); it != shard.index.end()) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      hits_.fetch_add(1, std::memory_order_relaxed);
      if (cache_hit != nullptr) *cache_hit = true;
      return it->second->value;
    }
    if (const auto in = shard.inflight.find(key); in != shard.inflight.end()) {
      herd = in->second;  // join the herd: share the owner's computation
      coalesced_.fetch_add(1, std::memory_order_relaxed);
    } else {
      owner = true;
      misses_.fetch_add(1, std::memory_order_relaxed);
      shard.inflight.emplace(key, std::shared_future<Value>(mine.get_future()));
    }
  }
  if (!owner) {
    // Served without evaluating — a cache hit from the caller's viewpoint.
    if (cache_hit != nullptr) *cache_hit = true;
    return herd.get();  // rethrows whatever the owner threw
  }
  if (cache_hit != nullptr) *cache_hit = false;
  try {
    const Value value = compute();
    {
      const std::lock_guard<std::mutex> lock(shard.mutex);
      // Insert before retiring the in-flight entry so no window exists in
      // which a third query finds neither and recomputes.
      store_locked(shard, key, value);
      shard.inflight.erase(key);
    }
    mine.set_value(value);
    return value;
  } catch (...) {
    {
      const std::lock_guard<std::mutex> lock(shard.mutex);
      shard.inflight.erase(key);
    }
    mine.set_exception(std::current_exception());
    throw;
  }
}

template <typename Key, typename Hash, typename Value>
void SweepCache::Lru<Key, Hash, Value>::set_capacity(std::size_t max_entries) {
  const std::size_t per_shard =
      std::max<std::size_t>(1, (max_entries + kShardCount - 1) / kShardCount);
  capacity_.store(per_shard * kShardCount, std::memory_order_relaxed);
  for (Shard& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    evict_past(shard, per_shard);
  }
}

template <typename Key, typename Hash, typename Value>
template <typename Visit>
void SweepCache::Lru<Key, Hash, Value>::for_each(const Visit& visit) const {
  for (Shard& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    for (const Entry& entry : shard.lru) visit(entry.key, entry.value);
  }
}

template <typename Key, typename Hash, typename Value>
void SweepCache::Lru<Key, Hash, Value>::clear() {
  for (Shard& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    shard.index.clear();
    shard.lru.clear();
  }
}

template <typename Key, typename Hash, typename Value>
auto SweepCache::Lru<Key, Hash, Value>::counts() const -> Counts {
  Counts c{hits_.load(std::memory_order_relaxed),
           misses_.load(std::memory_order_relaxed),
           evictions_.load(std::memory_order_relaxed),
           coalesced_.load(std::memory_order_relaxed),
           inserts_.load(std::memory_order_relaxed)};
  for (Shard& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    c.entries += shard.index.size();
  }
  return c;
}

template <typename Key, typename Hash, typename Value>
void SweepCache::Lru<Key, Hash, Value>::reset_counts() {
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  evictions_.store(0, std::memory_order_relaxed);
  coalesced_.store(0, std::memory_order_relaxed);
  inserts_.store(0, std::memory_order_relaxed);
}

SweepCache& SweepCache::instance() {
  static SweepCache cache;
  return cache;
}

std::optional<RunResult> SweepCache::lookup(const SweepKey& key) const {
  return results_.lookup(key);
}

void SweepCache::store(const SweepKey& key, const RunResult& result) {
  results_.store(key, result);
}

RunResult SweepCache::fetch_or_compute(const SweepKey& key,
                                       const std::function<RunResult()>& compute,
                                       bool* cache_hit) {
  return results_.fetch_or_compute(key, compute, cache_hit);
}

SweepCache::ProfilePtr SweepCache::lookup_profile(const ProfileKey& key) const {
  return profiles_.lookup(key).value_or(nullptr);
}

SweepCache::ProfilePtr SweepCache::fetch_or_compute_profile(
    const ProfileKey& key, const std::function<ProfilePtr()>& compute,
    bool* cache_hit) {
  return profiles_.fetch_or_compute(key, compute, cache_hit);
}

std::size_t SweepCache::size() const { return results_.counts().entries; }

std::size_t SweepCache::capacity() const { return results_.capacity(); }

void SweepCache::set_capacity(std::size_t max_entries) {
  results_.set_capacity(max_entries);
}

void SweepCache::clear() {
  results_.clear();
  profiles_.clear();
}

void SweepCache::reset_stats() {
  results_.reset_counts();
  profiles_.reset_counts();
}

SweepCacheStats SweepCache::stats() const {
  const auto results = results_.counts();
  const auto profiles = profiles_.counts();
  SweepCacheStats s;
  s.hits = results.hits;
  s.misses = results.misses;
  s.evictions = results.evictions;
  s.coalesced = results.coalesced;
  s.inserts = results.inserts;
  s.entries = results.entries;
  s.capacity = results_.capacity();
  s.shards = kShardCount;
  s.profile_hits = profiles.hits;
  s.profile_misses = profiles.misses;
  s.profile_inserts = profiles.inserts;
  s.profile_evictions = profiles.evictions;
  s.profile_coalesced = profiles.coalesced;
  s.profile_entries = profiles.entries;
  s.profile_capacity = profiles_.capacity();
  return s;
}

namespace {
// v2: entry lines unchanged from v1, but the header also pins the
// machine-profile schema version — a cache persisted under another schema
// must read as cold, never as subtly stale.
constexpr const char* kCacheHeaderPrefix = "knlmem-sweep-cache 2 machine-schema ";
std::string cache_header() {
  return std::string(kCacheHeaderPrefix) + std::to_string(kMachineSchemaVersion);
}
}

std::string SweepCache::serialize() const {
  std::string out = cache_header() + "\n";
  char line[kMaxSerializedLineBytes];
  results_.for_each([&](const SweepKey& key, const RunResult& r) {
    // Hex floats (%a) round-trip doubles exactly, keeping warm-cache runs
    // bit-identical to cold ones. The free-form infeasibility reason goes
    // last so it may contain spaces; "-" marks an empty reason.
    const int n = std::snprintf(
        line, sizeof(line),
        "%016" PRIx64 " %016" PRIx64 " %d %d %d %a %a %a %a %a %a %s\n",
        key.profile_hash, key.machine_hash, static_cast<int>(key.config),
        key.threads, r.feasible ? 1 : 0, r.seconds, r.bytes_from_memory, r.flops,
        r.avg_latency_ns, r.achieved_bw_gbs, r.mcdram_hit_rate,
        r.infeasible_reason.empty() ? "-" : r.infeasible_reason.c_str());
    if (n > 0 && static_cast<std::size_t>(n) < sizeof(line)) out += line;
  });
  return out;
}

std::size_t SweepCache::max_serialized_bytes() const {
  return cache_header().size() + 1 + capacity() * kMaxSerializedLineBytes;
}

bool SweepCache::deserialize(const std::string& text) {
  const std::string header = cache_header();
  if (text.size() < header.size() ||
      text.compare(0, header.size(), header) != 0 ||
      (text.size() > header.size() && text[header.size()] != '\n' &&
       text[header.size()] != '\r')) {
    return false;
  }
  std::size_t pos = text.find('\n');
  char line[kMaxSerializedLineBytes];
  while (pos != std::string::npos && pos + 1 < text.size()) {
    const std::size_t start = pos + 1;
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::size_t len = std::min(end - start, sizeof(line) - 1);
    std::memcpy(line, text.data() + start, len);
    line[len] = '\0';
    pos = end == text.size() ? std::string::npos : end;

    SweepKey key;
    RunResult r;
    int config = 0;
    int feasible = 0;
    int consumed = 0;
    const int fields = std::sscanf(
        line, "%" SCNx64 " %" SCNx64 " %d %d %d %la %la %la %la %la %la%n",
        &key.profile_hash, &key.machine_hash, &config, &key.threads, &feasible,
        &r.seconds, &r.bytes_from_memory, &r.flops, &r.avg_latency_ns,
        &r.achieved_bw_gbs, &r.mcdram_hit_rate, &consumed);
    // Skip malformed lines, configs outside the enum and thread counts no
    // RunConfig accepts; keep the rest.
    if (fields != 11 || config < 0 || config > static_cast<int>(MemConfig::CacheMode) ||
        key.threads < 1) {
      continue;
    }
    key.config = static_cast<MemConfig>(config);
    r.feasible = feasible != 0;
    std::string reason(line + consumed);
    while (!reason.empty() && (reason.front() == ' ')) reason.erase(0, 1);
    while (!reason.empty() && (reason.back() == '\n' || reason.back() == '\r')) {
      reason.pop_back();
    }
    if (reason != "-") r.infeasible_reason = reason;
    store(key, r);
  }
  return true;
}

// ---------------------------------------------------------------------------
// Cell evaluation
// ---------------------------------------------------------------------------
namespace {

SweepKey cell_key(const Machine& machine, const trace::AccessProfile& profile,
                  const RunConfig& run_config) {
  return SweepKey{profile_fingerprint(profile), machine.fingerprint(), run_config.config,
                  run_config.threads};
}

/// One size- or thread-sweep cell: the workload's metric under `run_config`,
/// from the SweepCache alone (cache_only), through it (memoize), or
/// simulated directly. The caller sets x.
CellOutcome eval_cell(const Machine& machine, const workloads::Workload& workload,
                      const trace::AccessProfile& profile, const RunConfig& run_config,
                      const SweepOptions& options) {
  CellOutcome cell;
  RunResult result;
  if (options.cache_only) {
    const auto hit = SweepCache::instance().lookup(cell_key(machine, profile, run_config));
    if (!hit.has_value()) {
      throw Error::resource("sweep/cache-only-miss",
                            "cell not resident in the SweepCache and the "
                            "service is degraded (cache-only mode)");
    }
    cell.cache_hit = true;
    result = *hit;
  } else if (options.memoize) {
    result = cached_run(machine, profile, run_config, &cell.cache_hit);
  } else {
    result = machine.run(profile, run_config);
  }
  cell.feasible = result.feasible;
  if (result.feasible) cell.y = workload.metric(result);
  return cell;
}

/// The rows × configs grid of a size or thread sweep: cell i is row
/// i / configs.size() under configs[i % configs.size()]. `eval(row, config)`
/// evaluates one cell; `label(row, config)` names one that failed.
template <typename Eval, typename Label>
SweepRun run_config_grid(std::size_t rows, const std::vector<MemConfig>& configs,
                         Figure figure, const SweepOptions& options, const Eval& eval,
                         const Label& label) {
  const auto start = Clock::now();
  const std::vector<CellOutcome> outcomes =
      run_grid(options, rows * configs.size(), [&](std::size_t index) {
        const auto cell_start = Clock::now();
        CellOutcome cell = eval(index / configs.size(), configs[index % configs.size()]);
        cell.seconds = seconds_since(cell_start);
        return cell;
      });

  SweepRun run{std::move(figure), {}, {}};
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const CellOutcome& cell = outcomes[i];
    const MemConfig config = configs[i % configs.size()];
    account(run.stats, cell);
    if (!cell.ok) {
      run.failures.push_back(
          {i, label(i / configs.size(), config), cell.category, cell.message});
      continue;
    }
    if (!cell.feasible) continue;  // paper: no bar when HBM can't hold it
    run.figure.add(to_string(config), cell.x, cell.y);
  }
  run.stats.wall_seconds = seconds_since(start);
  return run;
}

}  // namespace

RunResult cached_run(const Machine& machine, const trace::AccessProfile& profile,
                     const RunConfig& run_config, bool* cache_hit) {
  return SweepCache::instance().fetch_or_compute(
      cell_key(machine, profile, run_config),
      [&] { return machine.run(profile, run_config); }, cache_hit);
}

// ---------------------------------------------------------------------------
// Sweeps
// ---------------------------------------------------------------------------
SweepRun sweep_sizes_run(const Machine& machine, const WorkloadFactory& factory,
                         const std::vector<std::uint64_t>& sizes_bytes, int threads,
                         const std::vector<MemConfig>& configs, Figure figure,
                         const SweepOptions& options) {
  return run_config_grid(
      sizes_bytes.size(), configs, std::move(figure), options,
      [&](std::size_t row, MemConfig config) {
        const auto workload = factory(sizes_bytes[row]);
        CellOutcome cell = eval_cell(machine, *workload, workload->profile(),
                                     RunConfig{config, threads}, options);
        cell.x = static_cast<double>(workload->footprint_bytes()) / 1e9;
        return cell;
      },
      // e.g. "1073741824 B / HBM @ 64 threads"
      [&](std::size_t row, MemConfig config) {
        return std::to_string(sizes_bytes[row]) + " B / " + std::string(to_string(config)) +
               " @ " + std::to_string(threads) + " threads";
      });
}

SweepRun sweep_threads_run(const Machine& machine, const workloads::Workload& workload,
                           const std::vector<int>& thread_counts,
                           const std::vector<MemConfig>& configs, Figure figure,
                           const SweepOptions& options) {
  const trace::AccessProfile profile = workload.profile();
  return run_config_grid(
      thread_counts.size(), configs, std::move(figure), options,
      [&](std::size_t row, MemConfig config) {
        CellOutcome cell = eval_cell(machine, workload, profile,
                                     RunConfig{config, thread_counts[row]}, options);
        cell.x = static_cast<double>(thread_counts[row]);
        return cell;
      },
      [&](std::size_t row, MemConfig config) {
        return "threads=" + std::to_string(thread_counts[row]) + " / " +
               std::string(to_string(config));
      });
}

SweepStats& SweepStats::operator+=(const SweepStats& other) {
  cells += other.cells;
  evaluated += other.evaluated;
  cache_hits += other.cache_hits;
  infeasible += other.infeasible;
  cell_seconds += other.cell_seconds;
  wall_seconds += other.wall_seconds;
  retries += other.retries;
  failed += other.failed;
  profile_passes += other.profile_passes;
  profile_hits += other.profile_hits;
  cells_derived += other.cells_derived;
  return *this;
}

std::string SweepStats::summary() const {
  char buffer[448];
  int n = std::snprintf(
      buffer, sizeof(buffer),
      "sweep: %zu cells (%zu evaluated, %zu cache hits, %zu infeasible), "
      "cell time %.4f s, wall %.4f s",
      cells, evaluated, cache_hits, infeasible, cell_seconds, wall_seconds);
  // Single-pass accounting only when a capacity sweep ran.
  if (n > 0 && static_cast<std::size_t>(n) < sizeof(buffer) &&
      (profile_passes != 0 || profile_hits != 0 || cells_derived != 0)) {
    const int m = std::snprintf(
        buffer + n, sizeof(buffer) - static_cast<std::size_t>(n),
        ", single-pass: %zu passes, %zu profile hits, %zu cells derived",
        profile_passes, profile_hits, cells_derived);
    if (m > 0) n += m;
  }
  // Fault accounting only when something fired, keeping clean-run logs clean.
  if (n > 0 && static_cast<std::size_t>(n) < sizeof(buffer) &&
      (retries != 0 || failed != 0)) {
    std::snprintf(buffer + n, sizeof(buffer) - static_cast<std::size_t>(n),
                  ", faults: %zu retries, %zu failed", retries, failed);
  }
  return buffer;
}

// ---------------------------------------------------------------------------
// Derived series
// ---------------------------------------------------------------------------
void add_self_speedup_series(Figure& figure) {
  const auto snapshot = figure.series();  // copy: we append while iterating
  for (const auto& s : snapshot) {
    if (s.points.empty()) continue;
    const double base = s.points.front().second;
    if (base <= 0.0) continue;
    for (const auto& [x, y] : s.points) {
      figure.add(s.name + " speedup", x, y / base);
    }
  }
}

void add_ratio_series(Figure& figure, const std::string& numerator,
                      const std::string& denominator, const std::string& name) {
  const Series* num = figure.find(numerator);
  const Series* den = figure.find(denominator);
  if (num == nullptr || den == nullptr) return;
  const auto num_points = num->points;  // copies: figure.add may reallocate
  for (const auto& [x, y] : num_points) {
    const auto d = figure.value_at(denominator, x);
    if (d.has_value() && *d > 0.0) {
      figure.add(name, x, y / *d);
    }
  }
}

// ---------------------------------------------------------------------------
// Single-pass capacity sweeps
// ---------------------------------------------------------------------------
namespace {

std::uint64_t geometry_fingerprint(const CapacityGrid& grid) {
  std::uint64_t h = kFnvOffset;
  mix(h, grid.line_bytes);
  mix(h, grid.num_sets);
  mix(h, grid.sample_every);
  return h;
}

/// Trace fingerprint: the address stream is a pure function of (profile
/// content, synthesis options), so hashing those identifies it without
/// materializing it.
std::uint64_t trace_fingerprint(const trace::AccessProfile& profile,
                                const trace::SynthOptions& synth) {
  std::uint64_t h = profile_fingerprint(profile);
  mix(h, synth.max_addresses);
  mix(h, synth.seed);
  return h;
}

std::string capacity_cell_label(std::uint64_t bytes, int threads) {
  return "capacity=" + std::to_string(bytes) + " B @ " + std::to_string(threads) +
         " threads";
}

}  // namespace

std::vector<std::uint64_t> default_capacity_axis(const sim::MemoryTopology& topology,
                                                 std::uint64_t set_bytes,
                                                 std::size_t points) {
  if (set_bytes == 0 || points == 0) return {};
  int front = topology.cache_front_of(topology.dram_tier());
  if (front == -1) front = topology.fast_tier();
  const std::uint64_t ceiling = topology.tier(static_cast<std::size_t>(front))
                                    .params.capacity_bytes;
  std::vector<std::uint64_t> axis;
  for (std::size_t i = 1; i <= points; ++i) {
    const std::uint64_t raw = ceiling / points * i;
    const std::uint64_t aligned = raw / set_bytes * set_bytes;
    if (aligned == 0) continue;
    if (axis.empty() || axis.back() != aligned) axis.push_back(aligned);
  }
  return axis;
}

CapacityGrid default_capacity_grid(const sim::MemoryTopology& topology,
                                   std::size_t points) {
  CapacityGrid grid;
  grid.capacities_bytes =
      default_capacity_axis(topology, grid.line_bytes * grid.num_sets, points);
  return grid;
}

struct SweepPlanner::Request {
  const Machine* machine = nullptr;
  trace::AccessProfile profile;
  int threads = 0;
  CapacityGrid grid;
  Figure figure;
  ProfileKey key;
};

SweepPlanner::SweepPlanner(SweepOptions options) : options_(options) {}

SweepPlanner::~SweepPlanner() = default;

std::size_t SweepPlanner::add(const Machine& machine,
                              const trace::AccessProfile& profile, int threads,
                              CapacityGrid grid, Figure figure) {
  const ProfileKey key{trace_fingerprint(profile, grid.synth),
                       machine.fingerprint(), threads,
                       geometry_fingerprint(grid)};
  requests_.push_back(Request{&machine, profile, threads, std::move(grid),
                              std::move(figure), key});
  return requests_.size() - 1;
}

std::vector<CapacitySweepRun> SweepPlanner::run() {
  /// Requests sharing a ProfileKey coalesce onto one group = one profiling
  /// pass; the group's histogram answers every member grid's cells.
  struct Group {
    std::vector<std::size_t> members;  ///< request indices, add() order
    SweepCache::ProfilePtr profile;    ///< null => per-cell reference path
    /// Concrete trace, synthesized lazily — only the reference path needs it
    /// (the single-pass path with a profile-cache hit never replays at all).
    std::shared_ptr<const std::vector<std::uint64_t>> trace;
    bool pass_cache_hit = false;
    std::size_t pass_retries = 0;
    bool pass_ran = false;  ///< a pass succeeded (computed now or cached)
  };
  std::vector<Group> groups;
  std::unordered_map<ProfileKey, std::size_t, ProfileKeyHash> group_of;
  std::vector<std::size_t> request_group(requests_.size(), 0);
  for (std::size_t r = 0; r < requests_.size(); ++r) {
    const auto [it, fresh] = group_of.emplace(requests_[r].key, groups.size());
    if (fresh) groups.emplace_back();
    groups[it->second].members.push_back(r);
    request_group[r] = it->second;
  }

  // Phase 1: one profiling pass per fingerprint group, behind the same
  // retry/injection discipline as grid cells but in the dedicated key space
  // (kProfilePassKeyBase + group ordinal, disjoint from cell indices). A
  // pass that still fails after the retry budget does not fail the sweep:
  // its group falls back to the per-cell reference path, which computes the
  // identical cells — just without the single-pass speedup.
  if (options_.single_pass) {
    for (std::size_t g = 0; g < groups.size(); ++g) {
      Group& group = groups[g];
      const Request& first = requests_[group.members.front()];
      // Brownout: a degraded service answers only from resident profiles —
      // no trace synthesis, no profiling pass. Cells of groups with no
      // resident profile fail with "sweep/cache-only-miss" in phase 2.
      if (options_.cache_only) {
        group.profile = SweepCache::instance().lookup_profile(first.key);
        group.pass_cache_hit = group.profile != nullptr;
        group.pass_ran = group.profile != nullptr;
        continue;
      }
      // Out of budget: skip the remaining passes; phase 2 fails each cell
      // fast with the deadline error instead of replaying traces.
      if (Deadline::expired(options_.deadline)) break;
      const std::uint64_t pass_key = kProfilePassKeyBase + g;
      fault::RetryStats tries;
      try {
        group.profile = fault::with_retry(
            options_.retry, pass_key,
            [&]() -> SweepCache::ProfilePtr {
              fault::maybe_inject(fault::kSiteSweepCell, pass_key);
              const auto compute = [&]() -> SweepCache::ProfilePtr {
                const std::vector<std::uint64_t> addrs =
                    trace::synthesize_trace(first.profile, first.grid.synth);
                sim::ReuseProfileConfig config;
                config.line_bytes = first.grid.line_bytes;
                config.num_sets = first.grid.num_sets;
                config.sample_every = first.grid.sample_every;
                return std::make_shared<const sim::ReuseProfile>(
                    sim::profile_trace(addrs.data(), addrs.size(), config, 1));
              };
              bool hit = false;
              SweepCache::ProfilePtr profile =
                  options_.memoize ? SweepCache::instance().fetch_or_compute_profile(
                                         first.key, compute, &hit)
                                   : compute();
              group.pass_cache_hit = hit;
              return profile;
            },
            &tries);
        group.pass_ran = group.profile != nullptr;
      } catch (...) {
        group.profile = nullptr;
      }
      if (tries.attempts > 1) {
        group.pass_retries = static_cast<std::size_t>(tries.attempts - 1);
      }
    }
  }

  // Phase 2: derive (or reference-replay) every grid, in add() order.
  std::vector<CapacitySweepRun> results;
  results.reserve(requests_.size());
  for (std::size_t r = 0; r < requests_.size(); ++r) {
    const auto start = Clock::now();
    Request& request = requests_[r];
    Group& group = groups[request_group[r]];
    const CapacityGrid& grid = request.grid;

    CapacitySweepRun out{std::move(request.figure), {}, {}, {}};
    const std::size_t cells = grid.capacities_bytes.size();
    out.cells.assign(cells, CapacityCell{});
    for (std::size_t i = 0; i < cells; ++i) {
      out.cells[i].capacity_bytes = grid.capacities_bytes[i];
    }

    // Pass accounting: the group's first request owns the pass (computed or
    // cache hit); every later member is a pure profile hit.
    if (group.pass_ran) {
      if (r == group.members.front()) {
        if (group.pass_cache_hit) {
          ++out.stats.profile_hits;
        } else {
          ++out.stats.profile_passes;
        }
        out.stats.retries += group.pass_retries;
      } else {
        ++out.stats.profile_hits;
      }
    } else if (options_.single_pass && r == group.members.front()) {
      out.stats.retries += group.pass_retries;
    }

    // The reference path replays the concrete trace per cell; synthesize it
    // once per group. Degraded (cache-only) and out-of-budget sweeps never
    // synthesize: their cells fail fast inside eval instead.
    if (group.profile == nullptr && group.trace == nullptr &&
        !options_.cache_only && !Deadline::expired(options_.deadline)) {
      group.trace = std::make_shared<const std::vector<std::uint64_t>>(
          trace::synthesize_trace(request.profile, grid.synth));
    }

    const std::uint64_t set_bytes = grid.line_bytes * grid.num_sets;
    const sim::TimingConfig& timing = request.machine->timing().config();
    const params::NodeParams& fast = request.machine->config().fast_tier();
    const params::NodeParams& dram = request.machine->config().dram_tier();
    double logical_bytes = 0.0;
    for (const trace::AccessPhase& phase : request.profile.phases()) {
      logical_bytes += phase.logical_bytes;
    }

    std::vector<CapacityCell>& cells_out = out.cells;
    const auto eval = [&](std::size_t index) {
      const auto cell_start = Clock::now();
      const std::uint64_t capacity = grid.capacities_bytes[index];
      if (set_bytes == 0 || capacity % set_bytes != 0 || capacity / set_bytes == 0) {
        throw Error::corrupt_input(
            "sweep/capacity-grid",
            "capacity " + std::to_string(capacity) +
                " is not a positive multiple of line_bytes*num_sets (" +
                std::to_string(set_bytes) + ")");
      }
      const std::uint64_t ways = capacity / set_bytes;

      CapacityCell cell;
      cell.capacity_bytes = capacity;
      cell.ways = ways;
      if (group.profile != nullptr) {
        // Mattson derivation: hits at W ways = accesses with stack distance
        // < W, read off the shared histogram's prefix sum.
        const std::uint64_t sampled = group.profile->sampled();
        cell.hit_rate = sampled == 0
                            ? 0.0
                            : static_cast<double>(group.profile->hits_for_ways(ways)) /
                                  static_cast<double>(sampled);
        cell.profile_hit = true;
      } else if (group.trace != nullptr) {
        sim::ReuseProfileConfig geometry;
        geometry.line_bytes = grid.line_bytes;
        geometry.num_sets = grid.num_sets;
        geometry.sample_every = grid.sample_every;
        const sim::CapacityReference ref = sim::replay_capacity_reference(
            group.trace->data(), group.trace->size(), geometry, ways);
        cell.hit_rate = ref.sampled == 0 ? 0.0
                                         : static_cast<double>(ref.hits) /
                                               static_cast<double>(ref.sampled);
      } else {
        // No profile and no trace: cache-only with nothing resident (or the
        // budget expired before synthesis could run).
        throw Error::resource(
            options_.cache_only ? "sweep/cache-only-miss" : kDeadlineExceededCode,
            "reuse profile not resident and the per-cell reference is "
            "unavailable in this mode");
      }

      // Timing: the machine's MCDRAM blend model at this cell's capacity.
      sim::McdramCacheConfig mcdram = timing.mcdram;
      mcdram.capacity_bytes = capacity;
      const sim::McdramCacheModel model(mcdram);
      cell.effective_bw_gbs = model.effective_bandwidth_gbs(
          cell.hit_rate, fast.stream_bw_gbs, dram.stream_bw_gbs);
      cell.avg_latency_ns = model.effective_latency_ns(
          cell.hit_rate, fast.idle_latency_ns, dram.idle_latency_ns);
      cell.seconds = cell.effective_bw_gbs > 0.0
                         ? logical_bytes / (cell.effective_bw_gbs * 1e9)
                         : 0.0;
      cells_out[index] = cell;

      CellOutcome outcome;
      outcome.feasible = true;
      outcome.x = static_cast<double>(capacity) / 1e9;
      outcome.y = cell.hit_rate;
      outcome.seconds = seconds_since(cell_start);
      return outcome;
    };

    const std::vector<CellOutcome> outcomes = run_grid(options_, cells, eval);
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      const CellOutcome& outcome = outcomes[i];
      account(out.stats, outcome);
      if (!outcome.ok) {
        out.failures.push_back({i,
                                capacity_cell_label(grid.capacities_bytes[i],
                                                    request.threads),
                                outcome.category, outcome.message});
        continue;
      }
      if (out.cells[i].profile_hit) ++out.stats.cells_derived;
      out.figure.add("MCDRAM$ hit rate", outcome.x, out.cells[i].hit_rate);
      out.figure.add("effective GB/s", outcome.x, out.cells[i].effective_bw_gbs);
    }
    out.stats.wall_seconds = seconds_since(start);
    results.push_back(std::move(out));
  }
  requests_.clear();
  return results;
}

CapacitySweepRun sweep_capacities_run(const Machine& machine,
                                      const trace::AccessProfile& profile,
                                      int threads, CapacityGrid grid, Figure figure,
                                      const SweepOptions& options) {
  SweepPlanner planner(options);
  planner.add(machine, profile, threads, std::move(grid), std::move(figure));
  std::vector<CapacitySweepRun> runs = planner.run();
  return std::move(runs.front());
}

}  // namespace knl::report
