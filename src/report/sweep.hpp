// Sweep runner: the common loop of every registry experiment — run a workload
// across problem sizes or thread counts under the paper's three memory
// configurations and collect a Figure.
//
// The engine enumerates the full (size-or-threads × config) grid as
// independent cells, evaluates them on a work-stealing thread pool
// (core/thread_pool.hpp), and merges results into the Figure in grid order —
// so the output is bit-identical whatever the job count. A process-wide
// memoization cache keyed on (profile content, machine fingerprint, memory
// config, thread count) makes repeated cells — across figures, across
// sweeps, and via the service's snapshot across restarts — free.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/fault/deadline.hpp"
#include "core/fault/error.hpp"
#include "core/fault/retry.hpp"
#include "core/machine.hpp"
#include "report/figure.hpp"
#include "trace/synth.hpp"
#include "workloads/workload.hpp"

namespace knl::sim {
class ReuseProfile;  // sim/reuse_profile.hpp (sweep.cpp includes it)
}

namespace knl::report {

using WorkloadFactory =
    std::function<std::unique_ptr<workloads::Workload>(std::uint64_t bytes)>;

inline const std::vector<MemConfig> kAllConfigs{MemConfig::DRAM, MemConfig::HBM,
                                                MemConfig::CacheMode};

/// Execution knobs of one sweep call. The defaults reproduce the classic
/// serial engine exactly (and they must: determinism tests compare the two).
struct SweepOptions {
  /// Worker threads for cell evaluation: 1 = evaluate inline on the calling
  /// thread (no pool), 0 = one worker per hardware thread, N = N workers.
  int jobs = 1;
  /// Consult and populate the process-wide SweepCache. Results are
  /// unchanged either way (the model is deterministic); turning this off
  /// only forces re-evaluation.
  bool memoize = true;
  /// Per-cell retry of Transient knl::Errors (injected faults, flaky IO):
  /// bounded exponential backoff with deterministic jitter, keyed by cell
  /// index so retry counters are exact for any job count.
  fault::RetryPolicy retry{};
  /// Watchdog: > 0 arms a per-cell wall-time deadline (milliseconds). A
  /// cell that overruns it on the parallel path is re-evaluated serially
  /// (where it has the machine to itself) — the graceful parallel->serial
  /// fallback; 0 disables the watchdog.
  double cell_deadline_ms = 0.0;
  /// Capacity sweeps (SweepPlanner): derive every cell of a grid from one
  /// reuse-distance profiling pass over the trace (exact by LRU inclusion;
  /// the default). false selects the retained per-cell reference path that
  /// re-replays the trace through the exact simulator for every capacity.
  bool single_pass = true;
  /// Request-scoped wall-clock budget, checked between cells (and before
  /// each profiling pass). When it expires, remaining cells fail fast with
  /// code "deadline/exceeded" instead of computing dead work; completed
  /// cells keep their points. nullptr (the default) is unbounded — the
  /// golden/repro pipeline never sets one, so results are bit-identical.
  std::shared_ptr<const Deadline> deadline = nullptr;
  /// Brownout mode: serve cells from the SweepCache only. A cell whose key
  /// is not resident fails with code "sweep/cache-only-miss" instead of
  /// simulating; capacity grids derive from resident reuse profiles only
  /// (no trace synthesis, no profiling passes).
  bool cache_only = false;
};

/// Counters describing how a sweep call spent its time. `cells` is the full
/// grid; every cell is either `evaluated` (simulated now), a `cache_hit`
/// (reused from the SweepCache), and possibly `infeasible` (no Figure point,
/// matching the paper's missing bars).
struct SweepStats {
  std::size_t cells = 0;
  std::size_t evaluated = 0;
  std::size_t cache_hits = 0;
  std::size_t infeasible = 0;
  /// Sum of per-cell evaluation wall times (what a serial engine would pay).
  double cell_seconds = 0.0;
  /// Wall time of the whole sweep call, dispatch and merge included.
  double wall_seconds = 0.0;
  /// Transient-fault retries performed (exact: keyed injection makes this a
  /// pure function of the armed fault plan, not of the job count).
  std::size_t retries = 0;
  /// Cells that still failed after the retry budget; their errors are in
  /// SweepRun::failures, the surviving cells' points are in the figure.
  std::size_t failed = 0;
  /// Cells that overran the watchdog deadline (timing-dependent by nature).
  std::size_t watchdog_trips = 0;
  /// Whole-grid parallel->serial fallbacks after a substrate (pool) fault.
  std::size_t serial_fallbacks = 0;
  /// Single-pass accounting (capacity sweeps only): profiling passes
  /// computed now, passes served from the profile cache, and grid cells
  /// answered from a profile histogram instead of a per-cell replay.
  std::size_t profile_passes = 0;
  std::size_t profile_hits = 0;
  std::size_t cells_derived = 0;

  /// One-line human-readable rendering for bench logs / EXPERIMENTS.md.
  [[nodiscard]] std::string summary() const;

  /// Accumulate another sweep's counters (wall times add; a multi-sweep
  /// bench binary reports the total).
  SweepStats& operator+=(const SweepStats& other);
};

/// One cell that failed for good (retry budget exhausted or non-transient
/// error). The sweep keeps going: every failure is collected, never just the
/// first, and the surviving cells' points still land in the figure.
struct CellFailure {
  /// Grid index of the cell (row-major over the outer x × config grid).
  std::size_t index = 0;
  /// Human label, e.g. "stream @ 1 GiB / HBM" or "threads=16 / CacheMode".
  std::string label;
  ErrorCategory category = ErrorCategory::Internal;
  std::string message;
};

/// A completed sweep: the figure plus the engine's accounting. `failures`
/// is empty on a clean run; callers that must not tolerate holes check it
/// (the repro pipeline turns a non-empty list into one aggregate error
/// naming every failed cell).
struct SweepRun {
  Figure figure;
  SweepStats stats;
  std::vector<CellFailure> failures;
};

/// Memoization key of one grid cell. The profile hash covers every
/// timing-relevant field of every phase plus the resident footprint, so two
/// workloads with identical memory behaviour share entries and any profile
/// change misses; the machine hash is MachineConfig::fingerprint().
struct SweepKey {
  std::uint64_t profile_hash = 0;
  std::uint64_t machine_hash = 0;
  MemConfig config = MemConfig::DRAM;
  int threads = 0;

  friend bool operator==(const SweepKey&, const SweepKey&) = default;
};

struct SweepKeyHash {
  [[nodiscard]] std::size_t operator()(const SweepKey& key) const noexcept;
};

/// FNV-1a content hash of an AccessProfile: resident bytes plus every
/// numeric/pattern field of every phase, in order. Phase and profile *names*
/// are excluded — they are labels, not timing inputs.
[[nodiscard]] std::uint64_t profile_fingerprint(const trace::AccessProfile& profile);

/// Observability counters of the SweepCache, readable at any time (values
/// are individually atomic; a snapshot taken under load is approximate
/// across fields but each field is exact).
struct SweepCacheStats {
  std::size_t hits = 0;       ///< lookups served from a resident entry
  std::size_t misses = 0;     ///< lookups that had to compute (or found nothing)
  std::size_t evictions = 0;  ///< entries dropped to honor the capacity bound
  std::size_t coalesced = 0;  ///< queries that waited on an identical in-flight
                              ///< computation instead of recomputing
  std::size_t inserts = 0;    ///< store() calls (first-time + overwrites)
  std::size_t entries = 0;    ///< resident entries right now
  std::size_t capacity = 0;   ///< configured bound (entries)
  std::size_t shards = 0;     ///< shard count (compile-time constant)
  /// Reuse-distance profile side of the cache (single-pass sweeps). A hit
  /// here answers a whole capacity grid — including grids *different* from
  /// the one that populated the entry — without replaying the trace.
  std::size_t profile_hits = 0;
  std::size_t profile_misses = 0;
  std::size_t profile_inserts = 0;
  std::size_t profile_evictions = 0;
  std::size_t profile_coalesced = 0;
  std::size_t profile_entries = 0;
  std::size_t profile_capacity = 0;
};

/// Fingerprint of one profiling pass: which trace (profile content +
/// synthesis budget/seed), on which machine, at which thread count, under
/// which cache geometry. Grids sharing a key share one pass.
struct ProfileKey {
  std::uint64_t trace_hash = 0;
  std::uint64_t machine_hash = 0;
  int threads = 0;
  std::uint64_t geometry_hash = 0;

  friend bool operator==(const ProfileKey&, const ProfileKey&) = default;
};

struct ProfileKeyHash {
  [[nodiscard]] std::size_t operator()(const ProfileKey& key) const noexcept;
};

/// Process-wide memoized simulation results, shared by every sweep — and,
/// since the service layer, by every concurrent query — in the process.
///
/// The cache is *sharded*: keys hash to one of kShardCount independent
/// shards, each with its own mutex, LRU list and index, so concurrent
/// queries contend only when they land on the same shard. Each shard is
/// *bounded*: beyond its slice of the capacity, the least-recently-used
/// entry is evicted (the classic two-level ram_cache/page_stats_table
/// discipline: hot results resident, cold ones recomputed on demand).
/// Identical concurrent misses are *coalesced*: the first caller computes,
/// the rest wait on its future — a thundering herd of equal (profile,
/// machine, config, threads) fingerprints costs one simulation.
///
/// serialize()/deserialize() render entries as text (hex-float exact
/// round-trip), the payload knl-serve's snapshot persists so a restarted
/// service starts warm. The header records the machine-profile schema
/// version; a payload written under another schema is rejected as a
/// benign cold start.
class SweepCache {
 public:
  /// Shards (power of two; keys use the top hash bits so shard choice is
  /// independent of the per-shard bucket choice).
  static constexpr std::size_t kShardCount = 16;
  /// Default capacity bound, in entries. A RunResult is ~100 bytes, so the
  /// default caps the cache at a few MiB while holding every cell of every
  /// registry experiment many times over.
  static constexpr std::size_t kDefaultCapacity = 1u << 16;
  /// Bound on resident reuse-distance profiles. A profile is a histogram of
  /// up to max_depth buckets (typically a few thousand live ones), so this
  /// caps the profile side at a few MiB as well. Profiles are process-local
  /// only: serialize() persists RunResults, never profiles.
  static constexpr std::size_t kDefaultProfileCapacity = 128;

  /// Profiles are immutable once computed and shared by reference: a grid
  /// hit hands out the same histogram the profiling pass produced.
  using ProfilePtr = std::shared_ptr<const sim::ReuseProfile>;

  static SweepCache& instance();

  [[nodiscard]] std::optional<RunResult> lookup(const SweepKey& key) const;
  void store(const SweepKey& key, const RunResult& result);

  /// The coalescing read-through path: returns the cached result, else
  /// computes via `compute` and stores. Concurrent callers with the same
  /// key while a computation is in flight wait for it and share its result
  /// (or its exception) — `compute` runs exactly once per herd. Sets
  /// `*cache_hit` to false only for the caller that actually computed.
  [[nodiscard]] RunResult fetch_or_compute(const SweepKey& key,
                                           const std::function<RunResult()>& compute,
                                           bool* cache_hit = nullptr);

  /// Profile-side read path: nullptr on miss.
  [[nodiscard]] ProfilePtr lookup_profile(const ProfileKey& key) const;
  /// Coalescing read-through for profiling passes, mirroring
  /// fetch_or_compute: one pass per herd of identical keys, `*cache_hit`
  /// false only for the caller that actually replayed the trace.
  [[nodiscard]] ProfilePtr fetch_or_compute_profile(
      const ProfileKey& key, const std::function<ProfilePtr()>& compute,
      bool* cache_hit = nullptr);

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t capacity() const;
  /// Re-bound the cache (rounded up to a multiple of kShardCount, min one
  /// entry per shard), evicting LRU entries that no longer fit.
  void set_capacity(std::size_t max_entries);
  void clear();

  [[nodiscard]] SweepCacheStats stats() const;
  void reset_stats();

  /// Every entry rendered as text (header + one line per entry, in
  /// shard/LRU order) — the payload snapshots wrap with a digest line.
  [[nodiscard]] std::string serialize() const;
  /// serialize()'s line buffer: an entry whose line would not fit is left out.
  static constexpr std::size_t kMaxSerializedLineBytes = 1024;
  /// Upper bound on serialize()'s size at the current capacity.
  [[nodiscard]] std::size_t max_serialized_bytes() const;
  /// Merge entries from a serialize() payload. Returns false when the
  /// header is missing or from another machine-profile schema version.
  bool deserialize(const std::string& text);

 private:
  struct Entry {
    SweepKey key;
    RunResult result;
  };
  /// One shard: mutex, LRU list (front = most recent), index into it, and
  /// the in-flight table coalescing concurrent identical misses.
  struct Shard {
    mutable std::mutex mutex;
    std::list<Entry> lru;
    std::unordered_map<SweepKey, std::list<Entry>::iterator, SweepKeyHash> index;
    std::unordered_map<SweepKey, std::shared_future<RunResult>, SweepKeyHash> inflight;
  };
  struct ProfileEntry {
    ProfileKey key;
    ProfilePtr profile;
  };
  /// Profile shard: same discipline as Shard, holding shared immutable
  /// histograms instead of RunResults.
  struct ProfileShard {
    mutable std::mutex mutex;
    std::list<ProfileEntry> lru;
    std::unordered_map<ProfileKey, std::list<ProfileEntry>::iterator, ProfileKeyHash>
        index;
    std::unordered_map<ProfileKey, std::shared_future<ProfilePtr>, ProfileKeyHash>
        inflight;
  };

  SweepCache() = default;

  [[nodiscard]] Shard& shard_for(const SweepKey& key) const;
  [[nodiscard]] ProfileShard& profile_shard_for(const ProfileKey& key) const;
  /// Insert/refresh under the shard lock, evicting past the per-shard bound.
  void store_locked(Shard& shard, const SweepKey& key, const RunResult& result);
  void store_profile_locked(ProfileShard& shard, const ProfileKey& key,
                            const ProfilePtr& profile);
  [[nodiscard]] std::size_t shard_capacity() const {
    return capacity_.load(std::memory_order_relaxed) / kShardCount;
  }
  [[nodiscard]] std::size_t profile_shard_capacity() const {
    return profile_capacity_.load(std::memory_order_relaxed) / kShardCount;
  }

  mutable std::array<Shard, kShardCount> shards_;
  mutable std::array<ProfileShard, kShardCount> profile_shards_;
  std::atomic<std::size_t> capacity_{kDefaultCapacity};
  std::atomic<std::size_t> profile_capacity_{kDefaultProfileCapacity};
  mutable std::atomic<std::size_t> hits_{0};
  mutable std::atomic<std::size_t> misses_{0};
  std::atomic<std::size_t> evictions_{0};
  std::atomic<std::size_t> coalesced_{0};
  std::atomic<std::size_t> inserts_{0};
  mutable std::atomic<std::size_t> profile_hits_{0};
  mutable std::atomic<std::size_t> profile_misses_{0};
  std::atomic<std::size_t> profile_evictions_{0};
  std::atomic<std::size_t> profile_coalesced_{0};
  std::atomic<std::size_t> profile_inserts_{0};
};

/// Run one (profile, run-config) cell through the memoization cache: on a
/// hit returns the cached RunResult, otherwise simulates and stores. Sets
/// `*cache_hit` accordingly when non-null. The building block the sweep
/// engine uses per cell, exposed for benches with bespoke grids (Fig. 5's
/// per-hardware-thread series).
[[nodiscard]] RunResult cached_run(const Machine& machine,
                                   const trace::AccessProfile& profile,
                                   const RunConfig& run_config,
                                   bool* cache_hit = nullptr);

/// Cache-only probe of the same key cached_run uses: the resident result,
/// or nullopt without simulating anything. The brownout path of degraded
/// sweeps (SweepOptions::cache_only).
[[nodiscard]] std::optional<RunResult> cached_lookup(
    const Machine& machine, const trace::AccessProfile& profile,
    const RunConfig& run_config);

/// Fig. 4-style sweep: metric vs problem size for each memory config at a
/// fixed thread count. Infeasible runs (e.g. HBM beyond 16 GB) are omitted,
/// matching the paper's missing bars. Cells run on `options.jobs` workers;
/// the factory must therefore be callable concurrently and deterministic
/// (same bytes -> same workload), which holds for every registry workload.
[[nodiscard]] SweepRun sweep_sizes_run(const Machine& machine,
                                       const WorkloadFactory& factory,
                                       const std::vector<std::uint64_t>& sizes_bytes,
                                       int threads,
                                       const std::vector<MemConfig>& configs,
                                       Figure figure, const SweepOptions& options = {});

/// Fig. 6-style sweep: metric vs thread count for a fixed problem size.
/// The workload's const interface is invoked concurrently across cells.
[[nodiscard]] SweepRun sweep_threads_run(const Machine& machine,
                                         const workloads::Workload& workload,
                                         const std::vector<int>& thread_counts,
                                         const std::vector<MemConfig>& configs,
                                         Figure figure,
                                         const SweepOptions& options = {});

/// Classic serial-signature sweep (kept for existing callers and tests):
/// exactly sweep_sizes_run(...).figure with default options.
[[nodiscard]] Figure sweep_sizes(const Machine& machine, const WorkloadFactory& factory,
                                 const std::vector<std::uint64_t>& sizes_bytes,
                                 int threads, const std::vector<MemConfig>& configs,
                                 Figure figure);

/// Classic serial-signature thread sweep; see sweep_threads_run.
[[nodiscard]] Figure sweep_threads(const Machine& machine,
                                   const workloads::Workload& workload,
                                   const std::vector<int>& thread_counts,
                                   const std::vector<MemConfig>& configs, Figure figure);

/// Add "speedup vs first x" series (the black improvement lines of the
/// paper's figures): for each existing series, appends a new series named
/// "<name> speedup" normalized to that series' first point. Series that are
/// empty or whose first point is <= 0 are skipped; an empty figure is a
/// no-op.
void add_self_speedup_series(Figure& figure);

/// Add a series of ratios between two existing series (e.g. the Fig. 4b
/// "Speedup by HBM w.r.t. DRAM" line). Points exist where both series do;
/// when either input series is missing, or the two share no x, no series is
/// created.
void add_ratio_series(Figure& figure, const std::string& numerator,
                      const std::string& denominator, const std::string& name);

// ---------------------------------------------------------------------------
// Single-pass capacity sweeps
// ---------------------------------------------------------------------------

/// Fault-injection key space of profiling passes at kSiteSweepCell. Grid
/// cells are keyed by their grid index (< 2^20 in practice: the service
/// bounds grids at max_sweep_cells, benches at a few hundred), so offsetting
/// pass ordinals past this base keeps the two key populations disjoint —
/// a plan targeting key kProfilePassKeyBase+N hits pass N and no cell.
inline constexpr std::uint64_t kProfilePassKeyBase = 1ull << 20;

/// One MCDRAM-capacity grid: simulate the workload's trace against an LRU
/// cache of each candidate capacity at fixed geometry. Capacities must be
/// multiples of line_bytes * num_sets (integral associativity).
struct CapacityGrid {
  std::vector<std::uint64_t> capacities_bytes;
  /// Cache geometry shared by every cell (what makes one pass answer all of
  /// them: at fixed (line, sets, sampling), capacity only varies the ways).
  std::uint64_t line_bytes = 64;
  std::uint64_t num_sets = 1ull << 15;
  std::uint64_t sample_every = 1;
  /// Trace synthesis budget/seed; part of the profile fingerprint.
  trace::SynthOptions synth{};
};

/// Default capacity axis for a declared topology: `points` equal steps up to
/// the capacity of the cache-capable tier fronting the topology's DRAM tier
/// (the fast tier when nothing is cache-capable), each aligned down to a
/// multiple of `set_bytes` (= line_bytes * num_sets) so every entry is a
/// legal set-associative capacity. Duplicate/zero steps collapse, so small
/// tiers yield fewer than `points` entries.
[[nodiscard]] std::vector<std::uint64_t> default_capacity_axis(
    const sim::MemoryTopology& topology, std::uint64_t set_bytes,
    std::size_t points = 8);

/// CapacityGrid whose axis is default_capacity_axis() at the grid's default
/// geometry — the "sweep the declared front tier" one-liner.
[[nodiscard]] CapacityGrid default_capacity_grid(const sim::MemoryTopology& topology,
                                                 std::size_t points = 8);

/// One evaluated capacity cell: the exact hit rate at this capacity plus the
/// derived timing (McdramCacheModel blend of the machine's HBM/DDR params).
struct CapacityCell {
  std::uint64_t capacity_bytes = 0;
  std::uint64_t ways = 0;
  double hit_rate = 0.0;
  double effective_bw_gbs = 0.0;
  double avg_latency_ns = 0.0;
  double seconds = 0.0;
  /// True when this cell was derived from a profile histogram (single-pass
  /// path); false when it came from a per-cell reference replay.
  bool profile_hit = false;
};

/// A completed capacity sweep: cells in grid order, a figure with
/// "MCDRAM$ hit rate" and "effective GB/s" series vs capacity (GB), and the
/// engine accounting (profile_passes / profile_hits / cells_derived live in
/// stats).
struct CapacitySweepRun {
  Figure figure;
  std::vector<CapacityCell> cells;
  SweepStats stats;
  std::vector<CellFailure> failures;
};

/// Batches capacity-sweep requests and coalesces all grids sharing a
/// (trace, machine, threads, geometry) fingerprint onto ONE profiling pass,
/// then derives every cell of every grid analytically from the shared
/// reuse-distance histogram (Mattson: at fixed geometry, an access hits a
/// W-way LRU set iff its per-set stack distance is < W, so one histogram
/// answers every capacity). Passes and results go through the SweepCache,
/// so a later planner — or a service /sweep query with a different grid —
/// hits the same profile.
///
/// With options.single_pass == false every cell replays the trace through
/// the exact per-cell simulator instead (the retained reference path); the
/// two paths produce identical cells wherever LRU inclusion holds, which is
/// everywhere the planner can run (the profile and the reference simulate
/// the same set-associative LRU).
class SweepPlanner {
 public:
  explicit SweepPlanner(SweepOptions options = {});
  ~SweepPlanner();

  SweepPlanner(const SweepPlanner&) = delete;
  SweepPlanner& operator=(const SweepPlanner&) = delete;

  /// Queue one grid; returns its slot in the vector run() returns. The
  /// machine reference must outlive run().
  std::size_t add(const Machine& machine, const trace::AccessProfile& profile,
                  int threads, CapacityGrid grid, Figure figure);

  /// Execute every queued grid (profiling passes first, grouped by
  /// fingerprint; then cell derivation) and clear the queue. Results are in
  /// add() order and bit-identical for any jobs count.
  [[nodiscard]] std::vector<CapacitySweepRun> run();

 private:
  struct Request;
  SweepOptions options_;
  std::vector<Request> requests_;
};

/// One-grid convenience wrapper over SweepPlanner.
[[nodiscard]] CapacitySweepRun sweep_capacities_run(
    const Machine& machine, const trace::AccessProfile& profile, int threads,
    CapacityGrid grid, Figure figure, const SweepOptions& options = {});

}  // namespace knl::report
