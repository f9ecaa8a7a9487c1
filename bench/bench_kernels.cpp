// google-benchmark microbenchmarks of the *real* kernels and simulator
// components shipped in this library (wall-clock performance of the code
// itself, as opposed to the modelled KNL timings of the figure benches).
//
// The BM_Replay* pairs measure the batched trace-replay engine against the
// pre-batching baseline: `legacy` below is the map-backed CacheSim/TlbSim
// exactly as shipped before the flat rework, driven through the per-address
// std::function generator path those sims were used with. Run just these
// with --benchmark_filter=Replay (or the bench_replay_json target).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <list>
#include <random>
#include <unordered_map>
#include <vector>

#include "sim/cache.hpp"
#include "sim/mcdram_cache.hpp"
#include "sim/simd.hpp"
#include "sim/tlb.hpp"
#include "trace/generators.hpp"
#include "workloads/dgemm.hpp"
#include "workloads/graph500.hpp"
#include "workloads/gups.hpp"
#include "workloads/minife.hpp"
#include "workloads/stream.hpp"
#include "workloads/xsbench.hpp"

namespace {

using namespace knl;

void BM_StreamTriad(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<double> a(n, 0.0), b(n, 1.0), c(n, 2.0);
  for (auto _ : state) {
    workloads::StreamTriad::triad(a, b, c, 3.0);
    benchmark::DoNotOptimize(a.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n) * 24);
}
BENCHMARK(BM_StreamTriad)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

void BM_DgemmBlocked(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<double> a(n * n, 1.0), b(n * n, 2.0), c(n * n, 0.0);
  for (auto _ : state) {
    workloads::Dgemm::multiply_blocked(a, b, c, n, 32);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * n * n));
}
BENCHMARK(BM_DgemmBlocked)->Arg(64)->Arg(128)->Arg(256);

void BM_SpMV27pt(benchmark::State& state) {
  const auto nx = static_cast<std::uint32_t>(state.range(0));
  const auto mat = workloads::assemble_27pt(nx, nx, nx);
  std::vector<double> x(mat.rows, 1.0), y(mat.rows, 0.0);
  for (auto _ : state) {
    workloads::spmv(mat, x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(mat.nnz()) * 2);
}
BENCHMARK(BM_SpMV27pt)->Arg(16)->Arg(32);

void BM_CgSolve(benchmark::State& state) {
  const auto nx = static_cast<std::uint32_t>(state.range(0));
  const auto mat = workloads::assemble_27pt(nx, nx, nx);
  const std::vector<double> b(mat.rows, 1.0);
  for (auto _ : state) {
    std::vector<double> x(mat.rows, 0.0);
    const auto r = workloads::conjugate_gradient(mat, b, x, 200, 1e-8);
    benchmark::DoNotOptimize(r.iterations);
  }
}
BENCHMARK(BM_CgSolve)->Arg(12)->Arg(20);

void BM_GupsUpdates(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  std::vector<std::uint64_t> table(n, 0);
  for (auto _ : state) {
    workloads::Gups::run_updates(table, n, 1);
    benchmark::DoNotOptimize(table.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_GupsUpdates)->Arg(1 << 14)->Arg(1 << 18);

void BM_Bfs(benchmark::State& state) {
  const int scale = static_cast<int>(state.range(0));
  const auto edges = workloads::generate_kronecker(scale, 16, 1);
  const auto g = workloads::build_csr(1ull << scale, edges);
  for (auto _ : state) {
    const auto parent = workloads::bfs(g, 0);
    benchmark::DoNotOptimize(parent.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_directed_edges()));
}
BENCHMARK(BM_Bfs)->Arg(10)->Arg(14);

void BM_XsLookup(benchmark::State& state) {
  const auto data = workloads::build_xs_data(64, 512, 3);
  std::mt19937_64 rng(11);
  std::uniform_real_distribution<double> uni(0.01, 0.99);
  std::vector<std::pair<int, double>> material;
  for (int i = 0; i < 12; ++i) material.emplace_back(i * 5, 0.5);
  double xs[5];
  for (auto _ : state) {
    workloads::lookup_macro_xs(data, uni(rng), material, xs);
    benchmark::DoNotOptimize(xs);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_XsLookup);

// --------------------------------------------------------------------------
// Pre-batching simulator baselines (verbatim from the last release before
// the flat rework), so the replay speedup stays measurable in-tree.
// --------------------------------------------------------------------------
namespace legacy {

/// LRU set-associative cache over sparse unordered_map set storage.
class CacheSim {
 public:
  explicit CacheSim(sim::CacheConfig config)
      : config_(config), num_sets_(config.num_sets()) {}

  bool access(std::uint64_t addr) {
    const std::uint64_t line = addr / config_.line_bytes;
    const std::uint64_t set_idx = line % num_sets_;
    if (set_idx % config_.sample_every != 0) return true;  // not sampled

    ++tick_;
    ++stats_.accesses;
    auto& set = sets_[set_idx];
    if (set.empty()) set.resize(static_cast<std::size_t>(config_.ways));

    const std::uint64_t tag = line / num_sets_;
    Way* victim = &set[0];
    for (auto& way : set) {
      if (way.valid && way.tag == tag) {
        way.lru = tick_;
        ++stats_.hits;
        return true;
      }
      if (!way.valid) {
        if (victim->valid) victim = &way;
      } else if (victim->valid && way.lru < victim->lru) {
        victim = &way;
      }
    }
    ++stats_.misses;
    if (victim->valid) ++stats_.evictions;
    victim->valid = true;
    victim->tag = tag;
    victim->lru = tick_;
    return false;
  }

  [[nodiscard]] const sim::CacheStats& stats() const noexcept { return stats_; }

 private:
  struct Way {
    std::uint64_t tag = 0;
    std::uint64_t lru = 0;
    bool valid = false;
  };

  sim::CacheConfig config_;
  std::uint64_t num_sets_;
  std::uint64_t tick_ = 0;
  sim::CacheStats stats_;
  std::unordered_map<std::uint64_t, std::vector<Way>> sets_;
};

/// Exact LRU TLB over std::list + unordered_map.
class TlbSim {
 public:
  explicit TlbSim(sim::TlbConfig config = {}) : config_(config) {}

  bool access(std::uint64_t addr) {
    ++accesses_;
    const std::uint64_t page = addr / config_.page_bytes;
    if (auto it = map_.find(page); it != map_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      return true;
    }
    ++misses_;
    lru_.push_front(page);
    map_[page] = lru_.begin();
    if (map_.size() > static_cast<std::size_t>(config_.entries)) {
      map_.erase(lru_.back());
      lru_.pop_back();
    }
    return false;
  }

  [[nodiscard]] std::uint64_t misses() const noexcept { return misses_; }

 private:
  sim::TlbConfig config_;
  std::uint64_t accesses_ = 0;
  std::uint64_t misses_ = 0;
  std::list<std::uint64_t> lru_;
  std::unordered_map<std::uint64_t, std::list<std::uint64_t>::iterator> map_;
};

}  // namespace legacy

// --------------------------------------------------------------------------
// Replay-throughput pairs over identical pre-generated address vectors:
// Legacy = per-address std::function visitor into the map-backed sims (the
// pre-batching replay path); Batched = one access_block() over the span on
// the flat sims. items/s = addresses replayed per second.
// --------------------------------------------------------------------------

// Address vectors sized to stay cache-resident: the production hand-off
// replays L1-resident kAddressChunk buffers, so the pairs must measure
// engine throughput, not the memory bandwidth of the driver array.
constexpr std::uint64_t kReplaySweepBytes = 16ull << 20;  // 256 Ki lines/sweep
constexpr std::uint64_t kReplayRandomCount = 1 << 16;
constexpr sim::CacheConfig kReplayMcdramCfg{
    .capacity_bytes = 16ull << 30, .line_bytes = 64, .ways = 1, .sample_every = 256};
constexpr sim::CacheConfig kReplayL2Cfg{
    .capacity_bytes = 1 << 20, .line_bytes = 64, .ways = 16, .sample_every = 1};

std::vector<std::uint64_t> replay_sweep_addrs() {
  trace::SweepGenerator gen(0, kReplaySweepBytes, 64, 1);
  return trace::collect_addresses(gen);
}

std::vector<std::uint64_t> replay_random_addrs(std::uint64_t bytes) {
  trace::UniformRandomGenerator gen(0, bytes, kReplayRandomCount, 12345);
  return trace::collect_addresses(gen);
}

template <typename Sim>
void replay_via_visitor(Sim& sim, const std::vector<std::uint64_t>& addrs) {
  // The pre-batching hand-off: one type-erased call per address.
  const trace::AddressVisitor visit = [&](std::uint64_t addr) { sim.access(addr); };
  for (const auto addr : addrs) visit(addr);
}

void BM_ReplayMcdramSweepLegacy(benchmark::State& state) {
  const auto addrs = replay_sweep_addrs();
  legacy::CacheSim cache(kReplayMcdramCfg);
  for (auto _ : state) replay_via_visitor(cache, addrs);
  benchmark::DoNotOptimize(cache.stats().hits);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(addrs.size()));
}
BENCHMARK(BM_ReplayMcdramSweepLegacy);

void BM_ReplayMcdramSweepBatched(benchmark::State& state) {
  const auto addrs = replay_sweep_addrs();
  sim::CacheSim cache(kReplayMcdramCfg);
  std::uint64_t hits = 0;
  for (auto _ : state) hits += cache.access_block(addrs).hits;
  benchmark::DoNotOptimize(hits);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(addrs.size()));
}
BENCHMARK(BM_ReplayMcdramSweepBatched);

void BM_ReplayMcdramRandomLegacy(benchmark::State& state) {
  const auto addrs = replay_random_addrs(8ull << 30);
  legacy::CacheSim cache(kReplayMcdramCfg);
  for (auto _ : state) replay_via_visitor(cache, addrs);
  benchmark::DoNotOptimize(cache.stats().hits);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(addrs.size()));
}
BENCHMARK(BM_ReplayMcdramRandomLegacy);

void BM_ReplayMcdramRandomBatched(benchmark::State& state) {
  const auto addrs = replay_random_addrs(8ull << 30);
  sim::CacheSim cache(kReplayMcdramCfg);
  std::uint64_t hits = 0;
  for (auto _ : state) hits += cache.access_block(addrs).hits;
  benchmark::DoNotOptimize(hits);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(addrs.size()));
}
BENCHMARK(BM_ReplayMcdramRandomBatched);

void BM_ReplayL2RandomLegacy(benchmark::State& state) {
  const auto addrs = replay_random_addrs(4 << 20);
  legacy::CacheSim cache(kReplayL2Cfg);
  for (auto _ : state) replay_via_visitor(cache, addrs);
  benchmark::DoNotOptimize(cache.stats().hits);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(addrs.size()));
}
BENCHMARK(BM_ReplayL2RandomLegacy);

void BM_ReplayL2RandomBatched(benchmark::State& state) {
  const auto addrs = replay_random_addrs(4 << 20);
  sim::CacheSim cache(kReplayL2Cfg);
  std::uint64_t hits = 0;
  for (auto _ : state) hits += cache.access_block(addrs).hits;
  benchmark::DoNotOptimize(hits);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(addrs.size()));
}
BENCHMARK(BM_ReplayL2RandomBatched);

void BM_ReplayTlbRandomLegacy(benchmark::State& state) {
  const auto addrs = replay_random_addrs(1ull << 30);
  legacy::TlbSim tlb;
  for (auto _ : state) replay_via_visitor(tlb, addrs);
  benchmark::DoNotOptimize(tlb.misses());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(addrs.size()));
}
BENCHMARK(BM_ReplayTlbRandomLegacy);

void BM_ReplayTlbRandomBatched(benchmark::State& state) {
  const auto addrs = replay_random_addrs(1ull << 30);
  sim::TlbSim tlb;
  std::uint64_t misses = 0;
  for (auto _ : state) {
    for (const auto addr : addrs) misses += tlb.access(addr) ? 0u : 1u;
  }
  benchmark::DoNotOptimize(misses);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(addrs.size()));
}
BENCHMARK(BM_ReplayTlbRandomBatched);

void BM_CacheSimSweep(benchmark::State& state) {
  sim::CacheSim cache(sim::CacheConfig{.capacity_bytes = 1 << 20, .line_bytes = 64,
                                       .ways = 8, .sample_every = 1});
  for (auto _ : state) {
    trace::generate_sweep(0, 4 << 20, 64, 1,
                          [&](std::uint64_t addr) { cache.access(addr); });
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          ((4 << 20) / 64));
}
BENCHMARK(BM_CacheSimSweep);

void BM_McdramCacheSimRandom(benchmark::State& state) {
  sim::McdramCacheSim cache({}, /*sample_every=*/256);
  std::uint64_t i = 0;
  for (auto _ : state) {
    trace::generate_uniform_random(0, 8ull << 30, 10000, ++i,
                                   [&](std::uint64_t addr) { cache.access(addr); });
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 10000);
}
BENCHMARK(BM_McdramCacheSimRandom);

void BM_TlbSim(benchmark::State& state) {
  sim::TlbSim tlb;
  std::mt19937_64 rng(5);
  for (auto _ : state) {
    tlb.access(rng() % (1ull << 30));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TlbSim);

}  // namespace

#ifndef KNLMEM_BUILD_TYPE
#define KNLMEM_BUILD_TYPE "unknown"
#endif

// Custom main instead of BENCHMARK_MAIN(): stamp the *library's* build type
// and active SIMD level into the JSON context. google-benchmark's own
// "library_build_type" key describes the benchmark framework build, which is
// useless for judging whether these numbers came from an optimized knlmem.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::AddCustomContext("knlmem_build_type", KNLMEM_BUILD_TYPE);
  benchmark::AddCustomContext(
      "knlmem_simd_level",
      knl::sim::simd::level_name(knl::sim::simd::active_level()));
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
