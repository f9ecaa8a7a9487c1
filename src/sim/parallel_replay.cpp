#include "sim/parallel_replay.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace knl::sim {

ParallelReplay::ParallelReplay() : ParallelReplay(ParallelReplayConfig{}) {}

ParallelReplay::ParallelReplay(ParallelReplayConfig config)
    : config_(config), mesh_(config.mesh) {
  if (config_.cores < 1) throw std::invalid_argument("ParallelReplay: need >= 1 core");
  if (config_.mshrs_per_core < 1) {
    throw std::invalid_argument("ParallelReplay: need >= 1 MSHR per core");
  }
  if (config_.issue_ns <= 0.0) {
    throw std::invalid_argument("ParallelReplay: issue_ns must be positive");
  }
  reset();
  // Serialize line transfers at the (scaled) bandwidth cap: one 64 B line
  // every line/bandwidth seconds.
  line_service_ns_ =
      static_cast<double>(params::kLineBytes) / bandwidth_cap_gbs();  // ns (GB/s==B/ns)
}

double ParallelReplay::bandwidth_cap_gbs() const {
  const double full = config_.node.stream_bw_gbs;
  if (!config_.scale_cap_to_cores) return full;
  return full * static_cast<double>(config_.cores) /
         static_cast<double>(params::kCores);
}

void ParallelReplay::reset() {
  cores_.clear();
  cores_.reserve(static_cast<std::size_t>(config_.cores));
  for (int c = 0; c < config_.cores; ++c) {
    Core core{CacheSim(config_.l1), CacheSim(config_.l2), TlbSim(config_.tlb), {}, 0.0};
    core.mshr_free_at.assign(static_cast<std::size_t>(config_.mshrs_per_core), 0.0);
    cores_.push_back(std::move(core));
  }
  memory_free_at_ = 0.0;
}

ParallelReplayStats ParallelReplay::replay(
    const std::vector<std::vector<std::uint64_t>>& streams) {
  if (streams.size() != cores_.size()) {
    throw std::invalid_argument("ParallelReplay: one stream per core required");
  }
  ParallelReplayStats stats;
  double last_done = 0.0;

  // Round-robin lock-step: each round, every core issues its next access.
  bool progressed = true;
  for (std::size_t position = 0; progressed; ++position) {
    progressed = false;
    for (std::size_t c = 0; c < cores_.size(); ++c) {
      Core& core = cores_[c];
      const auto& stream = streams[c];
      if (position >= stream.size()) continue;
      progressed = true;
      const std::uint64_t addr = stream[position];
      ++stats.accesses;

      core.issue_cursor += config_.issue_ns;
      double start = core.issue_cursor;
      if (!core.tlb.access(addr)) {
        ++stats.tlb_misses;
        start += config_.tlb.walk_cached_ns;
      }

      if (core.l1.access(addr)) {
        ++stats.l1_hits;
        last_done = std::max(last_done, start + config_.l1_latency_ns);
        continue;
      }
      auto earliest =
          std::min_element(core.mshr_free_at.begin(), core.mshr_free_at.end());
      const double issue = std::max(start, *earliest);
      if (core.l2.access(addr)) {
        ++stats.l2_hits;
        last_done = std::max(last_done, issue + config_.l2_latency_ns);
        continue;
      }
      ++stats.memory_accesses;
      // Contend for the shared bandwidth budget (token bucket), then pay
      // the memory latency.
      const double grant = std::max(issue, memory_free_at_);
      if (memory_free_at_ > issue) stats.capped_seconds += (grant - issue) * 1e-9;
      memory_free_at_ = grant + line_service_ns_;
      const double done = grant + config_.l2_latency_ns + mesh_.directory_latency_ns() +
                          config_.node.idle_latency_ns;
      *earliest = done;
      last_done = std::max(last_done, done);
    }
  }
  stats.seconds = last_done * 1e-9;
  return stats;
}

}  // namespace knl::sim
