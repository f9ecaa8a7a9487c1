#include "workloads/gups.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>

#include "core/fault/error.hpp"

namespace knl::workloads {

namespace {
// HPCC RandomAccess polynomial for the GF(2) linear generator.
constexpr std::uint64_t kPoly = 0x0000000000000007ull;
}  // namespace

Gups::Gups(std::uint64_t table_bytes)
    : table_bytes_(table_bytes), entries_(table_bytes / sizeof(std::uint64_t)) {
  if (entries_ < 2 || !std::has_single_bit(entries_)) {
    throw std::invalid_argument(
        "Gups: table_bytes=" + std::to_string(table_bytes) + " holds " +
        std::to_string(entries_) +
        " 8-byte entries; HPCC requires a power-of-two entry count >= 2 "
        "(i.e. table_bytes a power of two >= 16)");
  }
}

Gups Gups::from_footprint(std::uint64_t bytes) {
  // Round down to the largest power-of-two entry count that fits, clamped to
  // the constructor's 2-entry minimum.
  const std::uint64_t entries =
      std::max<std::uint64_t>(std::bit_floor(bytes / sizeof(std::uint64_t)), 2);
  return Gups(entries * sizeof(std::uint64_t));
}

const WorkloadInfo& Gups::info() const {
  static const WorkloadInfo kInfo{
      .name = "GUPS",
      .type = "Data analytics",
      .access_pattern = "Random",
      .max_scale_bytes = 32ull * 1024 * 1024 * 1024,  // Table I: 32 GB
      .metric_name = "GUPS",
  };
  return kInfo;
}

trace::AccessProfile Gups::profile() const {
  trace::AccessProfile p("gups");
  p.set_resident_bytes(table_bytes_);

  trace::AccessPhase update;
  update.name = "random-updates";
  update.pattern = trace::Pattern::Random;
  update.footprint_bytes = table_bytes_;
  // Each update reads and xors one 8-byte slot: read-modify-write of the
  // same line, so logical traffic is 8 B with write_fraction 1 (the dirty
  // line is written back).
  update.logical_bytes = static_cast<double>(updates()) * 8.0;
  update.granule_bytes = 8;
  update.write_fraction = 1.0;
  p.add(update);
  return p;
}

double Gups::metric(const RunResult& result) const {
  if (!result.feasible || result.seconds <= 0.0) return 0.0;
  return static_cast<double>(updates()) / result.seconds / 1e9;
}

std::uint64_t Gups::next_random(std::uint64_t ran) {
  return (ran << 1) ^ ((static_cast<std::int64_t>(ran) < 0) ? kPoly : 0);
}

void Gups::run_updates(std::vector<std::uint64_t>& table, std::uint64_t count,
                       std::uint64_t seed) {
  if (table.empty() || !std::has_single_bit(table.size())) {
    throw std::invalid_argument("Gups::run_updates: table size must be a power of two");
  }
  const std::uint64_t mask = table.size() - 1;
  std::uint64_t ran = seed;
  for (std::uint64_t i = 0; i < count; ++i) {
    ran = next_random(ran);
    table[ran & mask] ^= ran;
  }
}

void Gups::verify() const {
  // XOR self-inverse: applying the same update stream twice restores the
  // table — the HPCC verification approach, at a reduced table size.
  const std::uint64_t n = 1ull << 14;
  std::vector<std::uint64_t> table(n);
  for (std::uint64_t i = 0; i < n; ++i) table[i] = i;

  const std::uint64_t count = 4 * n;
  run_updates(table, count, /*seed=*/1);
  run_updates(table, count, /*seed=*/1);
  for (std::uint64_t i = 0; i < n; ++i) {
    if (table[i] != i) {
      throw Error::internal("gups/verify", "Gups::verify: table not restored after replay");
    }
  }
}

}  // namespace knl::workloads
