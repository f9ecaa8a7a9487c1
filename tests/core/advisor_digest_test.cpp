// Advisor digests: every field of every Advice the advisor gives over a grid
// of applications, hashed so that a refactor of the advisor, the machine or
// the timing model that changes any ranking, speedup bit or rationale byte
// fails here.
//
// The grid crosses the three advisor machines (knl7210, xeon_max, knl_nvm)
// with footprints from 64 MiB to 90 GiB (past each machine's fast-tier
// capacity, so infeasible flat-HBM candidates and cache-mode tails are
// covered), regular fractions {0, 0.3, 1}, intensities {0, 9} flop/B and
// thread caps {64, 100, 191, 256}. Each digest is FNV-1a over the raw bytes
// of each number and flag and over each string with its length, in the
// style of ResultDigest. No footprint here reaches knl_nvm's NVM tier (it
// sits behind 96 GiB of DDR), so knl_nvm shares knl7210's digest.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <type_traits>

#include "core/advisor.hpp"
#include "core/machine_config.hpp"

namespace knl {
namespace {

class Digest {
 public:
  template <typename T>
  void add(T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (const unsigned char b : bytes) mix(b);
  }

  void add(const std::string& s) {
    add(s.size());
    for (const char c : s) mix(static_cast<unsigned char>(c));
  }

  void add(const Recommendation& rec) {
    add(rec.config);
    add(rec.threads);
    add(rec.predicted_speedup_vs_dram64);
    add(rec.feasible);
    add(rec.rationale);
  }

  void add(const Advice& advice) {
    add(advice.classification);
    add(advice.best);
    add(advice.ranked.size());
    for (const Recommendation& rec : advice.ranked) add(rec);
  }

  [[nodiscard]] std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, h_);
    return buf;
  }

 private:
  void mix(unsigned char b) {
    h_ ^= b;
    h_ *= 1099511628211ull;
  }

  std::uint64_t h_ = 1469598103934665603ull;
};

std::string advise_digest(const MachineConfig& cfg) {
  const Machine machine(cfg);
  const Advisor advisor(machine);
  Digest d;
  for (const std::uint64_t footprint :
       {64 * MiB, 1 * GiB, 8 * GiB, 15 * GiB, 16 * GiB, 17 * GiB, 40 * GiB, 64 * GiB,
        65 * GiB, 90 * GiB}) {
    for (const double regular : {0.0, 0.3, 1.0}) {
      for (const double intensity : {0.0, 9.0}) {
        for (const int max_threads : {64, 100, 191, 256}) {
          AppCharacteristics app;
          app.name = "digest";
          app.footprint_bytes = footprint;
          app.regular_fraction = regular;
          app.flops_per_byte = intensity;
          app.max_threads = max_threads;
          d.add(advisor.advise(app));
        }
      }
    }
  }
  return d.hex();
}

TEST(AdvisorDigest, Knl7210) {
  EXPECT_EQ(advise_digest(MachineConfig::knl7210()), "819d682cd45e9e4a");
}

TEST(AdvisorDigest, XeonMax) {
  EXPECT_EQ(advise_digest(MachineConfig::xeon_max()), "111b141b32cccaf1");
}

TEST(AdvisorDigest, KnlNvm) {
  EXPECT_EQ(advise_digest(MachineConfig::knl_nvm()), "819d682cd45e9e4a");
}

}  // namespace
}  // namespace knl
