// PlacementService unit tests: routing, validation, the error-code mapping
// of the knl::Error taxonomy, load shedding, and cached-vs-uncached
// bit-identity of answers.
#include <string>

#include <gtest/gtest.h>

#include "core/machine.hpp"
#include "report/sweep.hpp"
#include "service/service.hpp"
#include "workloads/registry.hpp"

namespace knl::service {
namespace {

using repro::json::Value;

class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override { report::SweepCache::instance().clear(); }
  void TearDown() override {
    report::SweepCache::instance().clear();
    report::SweepCache::instance().set_capacity(report::SweepCache::kDefaultCapacity);
  }

  PlacementService service_{ServiceOptions{.workers = 2}};
};

const Value* error_of(const ServiceResponse& response) {
  return response.body.find("error");
}

TEST_F(ServiceTest, HealthzListsMachinesAndWorkloads) {
  const ServiceResponse r = service_.handle("GET", "/healthz", Value());
  ASSERT_EQ(r.status, 200);
  EXPECT_EQ(r.body.find("status")->as_string(), "ok");
  EXPECT_EQ(static_cast<int>(r.body.find("machine_schema_version")->as_number()),
            kMachineSchemaVersion);
  const Value* machines = r.body.find("machines");
  ASSERT_NE(machines, nullptr);
  EXPECT_EQ(machines->as_array().size(), 6u);
  const Value* workloads = r.body.find("workloads");
  ASSERT_NE(workloads, nullptr);
  EXPECT_EQ(workloads->as_array().size(), workloads::registry().size());
}

TEST_F(ServiceTest, UnknownPathIs404AndWrongMethodIs405) {
  EXPECT_EQ(service_.handle("GET", "/no-such", Value()).status, 404);
  EXPECT_EQ(service_.handle("GET", "/whatif", Value()).status, 405);
  EXPECT_EQ(service_.handle("POST", "/healthz", Value()).status, 405);
}

TEST_F(ServiceTest, MalformedBodyTextIs400) {
  const ServiceResponse r = service_.handle_text("POST", "/placement", "{nope");
  EXPECT_EQ(r.status, 400);
  ASSERT_NE(error_of(r), nullptr);
  EXPECT_EQ(error_of(r)->find("code")->as_string(), "service/bad-json");
}

TEST_F(ServiceTest, PlacementValidatesAndRanks) {
  Value body = Value::object();
  body.set("name", "stream-like");
  body.set("footprint_bytes", 1.0 * (1ull << 30));
  body.set("regular_fraction", 1.0);
  const ServiceResponse r = service_.handle("POST", "/placement", body);
  ASSERT_EQ(r.status, 200) << r.body.dump(0);
  const Value* best = r.body.find("best");
  ASSERT_NE(best, nullptr);
  EXPECT_EQ(best->find("config")->as_string(), "HBM");
  EXPECT_FALSE(r.body.find("ranked")->as_array().empty());
  EXPECT_EQ(r.body.find("classification")->as_string(), "bandwidth-bound");
}

TEST_F(ServiceTest, PlacementMissingFootprintIs400) {
  const ServiceResponse r = service_.handle("POST", "/placement", Value::object());
  EXPECT_EQ(r.status, 400);
  EXPECT_EQ(error_of(r)->find("category")->as_string(), "corrupt-input");
  EXPECT_EQ(error_of(r)->find("code")->as_string(), "service/bad-field");
}

TEST_F(ServiceTest, UnknownMachineIs400NamingKnownOnes) {
  Value body = Value::object();
  body.set("footprint_bytes", 1024.0);
  body.set("machine", "knl9999");
  const ServiceResponse r = service_.handle("POST", "/placement", body);
  EXPECT_EQ(r.status, 400);
  EXPECT_NE(error_of(r)->find("message")->as_string().find("knl7210"),
            std::string::npos);
}

TEST_F(ServiceTest, WhatifMatchesDirectSimulationBitForBit) {
  Value body = Value::object();
  body.set("workload", "STREAM");
  body.set("bytes", 512.0 * (1ull << 20));
  body.set("threads", 64);
  body.set("config", "HBM");

  const ServiceResponse first = service_.handle("POST", "/whatif", body);
  ASSERT_EQ(first.status, 200) << first.body.dump(0);
  EXPECT_FALSE(first.body.find("cache_hit")->as_bool(true));

  // Uncached ground truth straight from the machine model.
  const Machine machine{MachineConfig::knl7210()};
  const auto workload =
      workloads::find_workload("STREAM").make(512ull << 20);
  const RunResult direct =
      machine.run(workload->profile(), RunConfig{MemConfig::HBM, 64, 0.0});
  const Value* result = first.body.find("result");
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(result->find("seconds")->as_number(), direct.seconds);
  EXPECT_EQ(result->find("achieved_bw_gbs")->as_number(), direct.achieved_bw_gbs);

  // The cached second answer is bit-identical except the cache_hit flag.
  const ServiceResponse second = service_.handle("POST", "/whatif", body);
  ASSERT_EQ(second.status, 200);
  EXPECT_TRUE(second.body.find("cache_hit")->as_bool(false));
  EXPECT_EQ(second.body.find("result")->dump(0), first.body.find("result")->dump(0));
}

TEST_F(ServiceTest, WhatifUnknownWorkloadIs400) {
  Value body = Value::object();
  body.set("workload", "NOPE");
  body.set("bytes", 1024.0);
  const ServiceResponse r = service_.handle("POST", "/whatif", body);
  EXPECT_EQ(r.status, 400);
  EXPECT_EQ(error_of(r)->find("code")->as_string(), "service/unknown-workload");
}

TEST_F(ServiceTest, SweepOverSizesReturnsFigureAndStats) {
  Value body = Value::object();
  body.set("workload", "STREAM");
  body.set("threads", 64);
  Value sizes = Value::array();
  sizes.push_back(256.0 * (1ull << 20));
  sizes.push_back(512.0 * (1ull << 20));
  body.set("sizes_bytes", std::move(sizes));
  const ServiceResponse r = service_.handle("POST", "/sweep", body);
  ASSERT_EQ(r.status, 200) << r.body.dump(0);
  const Value* figure = r.body.find("figure");
  ASSERT_NE(figure, nullptr);
  EXPECT_EQ(figure->find("series")->as_array().size(), 3u);  // all configs
  EXPECT_EQ(static_cast<int>(r.body.find("stats")->find("cells")->as_number()), 6);
}

TEST_F(ServiceTest, SweepRequiresExactlyOneAxis) {
  Value body = Value::object();
  body.set("workload", "STREAM");
  EXPECT_EQ(service_.handle("POST", "/sweep", body).status, 400);
  Value sizes = Value::array();
  sizes.push_back(1024.0);
  body.set("sizes_bytes", sizes);
  Value threads = Value::array();
  threads.push_back(64);
  body.set("thread_counts", threads);
  EXPECT_EQ(service_.handle("POST", "/sweep", body).status, 400);
}

TEST_F(ServiceTest, OversizedSweepGridIs400) {
  PlacementService tight{ServiceOptions{.workers = 1, .max_sweep_cells = 4}};
  Value body = Value::object();
  body.set("workload", "STREAM");
  body.set("threads", 64);
  Value sizes = Value::array();
  sizes.push_back(256.0 * (1ull << 20));
  sizes.push_back(512.0 * (1ull << 20));
  body.set("sizes_bytes", std::move(sizes));  // 2 sizes x 3 configs = 6 > 4
  const ServiceResponse r = tight.handle("POST", "/sweep", body);
  EXPECT_EQ(r.status, 400);
  EXPECT_EQ(error_of(r)->find("code")->as_string(), "service/grid-too-large");
}

TEST_F(ServiceTest, LoadSheddingRejectsWith429AndRetryAfter) {
  PlacementService shedding{
      ServiceOptions{.workers = 1, .max_inflight = 0, .retry_after_ms = 77}};
  Value body = Value::object();
  body.set("footprint_bytes", 1024.0);
  const ServiceResponse r = shedding.handle("POST", "/placement", body);
  EXPECT_EQ(r.status, 429);
  EXPECT_EQ(error_of(r)->find("category")->as_string(), "resource");
  // Adaptive retry: the hint scales up from the configured base with queue
  // depth (max_inflight = 0 reads as a saturated admission window).
  EXPECT_GE(static_cast<int>(error_of(r)->find("retry_after_ms")->as_number()), 77);
  // max_inflight = 0 also reads as a 100% queue to the brownout monitor,
  // so the advertised health state is "shedding" here.
  EXPECT_EQ(error_of(r)->find("health")->as_string(), "shedding");
  EXPECT_EQ(shedding.counters().shed, 1u);
  EXPECT_EQ(shedding.counters().errors, 0u);
  // GETs bypass shedding: health stays answerable at capacity.
  EXPECT_EQ(shedding.handle("GET", "/healthz", Value()).status, 200);
  EXPECT_EQ(shedding.handle("GET", "/stats", Value()).status, 200);
}

TEST_F(ServiceTest, StatsExposesCacheCountersAndGauges) {
  Value body = Value::object();
  body.set("workload", "GUPS");
  body.set("bytes", 256.0 * (1ull << 20));
  body.set("threads", 64);
  ASSERT_EQ(service_.handle("POST", "/whatif", body).status, 200);
  ASSERT_EQ(service_.handle("POST", "/whatif", body).status, 200);

  const ServiceResponse r = service_.handle("GET", "/stats", Value());
  ASSERT_EQ(r.status, 200);
  const Value* cache = r.body.find("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_GE(cache->find("hits")->as_number(), 1.0);
  EXPECT_GE(cache->find("misses")->as_number(), 1.0);
  EXPECT_GT(cache->find("hit_rate")->as_number(), 0.0);
  const Value* requests = r.body.find("requests");
  ASSERT_NE(requests, nullptr);
  EXPECT_EQ(static_cast<int>(requests->find("whatif")->as_number()), 2);
  EXPECT_EQ(static_cast<int>(r.body.find("inflight")->as_number()), 0);
}

TEST_F(ServiceTest, SweepOverCapacitiesDerivesCellsFromOnePass) {
  Value body = Value::object();
  body.set("workload", "STREAM");
  body.set("bytes", 1.0 * (1ull << 20));
  body.set("threads", 64);
  body.set("cache_sets", 64);
  Value capacities = Value::array();
  for (const double ways : {1.0, 2.0, 3.0, 8.0}) {
    capacities.push_back(ways * 64 * 64);
  }
  body.set("capacities_bytes", capacities);

  const ServiceResponse fast = service_.handle("POST", "/sweep", body);
  ASSERT_EQ(fast.status, 200) << fast.body.dump(0);
  const Value* cells = fast.body.find("cells");
  ASSERT_NE(cells, nullptr);
  ASSERT_EQ(cells->as_array().size(), 4u);
  for (const Value& cell : cells->as_array()) {
    EXPECT_TRUE(cell.find("profile_hit")->as_bool(false));
    const double hit_rate = cell.find("hit_rate")->as_number();
    EXPECT_GE(hit_rate, 0.0);
    EXPECT_LE(hit_rate, 1.0);
    EXPECT_GT(cell.find("effective_bw_gbs")->as_number(), 0.0);
  }
  const Value* stats = fast.body.find("stats");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(static_cast<int>(stats->find("profile_passes")->as_number()), 1);
  EXPECT_EQ(static_cast<int>(stats->find("cells_derived")->as_number()), 4);
  EXPECT_EQ(fast.body.find("figure")->find("series")->as_array().size(), 2u);

  // The exact per-cell reference (single_pass=false) answers identically.
  body.set("single_pass", false);
  const ServiceResponse exact = service_.handle("POST", "/sweep", body);
  ASSERT_EQ(exact.status, 200) << exact.body.dump(0);
  const Value* reference = exact.body.find("cells");
  ASSERT_EQ(reference->as_array().size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    const Value& a = cells->as_array()[i];
    const Value& b = reference->as_array()[i];
    EXPECT_FALSE(b.find("profile_hit")->as_bool(true)) << "cell " << i;
    EXPECT_EQ(a.find("hit_rate")->as_number(), b.find("hit_rate")->as_number())
        << "cell " << i;
    EXPECT_EQ(a.find("effective_bw_gbs")->as_number(),
              b.find("effective_bw_gbs")->as_number())
        << "cell " << i;
    EXPECT_EQ(a.find("seconds")->as_number(), b.find("seconds")->as_number())
        << "cell " << i;
  }
  EXPECT_EQ(static_cast<int>(
                exact.body.find("stats")->find("cells_derived")->as_number()),
            0);
}

TEST_F(ServiceTest, SweepCapacityModeValidation) {
  Value body = Value::object();
  body.set("workload", "STREAM");
  body.set("bytes", 1.0 * (1ull << 20));
  Value capacities = Value::array();
  capacities.push_back(64.0 * 64);
  body.set("capacities_bytes", capacities);
  body.set("cache_sets", 64);

  // capacities_bytes is an axis: combining it with sizes_bytes is ambiguous.
  Value both_axes = body;
  Value sizes = Value::array();
  sizes.push_back(256.0 * (1ull << 20));
  both_axes.set("sizes_bytes", std::move(sizes));
  EXPECT_EQ(service_.handle("POST", "/sweep", both_axes).status, 400);
  ASSERT_EQ(service_.handle("POST", "/sweep", body).status, 200);

  // Geometry errors are client errors, not simulator aborts.
  body.set("cache_line_bytes", 100);  // not a power of two
  const ServiceResponse bad_line = service_.handle("POST", "/sweep", body);
  EXPECT_EQ(bad_line.status, 400);
  EXPECT_EQ(error_of(bad_line)->find("category")->as_string(), "corrupt-input");
  body.set("cache_line_bytes", 64);

  Value misaligned = Value::array();
  misaligned.push_back(64.0 * 64 + 1);  // not a multiple of line*sets
  body.set("capacities_bytes", std::move(misaligned));
  EXPECT_EQ(service_.handle("POST", "/sweep", body).status, 400);
}

TEST_F(ServiceTest, WhatifCapacityOverrideHitsProfileAcrossQueries) {
  Value body = Value::object();
  body.set("workload", "GUPS");
  body.set("bytes", 1.0 * (1ull << 20));
  body.set("threads", 64);
  body.set("config", "CACHE");
  body.set("cache_sets", 64);
  body.set("mcdram_capacity_bytes", 4.0 * 64 * 64);

  const ServiceResponse first = service_.handle("POST", "/whatif", body);
  ASSERT_EQ(first.status, 200) << first.body.dump(0);
  const Value* whatif = first.body.find("capacity_whatif");
  ASSERT_NE(whatif, nullptr);
  EXPECT_EQ(static_cast<int>(whatif->find("ways")->as_number()), 4);
  EXPECT_TRUE(whatif->find("profile_hit")->as_bool(false));
  EXPECT_EQ(static_cast<int>(
                whatif->find("stats")->find("profile_passes")->as_number()),
            1);

  // A different capacity at the same (trace, machine, threads, geometry)
  // fingerprint reuses the cached profile: no second profiling pass.
  body.set("mcdram_capacity_bytes", 8.0 * 64 * 64);
  const ServiceResponse second = service_.handle("POST", "/whatif", body);
  ASSERT_EQ(second.status, 200) << second.body.dump(0);
  const Value* again = second.body.find("capacity_whatif");
  ASSERT_NE(again, nullptr);
  EXPECT_EQ(static_cast<int>(again->find("ways")->as_number()), 8);
  EXPECT_EQ(static_cast<int>(
                again->find("stats")->find("profile_passes")->as_number()),
            0);
  EXPECT_EQ(static_cast<int>(
                again->find("stats")->find("profile_hits")->as_number()),
            1);
  EXPECT_GE(again->find("hit_rate")->as_number(),
            whatif->find("hit_rate")->as_number());
}

TEST_F(ServiceTest, StatsExposesProfileCacheCounters) {
  const ServiceResponse r = service_.handle("GET", "/stats", Value());
  ASSERT_EQ(r.status, 200);
  const Value* cache = r.body.find("cache");
  ASSERT_NE(cache, nullptr);
  for (const char* key : {"profile_hits", "profile_misses", "profile_inserts",
                          "profile_evictions", "profile_coalesced",
                          "profile_entries"}) {
    const Value* counter = cache->find(key);
    ASSERT_NE(counter, nullptr) << key;
    EXPECT_GE(counter->as_number(), 0.0) << key;
  }
  EXPECT_EQ(static_cast<int>(cache->find("profile_capacity")->as_number()),
            static_cast<int>(report::SweepCache::kDefaultProfileCapacity));
}

TEST_F(ServiceTest, StatsExposesPerMachineTopologies) {
  const ServiceResponse r = service_.handle("GET", "/stats", Value());
  ASSERT_EQ(r.status, 200);
  const Value* machines = r.body.find("machines");
  ASSERT_NE(machines, nullptr);
  EXPECT_EQ(machines->as_array().size(), 6u);
  bool saw_nvm = false;
  for (const Value& entry : machines->as_array()) {
    ASSERT_NE(entry.find("machine"), nullptr);
    ASSERT_NE(entry.find("fingerprint"), nullptr);
    EXPECT_EQ(entry.find("fingerprint")->as_string().size(), 16u);
    EXPECT_GE(entry.find("tiers")->as_number(), 2.0);
    EXPECT_FALSE(entry.find("tier_names")->as_string().empty());
    if (entry.find("machine")->as_string() == "knl_nvm") {
      saw_nvm = true;
      EXPECT_EQ(static_cast<int>(entry.find("tiers")->as_number()), 3);
      EXPECT_EQ(entry.find("tier_names")->as_string(), "MCDRAM,DDR4,NVM");
      EXPECT_EQ(entry.find("tier_detail")->as_array().size(), 3u);
    }
  }
  EXPECT_TRUE(saw_nvm);
}

TEST_F(ServiceTest, WhatifReportsTheMachineTopology) {
  Value body = Value::object();
  body.set("workload", "STREAM");
  body.set("bytes", 256.0 * (1ull << 20));
  body.set("threads", 64);
  body.set("machine", "xeonmax");
  const ServiceResponse r = service_.handle("POST", "/whatif", body);
  ASSERT_EQ(r.status, 200) << r.body.dump(0);
  const Value* topology = r.body.find("topology");
  ASSERT_NE(topology, nullptr);
  EXPECT_EQ(topology->find("name")->as_string(), "xeonmax");
  EXPECT_EQ(topology->find("tier_names")->as_string(), "HBM2e,DDR5");
  EXPECT_EQ(static_cast<int>(topology->find("tiers")->as_number()), 2);
  const Value* detail = topology->find("tier_detail");
  ASSERT_NE(detail, nullptr);
  ASSERT_EQ(detail->as_array().size(), 2u);
  EXPECT_EQ(detail->as_array()[0].find("kind")->as_string(), "hbm");
  EXPECT_EQ(detail->as_array()[0].find("backing")->as_string(), "DDR5");
  EXPECT_TRUE(detail->as_array()[0].find("cache_front")->as_bool(false));
}

TEST_F(ServiceTest, SweepWithAutoCapacitiesDerivesTheAxisFromTheTopology) {
  Value body = Value::object();
  body.set("workload", "STREAM");
  body.set("bytes", 1.0 * (1ull << 20));
  body.set("threads", 64);
  body.set("cache_sets", 64);
  body.set("capacities_bytes", "auto");
  const ServiceResponse r = service_.handle("POST", "/sweep", body);
  ASSERT_EQ(r.status, 200) << r.body.dump(0);
  const Value* cells = r.body.find("cells");
  ASSERT_NE(cells, nullptr);
  EXPECT_EQ(cells->as_array().size(), 8u);  // default 8-point axis
  // The top cell is the full MCDRAM capacity of the default machine.
  const Value& last = cells->as_array().back();
  EXPECT_EQ(last.find("capacity_bytes")->as_number(), 16.0 * (1ull << 30));
  ASSERT_NE(r.body.find("topology"), nullptr);
  EXPECT_EQ(r.body.find("topology")->find("name")->as_string(), "knl7210");
}

TEST_F(ServiceTest, StatsExposesReplayTelemetry) {
  const ServiceResponse r = service_.handle("GET", "/stats", Value());
  ASSERT_EQ(r.status, 200);
  const Value* replay = r.body.find("replay");
  ASSERT_NE(replay, nullptr);
  // The SIMD level is resolved at dispatch and must be one of the names the
  // module can report.
  const std::string level = replay->find("simd_level")->as_string();
  EXPECT_TRUE(level == "scalar" || level == "sse2" || level == "avx2") << level;
}

}  // namespace
}  // namespace knl::service
