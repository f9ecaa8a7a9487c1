// The brownout state machine: escalation on p99 and queue depth,
// hysteresis + dwell on the way back down, window probation, and the
// service-level consequences — Degraded answers /sweep cache-only with a
// coarsened "auto" axis, Shedding rejects POST queries with 429
// service/brownout, and both /healthz and /stats expose the state.
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "report/sweep.hpp"
#include "service/health.hpp"
#include "service/service.hpp"

namespace knl::service {
namespace {

using repro::json::Value;

/// Tiny window, no dwell: transitions happen on the first qualifying sample.
HealthOptions fast_options() {
  HealthOptions options;
  options.window = 8;
  options.min_samples = 4;
  options.degraded_p99_ms = 100.0;
  options.shedding_p99_ms = 400.0;
  options.min_dwell_ms = 0.0;
  return options;
}

TEST(HealthMonitorTest, ColdMonitorIsHealthyAndAbstainsOnFewSamples) {
  HealthMonitor monitor(fast_options());
  EXPECT_EQ(monitor.state(), HealthState::Healthy);
  // Three slow samples are below min_samples: the latency signal abstains.
  for (int i = 0; i < 3; ++i) monitor.record(1e6, 0, 1024);
  EXPECT_EQ(monitor.state(), HealthState::Healthy);
}

TEST(HealthMonitorTest, SlowP99EscalatesToDegradedThenShedding) {
  // min_samples 1: every transition resets the window (probation), so the
  // latency signal must re-engage on the first post-transition sample for
  // a deterministic single-threaded walk up the states.
  HealthOptions options = fast_options();
  options.min_samples = 1;
  HealthMonitor monitor(options);
  for (int i = 0; i < 4; ++i) monitor.record(200.0, 0, 1024);
  EXPECT_EQ(monitor.state(), HealthState::Degraded);
  for (int i = 0; i < 4; ++i) monitor.record(500.0, 0, 1024);
  EXPECT_EQ(monitor.state(), HealthState::Shedding);
}

TEST(HealthMonitorTest, QueueDepthEscalatesWithoutAnyLatencySamples) {
  HealthMonitor monitor(fast_options());
  monitor.note_queue(600, 1024);  // 0.59 >= degraded_queue_fraction 0.50
  EXPECT_EQ(monitor.state(), HealthState::Degraded);
  monitor.note_queue(1000, 1024);  // 0.98 >= shedding_queue_fraction 0.90
  EXPECT_EQ(monitor.state(), HealthState::Shedding);
}

TEST(HealthMonitorTest, RecoveryNeedsHysteresisAndStepsDownOneLevel) {
  HealthOptions options = fast_options();
  options.min_samples = 1;
  HealthMonitor monitor(options);
  for (int i = 0; i < 4; ++i) monitor.record(500.0, 0, 1024);
  ASSERT_EQ(monitor.state(), HealthState::Shedding);

  // Fast again, but only just below the degraded threshold. A full window
  // of 80 ms samples (flushing the 500s out of the ring) clears the
  // Shedding recovery band (80 < 400 * 0.7) but not the Degraded one
  // (80 >= 100 * 0.7), so recovery steps down exactly one level and stalls.
  for (int i = 0; i < 8; ++i) monitor.record(80.0, 0, 1024);
  EXPECT_EQ(monitor.state(), HealthState::Degraded);
  for (int i = 0; i < 8; ++i) monitor.record(80.0, 0, 1024);
  EXPECT_EQ(monitor.state(), HealthState::Degraded);

  // Genuinely fast traffic clears the hysteresis band and recovers fully.
  for (int i = 0; i < 8; ++i) monitor.record(1.0, 0, 1024);
  EXPECT_EQ(monitor.state(), HealthState::Healthy);
}

TEST(HealthMonitorTest, DwellBlocksImmediateRecovery) {
  HealthOptions options = fast_options();
  options.min_dwell_ms = 60000.0;  // nothing de-escalates within this test
  HealthMonitor monitor(options);
  for (int i = 0; i < 4; ++i) monitor.record(200.0, 0, 1024);
  ASSERT_EQ(monitor.state(), HealthState::Degraded);
  for (int i = 0; i < 8; ++i) monitor.record(1.0, 0, 1024);
  // Escalation ignores dwell; de-escalation must wait it out.
  EXPECT_EQ(monitor.state(), HealthState::Degraded);
}

TEST(HealthMonitorTest, TransitionsAreLoggedAndCounted) {
  HealthMonitor monitor(fast_options());
  std::vector<std::string> log;
  monitor.set_transition_log(
      [&](HealthState from, HealthState to, const std::string& why) {
        log.push_back(std::string(to_string(from)) + "->" + to_string(to) + ": " +
                      why);
      });
  for (int i = 0; i < 4; ++i) monitor.record(200.0, 0, 1024);
  ASSERT_EQ(log.size(), 1u);
  EXPECT_NE(log[0].find("healthy->degraded"), std::string::npos) << log[0];
  EXPECT_EQ(monitor.snapshot().transitions, 1u);
}

TEST(HealthMonitorTest, EmptyWindowHasZeroP99EvenWithoutMinSamples) {
  // min_samples 0 lets the latency signal speak on an empty window: the
  // first note_queue() and the first evaluation after a transition's window
  // reset must read p99 as 0, not index past the empty window.
  HealthOptions options = fast_options();
  options.min_samples = 0;
  HealthMonitor monitor(options);
  monitor.note_queue(0, 1024);
  EXPECT_EQ(monitor.state(), HealthState::Healthy);
  EXPECT_EQ(monitor.snapshot().p99_ms, 0.0);

  monitor.note_queue(600, 1024);  // queue escalation resets the window
  EXPECT_EQ(monitor.state(), HealthState::Degraded);
  EXPECT_EQ(monitor.snapshot().samples, 0u);
  EXPECT_EQ(monitor.snapshot().p99_ms, 0.0);
  monitor.note_queue(0, 1024);
  EXPECT_EQ(monitor.state(), HealthState::Healthy);
}

TEST(HealthMonitorTest, ForcedStatePinsUntilReleased) {
  HealthMonitor monitor(fast_options());
  monitor.force_state_for_testing(HealthState::Shedding);
  for (int i = 0; i < 8; ++i) monitor.record(1.0, 0, 1024);
  EXPECT_EQ(monitor.state(), HealthState::Shedding);
  monitor.force_state_for_testing(HealthState::Healthy, /*pin=*/false);
  EXPECT_EQ(monitor.state(), HealthState::Healthy);
}

// ---------------------------------------------------------------------------
// Service-level consequences of each state
// ---------------------------------------------------------------------------

class ServiceHealthTest : public ::testing::Test {
 protected:
  void SetUp() override {
    report::SweepCache::instance().clear();
    report::SweepCache::instance().reset_stats();
  }
  void TearDown() override { report::SweepCache::instance().clear(); }

  static Value whatif_body() {
    Value body = Value::object();
    body.set("workload", "STREAM");
    body.set("bytes", 256.0 * (1ull << 20));
    body.set("threads", 64);
    body.set("config", "HBM");
    return body;
  }

  static Value thread_sweep_body() {
    Value body = Value::object();
    body.set("workload", "STREAM");
    body.set("bytes", 128.0 * (1ull << 20));
    Value threads = Value::array();
    threads.push_back(1);
    threads.push_back(2);
    body.set("thread_counts", std::move(threads));
    return body;
  }

  PlacementService service_{ServiceOptions{.workers = 2}};
};

TEST_F(ServiceHealthTest, SheddingRejectsPostsWith429Brownout) {
  service_.health().force_state_for_testing(HealthState::Shedding);
  const ServiceResponse r = service_.handle("POST", "/whatif", whatif_body());
  EXPECT_EQ(r.status, 429) << r.body.dump(0);
  const Value* error = r.body.find("error");
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->find("code")->as_string(), "service/brownout");
  EXPECT_EQ(error->find("health")->as_string(), "shedding");
  EXPECT_GE(error->find("retry_after_ms")->as_number(), 1.0);
  EXPECT_EQ(service_.counters().brownout, 1u);

  // Reads stay up throughout: brownout sheds work, not observability.
  EXPECT_EQ(service_.handle("GET", "/healthz", Value()).status, 200);
  EXPECT_EQ(service_.handle("GET", "/stats", Value()).status, 200);
}

TEST_F(ServiceHealthTest, DegradedServesCachedSweepAndFailsColdCells) {
  // Warm the cache with a healthy run of the exact same sweep.
  const ServiceResponse warm =
      service_.handle("POST", "/sweep", thread_sweep_body());
  ASSERT_EQ(warm.status, 200) << warm.body.dump(0);

  service_.health().force_state_for_testing(HealthState::Degraded);

  // The warmed grid still answers — from residency alone.
  const ServiceResponse cached =
      service_.handle("POST", "/sweep", thread_sweep_body());
  ASSERT_EQ(cached.status, 200) << cached.body.dump(0);
  EXPECT_TRUE(cached.body.find("served_degraded")->as_bool(false));
  const Value* stats = cached.body.find("stats");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->find("evaluated")->as_number(), 0.0);
  EXPECT_GT(stats->find("cache_hits")->as_number(), 0.0);

  // A cold grid fails fast per cell instead of simulating.
  Value cold = thread_sweep_body();
  cold.set("bytes", 64.0 * (1ull << 20));
  const ServiceResponse miss = service_.handle("POST", "/sweep", cold);
  ASSERT_EQ(miss.status, 200) << miss.body.dump(0);
  const Value* failures = miss.body.find("failures");
  ASSERT_NE(failures, nullptr);
  EXPECT_FALSE(failures->as_array().empty());
  EXPECT_NE(failures->as_array()[0].find("message")->as_string().find("cache-only"),
            std::string::npos);
  EXPECT_EQ(miss.body.find("stats")->find("evaluated")->as_number(), 0.0);
}

TEST_F(ServiceHealthTest, DegradedCoarsensTheAutoCapacityAxis) {
  Value body = Value::object();
  body.set("workload", "STREAM");
  body.set("bytes", 256.0 * (1ull << 20));
  body.set("threads", 64);
  body.set("capacities_bytes", "auto");

  // Healthy: the full 8-point axis, which also warms the reuse profile.
  const ServiceResponse full = service_.handle("POST", "/sweep", body);
  ASSERT_EQ(full.status, 200) << full.body.dump(0);
  const std::size_t full_cells =
      static_cast<std::size_t>(full.body.find("stats")->find("cells")->as_number());
  EXPECT_EQ(full_cells, 8u);

  // Degraded: half the axis, answered from the resident profile.
  service_.health().force_state_for_testing(HealthState::Degraded);
  const ServiceResponse coarse = service_.handle("POST", "/sweep", body);
  ASSERT_EQ(coarse.status, 200) << coarse.body.dump(0);
  EXPECT_EQ(coarse.body.find("stats")->find("cells")->as_number(), 4.0);
  EXPECT_TRUE(coarse.body.find("served_degraded")->as_bool(false));
  const Value* failures = coarse.body.find("failures");
  EXPECT_TRUE(failures == nullptr || failures->as_array().empty())
      << coarse.body.dump(0);
}

TEST_F(ServiceHealthTest, HealthzAndStatsExposeTheState) {
  service_.health().force_state_for_testing(HealthState::Degraded);
  const ServiceResponse healthz = service_.handle("GET", "/healthz", Value());
  ASSERT_EQ(healthz.status, 200);
  EXPECT_EQ(healthz.body.find("status")->as_string(), "degraded");
  EXPECT_EQ(healthz.body.find("health")->find("state")->as_string(), "degraded");

  const ServiceResponse stats = service_.handle("GET", "/stats", Value());
  ASSERT_EQ(stats.status, 200);
  const Value* health = stats.body.find("health");
  ASSERT_NE(health, nullptr);
  EXPECT_EQ(health->find("state")->as_string(), "degraded");
  EXPECT_NE(health->find("rolling_p99_ms"), nullptr);
  EXPECT_NE(health->find("transitions"), nullptr);
}

TEST_F(ServiceHealthTest, QueueDepthEscalatesWithoutEnoughLatencySamples) {
  // max_inflight 1: the one admitted request completes at queue fraction
  // 1.0 >= shedding_queue_fraction, so one completion — far below the
  // latency signal's min_samples — escalates straight to Shedding.
  PlacementService service{ServiceOptions{.workers = 1, .max_inflight = 1}};
  (void)service.handle("POST", "/whatif", whatif_body());
  EXPECT_EQ(service.health().state(), HealthState::Shedding);
}

}  // namespace
}  // namespace knl::service
