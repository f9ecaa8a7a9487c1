// The service's query-slot gate: POST queries run on the calling thread, at
// most `workers` of them at once. A query that waited out its budget for a
// slot answers 504, concurrent callers get the answers a serial caller gets,
// and the slot bound holds under contention.
//
// Slow queries are made deterministic with a fault plan instead of sleeps
// tuned to the host: every sweep cell fails all of its retry attempts, so a
// sweep holds its slot for at least the sum of its retry backoffs — a pure
// function of the retry policy and the cell indices.
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/fault/deadline.hpp"
#include "core/fault/fault_injection.hpp"
#include "core/fault/retry.hpp"
#include "report/sweep.hpp"
#include "service/service.hpp"

namespace knl::service {
namespace {

using repro::json::Value;

/// Every sweep cell fails every try: each cell sleeps all its backoffs.
constexpr const char* kSlowCellsPlan = "seed=1;site=sweep-cell,every=1,attempts=100000";

/// A thread sweep of 2 * `thread_counts` cells (DRAM and HBM per count).
Value slow_sweep_body(int thread_counts, double bytes) {
  Value body = Value::object();
  body.set("workload", "STREAM");
  body.set("bytes", bytes);
  Value threads = Value::array();
  for (int t = 1; t <= thread_counts; ++t) threads.push_back(t);
  body.set("thread_counts", std::move(threads));
  Value configs = Value::array();
  configs.push_back("DRAM");
  configs.push_back("HBM");
  body.set("configs", std::move(configs));
  return body;
}

/// Least wall time a slow sweep of `cells` cells holds its slot: the retry
/// backoffs between its failing tries (sleep_for never returns early).
double slot_hold_floor_ms(std::size_t cells) {
  const fault::RetryPolicy policy = report::SweepOptions{}.retry;
  double total = 0.0;
  for (std::size_t cell = 0; cell < cells; ++cell) {
    for (int attempt = 1; attempt < policy.max_attempts; ++attempt) {
      total += fault::backoff_delay_ms(policy, attempt, cell);
    }
  }
  return total;
}

Value placement_body(double footprint_bytes) {
  Value body = Value::object();
  body.set("footprint_bytes", footprint_bytes);
  body.set("regular_fraction", 0.5);
  return body;
}

class ServiceSlotGateTest : public ::testing::Test {
 protected:
  void SetUp() override { report::SweepCache::instance().clear(); }
  void TearDown() override { report::SweepCache::instance().clear(); }

  /// Start a slow sweep on its own thread and return once it holds a slot
  /// (its first injected fault has fired), then send a /placement whose
  /// budget is far shorter than the sweep's remaining backoff sleeps.
  static ServiceResponse placement_while_a_sweep_holds_a_slot(PlacementService& service) {
    constexpr int kThreadCounts = 32;  // 64 cells
    constexpr double kBudgetMs = 50.0;
    EXPECT_GT(slot_hold_floor_ms(2 * kThreadCounts), 2.0 * kBudgetMs);

    const fault::ScopedFaultPlan plan(fault::FaultPlan::parse(kSlowCellsPlan));
    ServiceResponse sweep;
    std::atomic<bool> swept{false};
    std::thread holder([&] {
      sweep = service.handle("POST", "/sweep",
                             slow_sweep_body(kThreadCounts, 64.0 * (1 << 20)));
      swept = true;
    });
    while (fault::FaultInjector::instance().injected() == 0 && !swept) {
      std::this_thread::yield();
    }
    const ServiceResponse probe =
        service.handle("POST", "/placement", placement_body(1 << 30), kBudgetMs);
    holder.join();
    // The holder's cells all failed, but the sweep itself answered.
    EXPECT_EQ(sweep.status, 200) << sweep.body.dump(0);
    EXPECT_NE(sweep.body.find("failures"), nullptr);
    return probe;
  }
};

TEST_F(ServiceSlotGateTest, BudgetSpentWaitingForTheOnlySlotAnswers504) {
  PlacementService service{ServiceOptions{.workers = 1}};
  const ServiceResponse r = placement_while_a_sweep_holds_a_slot(service);
  ASSERT_EQ(r.status, 504) << r.body.dump(0);
  const Value* error = r.body.find("error");
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->find("code")->as_string(), kDeadlineExceededCode);
  EXPECT_NE(error->find("message")->as_string().find("slot"), std::string::npos)
      << error->find("message")->as_string();
  EXPECT_EQ(service.counters().deadline_exceeded, 1u);
  EXPECT_EQ(service.counters().inflight, 0u);
}

TEST_F(ServiceSlotGateTest, SecondSlotAnswersTheSameRequestInTime) {
  PlacementService service{ServiceOptions{.workers = 2}};
  const ServiceResponse r = placement_while_a_sweep_holds_a_slot(service);
  EXPECT_EQ(r.status, 200) << r.body.dump(0);
  EXPECT_EQ(service.counters().deadline_exceeded, 0u);
}

TEST_F(ServiceSlotGateTest, ConcurrentCallersGetTheSerialAnswers) {
  constexpr int kCallers = 8;
  constexpr int kQueriesPerCaller = 24;
  const auto footprint = [](int caller, int query) {
    return static_cast<double>((1 + (caller * kQueriesPerCaller + query) % 37) << 24);
  };
  const auto whatif = [](int query) {
    Value body = Value::object();
    body.set("workload", query % 2 == 0 ? "STREAM" : "GUPS");
    body.set("bytes", static_cast<double>((1 + query % 5) << 26));
    body.set("config", "HBM");
    return body;
  };

  // The reference answers, from one caller on one slot.
  PlacementService serial{ServiceOptions{.workers = 1}};
  std::vector<std::string> expected_placement(kCallers * kQueriesPerCaller);
  std::vector<std::string> expected_whatif(kQueriesPerCaller);
  for (int c = 0; c < kCallers; ++c) {
    for (int q = 0; q < kQueriesPerCaller; ++q) {
      const ServiceResponse r =
          serial.handle("POST", "/placement", placement_body(footprint(c, q)));
      ASSERT_EQ(r.status, 200) << r.body.dump(0);
      expected_placement[static_cast<std::size_t>(c * kQueriesPerCaller + q)] =
          r.body.dump(0);
    }
  }
  for (int q = 0; q < kQueriesPerCaller; ++q) {
    const ServiceResponse r = serial.handle("POST", "/whatif", whatif(q));
    ASSERT_EQ(r.status, 200) << r.body.dump(0);
    expected_whatif[static_cast<std::size_t>(q)] = r.body.find("result")->dump(0);
  }
  report::SweepCache::instance().clear();

  PlacementService service{ServiceOptions{.workers = 2}};
  std::vector<int> mismatches(kCallers, 0);
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (int q = 0; q < kQueriesPerCaller; ++q) {
        const ServiceResponse p =
            service.handle("POST", "/placement", placement_body(footprint(c, q)));
        if (p.status != 200 ||
            p.body.dump(0) !=
                expected_placement[static_cast<std::size_t>(c * kQueriesPerCaller + q)]) {
          ++mismatches[static_cast<std::size_t>(c)];
        }
        const ServiceResponse w = service.handle("POST", "/whatif", whatif(q));
        if (w.status != 200 || w.body.find("result")->dump(0) !=
                                   expected_whatif[static_cast<std::size_t>(q)]) {
          ++mismatches[static_cast<std::size_t>(c)];
        }
      }
    });
  }
  for (std::thread& t : callers) t.join();
  for (int c = 0; c < kCallers; ++c) EXPECT_EQ(mismatches[static_cast<std::size_t>(c)], 0);
  const ServiceCounters counters = service.counters();
  EXPECT_EQ(counters.placement, static_cast<std::uint64_t>(kCallers * kQueriesPerCaller));
  EXPECT_EQ(counters.whatif, static_cast<std::uint64_t>(kCallers * kQueriesPerCaller));
  EXPECT_EQ(counters.errors, 0u);
  EXPECT_EQ(counters.inflight, 0u);
}

TEST_F(ServiceSlotGateTest, AtMostWorkersQueriesComputeAtOnce) {
  // Three slow sweeps on two slots: the third can only start computing once
  // one of the first two has released its slot, so the three together take
  // at least two slot holds. Unbounded, they would overlap in about one.
  constexpr int kThreadCounts = 8;  // 16 cells per sweep
  constexpr int kSweeps = 3;
  const double floor_ms = slot_hold_floor_ms(2 * kThreadCounts);

  PlacementService service{ServiceOptions{.workers = 2}};
  const fault::ScopedFaultPlan plan(fault::FaultPlan::parse(kSlowCellsPlan));
  std::vector<ServiceResponse> responses(kSweeps);
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> callers;
  for (int i = 0; i < kSweeps; ++i) {
    callers.emplace_back([&, i] {
      responses[static_cast<std::size_t>(i)] = service.handle(
          "POST", "/sweep", slow_sweep_body(kThreadCounts, (32.0 + i) * (1 << 20)));
    });
  }
  for (std::thread& t : callers) t.join();
  const std::chrono::duration<double, std::milli> elapsed =
      std::chrono::steady_clock::now() - start;

  for (const ServiceResponse& r : responses) EXPECT_EQ(r.status, 200) << r.body.dump(0);
  EXPECT_GE(elapsed.count(), 2.0 * floor_ms)
      << "three sweeps overlapped on two slots (one hold is at least " << floor_ms
      << " ms)";
  EXPECT_EQ(service.counters().inflight, 0u);
}

}  // namespace
}  // namespace knl::service
