// Request deadlines end to end: the Deadline primitive itself, its
// propagation into the sweep engine (cells fail fast with partial
// progress), and the service layer's admission/query-slot checks mapping
// to 504 with the taxonomy code.
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "core/fault/deadline.hpp"
#include "core/fault/error.hpp"
#include "core/machine.hpp"
#include "report/sweep.hpp"
#include "service/service.hpp"
#include "workloads/registry.hpp"

namespace knl {
namespace {

using repro::json::Value;
using service::PlacementService;
using service::ServiceOptions;
using service::ServiceResponse;

TEST(DeadlineTest, UnboundedByDefault) {
  const Deadline deadline;
  EXPECT_FALSE(deadline.bounded());
  EXPECT_FALSE(deadline.expired());
  EXPECT_EQ(deadline.remaining_ms(),
            std::numeric_limits<double>::infinity());
  deadline.check("anything");  // must not throw
}

TEST(DeadlineTest, NonPositiveBudgetIsAlreadyExpired) {
  EXPECT_TRUE(Deadline::after_ms(0.0).expired());
  EXPECT_TRUE(Deadline::after_ms(-5.0).expired());
  EXPECT_EQ(Deadline::after_ms(-5.0).remaining_ms(), 0.0);
}

TEST(DeadlineTest, CheckThrowsResourceWithTheStableCode) {
  const Deadline deadline = Deadline::after_ms(0.0);
  try {
    deadline.check("sweep cell 12/64");
    FAIL() << "check() must throw once expired";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::Resource);
    EXPECT_EQ(e.code(), kDeadlineExceededCode);
    EXPECT_NE(std::string(e.what()).find("sweep cell 12/64"), std::string::npos);
  }
}

TEST(DeadlineTest, CancelTripsAGenerousBudgetImmediately) {
  const Deadline deadline = Deadline::after_ms(1e9);
  EXPECT_FALSE(deadline.expired());
  deadline.cancel();
  EXPECT_TRUE(deadline.expired());
  EXPECT_THROW(deadline.check("drain"), Error);
}

TEST(DeadlineTest, SharedFormTreatsNonPositiveAsNoDeadline) {
  EXPECT_EQ(Deadline::shared_after_ms(0.0), nullptr);
  EXPECT_EQ(Deadline::shared_after_ms(-1.0), nullptr);
  const auto bounded = Deadline::shared_after_ms(1e9);
  ASSERT_NE(bounded, nullptr);
  EXPECT_TRUE(bounded->bounded());
  EXPECT_FALSE(Deadline::expired(bounded));
  EXPECT_FALSE(Deadline::expired(nullptr));
}

TEST(DeadlineTest, ExpiredDeadlineFailsEverySweepCellFastWithPartialErrors) {
  report::SweepCache::instance().clear();
  const Machine machine{MachineConfig::knl7210()};
  const auto workload = workloads::find_workload("STREAM").make(64ull << 20);

  report::SweepOptions options;
  options.deadline = std::make_shared<const Deadline>(Deadline::after_ms(0.0));
  const report::SweepRun run = report::sweep_threads_run(
      machine, *workload, {1, 2}, report::kAllConfigs,
      report::Figure{"deadline", "t", "GB/s"}, options);

  // Every cell fails fast as Resource/deadline; none simulates.
  EXPECT_EQ(run.stats.failed, run.stats.cells);
  EXPECT_EQ(run.stats.evaluated, 0u);
  ASSERT_FALSE(run.failures.empty());
  for (const report::CellFailure& failure : run.failures) {
    EXPECT_EQ(failure.category, ErrorCategory::Resource);
    EXPECT_NE(failure.message.find("deadline"), std::string::npos)
        << failure.message;
  }
  report::SweepCache::instance().clear();
}

class ServiceDeadlineTest : public ::testing::Test {
 protected:
  void SetUp() override { report::SweepCache::instance().clear(); }
  void TearDown() override { report::SweepCache::instance().clear(); }
};

TEST_F(ServiceDeadlineTest, TinyBodyDeadlineAnswers504WithTaxonomyCode) {
  PlacementService service{ServiceOptions{.workers = 1}};
  Value body = Value::object();
  body.set("workload", "STREAM");
  body.set("bytes", 256.0 * (1ull << 20));
  body.set("threads", 64);
  body.set("config", "HBM");
  body.set("deadline_ms", 1e-9);
  const ServiceResponse r = service.handle("POST", "/whatif", body);
  EXPECT_EQ(r.status, 504) << r.body.dump(0);
  const Value* error = r.body.find("error");
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->find("code")->as_string(), kDeadlineExceededCode);
  EXPECT_EQ(error->find("category")->as_string(), "resource");
  EXPECT_EQ(service.counters().deadline_exceeded, 1u);
}

TEST_F(ServiceDeadlineTest, ParameterDeadlineBeatsTheServerDefault) {
  // A generous server default must not rescue a request whose own budget
  // is gone: the explicit parameter wins.
  PlacementService service{
      ServiceOptions{.workers = 1, .default_deadline_ms = 1e9}};
  Value body = Value::object();
  body.set("footprint_bytes", 1024.0);
  const ServiceResponse r =
      service.handle("POST", "/placement", body, /*deadline_ms=*/1e-9);
  EXPECT_EQ(r.status, 504) << r.body.dump(0);
}

TEST_F(ServiceDeadlineTest, NegativeDeadlineFieldIs400) {
  PlacementService service{ServiceOptions{.workers = 1}};
  Value body = Value::object();
  body.set("footprint_bytes", 1024.0);
  body.set("deadline_ms", -5.0);
  const ServiceResponse r = service.handle("POST", "/placement", body);
  EXPECT_EQ(r.status, 400) << r.body.dump(0);
  EXPECT_EQ(r.body.find("error")->find("code")->as_string(), "service/bad-field");
}

TEST_F(ServiceDeadlineTest, ZeroDefaultDisablesTheServerDeadline) {
  PlacementService service{
      ServiceOptions{.workers = 1, .default_deadline_ms = 0.0}};
  Value body = Value::object();
  body.set("footprint_bytes", 1024.0);
  const ServiceResponse r = service.handle("POST", "/placement", body);
  EXPECT_EQ(r.status, 200) << r.body.dump(0);
  EXPECT_EQ(service.counters().deadline_exceeded, 0u);
}

TEST_F(ServiceDeadlineTest, SweepDeadlineReportsPartialProgressInTheDetail) {
  PlacementService service{ServiceOptions{.workers = 1}};
  Value body = Value::object();
  body.set("workload", "STREAM");
  Value sizes = Value::array();
  sizes.push_back(64.0 * (1 << 20));
  sizes.push_back(128.0 * (1 << 20));
  body.set("sizes_bytes", std::move(sizes));
  body.set("threads", 8);
  body.set("deadline_ms", 1e-9);
  const ServiceResponse r = service.handle("POST", "/sweep", body);
  EXPECT_EQ(r.status, 504) << r.body.dump(0);
  const Value* error = r.body.find("error");
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->find("code")->as_string(), kDeadlineExceededCode);
  // The message names how many cells completed before the budget died.
  EXPECT_NE(error->find("message")->as_string().find("of"), std::string::npos);
}

TEST_F(ServiceDeadlineTest, StatsCountDeadlineExceededRequests) {
  PlacementService service{ServiceOptions{.workers = 1}};
  Value body = Value::object();
  body.set("footprint_bytes", 1024.0);
  body.set("deadline_ms", 1e-9);
  (void)service.handle("POST", "/placement", body);
  (void)service.handle("POST", "/placement", body);
  const ServiceResponse stats = service.handle("GET", "/stats", Value());
  ASSERT_EQ(stats.status, 200);
  EXPECT_EQ(stats.body.find("deadline_exceeded")->as_number(), 2.0);
}

}  // namespace
}  // namespace knl
