// Unit tests for the fault-tolerance primitives: the knl::Error taxonomy,
// the seeded fault-plan grammar and the injector's attempt ledger, the
// deterministic retry backoff, and crash-safe atomic file IO.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/fault/atomic_io.hpp"
#include "core/fault/error.hpp"
#include "core/fault/fault_injection.hpp"
#include "core/fault/retry.hpp"

namespace knl::fault {
namespace {

namespace fs = std::filesystem;

constexpr std::size_t kReadCap = std::size_t{1} << 20;

// ---------------------------------------------------------------------------
// knl::Error taxonomy
// ---------------------------------------------------------------------------

TEST(ErrorTaxonomy, FactoriesSetCategoryCodeAndMessage) {
  const Error e = Error::transient("io/flaky", "write bounced");
  EXPECT_EQ(e.category(), ErrorCategory::Transient);
  EXPECT_EQ(e.code(), "io/flaky");
  EXPECT_EQ(e.message(), "write bounced");
  EXPECT_STREQ(e.what(), "[transient] io/flaky: write bounced");

  EXPECT_EQ(Error::corrupt_input("a", "b").category(), ErrorCategory::CorruptInput);
  EXPECT_EQ(Error::resource("a", "b").category(), ErrorCategory::Resource);
  EXPECT_EQ(Error::internal("a", "b").category(), ErrorCategory::Internal);
}

TEST(ErrorTaxonomy, CategoryNamesMatchFaultPlanSpelling) {
  EXPECT_STREQ(to_string(ErrorCategory::Transient), "transient");
  EXPECT_STREQ(to_string(ErrorCategory::CorruptInput), "corrupt-input");
  EXPECT_STREQ(to_string(ErrorCategory::Resource), "resource");
  EXPECT_STREQ(to_string(ErrorCategory::Internal), "internal");
}

TEST(ErrorTaxonomy, ContextChainRendersInnermostFirst) {
  const Error e = Error::internal("sweep/cells-failed", "2 cells failed")
                      .with_context("cell 3")
                      .with_context("experiment 'fig2_stream'");
  ASSERT_EQ(e.context().size(), 2u);
  EXPECT_EQ(e.context()[0], "cell 3");
  EXPECT_EQ(e.context()[1], "experiment 'fig2_stream'");
  EXPECT_STREQ(e.what(),
               "[internal] sweep/cells-failed: 2 cells failed "
               "(in cell 3; experiment 'fig2_stream')");
}

TEST(ErrorTaxonomy, DerivesFromRuntimeErrorForLegacyCatchSites) {
  // Pre-taxonomy call sites catch std::runtime_error; they must keep working.
  EXPECT_THROW(throw Error::internal("x", "y"), std::runtime_error);
}

TEST(ErrorTaxonomy, IsTransientKeysOnCategoryAndDynamicType) {
  EXPECT_TRUE(Error::is_transient(Error::transient("a", "b")));
  EXPECT_FALSE(Error::is_transient(Error::resource("a", "b")));
  EXPECT_FALSE(Error::is_transient(std::runtime_error("plain")));
}

// ---------------------------------------------------------------------------
// FaultPlan grammar
// ---------------------------------------------------------------------------

TEST(FaultPlan, ParsesSeedAndSiteClauses) {
  const FaultPlan plan = FaultPlan::parse(
      "seed=42;site=sweep-cell,rate=0.15,kind=transient,attempts=2;"
      "site=json-write,every=3,kind=resource;site=http-read,key=7");
  EXPECT_EQ(plan.seed, 42u);
  ASSERT_EQ(plan.sites.size(), 3u);
  EXPECT_EQ(plan.sites[0].site, "sweep-cell");
  EXPECT_DOUBLE_EQ(plan.sites[0].rate, 0.15);
  EXPECT_EQ(plan.sites[0].kind, ErrorCategory::Transient);
  EXPECT_EQ(plan.sites[0].attempts, 2);
  EXPECT_EQ(plan.sites[1].every, 3u);
  EXPECT_EQ(plan.sites[1].kind, ErrorCategory::Resource);
  EXPECT_EQ(plan.sites[2].key, 7);
}

TEST(FaultPlan, ToStringRoundTrips) {
  const FaultPlan plan = FaultPlan::parse(
      "seed=9;site=sweep-cell,rate=0.33,kind=internal,attempts=4;"
      "site=thread-pool-dispatch,every=5;site=json-read,key=12,kind=corrupt-input");
  EXPECT_EQ(FaultPlan::parse(plan.to_string()), plan);
}

TEST(FaultPlan, MalformedSpecsThrowCorruptInput) {
  const std::vector<std::string> bad = {
      "",                       // empty
      "seed=42",                // no site clauses
      "rate=0.5",               // clause names no site
      "site=x",                 // no selector
      "site=x,rate=2",          // rate out of (0, 1]
      "site=x,rate=abc",        // not a number
      "site=x,every=0",         // every must be >= 1
      "site=x,attempts=0",      // attempts must be >= 1
      "site=x,kind=bogus",      // unknown kind
      "site=x,frobnicate=1",    // unknown field
      "site=x,rate",            // field with no '='
      "seed=notanumber;site=x,key=1",
  };
  for (const std::string& spec : bad) {
    SCOPED_TRACE(spec);
    try {
      (void)FaultPlan::parse(spec);
      FAIL() << "expected parse to throw";
    } catch (const Error& e) {
      EXPECT_EQ(e.category(), ErrorCategory::CorruptInput);
      EXPECT_EQ(e.code(), "fault/bad-plan");
    }
  }
}

// ---------------------------------------------------------------------------
// FaultInjector selection and attempt ledger
// ---------------------------------------------------------------------------

TEST(FaultInjector, ExactKeyFailsAttemptTimesThenSucceeds) {
  const ScopedFaultPlan scope(
      FaultPlan::parse("seed=1;site=sweep-cell,key=5,kind=transient,attempts=2"));
  FaultInjector& injector = FaultInjector::instance();

  EXPECT_NO_THROW(maybe_inject(kSiteSweepCell, 4));   // unselected key
  EXPECT_THROW(maybe_inject(kSiteSweepCell, 5), Error);
  EXPECT_THROW(maybe_inject(kSiteSweepCell, 5), Error);
  EXPECT_NO_THROW(maybe_inject(kSiteSweepCell, 5));   // budget exhausted
  EXPECT_EQ(injector.injected(), 2u);

  // reset_schedule forgets consumed budgets: the schedule replays exactly.
  injector.reset_schedule();
  EXPECT_EQ(injector.injected(), 0u);
  EXPECT_THROW(maybe_inject(kSiteSweepCell, 5), Error);
}

TEST(FaultInjector, InjectedErrorCarriesThePlannedKind) {
  const ScopedFaultPlan scope(
      FaultPlan::parse("seed=1;site=json-write,key=3,kind=resource"));
  try {
    maybe_inject(kSiteJsonWrite, 3);
    FAIL() << "expected an injected fault";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::Resource);
    EXPECT_EQ(e.code(), "fault/injected");
    EXPECT_NE(std::string(e.what()).find("json-write"), std::string::npos);
  }
}

TEST(FaultInjector, EverySelectsMultiplesOnly) {
  const ScopedFaultPlan scope(
      FaultPlan::parse("seed=1;site=sweep-cell,every=3,kind=transient"));
  const FaultInjector& injector = FaultInjector::instance();
  EXPECT_TRUE(injector.selects(kSiteSweepCell, 0));
  EXPECT_FALSE(injector.selects(kSiteSweepCell, 1));
  EXPECT_FALSE(injector.selects(kSiteSweepCell, 2));
  EXPECT_TRUE(injector.selects(kSiteSweepCell, 3));
  EXPECT_FALSE(injector.selects(kSiteJsonRead, 3));  // different site
}

TEST(FaultInjector, SelectsIsPureAndDoesNotConsumeAttempts) {
  const ScopedFaultPlan scope(
      FaultPlan::parse("seed=1;site=sweep-cell,key=2,kind=transient,attempts=1"));
  FaultInjector& injector = FaultInjector::instance();
  EXPECT_TRUE(injector.selects(kSiteSweepCell, 2));
  EXPECT_TRUE(injector.selects(kSiteSweepCell, 2));
  EXPECT_THROW(maybe_inject(kSiteSweepCell, 2), Error);  // budget intact
}

TEST(FaultInjector, FiresConsumesWithoutThrowing) {
  const ScopedFaultPlan scope(FaultPlan::parse(
      "seed=1;site=pipeline-interrupt,key=1,kind=transient,attempts=2"));
  EXPECT_FALSE(fires(kSitePipelineInterrupt, 0));
  EXPECT_TRUE(fires(kSitePipelineInterrupt, 1));
  EXPECT_TRUE(fires(kSitePipelineInterrupt, 1));
  EXPECT_FALSE(fires(kSitePipelineInterrupt, 1));  // budget exhausted
}

TEST(FaultInjector, RateSelectionIsDeterministicAndSeeded) {
  const auto selected_keys = [](std::uint64_t seed) {
    FaultPlan plan;
    plan.seed = seed;
    plan.sites.push_back(FaultSite{.site = kSiteSweepCell, .rate = 0.5});
    const ScopedFaultPlan scope(std::move(plan));
    std::vector<std::uint64_t> keys;
    for (std::uint64_t key = 0; key < 64; ++key) {
      if (FaultInjector::instance().selects(kSiteSweepCell, key)) keys.push_back(key);
    }
    return keys;
  };
  const std::vector<std::uint64_t> first = selected_keys(42);
  // rate=0.5 over 64 keys: some but not all selected, and replaying the same
  // seed reproduces the exact set while another seed moves it.
  EXPECT_FALSE(first.empty());
  EXPECT_LT(first.size(), 64u);
  EXPECT_EQ(selected_keys(42), first);
  EXPECT_NE(selected_keys(43), first);
}

TEST(FaultInjector, DisarmedInjectionIsANoOp) {
  {
    const ScopedFaultPlan scope(
        FaultPlan::parse("seed=1;site=sweep-cell,key=0,kind=transient"));
    EXPECT_TRUE(FaultInjector::instance().armed());
  }
  EXPECT_FALSE(FaultInjector::instance().armed());
  EXPECT_NO_THROW(maybe_inject(kSiteSweepCell, 0));
  EXPECT_FALSE(fires(kSitePipelineInterrupt, 0));
}

TEST(FaultInjector, ArmFromEnvParsesAndReportsMalformedPlans) {
  ASSERT_EQ(setenv(kFaultPlanEnvVar, "seed=1;site=sweep-cell,key=0", 1), 0);
  std::string error;
  EXPECT_TRUE(arm_from_env(&error));
  EXPECT_TRUE(FaultInjector::instance().armed());
  FaultInjector::instance().disarm();

  ASSERT_EQ(setenv(kFaultPlanEnvVar, "site=x", 1), 0);
  EXPECT_FALSE(arm_from_env(&error));
  EXPECT_NE(error.find(kFaultPlanEnvVar), std::string::npos);

  ASSERT_EQ(unsetenv(kFaultPlanEnvVar), 0);
  EXPECT_TRUE(arm_from_env(&error));  // unset: benign, nothing armed
  EXPECT_FALSE(FaultInjector::instance().armed());
}

TEST(FaultInjector, SiteKeyIsStablePerText) {
  EXPECT_EQ(site_key("fig2_stream.json"), site_key("fig2_stream.json"));
  EXPECT_NE(site_key("fig2_stream.json"), site_key("table2_numa.json"));
}

// ---------------------------------------------------------------------------
// Retry backoff
// ---------------------------------------------------------------------------

TEST(Retry, BackoffGrowsGeometricallyAndCapsWithoutJitter) {
  const RetryPolicy policy{.max_attempts = 5,
                           .base_delay_ms = 2.0,
                           .multiplier = 3.0,
                           .max_delay_ms = 10.0,
                           .jitter = 0.0};
  EXPECT_DOUBLE_EQ(backoff_delay_ms(policy, 1, 0), 2.0);
  EXPECT_DOUBLE_EQ(backoff_delay_ms(policy, 2, 0), 6.0);
  EXPECT_DOUBLE_EQ(backoff_delay_ms(policy, 3, 0), 10.0);  // capped
  EXPECT_DOUBLE_EQ(backoff_delay_ms(policy, 4, 0), 10.0);
}

TEST(Retry, JitterIsBoundedDeterministicAndKeyDecorrelated) {
  const RetryPolicy policy{};  // jitter = 0.25
  const double base = backoff_delay_ms(policy, 1, 7);
  EXPECT_GE(base, policy.base_delay_ms * 0.75);
  EXPECT_LE(base, policy.base_delay_ms * 1.25);
  // Pure function of (seed, key, attempt): replays are exact.
  EXPECT_EQ(backoff_delay_ms(policy, 1, 7), base);
  // Distinct keys decorrelate (no thundering herd on shared IO).
  EXPECT_NE(backoff_delay_ms(policy, 1, 8), base);
}

TEST(Retry, WithRetryAbsorbsTransientFaultsWithinBudget) {
  const RetryPolicy policy{.max_attempts = 3, .base_delay_ms = 0.01};
  int calls = 0;
  RetryStats stats;
  const int result = with_retry(
      policy, /*key=*/5,
      [&] {
        if (++calls < 3) throw Error::transient("t", "flaky");
        return 7;
      },
      &stats);
  EXPECT_EQ(result, 7);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(stats.attempts, 3);
  EXPECT_EQ(stats.retries(), 2);
}

TEST(Retry, WithRetryRethrowsNonTransientImmediately) {
  const RetryPolicy policy{.max_attempts = 5, .base_delay_ms = 0.01};
  int calls = 0;
  RetryStats stats;
  EXPECT_THROW(with_retry(
                   policy, 0,
                   [&]() -> int {
                     ++calls;
                     throw Error::internal("i", "bug");
                   },
                   &stats),
               Error);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(stats.attempts, 1);
}

TEST(Retry, WithRetryPropagatesTheLastFailureWhenExhausted) {
  const RetryPolicy policy{.max_attempts = 2, .base_delay_ms = 0.01};
  int calls = 0;
  RetryStats stats;
  try {
    with_retry(
        policy, 0,
        [&]() -> int {
          ++calls;
          throw Error::transient("t", "still flaky");
        },
        &stats);
    FAIL() << "expected exhaustion to propagate";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::Transient);
  }
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(stats.attempts, 2);
}

// ---------------------------------------------------------------------------
// Atomic IO
// ---------------------------------------------------------------------------

class AtomicIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("knl_atomic_io_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

TEST_F(AtomicIoTest, WriteReadRoundTripsAndLeavesNoTempFile) {
  const std::string path = (dir_ / "artifact.json").string();
  std::string error;
  ASSERT_TRUE(io::atomic_write_file(path, "{\"v\":1}\n", &error)) << error;
  auto text = io::read_text_file(path, kReadCap, &error);
  ASSERT_TRUE(text.has_value()) << error;
  EXPECT_EQ(*text, "{\"v\":1}\n");
  EXPECT_FALSE(fs::exists(path + ".tmp"));

  // Overwrite replaces atomically.
  ASSERT_TRUE(io::atomic_write_file(path, "{\"v\":2}\n", &error)) << error;
  text = io::read_text_file(path, kReadCap, &error);
  ASSERT_TRUE(text.has_value());
  EXPECT_EQ(*text, "{\"v\":2}\n");
}

TEST_F(AtomicIoTest, ReadMissingFileReturnsReadableError) {
  std::string error;
  EXPECT_FALSE(io::read_text_file((dir_ / "absent.json").string(), kReadCap, &error).has_value());
  EXPECT_NE(error.find("absent.json"), std::string::npos);
}

TEST_F(AtomicIoTest, ReadLongerThanTheCapFails) {
  const std::string path = (dir_ / "ten.json").string();
  std::string error;
  ASSERT_TRUE(io::atomic_write_file(path, "0123456789", &error)) << error;
  EXPECT_EQ(io::read_text_file(path, 10, &error).value_or(""), "0123456789");
  EXPECT_FALSE(io::read_text_file(path, 9, &error).has_value());
  EXPECT_NE(error.find("exceeds 9 bytes"), std::string::npos) << error;
}

TEST_F(AtomicIoTest, ReadOfAnEndlessDeviceStopsAtTheCap) {
  // /dev/full reads as an endless stream of zero bytes.
  if (!fs::exists("/dev/full")) GTEST_SKIP() << "no /dev/full on this system";
  std::string error;
  EXPECT_FALSE(io::read_text_file("/dev/full", kReadCap, &error).has_value());
  EXPECT_NE(error.find("exceeds"), std::string::npos) << error;
}

TEST_F(AtomicIoTest, WriteToMissingDirectoryFailsWithoutThrowing) {
  std::string error;
  EXPECT_FALSE(io::atomic_write_file((dir_ / "no" / "such" / "dir.json").string(),
                                     "x", &error));
  EXPECT_FALSE(error.empty());
}

TEST_F(AtomicIoTest, InjectedWriteFaultThrowsThenSucceedsOnRetry) {
  const ScopedFaultPlan scope(
      FaultPlan::parse("seed=1;site=json-write,rate=1,kind=transient,attempts=1"));
  const std::string path = (dir_ / "target.json").string();
  std::string error;
  EXPECT_THROW((void)io::atomic_write_file(path, "x\n", &error), Error);
  EXPECT_FALSE(fs::exists(path));  // fault fired before any bytes landed
  // The attempt budget is spent: the retry goes through.
  ASSERT_TRUE(io::atomic_write_file(path, "x\n", &error)) << error;
  EXPECT_EQ(io::read_text_file(path, kReadCap, &error).value_or(""), "x\n");
}

class AtomicBatchTest : public AtomicIoTest {
 protected:
  /// Old contents for a.json and d.json; b.json and e.json do not exist yet.
  void SetUp() override {
    AtomicIoTest::SetUp();
    std::string error;
    ASSERT_TRUE(io::atomic_write_file(path("a.json"), "old a\n", &error)) << error;
    ASSERT_TRUE(io::atomic_write_file(path("d.json"), "old d\n", &error)) << error;
  }

  std::string path(const std::string& name) const { return (dir_ / name).string(); }

  static std::vector<io::FileWrite> batch(const std::string& third) {
    return {{"a.json", "new a\n"}, {"b.json", "new b\n"}, {third, "new d\n"},
            {"e.json", "new e\n"}};
  }

  void expect_untouched_and_no_temp() const {
    std::string error;
    EXPECT_EQ(io::read_text_file(path("a.json"), kReadCap, &error).value_or(""), "old a\n");
    EXPECT_EQ(io::read_text_file(path("d.json"), kReadCap, &error).value_or(""), "old d\n");
    EXPECT_FALSE(fs::exists(path("b.json")));
    EXPECT_FALSE(fs::exists(path("e.json")));
    expect_no_temp();
  }

  void expect_no_temp() const {
    for (const fs::directory_entry& entry : fs::recursive_directory_iterator(dir_)) {
      EXPECT_NE(entry.path().extension(), ".tmp") << entry.path();
    }
  }
};

TEST_F(AtomicBatchTest, BatchReplacesEveryDestinationAndLeavesNoTempFile) {
  std::string error;
  ASSERT_TRUE(io::atomic_write_files(dir_.string(), batch("d.json"), &error)) << error;
  for (const char* name : {"a", "b", "d", "e"}) {
    EXPECT_EQ(io::read_text_file(path(std::string(name) + ".json"), kReadCap, &error).value_or(""),
              std::string("new ") + name + "\n");
  }
  expect_no_temp();
}

TEST_F(AtomicBatchTest, NonTransientFaultOnOneFileChangesNoDestination) {
  // Target the third file's key exactly; the first two temps already exist
  // when the fault fires, and must be cleaned up with it.
  const std::string key = std::to_string(site_key("d.json"));
  ASSERT_LT(site_key("d.json"), std::uint64_t{1} << 63) << "key must fit the plan grammar";
  const ScopedFaultPlan scope(
      FaultPlan::parse("seed=1;site=json-write,key=" + key + ",kind=internal"));
  std::string error;
  EXPECT_THROW((void)io::atomic_write_files(dir_.string(), batch("d.json"), &error), Error);
  expect_untouched_and_no_temp();
}

TEST_F(AtomicBatchTest, WriteFailureOnOneFileChangesNoDestination) {
  std::string error;
  EXPECT_FALSE(io::atomic_write_files(dir_.string(), batch("no/such/dir/d.json"), &error));
  EXPECT_NE(error.find("no/such/dir"), std::string::npos) << error;
  expect_untouched_and_no_temp();
}

TEST_F(AtomicBatchTest, TransientFaultsAreRetriedPerFile) {
  const ScopedFaultPlan scope(
      FaultPlan::parse("seed=1;site=json-write,rate=1,kind=transient,attempts=1"));
  std::string error;
  ASSERT_TRUE(io::atomic_write_files(dir_.string(), batch("d.json"), &error)) << error;
  EXPECT_EQ(io::read_text_file(path("e.json"), kReadCap, &error).value_or(""), "new e\n");
  expect_no_temp();
}

TEST(Fnv1a, HexDigestIsStableAndFixedWidth) {
  // The empty-string digest is the library's offset basis. Pinning it guards
  // the hash from silently changing: journaled artifact shas depend on it.
  EXPECT_EQ(io::fnv1a_hex(""), "14650fb0739d0383");
  EXPECT_EQ(io::fnv1a_hex("abc"), io::fnv1a_hex("abc"));
  EXPECT_NE(io::fnv1a_hex("abc"), io::fnv1a_hex("abd"));
  EXPECT_EQ(io::fnv1a_hex("any text at all").size(), 16u);
}

}  // namespace
}  // namespace knl::fault
