// Warm-restart recovery: snapshot digest verification (recovered, missing,
// tampered, truncated, wrong schema), the journaled in-flight request log,
// the SnapshotDaemon cadence, and the end-to-end kill-and-restart drill —
// a service whose process "dies" recovers its cache warmth from the
// snapshot and answers the same queries as hits.
#include <chrono>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/fault/atomic_io.hpp"
#include "report/sweep.hpp"
#include "service/recovery.hpp"
#include "service/service.hpp"

namespace knl::service {
namespace {

using repro::json::Value;

constexpr std::size_t kReadCap = std::size_t{1} << 20;

class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    report::SweepCache::instance().clear();
    report::SweepCache::instance().reset_stats();
  }
  void TearDown() override {
    report::SweepCache::instance().clear();
    report::SweepCache::instance().set_capacity(report::SweepCache::kDefaultCapacity);
  }

  static std::string temp_path(const std::string& name) {
    return ::testing::TempDir() + "knl_recovery_" + name;
  }

  /// The open requests of the journal at `path`, failing the test on a
  /// read error.
  static std::vector<PendingRequest> pending_in(const std::string& path) {
    std::string error;
    auto pending = RequestJournal::pending(path, RequestJournal::kMaxBytes, &error);
    EXPECT_TRUE(error.empty()) << error;
    return pending;
  }

  /// Warm the process-wide cache with one deterministic /whatif entry.
  static void warm_one_entry(PlacementService& service) {
    Value body = Value::object();
    body.set("workload", "STREAM");
    body.set("bytes", 256.0 * (1ull << 20));
    body.set("threads", 64);
    body.set("config", "HBM");
    const ServiceResponse r = service.handle("POST", "/whatif", body);
    ASSERT_EQ(r.status, 200) << r.body.dump(0);
    ASSERT_FALSE(r.body.find("cache_hit")->as_bool(true));
  }

  /// Re-ask the same question; true when the answer came from the cache.
  static bool rerun_hits_cache(PlacementService& service) {
    Value body = Value::object();
    body.set("workload", "STREAM");
    body.set("bytes", 256.0 * (1ull << 20));
    body.set("threads", 64);
    body.set("config", "HBM");
    const ServiceResponse r = service.handle("POST", "/whatif", body);
    return r.status == 200 && r.body.find("cache_hit")->as_bool(false);
  }
};

TEST_F(RecoveryTest, SnapshotRoundTripRecoversCacheWarmth) {
  const std::string path = temp_path("roundtrip.snap");
  PlacementService service{ServiceOptions{.workers = 1}};
  warm_one_entry(service);
  ASSERT_GE(report::SweepCache::instance().size(), 1u);

  std::string error;
  ASSERT_TRUE(save_cache_snapshot(path, &error)) << error;

  // The "kill": the process-wide cache loses everything.
  report::SweepCache::instance().clear();
  ASSERT_EQ(report::SweepCache::instance().size(), 0u);
  ASSERT_FALSE(rerun_hits_cache(service));

  report::SweepCache::instance().clear();
  std::string detail;
  EXPECT_EQ(load_cache_snapshot(path, &detail), SnapshotLoad::Recovered) << detail;
  EXPECT_TRUE(rerun_hits_cache(service)) << detail;
}

TEST_F(RecoveryTest, MissingSnapshotIsABenignColdStart) {
  std::string detail;
  EXPECT_EQ(load_cache_snapshot(temp_path("never-written.snap"), &detail),
            SnapshotLoad::Missing);
}

TEST_F(RecoveryTest, TamperedSnapshotIsRejected) {
  const std::string path = temp_path("tampered.snap");
  PlacementService service{ServiceOptions{.workers = 1}};
  warm_one_entry(service);
  std::string error;
  ASSERT_TRUE(save_cache_snapshot(path, &error)) << error;

  // Flip one payload byte past the digest header line.
  auto text = io::read_text_file(path, kReadCap, &error);
  ASSERT_TRUE(text.has_value()) << error;
  const std::size_t payload_at = text->find('\n') + 1;
  ASSERT_LT(payload_at, text->size());
  (*text)[payload_at] = (*text)[payload_at] == 'x' ? 'y' : 'x';
  { std::ofstream(path, std::ios::trunc) << *text; }

  report::SweepCache::instance().clear();
  std::string detail;
  EXPECT_EQ(load_cache_snapshot(path, &detail), SnapshotLoad::Tampered);
  EXPECT_NE(detail.find("digest mismatch"), std::string::npos) << detail;
  // Nothing from the corrupt payload may leak into the cache.
  EXPECT_EQ(report::SweepCache::instance().size(), 0u);
}

TEST_F(RecoveryTest, TruncatedSnapshotIsRejected) {
  const std::string path = temp_path("truncated.snap");
  PlacementService service{ServiceOptions{.workers = 1}};
  warm_one_entry(service);
  std::string error;
  ASSERT_TRUE(save_cache_snapshot(path, &error)) << error;

  auto text = io::read_text_file(path, kReadCap, &error);
  ASSERT_TRUE(text.has_value()) << error;
  { std::ofstream(path, std::ios::trunc) << text->substr(0, text->size() - 8); }

  report::SweepCache::instance().clear();
  EXPECT_EQ(load_cache_snapshot(path, nullptr), SnapshotLoad::Tampered);
  EXPECT_EQ(report::SweepCache::instance().size(), 0u);
}

TEST_F(RecoveryTest, DamagedHeaderIsRejected) {
  const std::string path = temp_path("header.snap");
  { std::ofstream(path, std::ios::trunc) << "not a snapshot at all\npayload\n"; }
  EXPECT_EQ(load_cache_snapshot(path, nullptr), SnapshotLoad::Tampered);
}

TEST_F(RecoveryTest, WrongSchemaPassesDigestButIsRejectedAsSchemaMismatch) {
  // An intact digest over a payload from another machine-profile schema:
  // the digest check passes, deserialize refuses.
  const std::string payload = "knlmem-sweep-cache 2 machine-schema 9999\n";
  const std::string path = temp_path("schema.snap");
  {
    std::ofstream out(path, std::ios::trunc);
    out << kSnapshotHeaderPrefix << io::fnv1a_hex(payload) << "\n" << payload;
  }
  std::string detail;
  EXPECT_EQ(load_cache_snapshot(path, &detail), SnapshotLoad::SchemaMismatch);
  EXPECT_NE(detail.find("schema"), std::string::npos) << detail;
}

TEST_F(RecoveryTest, SnapshotAtFullCapacityWithLongestLinesLoads) {
  // The snapshot read cap follows the cache capacity: a full cache whose
  // every line is near the serialize() line limit still loads.
  report::SweepCache& cache = report::SweepCache::instance();
  cache.set_capacity(64);
  RunResult result;
  result.feasible = false;
  result.seconds = -1.0e308;
  result.infeasible_reason = std::string(800, 'r');
  for (std::uint64_t i = 0; i < 4 * cache.capacity(); ++i) {
    cache.store(report::SweepKey{.profile_hash = i, .machine_hash = ~i}, result);
  }
  ASSERT_EQ(cache.size(), cache.capacity());
  const std::string path = temp_path("full.snap");
  std::string error;
  ASSERT_TRUE(save_cache_snapshot(path, &error)) << error;
  ASSERT_GT(std::filesystem::file_size(path), cache.capacity() * 900);

  cache.clear();
  std::string detail;
  EXPECT_EQ(load_cache_snapshot(path, &detail), SnapshotLoad::Recovered) << detail;
  EXPECT_EQ(cache.size(), cache.capacity());

  // Under a smaller capacity the same file is over the cap: a cold start
  // that names the reason.
  cache.clear();
  cache.set_capacity(16);
  EXPECT_EQ(load_cache_snapshot(path, &detail), SnapshotLoad::Missing);
  EXPECT_NE(detail.find("exceeds"), std::string::npos) << detail;
  EXPECT_EQ(cache.size(), 0u);
}

TEST_F(RecoveryTest, JournalReturnsOnlyBeginsWithoutEnds) {
  const std::string path = temp_path("journal.jsonl");
  RequestJournal journal;
  ASSERT_TRUE(journal.open(path));
  const std::uint64_t finished =
      journal.begin("POST", "/whatif", R"({"workload": "STREAM"})");
  const std::uint64_t in_flight =
      journal.begin("POST", "/sweep", R"({"workload": "gups"})");
  EXPECT_NE(finished, 0u);
  EXPECT_NE(in_flight, 0u);
  journal.end(finished);
  journal.close();

  const auto pending = pending_in(path);
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending[0].seq, in_flight);
  EXPECT_EQ(pending[0].method, "POST");
  EXPECT_EQ(pending[0].target, "/sweep");
  EXPECT_EQ(pending[0].body, R"({"workload": "gups"})");
}

TEST_F(RecoveryTest, JournalSkipsTornTailAndGarbageLines) {
  const std::string path = temp_path("torn.jsonl");
  RequestJournal journal;
  ASSERT_TRUE(journal.open(path));
  (void)journal.begin("POST", "/placement", R"({"footprint_bytes": 1024})");
  journal.close();

  // A crash mid-write leaves a torn line; earlier intact records survive.
  {
    std::ofstream out(path, std::ios::app);
    out << R"({"seq": 2, "op": "begin", "method": "POST", "target")";
  }
  const auto pending = pending_in(path);
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending[0].target, "/placement");
}

TEST_F(RecoveryTest, JournalDropsRecordsWithWrongBodyDigest) {
  const std::string path = temp_path("digest.jsonl");
  {
    std::ofstream out(path, std::ios::trunc);
    out << R"({"seq": 1, "op": "begin", "method": "POST", "target": "/whatif", )"
        << R"("digest": "0000000000000000", "body": "{}"})"
        << "\n";
  }
  EXPECT_TRUE(pending_in(path).empty());
}

TEST_F(RecoveryTest, JournalIsCompactedToItsOpenRecords) {
  const std::string path = temp_path("compact.jsonl");
  RequestJournal journal;
  ASSERT_TRUE(journal.open(path));
  const std::uint64_t kept = journal.begin("POST", "/sweep", R"({"workload": "gups"})");
  const std::uint64_t straddling = journal.begin("POST", "/whatif", "{}");
  ASSERT_NE(kept, 0u);
  ASSERT_NE(straddling, 0u);
  // Finished requests worth well past the compaction slack.
  const std::string body(64 << 10, 'x');
  std::uintmax_t written = 0;
  for (int i = 0; i < 100; ++i) {
    journal.end(journal.begin("POST", "/whatif", body));
    written += body.size();
  }
  ASSERT_GT(written, RequestJournal::kCompactSlackBytes);
  // Begun before a compaction, ended after it: the end still closes it.
  journal.end(straddling);
  EXPECT_TRUE(journal.first_error().empty()) << journal.first_error();
  journal.close();

  EXPECT_LT(std::filesystem::file_size(path), RequestJournal::kCompactSlackBytes);
  const auto pending = pending_in(path);
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending[0].seq, kept);
  EXPECT_EQ(pending[0].body, R"({"workload": "gups"})");
}

TEST_F(RecoveryTest, JournalOverTheReadCapIsReportedNotReplayed) {
  const std::string path = temp_path("overcap.jsonl");
  RequestJournal journal;
  ASSERT_TRUE(journal.open(path));
  (void)journal.begin("POST", "/whatif", "{}");
  journal.close();

  std::string error;
  EXPECT_TRUE(RequestJournal::pending(path, 16, &error).empty());
  EXPECT_NE(error.find("exceeds"), std::string::npos) << error;
  // A journal that was never written (first boot) is not an error.
  error.clear();
  EXPECT_TRUE(RequestJournal::pending(temp_path("never-written.jsonl"),
                                      RequestJournal::kMaxBytes, &error)
                  .empty());
  EXPECT_TRUE(error.empty()) << error;
}

TEST_F(RecoveryTest, ClosedJournalBeginsAreNoOps) {
  RequestJournal journal;
  EXPECT_EQ(journal.begin("POST", "/whatif", "{}"), 0u);
  journal.end(0);  // must not crash
  EXPECT_FALSE(journal.is_open());
}

TEST_F(RecoveryTest, JournalWriteFailureReturnsZeroAndIsReported) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  RequestJournal journal;
  ASSERT_TRUE(journal.open("/dev/full"));
  EXPECT_TRUE(journal.first_error().empty());
  // Every write to /dev/full fails with ENOSPC: the record never reached
  // the disk, so the request is not journaled and end() has nothing to do.
  EXPECT_EQ(journal.begin("POST", "/whatif", "{}"), 0u);
  journal.end(0);
  EXPECT_NE(journal.first_error().find("journal"), std::string::npos)
      << journal.first_error();
  const std::string first = journal.first_error();
  EXPECT_EQ(journal.begin("POST", "/sweep", "{}"), 0u);
  EXPECT_EQ(journal.first_error(), first);  // the first failure is kept
}

TEST_F(RecoveryTest, ServiceJournalsAdmittedPostsAndEndsThem) {
  const std::string path = temp_path("service.jsonl");
  RequestJournal journal;
  ASSERT_TRUE(journal.open(path));
  PlacementService service{ServiceOptions{.workers = 1}};
  service.set_journal(&journal);
  warm_one_entry(service);
  service.set_journal(nullptr);
  journal.close();

  // The request completed, so begin + end pair off: nothing pending.
  EXPECT_TRUE(pending_in(path).empty());
  // But the begin record is on disk — the file is non-trivial.
  std::string error;
  const auto text = io::read_text_file(path, kReadCap, &error);
  ASSERT_TRUE(text.has_value()) << error;
  EXPECT_NE(text->find("\"op\": \"begin\""), std::string::npos);
  EXPECT_NE(text->find("\"op\": \"end\""), std::string::npos);
  EXPECT_NE(text->find("/whatif"), std::string::npos);
}

TEST_F(RecoveryTest, SnapshotDaemonWritesOnItsCadence) {
  const std::string path = temp_path("daemon.snap");
  PlacementService service{ServiceOptions{.workers = 1}};
  warm_one_entry(service);
  SnapshotDaemon daemon(path, 20.0);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (daemon.snapshots_taken() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  daemon.stop();
  EXPECT_GE(daemon.snapshots_taken(), 1u);
  EXPECT_TRUE(daemon.last_error().empty()) << daemon.last_error();
  EXPECT_EQ(load_cache_snapshot(path, nullptr), SnapshotLoad::Recovered);
}

}  // namespace
}  // namespace knl::service
