// Exit-code-contract tests for the knl-repro CLI, driven in-process through
// cli_main: 0 on success and on a bless-then-diff round trip, 1 on any
// out-of-tolerance metric (with a readable per-metric report), 2 on usage
// and I/O errors.
#include "repro/cli.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/machine.hpp"
#include "report/sweep.hpp"
#include "repro/experiment.hpp"
#include "repro/journal.hpp"
#include "repro/json.hpp"
#include "repro/pipeline.hpp"

namespace knl::repro {
namespace {

namespace fs = std::filesystem;

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("knl_repro_cli_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  int run_cli(const std::vector<std::string>& args) {
    out_.str("");
    err_.str("");
    return cli_main(args, out_, err_);
  }

  [[nodiscard]] std::string golden_dir() const { return (dir_ / "golden").string(); }

  fs::path dir_;
  std::ostringstream out_;
  std::ostringstream err_;
};

// Subset experiments keep these tests fast; the full suite runs via the
// conformance gate in CI and tests/repro/golden_baseline_test.
constexpr const char* kSubset = "fig2_stream,table2_numa";

TEST_F(CliTest, UnknownCommandAndFlagsExitUsage) {
  EXPECT_EQ(run_cli({"frobnicate"}), kExitUsage);
  EXPECT_EQ(run_cli({"run", "--no-such-flag"}), kExitUsage);
  EXPECT_EQ(run_cli({"run", "--only", "no_such_id"}), kExitUsage);
  EXPECT_FALSE(err_.str().empty());
  EXPECT_EQ(run_cli({}), kExitUsage);
  EXPECT_EQ(run_cli({"help"}), kExitSuccess);
  EXPECT_EQ(run_cli({"--help"}), kExitSuccess);
  EXPECT_EQ(run_cli({"-h"}), kExitSuccess);
}

TEST_F(CliTest, DiffAgainstMissingGoldenDirExitsUsage) {
  EXPECT_EQ(run_cli({"diff", "--golden", (dir_ / "nowhere").string(),
                     "--only", kSubset}),
            kExitUsage);
  EXPECT_NE(err_.str().find("golden"), std::string::npos);
}

TEST_F(CliTest, BlessThenDiffRoundTripsToZero) {
  ASSERT_EQ(run_cli({"bless", "--golden", golden_dir(), "--only", kSubset}),
            kExitSuccess)
      << err_.str();
  EXPECT_TRUE(fs::exists(fs::path(golden_dir()) / "fig2_stream.json"));
  EXPECT_TRUE(fs::exists(fs::path(golden_dir()) / "manifest.json"));

  EXPECT_EQ(run_cli({"diff", "--golden", golden_dir(), "--only", kSubset}),
            kExitSuccess)
      << out_.str() << err_.str();
  EXPECT_NE(out_.str().find("PASS"), std::string::npos);
}

TEST_F(CliTest, PerturbedGoldenFailsDiffWithPerMetricReport) {
  ASSERT_EQ(run_cli({"bless", "--golden", golden_dir(), "--only", kSubset}),
            kExitSuccess);

  // Perturb one bandwidth value in the golden artifact by 5% — far outside
  // the default 1e-6 relative tolerance.
  const fs::path artifact_path = fs::path(golden_dir()) / "fig2_stream.json";
  std::string error;
  auto loaded = load_json_file(artifact_path.string(), &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  json::Value artifact = *loaded;
  json::Array series = artifact.find("series")->as_array();
  ASSERT_FALSE(series.empty());
  json::Array points = series[0].find("points")->as_array();
  ASSERT_FALSE(points.empty());
  json::Array point = points[0].as_array();
  ASSERT_EQ(point.size(), 2u);
  point[1] = json::Value(point[1].as_number() * 1.05);
  points[0] = json::Value(std::move(point));
  series[0].set("points", json::Value(std::move(points)));
  artifact.set("series", json::Value(std::move(series)));
  std::ofstream(artifact_path) << artifact.dump() << "\n";

  EXPECT_EQ(run_cli({"diff", "--golden", golden_dir(), "--only", kSubset}),
            kExitConformance);
  const std::string report = out_.str() + err_.str();
  EXPECT_NE(report.find("fig2_stream"), std::string::npos) << report;
  EXPECT_NE(report.find("expected"), std::string::npos) << report;
  EXPECT_NE(report.find("FAIL"), std::string::npos) << report;
}

TEST_F(CliTest, RunWritesArtifactsAndManifest) {
  const fs::path out_dir = dir_ / "out";
  ASSERT_EQ(run_cli({"run", "--out", out_dir.string(), "--only", kSubset}),
            kExitSuccess)
      << err_.str();
  EXPECT_TRUE(fs::exists(out_dir / "fig2_stream.json"));
  EXPECT_TRUE(fs::exists(out_dir / "table2_numa.json"));
  EXPECT_TRUE(fs::exists(out_dir / "manifest.json"));

  std::string error;
  const auto artifact = load_json_file((out_dir / "fig2_stream.json").string(), &error);
  ASSERT_TRUE(artifact.has_value()) << error;
  EXPECT_DOUBLE_EQ(artifact->find("schema_version")->as_number(), kSchemaVersion);
}

TEST_F(CliTest, BackToBackDefaultRunIdsKeepSeparateJournals) {
  // Two runs without --run-id, started within the same second, must not
  // share (and truncate) one journal: each keeps its own, naming its --out.
  const fs::path runs = dir_ / "runs";
  const fs::path first = dir_ / "first";
  const fs::path second = dir_ / "second";
  for (const fs::path& out : {first, second}) {
    ASSERT_EQ(run_cli({"run", "--out", out.string(), "--runs-dir", runs.string(),
                       "--only", "table2_numa"}),
              kExitSuccess)
        << err_.str();
  }
  std::vector<std::string> outs;
  for (const fs::directory_entry& entry : fs::directory_iterator(runs)) {
    std::string error;
    const auto journal =
        load_journal(runs.string(), entry.path().filename().string(), &error);
    ASSERT_TRUE(journal.has_value()) << error;
    EXPECT_EQ(journal->completed.size(), 1u) << entry.path();
    outs.push_back(journal->out_dir);
  }
  std::sort(outs.begin(), outs.end());
  EXPECT_EQ(outs, (std::vector<std::string>{first.string(), second.string()}));
}

/// Occurrences of `needle` in `text`.
std::size_t count_of(const std::string& text, const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + needle.size())) {
    ++count;
  }
  return count;
}

TEST_F(CliTest, RunOfOneFigurePrintsItsFigureShapeAndChecks) {
  ASSERT_EQ(run_cli({"run", "--out", (dir_ / "out").string(), "--runs-dir",
                     (dir_ / "runs").string(), "--only", "fig2_stream"}),
            kExitSuccess)
      << err_.str();
  const ExperimentSpec& spec = *find_experiment("fig2_stream");
  const ExperimentResult expected = Pipeline(Machine()).run(spec);
  const std::string text = out_.str();
  EXPECT_NE(text.find("==== " + spec.title + " ====\npaper shape: " + spec.paper_shape +
                      "\n\n" + expected.figure.to_table() + "\nsweep: "),
            std::string::npos)
      << text;
  EXPECT_EQ(count_of(text, "\ncheck ok: "), spec.checks.size()) << text;
  EXPECT_EQ(count_of(text, "check FAILED"), 0u) << text;
}

TEST_F(CliTest, RunLeavesTheSweepCacheUntouched) {
  const std::size_t inserts = report::SweepCache::instance().stats().inserts;
  ASSERT_EQ(run_cli({"run", "--out", (dir_ / "out").string(), "--runs-dir",
                     (dir_ / "runs").string(), "--only", "fig2_stream"}),
            kExitSuccess)
      << err_.str();
  EXPECT_EQ(report::SweepCache::instance().stats().inserts, inserts);
}

TEST_F(CliTest, RunOfOneTablePrintsTheTableText) {
  ASSERT_EQ(run_cli({"run", "--out", (dir_ / "out").string(), "--runs-dir",
                     (dir_ / "runs").string(), "--only", "table1_apps"}),
            kExitSuccess)
      << err_.str();
  const ExperimentSpec& spec = *find_experiment("table1_apps");
  const ExperimentResult expected = Pipeline(Machine()).run(spec);
  ASSERT_FALSE(expected.table_text.empty());
  const std::string text = out_.str();
  EXPECT_NE(text.find("==== " + spec.title + " ====\n\n" + expected.table_text +
                      "\npaper: " + spec.paper_shape + "\n"),
            std::string::npos)
      << text;
  EXPECT_EQ(text.find("paper shape:"), std::string::npos) << text;
  EXPECT_EQ(count_of(text, "\ncheck ok: "), spec.checks.size()) << text;
}

TEST_F(CliTest, RunOfSeveralExperimentsPrintsOnlyResultLines) {
  ASSERT_EQ(run_cli({"run", "--out", (dir_ / "out").string(), "--runs-dir",
                     (dir_ / "runs").string(), "--only", "fig2_stream,fig4c_gups"}),
            kExitSuccess)
      << err_.str();
  const std::string text = out_.str();
  EXPECT_NE(text.find("  fig2_stream: "), std::string::npos) << text;
  EXPECT_NE(text.find("  fig4c_gups: "), std::string::npos) << text;
  EXPECT_EQ(text.find("===="), std::string::npos) << text;
  EXPECT_EQ(text.find("check ok:"), std::string::npos) << text;
}

TEST_F(CliTest, DiffFromPrecomputedArtifactDir) {
  const fs::path out_dir = dir_ / "out";
  ASSERT_EQ(run_cli({"bless", "--golden", golden_dir(), "--only", kSubset}),
            kExitSuccess);
  ASSERT_EQ(run_cli({"run", "--out", out_dir.string(), "--only", kSubset}),
            kExitSuccess);
  EXPECT_EQ(run_cli({"diff", "--golden", golden_dir(), "--from", out_dir.string(),
                     "--only", kSubset}),
            kExitSuccess)
      << out_.str() << err_.str();
}

TEST_F(CliTest, SubsetBlessLeavesOtherBaselinesInManifest) {
  ASSERT_EQ(run_cli({"bless", "--golden", golden_dir(), "--only", kSubset}),
            kExitSuccess);
  ASSERT_EQ(run_cli({"bless", "--golden", golden_dir(), "--only", "fig4c_gups"}),
            kExitSuccess);

  std::string error;
  const auto manifest =
      load_json_file((fs::path(golden_dir()) / "manifest.json").string(), &error);
  ASSERT_TRUE(manifest.has_value()) << error;
  std::vector<std::string> listed;
  for (const json::Value& id : manifest->find("experiments")->as_array()) {
    listed.push_back(id.as_string());
  }
  EXPECT_NE(std::find(listed.begin(), listed.end(), "fig2_stream"), listed.end());
  EXPECT_NE(std::find(listed.begin(), listed.end(), "fig4c_gups"), listed.end());
}

TEST_F(CliTest, TruncatedGoldenFailsDiffWithIntegrityError) {
  ASSERT_EQ(run_cli({"bless", "--golden", golden_dir(), "--only", kSubset}),
            kExitSuccess);

  // Truncate one baseline mid-JSON — the signature of a torn write. The
  // startup integrity pass must name the file and the cure, and exit 2
  // (an I/O problem), not 1 (a tolerance failure).
  const fs::path artifact = fs::path(golden_dir()) / "fig2_stream.json";
  std::ofstream(artifact, std::ios::binary | std::ios::trunc) << "{\"schema_ver";

  EXPECT_EQ(run_cli({"diff", "--golden", golden_dir(), "--only", kSubset}),
            kExitUsage);
  EXPECT_NE(err_.str().find("fig2_stream.json"), std::string::npos) << err_.str();
  EXPECT_NE(err_.str().find("truncated or unparseable"), std::string::npos);
  EXPECT_NE(err_.str().find("re-bless"), std::string::npos);
}

TEST_F(CliTest, AbsorbedTransientFaultPlanLeavesZeroDrift) {
  // The CI chaos contract: a plan whose transient faults are fully absorbed
  // by the retry budget must leave run and diff at exit 0 with no drift.
  constexpr const char* kChaos =
      "seed=42;site=sweep-cell,rate=0.3,kind=transient,attempts=1;"
      "site=json-write,rate=0.5,kind=transient,attempts=1";
  ASSERT_EQ(run_cli({"bless", "--golden", golden_dir(), "--only", kSubset}),
            kExitSuccess)
      << err_.str();
  const fs::path out_dir = dir_ / "out";
  ASSERT_EQ(run_cli({"run", "--out", out_dir.string(), "--only", kSubset,
                     "--fault-plan", kChaos}),
            kExitSuccess)
      << err_.str();
  EXPECT_EQ(run_cli({"diff", "--golden", golden_dir(), "--from", out_dir.string(),
                     "--only", kSubset}),
            kExitSuccess)
      << out_.str() << err_.str();
  EXPECT_NE(out_.str().find("PASS"), std::string::npos);
}

TEST_F(CliTest, MalformedFaultPlanExitsUsage) {
  EXPECT_EQ(run_cli({"run", "--fault-plan", "site=x", "--only", kSubset}),
            kExitUsage);
  EXPECT_NE(err_.str().find("fault/bad-plan"), std::string::npos) << err_.str();
}

TEST_F(CliTest, ListNamesEveryRegistryExperiment) {
  EXPECT_EQ(run_cli({"list"}), kExitSuccess);
  const std::string text = out_.str();
  for (const ExperimentSpec& spec : experiments()) {
    EXPECT_NE(text.find(spec.id), std::string::npos) << spec.id;
  }
}

}  // namespace
}  // namespace knl::repro
