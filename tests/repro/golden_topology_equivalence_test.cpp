// Golden-equivalence regression: the machine-file path is a drop-in
// replacement for the compiled-in hierarchy. A machine built from
// machines/knl7210.machine must reproduce every checked-in golden artifact
// with zero drift — same fingerprint, same manifest, same metrics. This is
// the test that lets the topology subsystem evolve without ever
// re-blessing the KNL corpus.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "core/machine.hpp"
#include "core/machine_config.hpp"
#include "core/machine_profiles.hpp"
#include "repro/experiment.hpp"
#include "repro/golden_diff.hpp"
#include "repro/pipeline.hpp"

#ifndef KNLMEM_GOLDEN_DIR
#error "build must define KNLMEM_GOLDEN_DIR (see tests/CMakeLists.txt)"
#endif

namespace knl::repro {
namespace {

TEST(GoldenTopologyEquivalence, DeclaredKnlTopologyReproducesEveryGolden) {
  const std::filesystem::path file =
      std::filesystem::path(KNLMEM_GOLDEN_DIR).parent_path() / "machines/knl7210.machine";
  std::ifstream in(file, std::ios::binary);
  ASSERT_TRUE(in.good()) << "cannot open " << file;
  std::ostringstream text;
  text << in.rdbuf();
  const Machine machine(MachineConfig::from_machine_file(text.str()));

  const Pipeline pipeline(machine);
  std::vector<const ExperimentSpec*> specs;
  for (const ExperimentSpec& spec : experiments()) specs.push_back(&spec);
  const std::vector<ExperimentResult> results = pipeline.run_all(specs);
  EXPECT_GE(results.size(), 14u);  // the full registry, not a subset

  const DiffReport report = diff_against_dir(KNLMEM_GOLDEN_DIR, results, machine,
                                             /*check_strays=*/true);
  EXPECT_TRUE(report.clean()) << report.render();
  EXPECT_GT(report.compared_metrics(), 100u);
  for (const ExperimentResult& result : results) {
    EXPECT_TRUE(result.checks_passed()) << result.id;
  }
}

TEST(GoldenTopologyEquivalence, NonKnlProfilesHaveTheirOwnBlessedGoldens) {
  // The conformance matrix's test-side anchor: every registered profile owns
  // a golden directory with a manifest (blessed via
  // `knl-repro bless --profile <name>`); the KNL profile keeps the
  // historical root directory checked by GoldenBaselines.
  namespace fs = std::filesystem;
  const fs::path repo = fs::path(KNLMEM_GOLDEN_DIR).parent_path();
  for (const MachineProfile& profile : machine_profiles()) {
    const fs::path dir = repo / profile.golden_dir;
    EXPECT_TRUE(fs::is_directory(dir))
        << profile.name << ": missing golden dir " << dir
        << " — run `knl-repro bless --profile " << profile.name << "`";
    EXPECT_TRUE(fs::exists(dir / "manifest.json")) << profile.name;
    EXPECT_TRUE(golden_integrity_problems(dir.string()).empty()) << profile.name;
  }
}

TEST(GoldenTopologyEquivalence, ProfileMatrixSmoke) {
  // One cheap cell per non-KNL profile: the first registry experiment must
  // reproduce its per-profile golden exactly. (The KNL profile runs the
  // full suite in GoldenBaselines; CI's `knl-repro matrix` covers the full
  // cross product.)
  namespace fs = std::filesystem;
  const fs::path repo = fs::path(KNLMEM_GOLDEN_DIR).parent_path();
  ASSERT_FALSE(experiments().empty());
  const ExperimentSpec& first = experiments().front();
  for (const MachineProfile& profile : machine_profiles()) {
    if (profile.name == "knl7210") continue;
    const Machine machine(profile.make());
    const Pipeline pipeline(machine);
    const std::vector<ExperimentResult> results = pipeline.run_all({&first});
    const DiffReport report =
        diff_against_dir((repo / profile.golden_dir).string(), results, machine,
                         /*check_strays=*/false);
    EXPECT_TRUE(report.clean()) << profile.name << ":\n" << report.render();
  }
}

}  // namespace
}  // namespace knl::repro
