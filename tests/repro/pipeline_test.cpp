// Tests for the reproduction pipeline: registry integrity, artifact schema,
// determinism of the executed experiments, and the experiment scheduler
// (job invariance, dispatch-fault fallback, error order, stop).
#include "repro/pipeline.hpp"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>

#include "core/fault/fault_injection.hpp"
#include "core/machine.hpp"
#include "core/machine_profiles.hpp"
#include "repro/experiment.hpp"

namespace knl::repro {
namespace {

TEST(ExperimentRegistry, IdsAreUniqueAndResolvable) {
  std::set<std::string> seen;
  for (const ExperimentSpec& spec : experiments()) {
    EXPECT_TRUE(seen.insert(spec.id).second) << "duplicate id " << spec.id;
    EXPECT_EQ(find_experiment(spec.id), &spec);
    EXPECT_FALSE(spec.title.empty()) << spec.id;
    EXPECT_FALSE(spec.paper_shape.empty()) << spec.id;
  }
  EXPECT_EQ(find_experiment("no_such_experiment"), nullptr);
  EXPECT_GE(experiments().size(), 14u) << "paper covers Figs. 2-6 + Tables 1-2";
}

TEST(ExperimentRegistry, SpecsAreInternallyConsistent) {
  for (const ExperimentSpec& spec : experiments()) {
    switch (spec.kind) {
      case ExperimentKind::SizeSweep:
      case ExperimentKind::HtGrid:
        EXPECT_FALSE(spec.sizes_bytes.empty()) << spec.id;
        EXPECT_FALSE(spec.workload.empty()) << spec.id;
        break;
      case ExperimentKind::ThreadSweep:
        EXPECT_FALSE(spec.thread_counts.empty()) << spec.id;
        EXPECT_GT(spec.fixed_bytes, 0u) << spec.id;
        break;
      case ExperimentKind::Latency:
      case ExperimentKind::Table:
        break;
    }
    for (const RatioSeries& r : spec.ratios) {
      EXPECT_FALSE(r.name.empty()) << spec.id;
    }
    EXPECT_GT(spec.tolerance.rel, 0.0) << spec.id;
  }
}

TEST(Pipeline, ArtifactCarriesSchemaAndEverySeriesPoint) {
  const Machine machine;
  const Pipeline pipeline(machine, PipelineOptions{.jobs = 1, .memoize = false});
  const ExperimentSpec* spec = find_experiment("fig2_stream");
  ASSERT_NE(spec, nullptr);
  const ExperimentResult result = pipeline.run(*spec);

  const json::Value artifact = artifact_json(result, machine);
  EXPECT_DOUBLE_EQ(artifact.find("schema_version")->as_number(), kSchemaVersion);
  EXPECT_EQ(artifact.find("experiment")->as_string(), "fig2_stream");
  EXPECT_EQ(artifact.find("kind")->as_string(), "size_sweep");
  EXPECT_FALSE(artifact.find("machine_fingerprint")->as_string().empty());

  const json::Value* series = artifact.find("series");
  ASSERT_NE(series, nullptr);
  ASSERT_EQ(series->as_array().size(), result.figure.series().size());
  for (std::size_t i = 0; i < result.figure.series().size(); ++i) {
    const auto& produced = result.figure.series()[i];
    const json::Value& emitted = series->as_array()[i];
    EXPECT_EQ(emitted.find("name")->as_string(), produced.name);
    ASSERT_EQ(emitted.find("points")->as_array().size(), produced.points.size());
  }
  const json::Value* checks = artifact.find("checks");
  ASSERT_NE(checks, nullptr);
  EXPECT_EQ(checks->as_array().size(), spec->checks.size());
}

TEST(Pipeline, RerunsAreBitIdentical) {
  // The analytic model is deterministic; two in-process runs of the same
  // spec must serialize to the identical artifact (the property the golden
  // baselines and the default tolerances rely on).
  const Machine machine;
  const Pipeline pipeline(machine, PipelineOptions{.jobs = 0, .memoize = false});
  for (const std::string id : {"fig4b_minife", "fig6d_xsbench_ht", "table2_numa"}) {
    const ExperimentSpec* spec = find_experiment(id);
    ASSERT_NE(spec, nullptr);
    const json::Value a = artifact_json(pipeline.run(*spec), machine);
    const json::Value b = artifact_json(pipeline.run(*spec), machine);
    EXPECT_EQ(a.dump(), b.dump()) << id;
  }
}

TEST(Pipeline, ValueNearPicksNearestX) {
  report::Figure fig("t", "x", "y");
  fig.add("s", 1.0, 10.0);
  fig.add("s", 4.0, 40.0);
  fig.add("s", 8.0, 80.0);
  EXPECT_DOUBLE_EQ(*value_near(fig, "s", 3.9), 40.0);
  EXPECT_DOUBLE_EQ(*value_near(fig, "s", 100.0), 80.0);
  EXPECT_FALSE(value_near(fig, "absent", 1.0).has_value());
}

TEST(Pipeline, ManifestListsEveryExperiment) {
  const Machine machine;
  const std::vector<std::string> ids = {"fig2_stream", "table1_apps"};
  const json::Value manifest = manifest_json(ids, machine);
  EXPECT_DOUBLE_EQ(manifest.find("schema_version")->as_number(), kSchemaVersion);
  const json::Value* listed = manifest.find("experiments");
  ASSERT_NE(listed, nullptr);
  ASSERT_EQ(listed->as_array().size(), 2u);
  EXPECT_EQ(listed->as_array()[0].as_string(), "fig2_stream");
}

std::vector<const ExperimentSpec*> all_specs() {
  std::vector<const ExperimentSpec*> specs;
  for (const ExperimentSpec& spec : experiments()) specs.push_back(&spec);
  return specs;
}

/// Every result's artifact, dumped and concatenated in order.
std::string dump_all(const std::vector<ExperimentResult>& results, const Machine& machine) {
  std::string text;
  for (const ExperimentResult& result : results) {
    text += artifact_json(result, machine).dump() + '\n';
  }
  return text;
}

TEST(Pipeline, RunAllIsJobInvariant) {
  // Experiments run concurrently at jobs != 1, each with serial sweeps; the
  // artifacts must not depend on the worker count, the profile or the
  // SweepCache.
  const std::vector<const ExperimentSpec*> specs = all_specs();
  for (const char* name : {"knl7210", "xeonmax", "knl_nvm"}) {
    const Machine machine(find_machine_profile(name)->make());
    for (const bool memoize : {true, false}) {
      const std::string serial = dump_all(
          Pipeline(machine, PipelineOptions{.jobs = 1, .memoize = memoize}).run_all(specs),
          machine);
      for (const int jobs : {2, 3, 4, 0}) {
        const Pipeline pipeline(machine, PipelineOptions{.jobs = jobs, .memoize = memoize});
        EXPECT_EQ(dump_all(pipeline.run_all(specs), machine), serial)
            << name << " jobs=" << jobs << " memoize=" << memoize;
      }
    }
  }
}

TEST(Pipeline, DispatchFaultRerunsTheExperimentInline) {
  const std::vector<const ExperimentSpec*> specs = all_specs();
  const Machine machine;
  const std::string serial =
      dump_all(Pipeline(machine, PipelineOptions{.jobs = 1, .memoize = false}).run_all(specs),
               machine);

  const fault::ScopedFaultPlan plan(
      fault::FaultPlan::parse("seed=5;site=thread-pool-dispatch,rate=0.3,kind=internal"));
  std::size_t selected = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (fault::FaultInjector::instance().selects(fault::kSiteThreadPoolDispatch, i)) {
      ++selected;
    }
  }
  ASSERT_GT(selected, 0u) << "the plan must hit at least one experiment";

  const std::vector<ExperimentResult> results =
      Pipeline(machine, PipelineOptions{.jobs = 4, .memoize = false}).run_all(specs);
  EXPECT_EQ(dump_all(results, machine), serial);
  std::size_t fallbacks = 0;
  for (const ExperimentResult& result : results) fallbacks += result.serial_fallbacks;
  EXPECT_EQ(fallbacks, selected);  // one per faulted dispatch, keyed by index
}

TEST(Pipeline, ExperimentErrorSurfacesInRegistryOrder) {
  // Two malformed specs: whatever order they fail in on the pool, run_all
  // throws the first one's error, as a serial loop would.
  ExperimentSpec first = *find_experiment("fig2_stream");
  first.id = "bad_first";
  first.sizes_bytes.clear();
  ExperimentSpec second = first;
  second.id = "bad_second";
  std::vector<const ExperimentSpec*> specs = all_specs();
  specs.insert(specs.begin() + 9, &second);
  specs.insert(specs.begin() + 3, &first);

  const Machine machine;
  for (const int jobs : {1, 4}) {
    const Pipeline pipeline(machine, PipelineOptions{.jobs = jobs, .memoize = false});
    try {
      (void)pipeline.run_all(specs);
      ADD_FAILURE() << "jobs=" << jobs << ": no error";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("bad_first"), std::string::npos)
          << "jobs=" << jobs << ": " << e.what();
    }
  }
}

TEST(Pipeline, StopSkipsExperimentsNotYetStarted) {
  const std::vector<const ExperimentSpec*> specs = all_specs();
  const Machine machine;

  // Serial: stop is polled before each experiment, in order.
  std::size_t polls = 0;
  const auto serial = Pipeline(machine, PipelineOptions{.jobs = 1, .memoize = false})
                          .run_each(specs, [&polls] { return polls++ >= 2; });
  ASSERT_EQ(serial.size(), specs.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].result.has_value(), i < 2) << i;
    EXPECT_FALSE(serial[i].error) << i;
  }

  // On the pool: a stop already raised starts nothing.
  const auto pooled = Pipeline(machine, PipelineOptions{.jobs = 4, .memoize = false})
                          .run_each(specs, [] { return true; });
  for (const ExperimentOutcome& outcome : pooled) EXPECT_FALSE(outcome.result.has_value());
}

TEST(Pipeline, FinishRunsOnceOnEachFinishedExperiment) {
  const std::vector<const ExperimentSpec*> specs = all_specs();
  const Machine machine;
  for (const int jobs : {1, 4}) {
    std::vector<std::string> ids(specs.size());
    const auto outcomes =
        Pipeline(machine, PipelineOptions{.jobs = jobs, .memoize = false})
            .run_each(specs, {}, [&](std::size_t i, const ExperimentResult& result) {
              EXPECT_TRUE(ids[i].empty()) << "slot " << i << " finished twice";
              ids[i] = result.id;
              if (result.id == "fig3_latency") throw std::runtime_error("finish failed");
            });
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const bool failing = specs[i]->id == "fig3_latency";
      EXPECT_EQ(ids[i], specs[i]->id) << "jobs=" << jobs;
      EXPECT_EQ(outcomes[i].result.has_value(), !failing) << specs[i]->id;
      EXPECT_EQ(static_cast<bool>(outcomes[i].error), failing) << specs[i]->id;
      if (jobs == 1 && failing) break;  // the serial loop stops at an error
    }
  }
}

}  // namespace
}  // namespace knl::repro
