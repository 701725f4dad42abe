// Tests for malleus::testkit: generator determinism and round-trips, the
// oracle engine on known-clean and known-broken inputs, the injected
// violation -> minimize -> repro -> replay path, and golden snapshot
// stability.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "scenario/scenario.h"
#include "testkit/generator.h"
#include "testkit/golden.h"
#include "testkit/oracle.h"
#include "testkit/repro.h"

namespace malleus {
namespace testkit {
namespace {

// A small, healthy, plannable scenario shared by the oracle tests. One
// level-1 straggler makes the metamorphic oracles non-trivial.
scenario::ScenarioSpec SmallSpec() {
  scenario::ScenarioSpec spec;
  spec.model = "tiny";
  spec.nodes = 2;
  spec.gpus_per_node = 2;
  spec.batch = 8;
  spec.steps = 1;
  scenario::StragglerEntry entry;
  entry.gpu = 1;
  entry.level = 1;
  spec.stragglers.push_back(entry);
  return spec;
}

TEST(GeneratorTest, DeterministicForEqualSeeds) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(scenario::SerializeScenario(GenerateScenario(&a)),
              scenario::SerializeScenario(GenerateScenario(&b)))
        << "draw " << i;
  }
}

TEST(GeneratorTest, MixSeedSpreadsRuns) {
  EXPECT_NE(MixSeed(1, 0), MixSeed(1, 1));
  EXPECT_NE(MixSeed(1, 0), MixSeed(2, 0));
  EXPECT_EQ(MixSeed(7, 13), MixSeed(7, 13));
}

TEST(GeneratorTest, EveryDrawSerializesAndRoundTrips) {
  Rng rng(99);
  for (int i = 0; i < 100; ++i) {
    const scenario::ScenarioSpec spec = GenerateScenario(&rng);
    EXPECT_GE(spec.nodes, 1);
    EXPECT_GE(spec.gpus_per_node, 1);
    EXPECT_GE(spec.batch, 1);
    const std::string text = scenario::SerializeScenario(spec);
    Result<scenario::ScenarioSpec> reparsed =
        scenario::ParseScenarioString(text);
    ASSERT_TRUE(reparsed.ok()) << "draw " << i << ": " << reparsed.status()
                               << "\n" << text;
    EXPECT_EQ(scenario::SerializeScenario(*reparsed), text) << "draw " << i;
  }
}

TEST(OracleTest, CleanScenarioRunsEveryOracleWithoutViolations) {
  const OracleOutcome outcome = RunOracles(SmallSpec());
  EXPECT_TRUE(outcome.resolved);
  EXPECT_TRUE(outcome.planned);
  EXPECT_TRUE(outcome.ok()) << outcome.violations.front().oracle << ": "
                            << outcome.violations.front().message;
  const std::vector<std::string> expected = {
      "differential.planner-threads",
      "differential.solve-cache",
      "differential.net-model",
      "differential.validate-lint",
      "differential.replan-fallback",
      "metamorphic.straggler-monotone-plan",
      "metamorphic.straggler-monotone-replan",
      "metamorphic.standby-monotone",
      "metamorphic.bandwidth-scaling",
      "sim.invariants",
      "differential.sim-replay",
      "sim.event-graph",
      "net.flow-conservation",
  };
  for (const std::string& oracle : expected) {
    bool ran = false;
    for (const std::string& name : outcome.oracles_run) {
      if (name == oracle) ran = true;
    }
    EXPECT_TRUE(ran) << oracle << " did not run";
  }
}

TEST(OracleTest, UnresolvableScenarioIsNotAViolation) {
  scenario::ScenarioSpec spec = SmallSpec();
  spec.model = "no-such-model";
  const OracleOutcome outcome = RunOracles(spec);
  EXPECT_FALSE(outcome.resolved);
  EXPECT_FALSE(outcome.planned);
  EXPECT_TRUE(outcome.ok());
  EXPECT_FALSE(outcome.error.empty());
}

TEST(OracleTest, UnplannableScenarioChecksFailureDeterminismOnly) {
  // 110B on a single GPU cannot fit; the planner oracles must still run
  // (the failure has to be deterministic) without reporting violations.
  scenario::ScenarioSpec spec;
  spec.model = "110b";
  spec.nodes = 1;
  spec.gpus_per_node = 1;
  spec.batch = 1;
  const OracleOutcome outcome = RunOracles(spec);
  EXPECT_TRUE(outcome.resolved);
  EXPECT_FALSE(outcome.planned);
  EXPECT_TRUE(outcome.ok()) << outcome.violations.front().message;
  EXPECT_EQ(outcome.oracles_run.size(), 2u);  // threads + solve-cache.
  EXPECT_FALSE(outcome.error.empty());
}

TEST(OracleTest, InjectedPerturbationFiresTheMonotoneOracle) {
  OracleOptions options;
  options.inject_perturb_estimate = true;
  const OracleOutcome outcome = RunOracles(SmallSpec(), options);
  bool fired = false;
  for (const Violation& v : outcome.violations) {
    if (v.oracle == "metamorphic.straggler-monotone-plan") fired = true;
  }
  EXPECT_TRUE(fired)
      << "the injection hook must trip metamorphic.straggler-monotone-plan";
}

TEST(ReproTest, MinimizesInjectedViolationAndReplaysToSameFailure) {
  OracleOptions options;
  options.inject_perturb_estimate = true;
  const std::string oracle = "metamorphic.straggler-monotone-plan";

  // Start from a deliberately oversized scenario.
  scenario::ScenarioSpec spec = SmallSpec();
  spec.model = "32b";
  spec.nodes = 4;
  spec.gpus_per_node = 8;
  spec.batch = 64;
  spec.phases = {"normal", "s3"};
  ASSERT_TRUE(StillViolates(spec, oracle, options));

  int evals = 0;
  const scenario::ScenarioSpec minimized =
      MinimizeScenario(spec, oracle, options, /*max_evals=*/200, &evals);
  EXPECT_GT(evals, 0);
  EXPECT_LE(evals, 200);
  // The injected bug survives on the trivial shape, so the minimizer must
  // reach it.
  EXPECT_EQ(minimized.model, "tiny");
  EXPECT_EQ(minimized.nodes, 1);
  EXPECT_EQ(minimized.gpus_per_node, 1);
  EXPECT_EQ(minimized.batch, 1);
  EXPECT_TRUE(minimized.phases.empty());

  // The rendered repro parses back to a spec that still fails identically.
  Violation violation{oracle, "injected"};
  const std::string repro =
      RenderRepro(minimized, violation, /*base_seed=*/7, /*run_index=*/3,
                  options);
  EXPECT_NE(repro.find("# oracle: " + oracle), std::string::npos);
  EXPECT_NE(repro.find("--seed=7 run 3"), std::string::npos);
  Result<scenario::ScenarioSpec> replayed =
      scenario::ParseScenarioString(repro);
  ASSERT_TRUE(replayed.ok()) << replayed.status() << "\n" << repro;
  EXPECT_TRUE(StillViolates(*replayed, oracle, options));
  // And without the injection, the same scenario is clean.
  EXPECT_FALSE(StillViolates(*replayed, oracle, OracleOptions()));
}

TEST(ReproTest, MinimizerIsANoOpWithoutAViolation) {
  const scenario::ScenarioSpec spec = SmallSpec();
  int evals = 0;
  const scenario::ScenarioSpec minimized =
      MinimizeScenario(spec, "sim.invariants", OracleOptions(),
                       /*max_evals=*/30, &evals);
  EXPECT_EQ(scenario::SerializeScenario(minimized),
            scenario::SerializeScenario(spec));
  EXPECT_LE(evals, 30);
}

TEST(GoldenTest, SnapshotIsDeterministicAndSelfDescribing) {
  const scenario::ScenarioSpec spec = SmallSpec();
  Result<std::string> first = RenderGoldenSnapshot(spec);
  Result<std::string> second = RenderGoldenSnapshot(spec);
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(*first, *second);
  EXPECT_NE(first->find("== scenario =="), std::string::npos);
  EXPECT_NE(first->find("== situation overlay =="), std::string::npos);
  EXPECT_NE(first->find("plan.signature = "), std::string::npos);
  EXPECT_NE(first->find("gradsync.analytic_seconds = "), std::string::npos);
  EXPECT_NE(first->find("gradsync.flow_seconds = "), std::string::npos);
}

TEST(GoldenTest, TracePhasesDeduplicateAndFailuresRender) {
  scenario::ScenarioSpec spec;
  spec.model = "tiny";
  spec.nodes = 1;
  spec.gpus_per_node = 2;
  spec.batch = 4;
  spec.phases = {"s1", "normal", "s1"};
  Result<std::string> snapshot = RenderGoldenSnapshot(spec);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();
  // S1 appears once despite two phases; Normal keeps its slot.
  size_t first_s1 = snapshot->find("== situation S1 ==");
  ASSERT_NE(first_s1, std::string::npos);
  EXPECT_EQ(snapshot->find("== situation S1 ==", first_s1 + 1),
            std::string::npos);
  EXPECT_NE(snapshot->find("== situation Normal =="), std::string::npos);

  // An unresolvable spec fails; an unplannable one renders the failure.
  spec.phases = {"bogus"};
  EXPECT_FALSE(RenderGoldenSnapshot(spec).ok());
  spec.phases.clear();
  spec.model = "110b";
  spec.nodes = 1;
  spec.gpus_per_node = 1;
  Result<std::string> failed = RenderGoldenSnapshot(spec);
  ASSERT_TRUE(failed.ok()) << failed.status();
  EXPECT_NE(failed->find("plan failed: "), std::string::npos);
}

}  // namespace
}  // namespace testkit
}  // namespace malleus
