// Determinism tests for the concurrent planner sweep: the chosen plan must
// be bit-identical at every worker thread count and with the solve cache
// on, off, cold or warm; timing attribution must stay non-negative and
// bounded by the wall clock in the single-thread case.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/planner.h"
#include "exec/thread_pool.h"
#include "model/cost_model.h"
#include "obs/metrics.h"
#include "straggler/situation.h"
#include "topology/cluster.h"

namespace malleus {
namespace core {
namespace {

using straggler::Situation;
using straggler::SituationId;

class PlannerParallelTest : public ::testing::Test {
 protected:
  // A mixed-straggler situation: S3 (a canonical multi-level scenario)
  // plus extra stragglers so grouping, splitting and the dp sweep all
  // exercise non-trivial paths. Kept at 16 GPUs so the many cold Plan()
  // calls in this suite stay fast.
  Situation SeededSituation() const {
    Situation s = Situation::Canonical(cluster_, SituationId::kS3)
                      .ValueOrDie();
    s.SetLevel(5, 2);
    s.SetLevel(9, 1);
    s.SetLevel(14, 3);
    return s;
  }

  topo::ClusterSpec cluster_ = topo::ClusterSpec::A800Cluster(2);  // 16 GPUs
  model::CostModel cost_{model::ModelSpec::Llama32B(), topo::GpuSpec()};
};

// Full observable equality of two plan results.
void ExpectSamePlan(const PlanResult& a, const PlanResult& b) {
  EXPECT_EQ(a.plan.Signature(), b.plan.Signature());
  EXPECT_EQ(a.plan.ToString(), b.plan.ToString());
  EXPECT_EQ(a.estimated_seconds, b.estimated_seconds);            // Exact.
  EXPECT_EQ(a.estimated_full_seconds, b.estimated_full_seconds);  // Exact.
  EXPECT_EQ(a.chosen_tp, b.chosen_tp);
}

TEST_F(PlannerParallelTest, PlanIsIdenticalAtEveryThreadCount) {
  const Situation situation = SeededSituation();
  std::vector<PlanResult> results;
  for (int threads : {1, 2, 4, 8}) {
    Planner planner(cluster_, cost_);  // Fresh planner: cold cache each run.
    PlannerOptions opts;
    opts.num_threads = threads;
    Result<PlanResult> r = planner.Plan(situation, 32, opts);
    ASSERT_TRUE(r.ok()) << "threads=" << threads << ": " << r.status();
    results.push_back(*std::move(r));
  }
  for (size_t i = 1; i < results.size(); ++i) {
    SCOPED_TRACE("thread count index " + std::to_string(i));
    ExpectSamePlan(results[0], results[i]);
  }
}

TEST_F(PlannerParallelTest, CacheOnOffAndWarmAllAgree) {
  const Situation situation = SeededSituation();

  Planner cached(cluster_, cost_);
  PlannerOptions on;
  on.num_threads = 1;
  Result<PlanResult> cold = cached.Plan(situation, 32, on);
  ASSERT_TRUE(cold.ok()) << cold.status();
  EXPECT_GT(cached.solve_cache().size(), 0u);
  // Re-plan the identical situation on the now-warm cache.
  Result<PlanResult> warm = cached.Plan(situation, 32, on);
  ASSERT_TRUE(warm.ok()) << warm.status();

  Planner uncached(cluster_, cost_);
  PlannerOptions off = on;
  off.enable_solve_cache = false;
  Result<PlanResult> no_cache = uncached.Plan(situation, 32, off);
  ASSERT_TRUE(no_cache.ok()) << no_cache.status();
  EXPECT_EQ(uncached.solve_cache().size(), 0u);

  ExpectSamePlan(*cold, *warm);
  ExpectSamePlan(*cold, *no_cache);
}

TEST_F(PlannerParallelTest, WarmCacheReplaysInsteadOfResolving) {
  const Situation situation = SeededSituation();
  Planner planner(cluster_, cost_);
  PlannerOptions opts;
  opts.num_threads = 1;
  ASSERT_TRUE(planner.Plan(situation, 32, opts).ok());
  const PlannerCache::Stats after_first = planner.solve_cache().stats();
  EXPECT_GT(after_first.misses, 0);

  ASSERT_TRUE(planner.Plan(situation, 32, opts).ok());
  const PlannerCache::Stats after_second =
      planner.solve_cache().stats();
  // The second sweep solves the same candidates: every orchestration
  // lookup hits and no new entries are created.
  EXPECT_GT(after_second.hits, after_first.hits);
  EXPECT_EQ(after_second.misses, after_first.misses);
}

TEST_F(PlannerParallelTest, CacheMetricsAreRecorded) {
  const Situation situation = SeededSituation();
  auto& registry = obs::MetricsRegistry::Global();
  const double hits_before =
      registry.GetCounter("planner.cache_hits")->Value();
  const double misses_before =
      registry.GetCounter("planner.cache_misses")->Value();

  Planner planner(cluster_, cost_);
  PlannerOptions opts;
  opts.num_threads = 2;
  ASSERT_TRUE(planner.Plan(situation, 32, opts).ok());
  ASSERT_TRUE(planner.Plan(situation, 32, opts).ok());

  EXPECT_GT(registry.GetCounter("planner.cache_hits")->Value(), hits_before);
  EXPECT_GT(registry.GetCounter("planner.cache_misses")->Value(),
            misses_before);
  // The requested 2 workers are clamped by the physical core count and the
  // minimum-work-per-worker rule (a tiny sweep runs inline), so the gauge
  // records between 1 and min(2, cap) — never more than was asked for.
  const double threads_gauge = registry.GetGauge("planner.threads")->Value();
  EXPECT_GE(threads_gauge, 1.0);
  EXPECT_LE(threads_gauge,
            static_cast<double>(std::min(2, exec::ConcurrencyCap())));
}

TEST_F(PlannerParallelTest, EnvironmentDefaultMatchesPinnedThreadCount) {
  const Situation situation = SeededSituation();
  Planner pinned(cluster_, cost_);
  PlannerOptions one;
  one.num_threads = 1;
  Result<PlanResult> serial = pinned.Plan(situation, 32, one);
  ASSERT_TRUE(serial.ok()) << serial.status();

  ASSERT_EQ(setenv("MALLEUS_PLANNER_THREADS", "4", 1), 0);
  Planner from_env(cluster_, cost_);
  Result<PlanResult> parallel =
      from_env.Plan(situation, 32, PlannerOptions());  // num_threads = 0.
  ASSERT_EQ(unsetenv("MALLEUS_PLANNER_THREADS"), 0);
  ASSERT_TRUE(parallel.ok()) << parallel.status();
  ExpectSamePlan(*serial, *parallel);
}

TEST_F(PlannerParallelTest, TimingComponentsNonNegativeAndBounded) {
  const Situation situation = SeededSituation();
  Planner planner(cluster_, cost_);
  PlannerOptions opts;
  opts.num_threads = 1;  // Single worker: busy time nests inside the wall.
  Result<PlanResult> r = planner.Plan(situation, 32, opts);
  ASSERT_TRUE(r.ok()) << r.status();
  const PlannerTimings& t = r->timings;
  EXPECT_GE(t.grouping_seconds, 0.0);
  EXPECT_GE(t.division_seconds, 0.0);
  EXPECT_GE(t.ordering_seconds, 0.0);
  EXPECT_GE(t.assignment_seconds, 0.0);
  EXPECT_GT(t.total_seconds, 0.0);
  const double component_sum = t.grouping_seconds + t.division_seconds +
                               t.ordering_seconds + t.assignment_seconds;
  EXPECT_LE(component_sum, t.total_seconds);
}

}  // namespace
}  // namespace core
}  // namespace malleus
