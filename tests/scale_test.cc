// Scale-out guard rails (10k-GPU scale-out PR): hierarchical planning on
// pod-structured clusters must produce valid, deterministic plans; delta
// re-planning must replay the island memo instead of re-solving the world;
// and a 1024-GPU plan must stay sub-second on one core — the property the
// whole decomposition exists to deliver.

#include <gtest/gtest.h>

#include <chrono>
#include <set>

#include "core/hier.h"
#include "core/planner.h"
#include "model/cost_model.h"
#include "obs/metrics.h"
#include "plan/estimator.h"
#include "straggler/situation.h"
#include "topology/cluster.h"

namespace malleus {
namespace core {
namespace {

using straggler::Situation;

topo::ClusterSpec FatTreeCluster(int nodes, int gpn, int nodes_per_pod,
                                 double oversub) {
  topo::FabricSpec f;
  f.kind = topo::FabricSpec::Kind::kFatTree;
  f.nodes_per_pod = nodes_per_pod;
  f.oversubscription = oversub;
  return topo::ClusterSpec(nodes, gpn, topo::GpuSpec(), topo::LinkSpec(), f);
}

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// The sub-second acceptance bound holds for optimized builds; sanitizer
// instrumentation slows the solver severalfold, so scale it there rather
// than lose the timing guard in `tools/check.sh` runs entirely.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr double kTimeBoundScale = 20.0;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr double kTimeBoundScale = 20.0;
#else
constexpr double kTimeBoundScale = 1.0;
#endif
#else
constexpr double kTimeBoundScale = 1.0;
#endif

// 16 nodes x 8 GPUs in pods of 4: exactly kHierAutoMinGpus devices, so the
// hierarchical path engages automatically.
class HierPlannerTest : public ::testing::Test {
 protected:
  topo::ClusterSpec cluster_ = FatTreeCluster(16, 8, 4, 4.0);
  model::CostModel cost_{model::ModelSpec::Tiny(), topo::GpuSpec()};

  Situation SeededSituation() const {
    Situation s(cluster_.num_gpus());
    s.SetLevel(0, 3);   // Island 0.
    s.SetLevel(40, 1);  // Island 1.
    return s;
  }
};

TEST_F(HierPlannerTest, AutoEngagesAndProducesValidPlan) {
  ASSERT_EQ(ResolveIslandNodes(cluster_, PlannerOptions()), 4);
  Planner planner(cluster_, cost_);
  const Situation s = SeededSituation();
  Result<PlanResult> r = planner.Plan(s, 256);
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_TRUE(r->plan.Validate(cluster_, cost_).ok());
  // Every GPU is either active or on standby.
  std::set<topo::GpuId> seen;
  for (topo::GpuId g : r->plan.ActiveGpus()) seen.insert(g);
  for (topo::GpuId g : r->plan.standby_gpus) seen.insert(g);
  EXPECT_EQ(seen.size(), static_cast<size_t>(cluster_.num_gpus()));
  EXPECT_EQ(obs::MetricsRegistry::Global().GetGauge("planner.islands")
                ->Value(),
            4.0);
  EXPECT_GT(r->estimated_full_seconds, 0.0);
}

TEST_F(HierPlannerTest, PlansAreDeterministicAcrossPlannersAndThreads) {
  const Situation s = SeededSituation();
  Planner a(cluster_, cost_);
  Planner b(cluster_, cost_);
  Planner c(cluster_, cost_);
  PlannerOptions one;
  one.num_threads = 1;
  PlannerOptions four;
  four.num_threads = 4;
  // No memo at all, islands included; the plan must not notice.
  PlannerOptions uncached;
  uncached.enable_solve_cache = false;
  Result<PlanResult> ra = a.Plan(s, 256, one);
  Result<PlanResult> rb = b.Plan(s, 256, four);
  Result<PlanResult> rc = c.Plan(s, 256, uncached);
  ASSERT_TRUE(ra.ok()) << ra.status();
  ASSERT_TRUE(rb.ok()) << rb.status();
  ASSERT_TRUE(rc.ok()) << rc.status();
  EXPECT_EQ(c.solve_cache().size(), 0u);
  for (const PlanResult* r : {&*rb, &*rc}) {
    EXPECT_EQ(ra->plan.Signature(), r->plan.Signature());
    EXPECT_EQ(ra->estimated_seconds, r->estimated_seconds);
    EXPECT_EQ(ra->estimated_full_seconds, r->estimated_full_seconds);
    EXPECT_EQ(ra->chosen_tp, r->chosen_tp);
  }
}

TEST_F(HierPlannerTest, IdenticalReplanIsAllMemoHits) {
  // The counters are process-cumulative, so measure deltas.
  auto* hits = obs::MetricsRegistry::Global().GetCounter(
      "planner.island_cache_hits");
  auto* misses = obs::MetricsRegistry::Global().GetCounter(
      "planner.island_cache_misses");
  Planner planner(cluster_, cost_);
  const Situation s = SeededSituation();
  const double misses0 = misses->Value();
  ASSERT_TRUE(planner.Plan(s, 256).ok());
  const double misses_cold = misses->Value() - misses0;
  EXPECT_GT(misses_cold, 0.0);

  const double hits1 = hits->Value();
  ASSERT_TRUE(planner.Plan(s, 256).ok());
  EXPECT_GT(hits->Value(), hits1);
  // Nothing changed; nothing re-solves.
  EXPECT_EQ(misses->Value() - misses0, misses_cold);
}

TEST_F(HierPlannerTest, DeltaReplanResolvesFewerIslands) {
  auto* misses = obs::MetricsRegistry::Global().GetCounter(
      "planner.island_cache_misses");
  Planner planner(cluster_, cost_);
  Situation s = SeededSituation();
  const double misses0 = misses->Value();
  ASSERT_TRUE(planner.Plan(s, 256).ok());
  const double misses_cold = misses->Value() - misses0;
  ASSERT_GT(misses_cold, 0.0);

  // One new straggler in island 2: only that island's keys (plus micro-
  // share ripple on its equal healthy peers) can miss; the bulk replays.
  s.SetLevel(80, 2);
  const double misses1 = misses->Value();
  ASSERT_TRUE(planner.Plan(s, 256).ok());
  const double misses_delta = misses->Value() - misses1;
  EXPECT_GT(misses_delta, 0.0);
  EXPECT_LT(misses_delta, misses_cold);
}

TEST_F(HierPlannerTest, PinnedDpBelowIslandCountFallsBackToFlat) {
  // 4 islands but dp pinned to 2: one pipeline per island is impossible,
  // so the flat sweep takes over and honors the pin.
  const topo::ClusterSpec small = FatTreeCluster(4, 4, 1, 2.0);
  Planner planner(small, cost_);
  PlannerOptions opts;
  opts.dp_degree = 2;
  opts.island_nodes = 1;
  const Situation healthy(small.num_gpus());
  Result<PlanResult> r = planner.Plan(healthy, 64, opts);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->plan.dp_degree(), 2);
}

TEST_F(HierPlannerTest, OnePlanIsOneSolveAndMemoizesInTheSolveCache) {
  // Island sweeps are not solves: one hierarchical Plan() adds exactly one
  // to planner.solves and one planner.solve_seconds observation, and the
  // island answers land in the planner's own SolveCache.
  obs::MetricsRegistry registry;
  obs::MetricsScope scope(&registry);
  Planner planner(cluster_, cost_);
  ASSERT_TRUE(planner.Plan(SeededSituation(), 256).ok());
  EXPECT_GT(registry.GetCounter("planner.hier_solves")->Value(), 0.0);
  EXPECT_GT(registry.GetCounter("planner.island_cache_misses")->Value(), 0.0);
  EXPECT_EQ(registry.GetCounter("planner.solves")->Value(), 1.0);
  EXPECT_EQ(registry.GetHistogram("planner.solve_seconds")->Count(), 1);
  EXPECT_GT(planner.solve_cache().size(), 0u);
}

TEST(ScaleTest, KiloGpuPlanIsSubSecond) {
  // The ISSUE acceptance guard: 1024 GPUs (128 nodes in pods of 4), a
  // straggler in one pod, cold planner — the hierarchical decomposition
  // must deliver the plan in under a second on one core.
  const topo::ClusterSpec cluster = FatTreeCluster(128, 8, 4, 4.0);
  const model::CostModel cost(model::ModelSpec::Tiny(), topo::GpuSpec());
  Situation s(cluster.num_gpus());
  s.SetLevel(0, 3);
  s.SetLevel(100, 1);
  Planner planner(cluster, cost);
  const auto t_cold = std::chrono::steady_clock::now();
  Result<PlanResult> r = planner.Plan(s, 2048);
  const double cold_seconds = Seconds(t_cold);
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_TRUE(r->plan.Validate(cluster, cost).ok());
  EXPECT_LT(cold_seconds, 1.0 * kTimeBoundScale);

  // Warm delta re-plan (one new straggler) replays the memo and must be
  // far cheaper than the cold solve.
  s.SetLevel(512, 2);
  const auto t_warm = std::chrono::steady_clock::now();
  Result<PlanResult> warm = planner.Plan(s, 2048);
  const double warm_seconds = Seconds(t_warm);
  ASSERT_TRUE(warm.ok()) << warm.status();
  EXPECT_LT(warm_seconds, 1.0 * kTimeBoundScale);
}

}  // namespace
}  // namespace core
}  // namespace malleus
