// Tests for core/orchestration: Theorem 3 stage ordering, bundle
// permutation search, zero-layer group removal, and the Eq. (4) division
// integration (fast-majority election, feasibility, uniform mode).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/rng.h"
#include "core/orchestration.h"
#include "core/planner_cache.h"
#include "core/work_assignment.h"

namespace malleus {
namespace core {
namespace {

class OrchestrationTest : public ::testing::Test {
 protected:
  // A hand-built grouping: TP-4 groups with given slowest-member rates.
  // (TP-4 at DP >= 1 leaves enough memory for full 32B pipelines; the
  // orchestration layer itself never inspects GPU ids, only sizes/rates.)
  GroupingResult MakeGrouping(const std::vector<double>& gpu_rate_per_group) {
    GroupingResult g;
    int next = 0;
    for (double rate : gpu_rate_per_group) {
      plan::TpGroup group;
      group.gpus = {next, next + 1, next + 2, next + 3};
      next += 4;
      g.groups.push_back(group);
      g.rates.push_back(cost_.GroupRate({rate, 1.0, 1.0, 1.0}));
    }
    return g;
  }

  topo::ClusterSpec cluster_ = topo::ClusterSpec::A800Cluster(2);
  model::CostModel cost_{model::ModelSpec::Llama32B(), topo::GpuSpec()};
};

TEST_F(OrchestrationTest, Theorem3OrdersByDescendingRate) {
  GroupingResult g = MakeGrouping({1.0, 2.5, 1.0, 1.8});
  Result<OrchestratedPipeline> pipe = OrderAndAssignLayers(
      {0, 1, 2, 3}, g, cost_, /*micro_batch=*/1, /*dp=*/1,
      /*nonuniform_layers=*/true, nullptr);
  ASSERT_TRUE(pipe.ok()) << pipe.status();
  ASSERT_EQ(pipe->group_indices.size(), 4u);
  for (size_t j = 0; j + 1 < pipe->group_indices.size(); ++j) {
    EXPECT_GE(g.rates[pipe->group_indices[j]],
              g.rates[pipe->group_indices[j + 1]])
        << "stages must be in descending straggling-rate order";
  }
}

TEST_F(OrchestrationTest, LayersSumToModel) {
  GroupingResult g = MakeGrouping({1.0, 2.0, 1.0, 1.0});
  Result<OrchestratedPipeline> pipe = OrderAndAssignLayers(
      {0, 1, 2, 3}, g, cost_, 1, 1, true, nullptr);
  ASSERT_TRUE(pipe.ok());
  EXPECT_EQ(std::accumulate(pipe->layers.begin(), pipe->layers.end(), 0),
            cost_.spec().num_layers);
  for (int l : pipe->layers) EXPECT_GT(l, 0);
}

TEST_F(OrchestrationTest, HopelessGroupRemovedToStandby) {
  GroupingResult g = MakeGrouping({60.0, 1.0, 1.0, 1.0});
  std::vector<int> removed;
  Result<OrchestratedPipeline> pipe = OrderAndAssignLayers(
      {0, 1, 2, 3}, g, cost_, 1, 1, true, &removed);
  ASSERT_TRUE(pipe.ok()) << pipe.status();
  EXPECT_EQ(removed, std::vector<int>{0});
  EXPECT_EQ(pipe->group_indices.size(), 3u);
  EXPECT_EQ(std::accumulate(pipe->layers.begin(), pipe->layers.end(), 0),
            cost_.spec().num_layers);
}

TEST_F(OrchestrationTest, MixedSizesEnumeratesBundleOrders) {
  // Groups of sizes 1, 2 and 4 with equal per-GPU health: the ordering
  // search must produce a feasible min-bottleneck order without crashing,
  // bundling equal sizes together.
  GroupingResult g;
  g.groups.push_back({{0}});
  g.groups.push_back({{1, 2}});
  g.groups.push_back({{4, 5, 6, 7}});
  g.rates = {1.0, cost_.GroupRate({1.0, 1.0}),
             cost_.GroupRate({1.0, 1.0, 1.0, 1.0})};
  Result<OrchestratedPipeline> pipe =
      OrderAndAssignLayers({0, 1, 2}, g, cost_, 1, /*dp_degree=*/2, true,
                           nullptr);
  ASSERT_TRUE(pipe.ok()) << pipe.status();
  // The fastest (largest) group should carry the most layers.
  int idx_of_4 = -1;
  for (size_t j = 0; j < pipe->group_indices.size(); ++j) {
    if (g.groups[pipe->group_indices[j]].size() == 4) {
      idx_of_4 = static_cast<int>(j);
    }
  }
  ASSERT_GE(idx_of_4, 0);
  EXPECT_EQ(*std::max_element(pipe->layers.begin(), pipe->layers.end()),
            pipe->layers[idx_of_4]);
}

TEST_F(OrchestrationTest, DivisionSpreadsSlowGroupsAcrossPipelines) {
  // 8 groups, two slow; DP = 2: the two slow groups should not both land in
  // the same pipeline (that would double one pipeline's handicap).
  GroupingResult g = MakeGrouping(
      {2.5, 1.0, 1.0, 1.0, 2.5, 1.0, 1.0, 1.0});
  OrchestrationOptions opts;
  Result<OrchestrationResult> r =
      Orchestrate(g, cost_, 1, 2, 64, opts);
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_EQ(r->pipelines.size(), 2u);
  auto slow_count = [&](const OrchestratedPipeline& p) {
    int n = 0;
    for (int gi : p.group_indices) {
      if (gi == 0 || gi == 4) ++n;
    }
    return n;
  };
  EXPECT_EQ(slow_count(r->pipelines[0]), 1);
  EXPECT_EQ(slow_count(r->pipelines[1]), 1);
  EXPECT_TRUE(r->division_exact);
}

TEST_F(OrchestrationTest, UniformModeDealsGroupsEvenly) {
  GroupingResult g = MakeGrouping(
      {2.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0});
  OrchestrationOptions opts;
  opts.nonuniform_stages = false;
  Result<OrchestrationResult> r = Orchestrate(g, cost_, 1, 2, 64, opts);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->pipelines[0].group_indices.size(), 4u);
  EXPECT_EQ(r->pipelines[1].group_indices.size(), 4u);
}

TEST_F(OrchestrationTest, UniformModeRequiresDivisibility) {
  GroupingResult g = MakeGrouping({1.0, 1.0, 1.0, 1.0, 1.0});
  OrchestrationOptions opts;
  opts.nonuniform_stages = false;
  EXPECT_FALSE(Orchestrate(g, cost_, 1, 2, 64, opts).ok());
}

TEST_F(OrchestrationTest, RejectsImpossibleShapes) {
  GroupingResult g = MakeGrouping({1.0, 1.0});
  OrchestrationOptions opts;
  EXPECT_FALSE(Orchestrate(g, cost_, 1, 3, 64, opts).ok());  // dp > groups.
  EXPECT_FALSE(Orchestrate(g, cost_, 1, 2, 1, opts).ok());   // micro < dp.
  EXPECT_FALSE(Orchestrate(g, cost_, 1, 0, 64, opts).ok());
}

TEST_F(OrchestrationTest, EveryGroupPlacedOrRemoved) {
  GroupingResult g = MakeGrouping(
      {3.8, 2.6, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0});
  OrchestrationOptions opts;
  Result<OrchestrationResult> r = Orchestrate(g, cost_, 1, 2, 64, opts);
  ASSERT_TRUE(r.ok()) << r.status();
  std::vector<int> seen;
  for (const auto& p : r->pipelines) {
    seen.insert(seen.end(), p.group_indices.begin(), p.group_indices.end());
  }
  seen.insert(seen.end(), r->removed_groups.begin(),
              r->removed_groups.end());
  std::sort(seen.begin(), seen.end());
  std::vector<int> expected(g.groups.size());
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(seen, expected);
}

// Differential: the bundle-permutation + Theorem-3 ordering search (with
// its PlannerCache memoization) must find the same optimal bottleneck as a
// brute-force next_permutation sweep over EVERY stage order, each solved
// with a fresh Eq. (2) call. 50 seeded random size-multisets cover mixed
// {1,2,4} bundles. When the search drops hopeless groups to standby, the
// optimality claim applies to the kept set (the drop re-solves with fewer
// stages, which changes the memory coefficients), so the sweep runs over
// exactly the groups the search kept.
TEST(OrchestrationDifferentialTest, MatchesBruteForcePermutationSweep) {
  const model::CostModel cost(model::ModelSpec::Tiny(), topo::GpuSpec());
  Rng rng(20260807);
  for (int trial = 0; trial < 50; ++trial) {
    GroupingResult g;
    const int num_groups = static_cast<int>(rng.UniformInt(2, 5));
    int next_gpu = 0;
    std::vector<int> indices;
    for (int i = 0; i < num_groups; ++i) {
      const int size = 1 << rng.UniformInt(0, 2);  // 1, 2 or 4.
      plan::TpGroup group;
      for (int k = 0; k < size; ++k) group.gpus.push_back(next_gpu++);
      std::vector<double> member_rates(size, 1.0);
      member_rates[0] = rng.Uniform(1.0, 3.0);
      g.groups.push_back(group);
      g.rates.push_back(cost.GroupRate(member_rates));
      indices.push_back(i);
    }

    PlannerCache cache;
    std::vector<int> removed;
    Result<OrchestratedPipeline> orchestrated = OrderAndAssignLayers(
        indices, g, cost, /*micro_batch=*/1, /*dp_degree=*/1,
        /*nonuniform_layers=*/true, &removed, &cache);
    ASSERT_TRUE(orchestrated.ok())
        << "trial " << trial << ": " << orchestrated.status();
    ASSERT_EQ(orchestrated->group_indices.size() + removed.size(),
              indices.size())
        << "trial " << trial;

    // Cached and uncached orchestration must agree exactly.
    Result<OrchestratedPipeline> uncached = OrderAndAssignLayers(
        indices, g, cost, 1, 1, true, nullptr, nullptr);
    ASSERT_TRUE(uncached.ok()) << uncached.status();
    EXPECT_EQ(orchestrated->group_indices, uncached->group_indices)
        << "trial " << trial;
    EXPECT_EQ(orchestrated->bottleneck, uncached->bottleneck)
        << "trial " << trial;

    // Brute force: every order of the kept groups, solved directly.
    std::vector<int> perm = orchestrated->group_indices;
    std::sort(perm.begin(), perm.end());
    double best = std::numeric_limits<double>::infinity();
    do {
      std::vector<double> rates;
      std::vector<int> sizes;
      for (int idx : perm) {
        rates.push_back(g.rates[idx]);
        sizes.push_back(g.groups[idx].size());
      }
      Result<LayerAssignment> assigned =
          AssignLayers(rates, sizes, /*micro_batch=*/1, /*dp_degree=*/1,
                       cost, /*nonuniform=*/true);
      if (assigned.ok()) best = std::min(best, assigned->bottleneck);
    } while (std::next_permutation(perm.begin(), perm.end()));

    ASSERT_TRUE(std::isfinite(best)) << "trial " << trial;
    EXPECT_DOUBLE_EQ(orchestrated->bottleneck, best)
        << "trial " << trial << ": ordering search missed the optimum";
  }
}

}  // namespace
}  // namespace core
}  // namespace malleus
