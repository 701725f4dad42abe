// Tests for core/sharding and core/migration: interval ownership, slice
// counts with non-uniform TP degrees, deadlock-free collective ordering,
// and the migration diff (volume conservation, no-op detection).

#include <gtest/gtest.h>

#include <map>

#include "core/migration.h"
#include "core/sharding.h"
#include "plan/uniform.h"
#include "testkit/graph/builder.h"

namespace malleus {
namespace core {
namespace {

using testkit::graph::CollectiveCallOrder;
using testkit::graph::SliceCountForGpu;

class ShardingTest : public ::testing::Test {
 protected:
  plan::ParallelPlan Uniform(int dp, int tp, int pp) {
    plan::UniformConfig cfg;
    cfg.dp = dp;
    cfg.tp = tp;
    cfg.pp = pp;
    cfg.global_batch = 64;
    std::vector<topo::GpuId> all = cluster_.AllGpus();
    std::vector<topo::GpuId> gpus(all.begin(), all.begin() + dp * tp * pp);
    Result<plan::ParallelPlan> p =
        plan::BuildUniformPlan(cluster_, cost_, gpus, cfg);
    MALLEUS_CHECK_OK(p.status());
    return std::move(p).ValueOrDie();
  }

  // A DP-2 plan with TP 4 in pipeline 0 and TP 2+2 in pipeline 1 for the
  // same layers - the non-uniform case of Figure 6(b).
  plan::ParallelPlan NonUniform() {
    plan::ParallelPlan p;
    p.micro_batch_size = 1;
    p.global_batch = 64;
    plan::Pipeline p0;
    p0.num_microbatches = 32;
    p0.stages = {{{{0, 1, 2, 3}}, 30}, {{{4, 5, 6, 7}}, 30}};
    plan::Pipeline p1;
    p1.num_microbatches = 32;
    p1.stages = {{{{8, 9}}, 15}, {{{10, 11}}, 15},
                 {{{12, 13}}, 15}, {{{14, 15}}, 15}};
    p.pipelines = {p0, p1};
    return p;
  }

  topo::ClusterSpec cluster_ = topo::ClusterSpec::A800Cluster(4);
  model::CostModel cost_{model::ModelSpec::Llama32B(), topo::GpuSpec()};
};

TEST_F(ShardingTest, OwnersCoverUnitInterval) {
  const plan::ParallelPlan p = Uniform(2, 4, 4);
  for (int layer : {0, 17, 59}) {
    Result<std::vector<OwnedInterval>> owners = LayerWeightOwners(p, 0, layer);
    ASSERT_TRUE(owners.ok()) << owners.status();
    double pos = 0.0;
    for (const OwnedInterval& iv : *owners) {
      EXPECT_DOUBLE_EQ(iv.begin, pos);
      pos = iv.end;
    }
    EXPECT_DOUBLE_EQ(pos, 1.0);
    EXPECT_EQ(owners->size(), 4u);
  }
}

TEST_F(ShardingTest, OwnersRejectBadIndices) {
  const plan::ParallelPlan p = Uniform(2, 4, 4);
  EXPECT_FALSE(LayerWeightOwners(p, 5, 0).ok());
  EXPECT_FALSE(LayerWeightOwners(p, 0, 60).ok());
}

TEST_F(ShardingTest, SliceCountsFollowTpMaxRule) {
  // Figure 6(b): with TPmax = 4, a GPU in the TP-2 pipeline owns 2 slices.
  const plan::ParallelPlan p = NonUniform();
  EXPECT_EQ(SliceCountForGpu(p, 0, 0), 1);   // TP 4 holder of layer 0.
  EXPECT_EQ(SliceCountForGpu(p, 8, 0), 2);   // TP 2 holder of layer 0.
  EXPECT_EQ(SliceCountForGpu(p, 8, 20), 0);  // Layer 20 is on stage 2.
  EXPECT_EQ(SliceCountForGpu(p, 10, 20), 2);
}

TEST_F(ShardingTest, CollectiveOrderIsGloballyConsistent) {
  // All GPUs must issue per-slice collectives in the same (layer, slice)
  // order or the rings deadlock: the order must be strictly ascending for
  // every GPU.
  const plan::ParallelPlan p = NonUniform();
  for (topo::GpuId g : p.ActiveGpus()) {
    const auto calls = CollectiveCallOrder(p, g);
    EXPECT_FALSE(calls.empty());
    for (size_t i = 1; i < calls.size(); ++i) {
      EXPECT_LT(calls[i - 1], calls[i]);
    }
  }
}

TEST_F(ShardingTest, CollectiveOrderCoversEverySlicePerLayerOnce) {
  const plan::ParallelPlan p = NonUniform();
  // For each layer, gather the slices issued across pipeline-1 GPUs: each
  // of the TPmax = 4 slice indices must appear exactly once.
  std::map<std::pair<int, int>, int> issued;
  for (topo::GpuId g : {8, 9, 10, 11, 12, 13, 14, 15}) {
    for (const auto& call : CollectiveCallOrder(p, g)) {
      issued[call] += 1;
    }
  }
  EXPECT_EQ(issued.size(), 60u * 4u);
  for (const auto& [call, count] : issued) EXPECT_EQ(count, 1);
}

TEST_F(ShardingTest, MigrationNoOpForIdenticalPlans) {
  const plan::ParallelPlan p = Uniform(2, 4, 4);
  Result<MigrationPlan> m = ComputeMigration(p, p, cost_);
  ASSERT_TRUE(m.ok()) << m.status();
  EXPECT_TRUE(m->transfers.empty());
  EXPECT_DOUBLE_EQ(m->total_bytes, 0.0);
}

TEST_F(ShardingTest, MigrationMovesOnlyAffectedLayers) {
  // Shifting one layer between two stages of one pipeline moves ~one
  // layer's states for that replica, nothing else.
  plan::ParallelPlan from = Uniform(2, 4, 4);
  plan::ParallelPlan to = from;
  to.pipelines[0].stages[0].num_layers -= 1;
  to.pipelines[0].stages[1].num_layers += 1;
  Result<MigrationPlan> m = ComputeMigration(from, to, cost_);
  ASSERT_TRUE(m.ok());
  const double layer_bytes =
      (2.0 + model::kShardedBytesPerParam / 2) *
      static_cast<double>(cost_.spec().ParamsPerLayer());
  EXPECT_NEAR(m->total_bytes, layer_bytes, layer_bytes * 0.01);
}

TEST_F(ShardingTest, MigrationVolumeBoundedByModelStates) {
  // Even a complete re-layout moves at most every replica's weights +
  // optimizer shard.
  const plan::ParallelPlan from = Uniform(2, 4, 4);
  plan::ParallelPlan to = Uniform(4, 2, 4);
  to.global_batch = from.global_batch;
  Result<MigrationPlan> m = ComputeMigration(from, to, cost_);
  ASSERT_TRUE(m.ok());
  const double upper =
      to.dp_degree() *
          (2.0 * static_cast<double>(cost_.spec().TotalParams())) +
      model::kShardedBytesPerParam *
          static_cast<double>(cost_.spec().TotalParams());
  EXPECT_GT(m->total_bytes, 0.0);
  EXPECT_LT(m->total_bytes, upper);
  EXPECT_EQ(m->num_packs, (60 + 3) / 4);
}

TEST_F(ShardingTest, MigrationTimePositiveAndModest) {
  const plan::ParallelPlan from = Uniform(2, 4, 4);
  plan::ParallelPlan to = Uniform(2, 2, 8);
  Result<MigrationPlan> m = ComputeMigration(from, to, cost_);
  ASSERT_TRUE(m.ok());
  const double seconds = MigrationSeconds(*m, cluster_);
  // The paper reports ~1-5 s migrations.
  EXPECT_GT(seconds, 0.0);
  EXPECT_LT(seconds, 30.0);
}

TEST_F(ShardingTest, DpGrowthSourcesFromExistingReplicas) {
  const plan::ParallelPlan from = Uniform(2, 4, 4);
  plan::ParallelPlan to = Uniform(4, 4, 2);
  Result<MigrationPlan> m = ComputeMigration(from, to, cost_);
  ASSERT_TRUE(m.ok());
  // New replicas fetch full weights: substantial volume.
  EXPECT_GT(m->total_bytes,
            static_cast<double>(cost_.spec().TotalParams()));
}

}  // namespace
}  // namespace core
}  // namespace malleus
