// Tests for core/checkpoint: sharded save/load volume accounting and the
// node-parallel I/O time model.

#include <gtest/gtest.h>

#include "core/checkpoint.h"
#include "plan/uniform.h"

namespace malleus {
namespace core {
namespace {

class CheckpointTest : public ::testing::Test {
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

  topo::ClusterSpec cluster_ = topo::ClusterSpec::A800Cluster(4);
  model::CostModel cost_{model::ModelSpec::Llama32B(), topo::GpuSpec()};
};

TEST_F(CheckpointTest, SaveVolumeIsWeightsPlusOptimizer) {
  const plan::ParallelPlan p = Uniform(2, 4, 4);
  Result<CheckpointIoPlan> save = PlanCheckpointSave(p, cost_);
  ASSERT_TRUE(save.ok()) << save.status();
  // One copy of bf16 weights + the full fp32 optimizer, for all layers
  // (embedding/head states excluded from the per-layer model).
  const double layers = cost_.spec().num_layers *
                        static_cast<double>(cost_.spec().ParamsPerLayer());
  const double expected = layers * (2.0 + model::kShardedBytesPerParam);
  EXPECT_NEAR(save->total_bytes, expected, expected * 1e-9);
}

TEST_F(CheckpointTest, LoadVolumeCountsEveryReplica) {
  const plan::ParallelPlan p = Uniform(2, 4, 4);
  Result<CheckpointIoPlan> save = PlanCheckpointSave(p, cost_);
  Result<CheckpointIoPlan> load = PlanCheckpointLoad(p, cost_);
  ASSERT_TRUE(save.ok());
  ASSERT_TRUE(load.ok());
  // Load reads weights once per replica: dp copies vs save's single copy.
  const double layers = cost_.spec().num_layers *
                        static_cast<double>(cost_.spec().ParamsPerLayer());
  EXPECT_NEAR(load->total_bytes - save->total_bytes, layers * 2.0,
              layers * 2.0 * 1e-9);
}

TEST_F(CheckpointTest, SaveSpreadsAcrossGpus) {
  const plan::ParallelPlan p = Uniform(2, 4, 4);
  Result<CheckpointIoPlan> save = PlanCheckpointSave(p, cost_);
  ASSERT_TRUE(save.ok());
  // Replica 0 writes all weights; optimizer shards alternate replicas, so
  // at least three quarters of the fleet participates.
  EXPECT_GE(save->bytes_per_gpu.size(), 24u);
  double max_share = 0.0;
  for (const auto& [gpu, bytes] : save->bytes_per_gpu) {
    max_share = std::max(max_share, bytes / save->total_bytes);
  }
  EXPECT_LT(max_share, 0.12);  // No single hotspot.
}

TEST_F(CheckpointTest, IoSecondsBottleneckedByBusiestNode) {
  CheckpointIoPlan io;
  io.bytes_per_gpu[0] = 10e9;  // Node 0.
  io.bytes_per_gpu[1] = 10e9;  // Node 0.
  io.bytes_per_gpu[8] = 4e9;   // Node 1.
  io.total_bytes = 24e9;
  EXPECT_NEAR(CheckpointIoSeconds(io, cluster_), 20e9 / 2e9, 1e-9);
}

TEST_F(CheckpointTest, MoreNodesLoadFaster) {
  const plan::ParallelPlan wide = Uniform(2, 4, 4);   // 4 nodes.
  const plan::ParallelPlan narrow = Uniform(2, 4, 2);  // 2 nodes.
  Result<CheckpointIoPlan> lw = PlanCheckpointLoad(wide, cost_);
  Result<CheckpointIoPlan> ln = PlanCheckpointLoad(narrow, cost_);
  ASSERT_TRUE(lw.ok());
  ASSERT_TRUE(ln.ok());
  EXPECT_LT(CheckpointIoSeconds(*lw, cluster_),
            CheckpointIoSeconds(*ln, cluster_));
}

}  // namespace
}  // namespace core
}  // namespace malleus
