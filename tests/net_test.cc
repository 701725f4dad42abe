// Tests for src/net: fabric link graph construction, flow-level simulation
// under max–min fair share, agreement with the analytic collective model
// when uncontended, contention behavior on shared links, and deterministic
// metrics output.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "model/cost_model.h"
#include "net/fabric.h"
#include "net/flow_sim.h"
#include "obs/metrics.h"
#include "plan/estimator.h"
#include "plan/uniform.h"
#include "sim/collective.h"
#include "sim/pipeline_sim.h"
#include "testkit/flow_sim_reference.h"

namespace malleus {
namespace net {
namespace {

// Relative difference helper for the "within 1%" acceptance bounds.
double RelDiff(double a, double b) {
  return std::abs(a - b) / std::max(std::abs(a), std::abs(b));
}

// Narrowest capacity on fabric.Route(src, dst): the bandwidth one isolated
// flow sees (+inf for loopback).
double PathBandwidth(const Fabric& fabric, topo::GpuId src, topo::GpuId dst) {
  double bw = std::numeric_limits<double>::infinity();
  for (LinkId l : fabric.Route(src, dst)) {
    bw = std::min(bw, fabric.link(l).capacity_bps);
  }
  return bw;
}

class FabricTest : public ::testing::Test {
 protected:
  topo::ClusterSpec cluster_ = topo::ClusterSpec::A800Cluster(2);
  Fabric fabric_{cluster_};
};

TEST_F(FabricTest, LinkLayout) {
  const int gpus = cluster_.num_gpus();
  const int nodes = cluster_.num_nodes();
  EXPECT_EQ(fabric_.num_links(), 2 * gpus + 2 * nodes);
  // NVLink ports carry the intra-node bandwidth, NICs the inter-node one.
  EXPECT_DOUBLE_EQ(fabric_.link(fabric_.GpuOut(0)).capacity_bps, 400e9);
  EXPECT_DOUBLE_EQ(fabric_.link(fabric_.GpuIn(5)).capacity_bps, 400e9);
  EXPECT_DOUBLE_EQ(fabric_.link(fabric_.NicOut(0)).capacity_bps, 200e9);
  EXPECT_DOUBLE_EQ(fabric_.link(fabric_.NicIn(1)).capacity_bps, 200e9);
  EXPECT_EQ(fabric_.link(fabric_.GpuOut(3)).name, "gpu3.out");
  EXPECT_EQ(fabric_.link(fabric_.NicIn(1)).name, "node1.nic.in");
}

TEST_F(FabricTest, Routes) {
  // Loopback crosses nothing.
  EXPECT_TRUE(fabric_.Route(2, 2).empty());
  // Intra-node: sender egress, receiver ingress.
  const std::vector<LinkId> intra = fabric_.Route(0, 1);
  ASSERT_EQ(intra.size(), 2u);
  EXPECT_EQ(intra[0], fabric_.GpuOut(0));
  EXPECT_EQ(intra[1], fabric_.GpuIn(1));
  // Cross-node additionally crosses both nodes' NICs.
  const std::vector<LinkId> cross = fabric_.Route(0, 8);
  ASSERT_EQ(cross.size(), 4u);
  EXPECT_EQ(cross[0], fabric_.GpuOut(0));
  EXPECT_EQ(cross[1], fabric_.NicOut(0));
  EXPECT_EQ(cross[2], fabric_.NicIn(1));
  EXPECT_EQ(cross[3], fabric_.GpuIn(8));
}

TEST_F(FabricTest, PathBandwidthMatchesCluster) {
  EXPECT_DOUBLE_EQ(PathBandwidth(fabric_, 0, 1),
                   cluster_.BandwidthBytesPerSec(0, 1));
  EXPECT_DOUBLE_EQ(PathBandwidth(fabric_, 0, 8),
                   cluster_.BandwidthBytesPerSec(0, 8));
}

TEST(NetModelTest, ParseAndName) {
  Result<NetModel> analytic = ParseNetModel("analytic");
  ASSERT_TRUE(analytic.ok());
  EXPECT_EQ(*analytic, NetModel::kAnalytic);
  Result<NetModel> flow = ParseNetModel("flow");
  ASSERT_TRUE(flow.ok());
  EXPECT_EQ(*flow, NetModel::kFlow);
  EXPECT_FALSE(ParseNetModel("fancy").ok());
  EXPECT_STREQ(NetModelName(NetModel::kAnalytic), "analytic");
  EXPECT_STREQ(NetModelName(NetModel::kFlow), "flow");
}

class FlowSimTest : public ::testing::Test {
 protected:
  topo::ClusterSpec cluster_ = topo::ClusterSpec::A800Cluster(2);
  Fabric fabric_{cluster_};
};

TEST_F(FlowSimTest, SingleFlowMatchesAnalytic) {
  // Acceptance: an isolated flow reproduces the analytic transfer time to
  // within 1% (it is exact by construction).
  for (const topo::GpuId dst : {topo::GpuId{1}, topo::GpuId{8}}) {
    const double analytic = sim::P2pSeconds(cluster_, 0, dst, 1e9);
    FlowSim fs(fabric_);
    const int64_t id = fs.Submit({0, dst, 1e9});
    fs.Run();
    EXPECT_LT(RelDiff(fs.outcome(id).seconds, analytic), 0.01)
        << "dst=" << dst;
  }
}

TEST_F(FlowSimTest, DegenerateFlows) {
  FlowSim fs(fabric_);
  const int64_t loopback = fs.Submit({3, 3, 1e9, /*start_seconds=*/2.0});
  const int64_t empty = fs.Submit({0, 1, 0.0, /*start_seconds=*/1.0});
  fs.Run();
  EXPECT_DOUBLE_EQ(fs.outcome(loopback).seconds, 0.0);
  // A zero-byte flow still pays the path latency (up to rounding against
  // its absolute start time).
  EXPECT_NEAR(fs.outcome(empty).seconds, cluster_.LatencySec(0, 1), 1e-12);
}

TEST_F(FlowSimTest, RingCollectiveMatchesAnalytic) {
  // An uncontended grad-sync ring lowered onto FlowSim agrees with the
  // closed form the product prices it with (plan::AnalyticRingSeconds):
  // each ring hop has dedicated ports, so no flow is slowed down. The flow
  // side submits the ring as plan::EstimateGradSyncSeconds does.
  for (const std::vector<topo::GpuId>& peers :
       {std::vector<topo::GpuId>{0, 1, 2, 3}, {0, 1, 8, 9}, {0, 8}}) {
    plan::GradSyncRing ring;
    ring.peers = peers;
    ring.bytes_per_gpu = 4e9;
    for (size_t q = 1; q < peers.size(); ++q) {
      ring.hop_latency = std::max(ring.hop_latency,
                                  cluster_.LatencySec(peers[0], peers[q]));
    }
    const int dp_degree = static_cast<int>(peers.size());
    const double dp = static_cast<double>(dp_degree);
    FlowSim fs(fabric_);
    SubmitRing(&fs, ring.peers, ring.bytes_per_gpu * ((dp - 1.0) / dp),
               /*start_seconds=*/0.0, 2.0 * dp * ring.hop_latency);
    fs.Run();
    EXPECT_LT(RelDiff(fs.MakespanSeconds(),
                      plan::AnalyticRingSeconds(ring, dp_degree, cluster_)),
              1e-12)
        << "ring ending at GPU " << peers.back();
  }
}

TEST_F(FlowSimTest, TwoFlowsOnSharedNicHalveBandwidth) {
  // Acceptance: two concurrent cross-node flows from distinct GPUs of node
  // 0 to distinct GPUs of node 1 share both the node-0 NIC egress and the
  // node-1 NIC ingress, so each observes half the isolated bandwidth.
  const double bytes = 10e9;
  const double isolated = bytes / 200e9;
  FlowSim fs(fabric_);
  const int64_t a = fs.Submit({0, 8, bytes, 0.0, /*latency_seconds=*/0.0});
  const int64_t b = fs.Submit({1, 9, bytes, 0.0, /*latency_seconds=*/0.0});
  fs.Run();
  EXPECT_LT(RelDiff(fs.outcome(a).seconds, 2.0 * isolated), 0.01);
  EXPECT_LT(RelDiff(fs.outcome(b).seconds, 2.0 * isolated), 0.01);
  // The shared NIC saturates; per-link accounting sees both flows.
  const LinkUsage& nic = fs.link_usage()[fabric_.NicOut(0)];
  EXPECT_DOUBLE_EQ(nic.bytes, 2.0 * bytes);
  EXPECT_DOUBLE_EQ(nic.peak_utilization, 1.0);
}

TEST_F(FlowSimTest, MaxMinSharesRecomputeOnDeparture) {
  // Flow B starts when A is half done; after A drains, B gets the full
  // link. A: full rate for t0, half rate until done. With byte volume V
  // and isolated time T: A ends at 1.5 T, B (same volume) ends at 2 T.
  const double bytes = 10e9;
  const double t_iso = bytes / 200e9;
  FlowSim fs(fabric_);
  const int64_t a = fs.Submit({0, 8, bytes, 0.0, /*latency_seconds=*/0.0});
  const int64_t b = fs.Submit(
      {1, 9, bytes, 0.5 * t_iso, /*latency_seconds=*/0.0});
  fs.Run();
  EXPECT_LT(RelDiff(fs.outcome(a).end_seconds, 1.5 * t_iso), 0.01);
  EXPECT_LT(RelDiff(fs.outcome(b).end_seconds, 2.0 * t_iso), 0.01);
}

TEST_F(FlowSimTest, DisjointFlowsDoNotInteract) {
  // Different node pairs, different ports: both flows run at full rate.
  const double bytes = 10e9;
  FlowSim fs(fabric_);
  const int64_t a = fs.Submit({0, 1, bytes, 0.0, /*latency_seconds=*/0.0});
  const int64_t b = fs.Submit({2, 3, bytes, 0.0, /*latency_seconds=*/0.0});
  fs.Run();
  EXPECT_LT(RelDiff(fs.outcome(a).seconds, bytes / 400e9), 0.01);
  EXPECT_LT(RelDiff(fs.outcome(b).seconds, bytes / 400e9), 0.01);
}

TEST_F(FlowSimTest, SubmitRingDegenerateGroups) {
  FlowSim fs(fabric_);
  EXPECT_TRUE(SubmitRing(&fs, {}, 1e9, 0.0, 0.0).empty());
  EXPECT_TRUE(SubmitRing(&fs, {3}, 1e9, 0.0, 0.0).empty());
}

TEST_F(FlowSimTest, RecordsMetrics) {
  obs::MetricsRegistry::Global().ResetAll();
  FlowSim fs(fabric_);
  fs.Submit({0, 8, 10e9, 0.0});
  fs.Submit({1, 9, 10e9, 0.0});
  fs.Run();
  RecordFlowSimMetrics(fs);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  EXPECT_DOUBLE_EQ(registry.GetCounter("net.flows")->Value(), 2.0);
  EXPECT_DOUBLE_EQ(registry.GetCounter("net.bytes_total")->Value(), 20e9);
  EXPECT_DOUBLE_EQ(
      registry.GetCounter("net.link.node0.nic.out.bytes")->Value(), 20e9);
  EXPECT_DOUBLE_EQ(
      registry.GetGauge("net.peak_link_utilization")->Value(), 1.0);
  obs::MetricsRegistry::Global().ResetAll();
}

// Acceptance: for a fixed seed the flow model is deterministic — two
// simulations of the same step produce byte-identical fabric metrics.
TEST(FlowDeterminismTest, MetricsAreByteIdentical) {
  const topo::ClusterSpec cluster = topo::ClusterSpec::A800Cluster(2);
  const model::CostModel cost(model::ModelSpec::Tiny(), cluster.gpu());
  plan::UniformConfig cfg;
  cfg.dp = 4;
  cfg.tp = 2;
  cfg.pp = 2;
  cfg.global_batch = 32;
  Result<plan::ParallelPlan> p =
      plan::BuildUniformPlan(cluster, cost, cluster.AllGpus(), cfg);
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  const straggler::Situation healthy(cluster.num_gpus());
  sim::SimOptions options;
  options.net_model = NetModel::kFlow;

  std::string snapshots[2];
  for (std::string& snapshot : snapshots) {
    obs::MetricsRegistry::Global().ResetAll();
    Rng rng(1234);
    Result<sim::StepResult> step =
        sim::SimulateStep(cluster, cost, *p, healthy, options, &rng);
    ASSERT_TRUE(step.ok());
    snapshot = obs::MetricsRegistry::Global().ToJson();
  }
  EXPECT_EQ(snapshots[0], snapshots[1]);
  EXPECT_NE(snapshots[0].find("net.bytes_total"), std::string::npos);
  obs::MetricsRegistry::Global().ResetAll();
}

// The flow step simulator never prices a step cheaper than pure analytic
// comm, and contention can only slow a step down.
TEST(FlowStepTest, FlowStepAtLeastAnalytic) {
  const topo::ClusterSpec cluster = topo::ClusterSpec::A800Cluster(2);
  const model::CostModel cost(model::ModelSpec::Tiny(), cluster.gpu());
  plan::UniformConfig cfg;
  cfg.dp = 4;
  cfg.tp = 2;
  cfg.pp = 2;
  cfg.global_batch = 32;
  Result<plan::ParallelPlan> p =
      plan::BuildUniformPlan(cluster, cost, cluster.AllGpus(), cfg);
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  const straggler::Situation healthy(cluster.num_gpus());

  double seconds[2];
  for (const NetModel model : {NetModel::kAnalytic, NetModel::kFlow}) {
    sim::SimOptions options;
    options.timing_noise_stddev = 0.0;
    options.net_model = model;
    Rng rng(7);
    Result<sim::StepResult> step =
        sim::SimulateStep(cluster, cost, *p, healthy, options, &rng);
    ASSERT_TRUE(step.ok());
    seconds[model == NetModel::kFlow] = step->step_seconds;
  }
  EXPECT_GE(seconds[1], seconds[0] * (1.0 - 1e-9));
}

topo::ClusterSpec FatTreeCluster(int nodes, int gpn, int nodes_per_pod,
                                 double oversub) {
  topo::FabricSpec f;
  f.kind = topo::FabricSpec::Kind::kFatTree;
  f.nodes_per_pod = nodes_per_pod;
  f.oversubscription = oversub;
  return topo::ClusterSpec(nodes, gpn, topo::GpuSpec(), topo::LinkSpec(), f);
}

topo::ClusterSpec RailCluster(int nodes, int gpn, double oversub) {
  topo::FabricSpec f;
  f.kind = topo::FabricSpec::Kind::kRail;
  f.oversubscription = oversub;
  return topo::ClusterSpec(nodes, gpn, topo::GpuSpec(), topo::LinkSpec(), f);
}

TEST(HierFabricTest, FatTreeLinkLayoutAndRoutes) {
  // 4 nodes x 4 GPUs, pods of 2 nodes: 32 GPU ports + 8 NIC ports + 4 pod
  // uplinks.
  const topo::ClusterSpec cluster = FatTreeCluster(4, 4, 2, 4.0);
  const Fabric fabric(cluster);
  EXPECT_EQ(fabric.num_links(), 2 * 16 + 2 * 4 + 2 * 2);
  EXPECT_EQ(fabric.link(fabric.PodUp(0)).name, "pod0.up");
  EXPECT_EQ(fabric.link(fabric.PodDown(1)).name, "pod1.down");
  // Pod uplink capacity: 2 x 200 GB/s / 4:1 = 100 GB/s.
  EXPECT_DOUBLE_EQ(fabric.link(fabric.PodUp(0)).capacity_bps, 100e9);

  // Intra-pod cross-node route: the seed 4-link shape, no spine.
  const std::vector<LinkId> intra_pod = fabric.Route(0, 4);
  ASSERT_EQ(intra_pod.size(), 4u);
  EXPECT_EQ(intra_pod[1], fabric.NicOut(0));
  EXPECT_EQ(intra_pod[2], fabric.NicIn(1));

  // Cross-pod route is deterministic: src pod up, then dst pod down.
  const std::vector<LinkId> cross_pod = fabric.Route(0, 12);
  ASSERT_EQ(cross_pod.size(), 6u);
  EXPECT_EQ(cross_pod[0], fabric.GpuOut(0));
  EXPECT_EQ(cross_pod[1], fabric.NicOut(0));
  EXPECT_EQ(cross_pod[2], fabric.PodUp(0));
  EXPECT_EQ(cross_pod[3], fabric.PodDown(1));
  EXPECT_EQ(cross_pod[4], fabric.NicIn(3));
  EXPECT_EQ(cross_pod[5], fabric.GpuIn(12));
  EXPECT_DOUBLE_EQ(PathBandwidth(fabric, 0, 12),
                   cluster.BandwidthBytesPerSec(0, 12));
}

TEST(HierFabricTest, RailLinkLayoutAndRoutes) {
  // 2 nodes x 4 GPUs rail-optimized: 16 GPU ports + 16 per-GPU NIC ports +
  // 8 rail uplinks.
  const topo::ClusterSpec cluster = RailCluster(2, 4, 2.0);
  const Fabric fabric(cluster);
  EXPECT_EQ(fabric.num_links(), 2 * 8 + 2 * 8 + 2 * 4);
  EXPECT_EQ(fabric.link(fabric.GpuNicOut(3)).name, "gpu3.nic.out");
  EXPECT_EQ(fabric.link(fabric.RailUp(2)).name, "rail2.up");
  // Rail uplink: 2 nodes x 200 GB/s / 2:1 = 200 GB/s.
  EXPECT_DOUBLE_EQ(fabric.link(fabric.RailUp(0)).capacity_bps, 200e9);

  // Same node: NVLink, never the NICs.
  EXPECT_EQ(fabric.Route(0, 1).size(), 2u);
  // Same rail cross-node: per-GPU NICs, no spine.
  const std::vector<LinkId> same_rail = fabric.Route(1, 5);
  ASSERT_EQ(same_rail.size(), 4u);
  EXPECT_EQ(same_rail[1], fabric.GpuNicOut(1));
  EXPECT_EQ(same_rail[2], fabric.GpuNicIn(5));
  // Cross rail: src rail up, dst rail down.
  const std::vector<LinkId> cross_rail = fabric.Route(0, 5);
  ASSERT_EQ(cross_rail.size(), 6u);
  EXPECT_EQ(cross_rail[2], fabric.RailUp(0));
  EXPECT_EQ(cross_rail[3], fabric.RailDown(1));
}

TEST(HierFabricTest, OversubscribedSpineContention) {
  // 2 pods x 2 nodes x 2 GPUs at 4:1: the pod-0 uplink tapers to
  // 2 x 200 / 4 = 100 GB/s. Two concurrent cross-pod flows from different
  // nodes of pod 0 have dedicated NICs but share that uplink, so each gets
  // 50 GB/s — 4x slower than the un-tapered NIC-limited transfer.
  const topo::ClusterSpec cluster = FatTreeCluster(4, 2, 2, 4.0);
  const Fabric fabric(cluster);
  const double bytes = 10e9;
  FlowSim fs(fabric);
  const int64_t a = fs.Submit({0, 4, bytes, 0.0, /*latency_seconds=*/0.0});
  const int64_t b = fs.Submit({2, 6, bytes, 0.0, /*latency_seconds=*/0.0});
  fs.Run();
  EXPECT_LT(RelDiff(fs.outcome(a).seconds, bytes / 50e9), 0.01);
  EXPECT_LT(RelDiff(fs.outcome(b).seconds, bytes / 50e9), 0.01);
  const LinkUsage& up = fs.link_usage()[fabric.PodUp(0)];
  EXPECT_DOUBLE_EQ(up.bytes, 2.0 * bytes);
  EXPECT_DOUBLE_EQ(up.peak_utilization, 1.0);
}

TEST(HierFabricTest, IncrementalMatchesLegacyBitwise) {
  // The incremental max–min engine must be bit-identical to the
  // from-scratch reference engine, including on hierarchical fabrics with
  // staggered arrivals and shared spine uplinks.
  const topo::ClusterSpec cluster = FatTreeCluster(4, 4, 2, 2.0);
  const Fabric fabric(cluster);
  std::vector<Flow> flows;
  for (topo::GpuId src = 0; src < cluster.num_gpus(); ++src) {
    const topo::GpuId dst = (src * 7 + 5) % cluster.num_gpus();
    if (dst == src) continue;
    flows.push_back({src, dst, 1e9 + 1e8 * src, 1e-4 * (src % 5)});
  }
  FlowSim inc(fabric);
  for (const Flow& f : flows) inc.Submit(f);
  inc.Run();
  const testkit::ReferenceFlowSimResult ref =
      testkit::RunReferenceFlowSim(fabric, flows);
  EXPECT_DOUBLE_EQ(inc.MakespanSeconds(), ref.makespan_seconds);
  for (size_t i = 0; i < flows.size(); ++i) {
    EXPECT_DOUBLE_EQ(inc.outcome(i).seconds, ref.outcomes[i].seconds) << i;
    EXPECT_DOUBLE_EQ(inc.outcome(i).end_seconds, ref.outcomes[i].end_seconds)
        << i;
  }
  for (int l = 0; l < fabric.num_links(); ++l) {
    EXPECT_DOUBLE_EQ(inc.link_usage()[l].bytes, ref.link_usage[l].bytes);
    EXPECT_DOUBLE_EQ(inc.link_usage()[l].peak_utilization,
                     ref.link_usage[l].peak_utilization);
  }
}

}  // namespace
}  // namespace net
}  // namespace malleus
