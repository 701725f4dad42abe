#include "plan/estimator.h"

#include <algorithm>

#include "net/flow_sim.h"

namespace malleus {
namespace plan {

namespace {

// True iff two stages' layer ranges [a0, a1) and [b0, b1) intersect.
bool Overlaps(int a0, int a1, int b0, int b1) { return a0 < b1 && b0 < a1; }

}  // namespace

double StageTimePerMicrobatch(const Stage& stage, int micro_batch_size,
                              const model::CostModel& cost,
                              const straggler::Situation& situation) {
  if (stage.num_layers == 0) return 0.0;
  const double y = stage.group.Rate(cost, situation);
  return y * stage.num_layers * cost.TauSeconds(micro_batch_size);
}

StepEstimate EstimateStep(const ParallelPlan& p, const model::CostModel& cost,
                          const straggler::Situation& situation) {
  StepEstimate est;
  const double ac_factor = p.activation_checkpointing
                               ? cost.config().ac_compute_overhead
                               : 1.0;
  for (const Pipeline& pipe : p.pipelines) {
    double max_t = 0.0;
    double sum_t = 0.0;
    for (const Stage& s : pipe.stages) {
      const double t =
          ac_factor *
          StageTimePerMicrobatch(s, p.micro_batch_size, cost, situation);
      max_t = std::max(max_t, t);
      sum_t += t;
    }
    const double m = static_cast<double>(pipe.num_microbatches);
    const double full = (m - 1.0) * max_t + sum_t;
    const double simplified = m * max_t;
    est.pipeline_seconds.push_back(full);
    est.step_seconds = std::max(est.step_seconds, full);
    est.simplified_seconds = std::max(est.simplified_seconds, simplified);
  }
  return est;
}

std::vector<GradSyncRing> CollectGradSyncRings(
    const ParallelPlan& p, const model::CostModel& cost,
    const topo::ClusterSpec& cluster) {
  const int dp = p.dp_degree();
  // Precompute each stage's layer offset within its pipeline.
  std::vector<std::vector<int>> offsets(dp);
  for (int i = 0; i < dp; ++i) {
    int off = 0;
    for (const Stage& s : p.pipelines[i].stages) {
      offsets[i].push_back(off);
      off += s.num_layers;
    }
  }
  std::vector<GradSyncRing> rings;
  if (dp <= 1) return rings;
  for (int i = 0; i < dp; ++i) {
    const Pipeline& pipe = p.pipelines[i];
    for (int j = 0; j < pipe.num_stages(); ++j) {
      const Stage& s = pipe.stages[j];
      if (s.num_layers == 0) continue;
      const int lo = offsets[i][j];
      const int hi = lo + s.num_layers;
      GradSyncRing ring;
      ring.pipeline = i;
      ring.stage = j;
      // DP peers: the representative GPU of every overlapping stage in
      // the other pipelines (the slice owners the ring passes through).
      ring.peers = {s.group.gpus.front()};
      for (int i2 = 0; i2 < dp; ++i2) {
        if (i2 == i) continue;
        const Pipeline& other = p.pipelines[i2];
        for (int j2 = 0; j2 < other.num_stages(); ++j2) {
          const Stage& s2 = other.stages[j2];
          if (Overlaps(lo, hi, offsets[i2][j2],
                       offsets[i2][j2] + s2.num_layers)) {
            ring.peers.push_back(s2.group.gpus.front());
          }
        }
      }
      for (size_t q = 1; q < ring.peers.size(); ++q) {
        ring.hop_latency = std::max(
            ring.hop_latency,
            cluster.LatencySec(ring.peers[0], ring.peers[q]));
      }
      // Per-GPU traffic: bf16 gradients out + bf16 parameters back.
      ring.bytes_per_gpu = 2.0 * s.num_layers *
                           cost.GradSyncBytesPerLayer() / s.group.size();
      rings.push_back(std::move(ring));
    }
  }
  return rings;
}

double AnalyticRingSeconds(const GradSyncRing& ring, int dp_degree,
                           const topo::ClusterSpec& cluster) {
  const double dp = static_cast<double>(dp_degree);
  const double bw = topo::GroupBottleneckBandwidth(cluster, ring.peers);
  return ring.bytes_per_gpu * ((dp - 1.0) / dp) / bw +
         2.0 * dp * ring.hop_latency;
}

double EstimateGradSyncSeconds(const ParallelPlan& p,
                               const model::CostModel& cost,
                               const topo::ClusterSpec& cluster,
                               net::NetModel model) {
  const std::vector<GradSyncRing> rings =
      CollectGradSyncRings(p, cost, cluster);
  if (rings.empty()) return 0.0;
  const double dp = static_cast<double>(p.dp_degree());
  if (model == net::NetModel::kAnalytic) {
    double sync = 0.0;
    for (const GradSyncRing& ring : rings) {
      sync = std::max(sync, AnalyticRingSeconds(ring, p.dp_degree(), cluster));
    }
    return sync;
  }
  // Flow model: all rings start together in one fabric session, so rings
  // from different stages contend for shared NVLink ports and node NICs.
  const net::Fabric fabric(cluster);
  net::FlowSim fs(fabric);
  for (const GradSyncRing& ring : rings) {
    net::SubmitRing(&fs, ring.peers,
                    ring.bytes_per_gpu * ((dp - 1.0) / dp),
                    /*start_seconds=*/0.0, 2.0 * dp * ring.hop_latency);
  }
  fs.Run();
  return fs.MakespanSeconds();
}

}  // namespace plan
}  // namespace malleus
