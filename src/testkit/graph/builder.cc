#include "testkit/graph/builder.h"

#include <algorithm>
#include <vector>

#include "common/logging.h"
#include "common/string_util.h"
#include "sim/pipeline_sim.h"

namespace malleus {
namespace testkit {
namespace graph {

namespace {

// Stage of `pipeline` hosting `layer`, or -1.
int StageOfLayer(const plan::Pipeline& pipeline, int layer) {
  int offset = 0;
  for (size_t j = 0; j < pipeline.stages.size(); ++j) {
    const int next = offset + pipeline.stages[j].num_layers;
    if (layer >= offset && layer < next) return static_cast<int>(j);
    offset = next;
  }
  return -1;
}

int MaxTpDegreeForLayer(const plan::ParallelPlan& p, int layer) {
  int tp_max = 0;
  for (const plan::Pipeline& pipe : p.pipelines) {
    const int j = StageOfLayer(pipe, layer);
    if (j >= 0) tp_max = std::max(tp_max, pipe.stages[j].group.size());
  }
  return tp_max;
}

struct PipelineBuild {
  // Compute op ids, indexed [stage][micro].
  std::vector<std::vector<OpId>> fwd_ids;
  std::vector<std::vector<OpId>> bwd_ids;
  // Last backward op of each stage (the gradient-sync dependency).
  std::vector<OpId> last_bwd;
};

// Emits the 1F1B compute + P2P ops of one pipeline, in an insertion order
// that is simultaneously topological and per-stage issue order: stages are
// swept repeatedly and a task is appended as soon as its producer exists.
PipelineBuild BuildPipeline(Graph* g, const plan::ParallelPlan& p,
                            int pipeline_index, const model::CostModel& cost,
                            const BuildOptions& options) {
  const plan::Pipeline& pipe = p.pipelines[pipeline_index];
  const int pp = pipe.num_stages();
  const int64_t m = pipe.num_microbatches;
  const int b = p.micro_batch_size;
  const double ac =
      p.activation_checkpointing ? model::kAcComputeOverhead : 1.0;

  PipelineBuild out;
  out.fwd_ids.assign(pp, std::vector<OpId>(m, -1));
  out.bwd_ids.assign(pp, std::vector<OpId>(m, -1));
  out.last_bwd.assign(pp, -1);

  std::vector<std::vector<sim::StageTask>> seq(pp);
  for (int j = 0; j < pp; ++j) {
    seq[j] = sim::Build1F1BSchedule(j, pp, m);
  }
  std::vector<size_t> pos(pp, 0);
  // The previous op of each stage: chains the stage's issue order into
  // explicit dependencies so the graph is self-contained.
  std::vector<OpId> prev_in_stage(pp, -1);

  const double p2p_bytes = cost.P2pActivationBytes(b);

  size_t total_done = 0;
  const size_t total = static_cast<size_t>(pp) * 2 * m;
  while (total_done < total) {
    bool progressed = false;
    for (int j = 0; j < pp; ++j) {
      while (pos[j] < seq[j].size()) {
        const sim::StageTask& t = seq[j][pos[j]];
        const int64_t k = t.micro;
        std::vector<OpId> deps;
        if (prev_in_stage[j] >= 0) deps.push_back(prev_in_stage[j]);
        if (t.is_fwd && j > 0) {
          if (out.fwd_ids[j - 1][k] < 0) break;  // Producer not built yet.
          if (options.include_p2p) {
            Op xfer;
            xfer.kind = OpKind::kP2pTransfer;
            xfer.devices = {pipe.stages[j - 1].group.gpus.back(),
                            pipe.stages[j].group.gpus.front()};
            xfer.bytes = p2p_bytes;
            xfer.deps = {out.fwd_ids[j - 1][k]};
            xfer.pipeline = pipeline_index;
            xfer.stage = j;
            xfer.micro = k;
            deps.push_back(g->Add(std::move(xfer)));
          } else {
            deps.push_back(out.fwd_ids[j - 1][k]);
          }
        }
        if (!t.is_fwd && j < pp - 1) {
          if (out.bwd_ids[j + 1][k] < 0) break;
          if (options.include_p2p) {
            Op xfer;
            xfer.kind = OpKind::kP2pTransfer;
            xfer.devices = {pipe.stages[j + 1].group.gpus.front(),
                            pipe.stages[j].group.gpus.back()};
            xfer.bytes = p2p_bytes;
            xfer.deps = {out.bwd_ids[j + 1][k]};
            xfer.pipeline = pipeline_index;
            xfer.stage = j;
            xfer.micro = k;
            deps.push_back(g->Add(std::move(xfer)));
          } else {
            deps.push_back(out.bwd_ids[j + 1][k]);
          }
        }
        // The backward additionally consumes the same stage's stashed
        // forward activations, which the stage order already guarantees.
        const plan::Stage& stage = pipe.stages[j];
        const double t_full = cost.Rho(stage.group.size()) *
                              stage.num_layers * cost.TauSeconds(b);
        // Activation checkpointing re-runs the forward during backward;
        // the forward pass itself is unchanged.
        const double bwd_seconds =
            t_full * 2.0 / 3.0 + (ac - 1.0) * t_full;
        Op op;
        op.kind = t.is_fwd ? OpKind::kForward : OpKind::kBackward;
        op.devices = stage.group.gpus;
        op.base_seconds = t.is_fwd ? t_full / 3.0 : bwd_seconds;
        op.deps = std::move(deps);
        op.pipeline = pipeline_index;
        op.stage = j;
        op.micro = k;
        const OpId id = g->Add(std::move(op));
        (t.is_fwd ? out.fwd_ids : out.bwd_ids)[j][k] = id;
        prev_in_stage[j] = id;
        if (!t.is_fwd) out.last_bwd[j] = id;
        ++pos[j];
        ++total_done;
        progressed = true;
      }
    }
    MALLEUS_CHECK(progressed) << "1F1B graph construction stalled";
  }
  return out;
}

}  // namespace

Result<Graph> BuildStepGraph(const plan::ParallelPlan& p,
                             const model::CostModel& cost,
                             const BuildOptions& options) {
  if (p.pipelines.empty()) {
    return Status::InvalidArgument("plan has no pipelines");
  }
  Graph g;
  const int dp = p.dp_degree();

  std::vector<PipelineBuild> builds;
  builds.reserve(dp);
  for (int i = 0; i < dp; ++i) {
    builds.push_back(BuildPipeline(&g, p, i, cost, options));
  }

  // --- ZeRO-1 gradient sync + optimizer + parameter gather tail ---
  const int num_layers = p.pipelines[0].TotalLayers();
  const double layer_param_bytes = 2.0 * cost.spec().ParamsPerLayer();

  // Per-GPU reduce-scatter ops, needed as optimizer dependencies.
  std::map<topo::GpuId, std::vector<OpId>> rs_by_gpu;
  // (layer, slice) -> participants + their optimizer owner, for all-gather.
  struct SliceRing {
    std::vector<topo::GpuId> devices;
    topo::GpuId optimizer_owner = -1;
    double bytes = 0.0;
  };
  std::vector<SliceRing> rings;

  if (options.include_grad_sync && dp > 1) {
    for (int layer = 0; layer < num_layers; ++layer) {
      int tp_max = 0;
      std::vector<int> stage_of(dp);
      for (int i = 0; i < dp; ++i) {
        stage_of[i] = StageOfLayer(p.pipelines[i], layer);
        MALLEUS_CHECK_GE(stage_of[i], 0);
        tp_max = std::max(
            tp_max, p.pipelines[i].stages[stage_of[i]].group.size());
      }
      for (int slice = 0; slice < tp_max; ++slice) {
        SliceRing ring;
        ring.bytes = layer_param_bytes / tp_max;
        std::vector<OpId> deps;
        for (int i = 0; i < dp; ++i) {
          const plan::TpGroup& group =
              p.pipelines[i].stages[stage_of[i]].group;
          const int per = tp_max / group.size();
          ring.devices.push_back(group.gpus[slice / per]);
          deps.push_back(builds[i].last_bwd[stage_of[i]]);
        }
        // ZeRO-1 scatters the optimizer slices across the DP replicas
        // (strided by layer so dp > TPmax still uses every replica).
        ring.optimizer_owner = ring.devices[(layer * tp_max + slice) % dp];

        Op rs;
        rs.kind = OpKind::kReduceScatter;
        rs.devices = ring.devices;
        rs.bytes = ring.bytes;
        rs.deps = std::move(deps);
        rs.layer = layer;
        rs.slice = slice;
        const OpId id = g.Add(std::move(rs));
        for (topo::GpuId dev : g.op(id).devices) {
          rs_by_gpu[dev].push_back(id);
        }
        rings.push_back(std::move(ring));
      }
    }
  }

  // Optimizer updates: each GPU updates its ZeRO shard.
  std::map<topo::GpuId, OpId> opt_by_gpu;
  for (topo::GpuId gpu : p.ActiveGpus()) {
    Op opt;
    opt.kind = OpKind::kOptimizerStep;
    opt.devices = {gpu};
    double shard_bytes = 0.0;
    for (const SliceRing& ring : rings) {
      if (ring.optimizer_owner == gpu) {
        shard_bytes += ring.bytes * model::kShardedBytesPerParam / 2.0;
      }
    }
    opt.base_seconds = shard_bytes / options.optimizer_bytes_per_second;
    if (auto it = rs_by_gpu.find(gpu); it != rs_by_gpu.end()) {
      opt.deps = it->second;
    }
    opt_by_gpu[gpu] = g.Add(std::move(opt));
  }

  // All-gathers: retrieve the updated parameters, same (layer, slice) order.
  if (options.include_grad_sync && dp > 1) {
    size_t ring_index = 0;
    for (int layer = 0; layer < num_layers; ++layer) {
      int tp_max = 0;
      for (int i = 0; i < dp; ++i) {
        const int j = StageOfLayer(p.pipelines[i], layer);
        tp_max = std::max(tp_max, p.pipelines[i].stages[j].group.size());
      }
      for (int slice = 0; slice < tp_max; ++slice, ++ring_index) {
        const SliceRing& ring = rings[ring_index];
        Op ag;
        ag.kind = OpKind::kAllGather;
        ag.devices = ring.devices;
        ag.bytes = ring.bytes;
        ag.deps = {opt_by_gpu.at(ring.optimizer_owner)};
        ag.layer = layer;
        ag.slice = slice;
        g.Add(std::move(ag));
      }
    }
  }

  MALLEUS_RETURN_NOT_OK(g.Validate());
  return g;
}

int SliceCountForGpu(const plan::ParallelPlan& p, topo::GpuId gpu,
                     int layer) {
  const int tp_max = MaxTpDegreeForLayer(p, layer);
  for (const plan::Pipeline& pipe : p.pipelines) {
    const int j = StageOfLayer(pipe, layer);
    if (j < 0) continue;
    const plan::TpGroup& group = pipe.stages[j].group;
    for (topo::GpuId g : group.gpus) {
      if (g == gpu) return tp_max / group.size();
    }
  }
  return 0;
}

std::vector<std::pair<int, int>> CollectiveCallOrder(
    const plan::ParallelPlan& p, topo::GpuId gpu) {
  std::vector<std::pair<int, int>> calls;
  const int num_layers = p.pipelines.empty()
                             ? 0
                             : p.pipelines[0].TotalLayers();
  for (int layer = 0; layer < num_layers; ++layer) {
    const int tp_max = MaxTpDegreeForLayer(p, layer);
    for (const plan::Pipeline& pipe : p.pipelines) {
      const int j = StageOfLayer(pipe, layer);
      if (j < 0) continue;
      const plan::TpGroup& group = pipe.stages[j].group;
      const int n = group.size();
      for (int q = 0; q < n; ++q) {
        if (group.gpus[q] != gpu) continue;
        // GPU q owns slice indices [q*tp_max/n, (q+1)*tp_max/n), issued in
        // ascending order - identical across all participants of the ring.
        const int per = tp_max / n;
        for (int s = q * per; s < (q + 1) * per; ++s) {
          calls.push_back({layer, s});
        }
      }
    }
  }
  return calls;
}

}  // namespace graph
}  // namespace testkit
}  // namespace malleus
