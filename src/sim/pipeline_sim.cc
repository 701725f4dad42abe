#include "sim/pipeline_sim.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "common/logging.h"
#include "common/string_util.h"
#include "net/flow_sim.h"
#include "obs/trace.h"
#include "plan/estimator.h"
#include "sim/collective.h"

namespace malleus {
namespace sim {

std::vector<StageTask> Build1F1BSchedule(int stage, int num_stages,
                                         int64_t m) {
  std::vector<StageTask> seq;
  seq.reserve(2 * m);
  const int64_t warmup = std::min<int64_t>(m, num_stages - 1 - stage);
  for (int64_t k = 0; k < warmup; ++k) seq.push_back({true, k});
  for (int64_t k = 0; k < m - warmup; ++k) {
    seq.push_back({true, warmup + k});
    seq.push_back({false, k});
  }
  for (int64_t k = m - warmup; k < m; ++k) seq.push_back({false, k});
  return seq;
}

namespace {

// Per-boundary, per-micro-batch transfer durations of one pipeline.
// Boundary b (1 <= b < pp) sits between stage b-1 and stage b: fwd[b][m]
// is the activation transfer stage b-1 -> b of micro-batch m, bwd[b][m]
// the gradient transfer stage b -> b-1. Index 0 is unused. Under the
// analytic model every micro-batch of a boundary costs the same; the flow
// model refines individual entries with contention-aware times.
struct TransferDurations {
  std::vector<std::vector<double>> fwd, bwd;
  // Per-boundary flag: any positive duration (drives trace lane creation).
  std::vector<bool> any;

  void Init(int pp, int64_t m, const std::vector<double>& uniform) {
    fwd.assign(pp, {});
    bwd.assign(pp, {});
    any.assign(pp, false);
    for (int b = 1; b < pp; ++b) {
      fwd[b].assign(m, uniform[b]);
      bwd[b].assign(m, uniform[b]);
      any[b] = uniform[b] > 0.0;
    }
  }
};

// Completion times of one pipeline's schedule playback.
struct Playback {
  double finish = 0.0;
  std::vector<std::vector<double>> fwd_done, bwd_done;  // [stage][micro]
};

// Optional span recording for one pipeline's schedule playback.
struct PipelineTrace {
  obs::TraceRecorder* rec = nullptr;
  double offset = 0.0;  // Simulated start time of this step.
  int pipeline_index = 0;
  const plan::Pipeline* pipe = nullptr;  // Stage metadata for span args.
};

// Simulates one pipeline; returns its completion times.
Playback SimulatePipeline(const std::vector<double>& fwd_seconds,
                          const std::vector<double>& bwd_seconds,
                          const TransferDurations& xfer, int64_t m,
                          const PipelineTrace& trace) {
  const int pp = static_cast<int>(fwd_seconds.size());
  std::vector<std::vector<StageTask>> seq(pp);
  for (int j = 0; j < pp; ++j) seq[j] = Build1F1BSchedule(j, pp, m);

  // Trace tracks: one compute lane per stage, plus a P2P lane for stages
  // that receive activation/gradient transfers (spans there may overlap
  // the receiver's compute, so they get their own lane).
  std::vector<obs::TrackId> stage_track(pp), p2p_track(pp);
  std::vector<std::string> stage_gpus(pp);
  if (trace.rec != nullptr) {
    const std::string proc = StrFormat("pipeline %d", trace.pipeline_index);
    for (int j = 0; j < pp; ++j) {
      stage_track[j] = trace.rec->Track(proc, StrFormat("stage %d", j));
      stage_gpus[j] = trace.pipe->stages[j].group.ToString();
    }
    for (int j = 0; j < pp; ++j) {
      if (xfer.any[j] || (j + 1 < pp && xfer.any[j + 1])) {
        p2p_track[j] = trace.rec->Track(proc, StrFormat("stage %d p2p", j));
      }
    }
  }

  Playback out;
  out.fwd_done.assign(pp, {});
  out.bwd_done.assign(pp, {});
  std::vector<std::vector<double>>& fwd_done = out.fwd_done;
  std::vector<std::vector<double>>& bwd_done = out.bwd_done;
  for (int j = 0; j < pp; ++j) {
    fwd_done[j].assign(m, -1.0);
    bwd_done[j].assign(m, -1.0);
  }
  std::vector<size_t> pos(pp, 0);
  std::vector<double> busy_until(pp, 0.0);

  bool progressed = true;
  size_t total_done = 0;
  const size_t total_tasks = static_cast<size_t>(pp) * 2 * m;
  while (total_done < total_tasks) {
    MALLEUS_CHECK(progressed) << "1F1B schedule deadlocked";
    progressed = false;
    for (int j = 0; j < pp; ++j) {
      while (pos[j] < seq[j].size()) {
        const StageTask& t = seq[j][pos[j]];
        double dep = 0.0;
        if (t.is_fwd) {
          if (j > 0) {
            if (fwd_done[j - 1][t.micro] < 0) break;  // Not ready.
            dep = fwd_done[j - 1][t.micro] + xfer.fwd[j][t.micro];
          }
        } else {
          if (j < pp - 1) {
            if (bwd_done[j + 1][t.micro] < 0) break;
            dep = bwd_done[j + 1][t.micro] + xfer.bwd[j + 1][t.micro];
          }
          // The same-stage forward precedes this task in the sequence, so
          // its activation is already stashed.
        }
        const double start = std::max(busy_until[j], dep);
        const double end =
            start + (t.is_fwd ? fwd_seconds[j] : bwd_seconds[j]);
        busy_until[j] = end;
        (t.is_fwd ? fwd_done : bwd_done)[j][t.micro] = end;
        if (trace.rec != nullptr) {
          // Incoming transfer on the receiver's P2P lane.
          if (t.is_fwd && j > 0 && xfer.fwd[j][t.micro] > 0) {
            trace.rec->AddSpan(
                StrFormat("p2p fwd mb%lld",
                          static_cast<long long>(t.micro)),
                "comm", p2p_track[j],
                trace.offset + fwd_done[j - 1][t.micro],
                xfer.fwd[j][t.micro],
                {obs::TraceArg::Int("micro", t.micro)});
          } else if (!t.is_fwd && j < pp - 1 &&
                     xfer.bwd[j + 1][t.micro] > 0) {
            trace.rec->AddSpan(
                StrFormat("p2p bwd mb%lld",
                          static_cast<long long>(t.micro)),
                "comm", p2p_track[j],
                trace.offset + bwd_done[j + 1][t.micro],
                xfer.bwd[j + 1][t.micro],
                {obs::TraceArg::Int("micro", t.micro)});
          }
          trace.rec->AddSpan(
              StrFormat("%s mb%lld", t.is_fwd ? "fwd" : "bwd",
                        static_cast<long long>(t.micro)),
              "compute", stage_track[j], trace.offset + start, end - start,
              {obs::TraceArg::Int("micro", t.micro),
               obs::TraceArg::Int("layers",
                                  trace.pipe->stages[j].num_layers),
               obs::TraceArg::Str("gpus", stage_gpus[j])});
        }
        ++pos[j];
        ++total_done;
        progressed = true;
      }
    }
  }
  for (int j = 0; j < pp; ++j) {
    out.finish = std::max(out.finish, busy_until[j]);
  }
  return out;
}

}  // namespace

Result<StepResult> SimulateStep(const topo::ClusterSpec& cluster,
                                const model::CostModel& cost,
                                const plan::ParallelPlan& p,
                                const straggler::Situation& situation,
                                const SimOptions& options, Rng* rng) {
  MALLEUS_CHECK(rng != nullptr);
  MALLEUS_RETURN_NOT_OK(p.Validate(cluster, cost));
  if (situation.num_gpus() != cluster.num_gpus()) {
    return Status::InvalidArgument("situation does not match cluster size");
  }

  StepResult result;
  result.measured_rates.assign(cluster.num_gpus(), 0.0);

  // Per-GPU effective rates for this step (true rate + kernel jitter).
  std::vector<double> effective(cluster.num_gpus(), 0.0);
  for (const topo::GpuId g : p.ActiveGpus()) {
    if (situation.IsFailed(g)) {
      return Status::Unavailable(
          StrFormat("GPU %d is unresponsive; step cannot complete", g));
    }
    double jitter = 1.0 + rng->Normal(0.0, options.timing_noise_stddev);
    jitter = std::max(jitter, 0.5);
    effective[g] = situation.rate(g) * jitter;
    result.measured_rates[g] = effective[g];
  }

  const int b = p.micro_batch_size;
  const double tau = cost.TauSeconds(b);
  const double p2p_bytes = cost.P2pActivationBytes(b);
  const bool flow_mode = options.net_model == net::NetModel::kFlow;
  std::optional<net::Fabric> fabric;
  if (flow_mode) fabric.emplace(cluster);

  // --- Pipeline compute phase ---
  // Per-pipeline stage times plus boundary transfer endpoints/durations.
  struct PipeState {
    std::vector<double> fwd, bwd;
    std::vector<topo::GpuId> send;  // Boundary b: sender of the fwd flow.
    std::vector<topo::GpuId> recv;  // Boundary b: receiver of the fwd flow.
    TransferDurations xfer;
    Playback playback;
  };
  std::vector<PipeState> pipes(p.pipelines.size());
  for (size_t pi = 0; pi < p.pipelines.size(); ++pi) {
    const plan::Pipeline& pipe = p.pipelines[pi];
    const int pp = pipe.num_stages();
    PipeState& ps = pipes[pi];
    ps.fwd.resize(pp);
    ps.bwd.resize(pp);
    ps.send.assign(pp, 0);
    ps.recv.assign(pp, 0);
    std::vector<double> xfer_uniform(pp, 0.0);
    for (int j = 0; j < pp; ++j) {
      const plan::Stage& s = pipe.stages[j];
      double max_eff = 0.0;
      for (topo::GpuId g : s.group.gpus) {
        max_eff = std::max(max_eff, effective[g]);
      }
      const double y = cost.Rho(s.group.size()) * max_eff;
      const double t_full = y * s.num_layers * tau;
      ps.fwd[j] = t_full / 3.0;   // Backward costs ~2x forward.
      ps.bwd[j] = t_full * 2.0 / 3.0;
      if (p.activation_checkpointing) {
        // Checkpointing re-runs the forward during backward; the forward
        // pass itself is unchanged.
        ps.bwd[j] += (model::kAcComputeOverhead - 1.0) * t_full;
      }
      if (j > 0 && options.include_p2p) {
        ps.send[j] = pipe.stages[j - 1].group.gpus.back();
        ps.recv[j] = s.group.gpus.front();
        xfer_uniform[j] =
            P2pSeconds(cluster, ps.send[j], ps.recv[j], p2p_bytes);
      }
    }
    ps.xfer.Init(pp, pipe.num_microbatches, xfer_uniform);
  }

  const auto run_pipelines = [&](obs::TraceRecorder* rec) {
    for (size_t pi = 0; pi < p.pipelines.size(); ++pi) {
      PipelineTrace trace;
      trace.rec = rec;
      trace.offset = options.trace_time_offset_seconds;
      trace.pipeline_index = static_cast<int>(pi);
      trace.pipe = &p.pipelines[pi];
      pipes[pi].playback =
          SimulatePipeline(pipes[pi].fwd, pipes[pi].bwd, pipes[pi].xfer,
                           p.pipelines[pi].num_microbatches, trace);
    }
  };
  run_pipelines(nullptr);

  // Under the flow model the P2P durations depend on which transfers
  // overlap, and the overlap depends on the durations. Fixed-point replay:
  // play the schedule, submit every transfer at its producer-finish time
  // into one FlowSim, feed the contended durations back, repeat. Without
  // link sharing the first flow pass reproduces the analytic durations
  // exactly and the loop exits after one iteration.
  const auto submit_p2p_flows = [&](net::FlowSim* fs) {
    // Tag encodes (pipeline, boundary, micro, direction) so durations can
    // be routed back; tags are only read locally.
    std::vector<std::pair<int64_t, double*>> slots;
    for (size_t pi = 0; pi < pipes.size(); ++pi) {
      PipeState& ps = pipes[pi];
      const int pp = static_cast<int>(ps.fwd.size());
      const int64_t m = p.pipelines[pi].num_microbatches;
      for (int bnd = 1; bnd < pp; ++bnd) {
        if (!ps.xfer.any[bnd]) continue;
        for (int64_t mi = 0; mi < m; ++mi) {
          net::Flow f;
          f.src = ps.send[bnd];
          f.dst = ps.recv[bnd];
          f.bytes = p2p_bytes;
          f.start_seconds = ps.playback.fwd_done[bnd - 1][mi];
          slots.emplace_back(fs->Submit(f), &ps.xfer.fwd[bnd][mi]);
          // Gradient transfer runs the reverse path.
          net::Flow g;
          g.src = ps.recv[bnd];
          g.dst = ps.send[bnd];
          g.bytes = p2p_bytes;
          g.start_seconds = ps.playback.bwd_done[bnd][mi];
          slots.emplace_back(fs->Submit(g), &ps.xfer.bwd[bnd][mi]);
        }
      }
    }
    return slots;
  };

  bool any_p2p = false;
  for (const PipeState& ps : pipes) {
    for (bool a : ps.xfer.any) any_p2p |= a;
  }
  if (flow_mode && any_p2p) {
    constexpr int kMaxReplayIterations = 4;
    for (int iter = 0; iter < kMaxReplayIterations; ++iter) {
      net::FlowSim fs(*fabric);
      const auto slots = submit_p2p_flows(&fs);
      fs.Run();
      double max_rel_delta = 0.0;
      for (const auto& [id, duration] : slots) {
        const double updated = fs.outcome(id).seconds;
        max_rel_delta =
            std::max(max_rel_delta, std::abs(updated - *duration) /
                                        std::max(*duration, 1e-12));
        *duration = updated;
      }
      if (max_rel_delta < 1e-9) break;
      run_pipelines(nullptr);
    }
  }

  if (options.trace != nullptr) run_pipelines(options.trace);

  double compute_end = 0.0;
  for (const PipeState& ps : pipes) {
    result.pipeline_seconds.push_back(ps.playback.finish);
    compute_end = std::max(compute_end, ps.playback.finish);
  }

  // --- ZeRO-1 gradient synchronization (reduce-scatter the gradients,
  // all-gather the updated parameters) across pipelines ---
  double sync = 0.0;
  const int dp = p.dp_degree();
  std::vector<plan::GradSyncRing> rings;
  if (options.include_grad_sync && dp > 1) {
    rings = plan::CollectGradSyncRings(p, cost, cluster);
  }

  if (!rings.empty() && !flow_mode) {
    for (const plan::GradSyncRing& ring : rings) {
      sync = std::max(sync, plan::AnalyticRingSeconds(ring, dp, cluster));
    }
  }

  if (flow_mode && (any_p2p || !rings.empty())) {
    // The step's shared fabric session: the (converged) P2P transfers and
    // every stage's grad-sync ring in one FlowSim, so DP rings that cross
    // the same NIC — and any traffic overlapping them — contend.
    net::FlowSim fs(*fabric);
    submit_p2p_flows(&fs);
    std::vector<std::vector<int64_t>> ring_flows(rings.size());
    for (size_t r = 0; r < rings.size(); ++r) {
      const plan::GradSyncRing& ring = rings[r];
      // One fused ring pass: (dp-1)/dp of the per-GPU traffic per hop,
      // and the analytic 2*dp ring-latency charge.
      ring_flows[r] = net::SubmitRing(
          &fs, ring.peers,
          ring.bytes_per_gpu * (static_cast<double>(dp - 1) / dp),
          compute_end, 2.0 * dp * ring.hop_latency);
    }
    fs.Run();
    for (size_t r = 0; r < rings.size(); ++r) {
      double ring_end = compute_end;
      for (int64_t id : ring_flows[r]) {
        ring_end = std::max(ring_end, fs.outcome(id).end_seconds);
      }
      sync = std::max(sync, ring_end - compute_end);
      if (options.trace != nullptr && !ring_flows[r].empty()) {
        const obs::TrackId track =
            options.trace->Track("fabric", "grad-sync rings");
        options.trace->AddSpan(
            StrFormat("ring p%d s%d", rings[r].pipeline, rings[r].stage),
            "net", track, options.trace_time_offset_seconds + compute_end,
            ring_end - compute_end,
            {obs::TraceArg::Int("peers",
                                static_cast<int64_t>(
                                    rings[r].peers.size())),
             obs::TraceArg::Num("bytes_per_gpu", rings[r].bytes_per_gpu)});
      }
    }
    net::RecordFlowSimMetrics(fs);
  }

  if (options.trace != nullptr && !rings.empty()) {
    // The ZeRO-1 sync is globally synchronous: every pipeline stalls from
    // the end of the slowest pipeline's compute until sync completion.
    for (int i = 0; i < dp; ++i) {
      const obs::TrackId track = options.trace->Track(
          StrFormat("pipeline %d", i), "grad-sync");
      options.trace->AddSpan(
          "grad-sync", "sync", track,
          options.trace_time_offset_seconds + compute_end, sync,
          {obs::TraceArg::Int("dp_degree", dp),
           obs::TraceArg::Num("seconds", sync),
           obs::TraceArg::Str("net_model",
                              net::NetModelName(options.net_model))});
    }
  }

  result.grad_sync_seconds = sync;
  result.step_seconds = compute_end + sync;
  return result;
}

}  // namespace sim
}  // namespace malleus
