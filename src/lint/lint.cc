#include "lint/lint.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/string_util.h"
#include "plan/estimator.h"

namespace malleus {
namespace lint {

namespace {

std::string PipelineLoc(size_t i) { return StrFormat("pipeline[%zu]", i); }

std::string StageLoc(size_t i, size_t j) {
  return StrFormat("pipeline[%zu].stage[%zu]", i, j);
}

/// Largest straggling rate the fitted model x = 1 + 1.44k covers (the
/// paper injects levels k in {1,2,3,8}; Appendix B.7).
double MaxFittedRate() {
  return straggler::RateForLevel(straggler::kMaxFittedLevel);
}

}  // namespace

const std::vector<PassInfo>& Passes() {
  static const std::vector<PassInfo>* passes = new std::vector<PassInfo>{
      {kLintClusterBadBandwidth, Severity::kError,
       "interconnect bandwidth/latency is zero or negative"},
      {kLintClusterEmpty, Severity::kError,
       "cluster has no nodes or no GPUs per node"},
      {kLintClusterNoUsableMemory, Severity::kError,
       "reserved memory gap consumes the whole GPU"},
      {kLintGraphDeadlock, Severity::kError,
       "pipeline schedule cannot complete under 1F1B dependencies"},
      {kLintGraphMalformedSchedule, Severity::kError,
       "stage task sequence is not a permutation of the 1F1B work"},
      {kLintNetLinkOvercommit, Severity::kError,
       "a link's peak utilization exceeds its capacity"},
      {kLintNetNegativeLinkBytes, Severity::kError,
       "a link carried a negative or non-finite byte count"},
      {kLintNetVolumeMismatch, Severity::kError,
       "flow bytes do not sum to the collective lowering's volume"},
      {plan::kLintPlanBadMicroBatch, Severity::kError,
       "micro-batch size is not positive"},
      {plan::kLintPlanBadTpDegree, Severity::kError,
       "TP group size is not a power of two in [1, 8]"},
      {plan::kLintPlanBatchCoverage, Severity::kError,
       "sum(m_i) * b does not equal the global batch"},
      {plan::kLintPlanDuplicateStandby, Severity::kError,
       "a GPU appears twice on the standby list"},
      {plan::kLintPlanEmptyPipeline, Severity::kError,
       "a pipeline has no stages"},
      {plan::kLintPlanEmptyStage, Severity::kError, "a stage has no GPUs"},
      {plan::kLintPlanGpuReused, Severity::kError,
       "a GPU is assigned more than once"},
      {kLintPlanHealthyStandby, Severity::kWarn,
       "a non-straggler GPU is parked on standby"},
      {plan::kLintPlanInvalidGpu, Severity::kError,
       "a GPU id is outside the cluster"},
      {plan::kLintPlanLayerCoverage, Severity::kError,
       "a pipeline's layers do not sum to the model's"},
      {plan::kLintPlanMemoryCapacity, Severity::kError,
       "a stage does not fit in GPU memory"},
      {kLintPlanMemoryHeadroom, Severity::kWarn,
       "a stage's free memory is below 10% of capacity"},
      {kLintPlanMixedTpRates, Severity::kWarn,
       "a TP group mixes straggling rates (healthy GPUs dragged down)"},
      {plan::kLintPlanNegativeLayers, Severity::kError,
       "a stage has a negative layer count"},
      {plan::kLintPlanNoMicrobatches, Severity::kError,
       "a pipeline has no micro-batches"},
      {plan::kLintPlanNoPipelines, Severity::kError,
       "the plan has no pipelines"},
      {kLintPlanStageImbalance, Severity::kWarn,
       "per-micro-batch stage times within a pipeline are imbalanced"},
      {plan::kLintPlanTpSpansNodes, Severity::kError,
       "a TP group spans nodes"},
      {kLintPlanUnevenData, Severity::kWarn,
       "equal-rate pipelines carry unequal micro-batch counts"},
      {kLintScenarioDuplicateStraggler, Severity::kError,
       "two straggler entries target the same GPU"},
      {kLintScenarioDynamicInvalidValue, Severity::kError,
       "a dynamic block field is outside its valid range"},
      {kLintScenarioDynamicSaturated, Severity::kWarn,
       "dynamic event rates would saturate the cluster with faults"},
      {kLintScenarioFabricFieldIgnored, Severity::kWarn,
       "a fabric field does not apply to the chosen fabric kind"},
      {kLintScenarioGpuOutOfRange, Severity::kError,
       "a straggler entry names a GPU outside the cluster"},
      {kLintScenarioInvalidValue, Severity::kError,
       "a scenario field has a non-positive or unparsable value"},
      {kLintScenarioUnknownFabric, Severity::kError,
       "the scenario names an unknown fabric kind"},
      {kLintScenarioUnknownModel, Severity::kError,
       "the scenario names an unknown model"},
      {kLintScenarioUnknownPhase, Severity::kError,
       "the scenario names an unknown trace phase"},
      {kLintSituationBadRate, Severity::kError,
       "a straggling rate is below 1 or not a number"},
      {kLintSituationFailedGpu, Severity::kNote,
       "a GPU is marked failed (unreachable)"},
      {kLintSituationRateAboveFit, Severity::kWarn,
       "a straggling rate exceeds the fitted x = 1 + 1.44k range"},
      {kLintSituationSizeMismatch, Severity::kError,
       "the situation does not cover the cluster's GPUs"},
  };
  return *passes;
}

// ----- Plan quality passes ---------------------------------------------

void LintPlanQuality(const plan::ParallelPlan& p,
                     const topo::ClusterSpec& cluster,
                     const model::CostModel& cost,
                     const straggler::Situation& situation,
                     DiagnosticSink* sink) {
  if (situation.num_gpus() != cluster.num_gpus()) return;

  // plan.stage-imbalance + the per-pipeline bottlenecks for
  // plan.uneven-data.
  std::vector<double> bottlenecks;
  for (size_t i = 0; i < p.pipelines.size(); ++i) {
    const plan::Pipeline& pipe = p.pipelines[i];
    double t_min = std::numeric_limits<double>::infinity();
    double t_max = 0.0;
    for (const plan::Stage& s : pipe.stages) {
      if (s.num_layers <= 0) continue;
      const double t = plan::StageTimePerMicrobatch(s, p.micro_batch_size,
                                                    cost, situation);
      t_min = std::min(t_min, t);
      t_max = std::max(t_max, t);
    }
    bottlenecks.push_back(t_max);
    if (t_max > 0.0 && std::isfinite(t_min) && t_min > 0.0 &&
        t_max / t_min > kStageImbalanceRatio) {
      sink->Report(
          Severity::kWarn, kLintPlanStageImbalance, PipelineLoc(i),
          StrFormat("stage times span %.2fx within the pipeline (slowest "
                    "%.3fs vs fastest %.3fs per micro-batch); the slow "
                    "stage gates every 1F1B slot",
                    t_max / t_min, t_max, t_min),
          {{"ratio", StrFormat("%.3f", t_max / t_min)},
           {"threshold", StrFormat("%.2f", kStageImbalanceRatio)}});
    }
  }

  // plan.memory-headroom.
  const double cap = static_cast<double>(cost.gpu().UsableBytes());
  for (size_t i = 0; i < p.pipelines.size(); ++i) {
    for (size_t j = 0; j < p.pipelines[i].stages.size(); ++j) {
      const double used = plan::StageMemoryBytesPerGpu(
          p, static_cast<int>(i), static_cast<int>(j), cost);
      if (cap <= 0.0 || used > cap * (1.0 + 1e-9)) continue;  // Error case.
      const double headroom = 1.0 - used / cap;
      if (headroom < kMemoryHeadroomFraction) {
        sink->Report(
            Severity::kWarn, kLintPlanMemoryHeadroom, StageLoc(i, j),
            StrFormat("only %.1f%% memory headroom (%s used of %s); "
                      "re-planning may have no feasible moves",
                      headroom * 100.0,
                      FormatBytes(static_cast<uint64_t>(used)).c_str(),
                      FormatBytes(static_cast<uint64_t>(cap)).c_str()),
            {{"headroom_pct", StrFormat("%.2f", headroom * 100.0)},
             {"threshold_pct",
              StrFormat("%.0f", kMemoryHeadroomFraction * 100.0)}});
      }
    }
  }

  // plan.healthy-standby.
  for (size_t k = 0; k < p.standby_gpus.size(); ++k) {
    const topo::GpuId g = p.standby_gpus[k];
    if (g < 0 || g >= situation.num_gpus()) continue;
    if (!situation.IsStraggler(g) && !situation.IsFailed(g)) {
      sink->Report(Severity::kWarn, kLintPlanHealthyStandby,
                   StrFormat("standby[%zu]", k),
                   StrFormat("GPU %d is on standby but not straggling "
                             "(rate %.2f); its capacity is wasted",
                             g, situation.rate(g)),
                   {{"gpu", StrFormat("%d", g)},
                    {"rate", StrFormat("%.3f", situation.rate(g))}});
    }
  }

  // plan.mixed-tp-rates.
  for (size_t i = 0; i < p.pipelines.size(); ++i) {
    for (size_t j = 0; j < p.pipelines[i].stages.size(); ++j) {
      const plan::TpGroup& group = p.pipelines[i].stages[j].group;
      if (group.size() < 2) continue;
      double r_min = std::numeric_limits<double>::infinity();
      double r_max = 0.0;
      bool in_range = true;
      for (topo::GpuId g : group.gpus) {
        if (g < 0 || g >= situation.num_gpus()) {
          in_range = false;
          break;
        }
        r_min = std::min(r_min, situation.rate(g));
        r_max = std::max(r_max, situation.rate(g));
      }
      if (!in_range || !(r_min > 0.0)) continue;
      if (r_max / r_min > kMixedTpRateRatio) {
        sink->Report(
            Severity::kWarn, kLintPlanMixedTpRates, StageLoc(i, j),
            StrFormat("TP group mixes straggling rates (%.2f..%.2f): the "
                      "group runs at its slowest member, wasting the "
                      "faster GPUs",
                      r_min, r_max),
            {{"min_rate", StrFormat("%.3f", r_min)},
             {"max_rate", StrFormat("%.3f", r_max)}});
      }
    }
  }

  // plan.uneven-data: pipelines with equal bottlenecks should carry equal
  // micro-batch counts (Eq. 3 reduces to an even split); inequality means
  // divisibility waste — some pipelines idle while others finish.
  if (p.pipelines.size() > 1 && !bottlenecks.empty()) {
    const double b_min =
        *std::min_element(bottlenecks.begin(), bottlenecks.end());
    const double b_max =
        *std::max_element(bottlenecks.begin(), bottlenecks.end());
    int64_t m_min = std::numeric_limits<int64_t>::max();
    int64_t m_max = 0;
    for (const plan::Pipeline& pipe : p.pipelines) {
      m_min = std::min(m_min, pipe.num_microbatches);
      m_max = std::max(m_max, pipe.num_microbatches);
    }
    if (b_min > 0.0 && b_max / b_min < 1.01 && m_max != m_min) {
      sink->Report(
          Severity::kWarn, kLintPlanUnevenData, "",
          StrFormat("pipelines have equal stage bottlenecks but unequal "
                    "micro-batch counts (%lld..%lld): the global batch "
                    "does not divide evenly and %lld extra micro-batch(es) "
                    "gate the step",
                    static_cast<long long>(m_min),
                    static_cast<long long>(m_max),
                    static_cast<long long>(m_max - m_min)),
          {{"m_min", StrFormat("%lld", static_cast<long long>(m_min))},
           {"m_max", StrFormat("%lld", static_cast<long long>(m_max))}});
    }
  }
}

void LintPlan(const plan::ParallelPlan& p, const topo::ClusterSpec& cluster,
              const model::CostModel& cost,
              const straggler::Situation* situation, DiagnosticSink* sink) {
  DiagnosticSink structure;
  plan::LintPlanStructure(p, cluster, cost, &structure);
  sink->Merge(structure);
  // Quality passes assume a structurally sound plan (the memory model and
  // stage-time formulas presuppose valid groups and indices).
  if (!structure.HasErrors() && situation != nullptr) {
    LintPlanQuality(p, cluster, cost, *situation, sink);
  }
}

// ----- Scenario / cluster passes ---------------------------------------

void LintCluster(const topo::ClusterSpec& cluster, DiagnosticSink* sink) {
  if (cluster.num_nodes() <= 0 || cluster.gpus_per_node() <= 0) {
    sink->Report(Severity::kError, kLintClusterEmpty, "cluster",
                 StrFormat("cluster has %d nodes with %d GPUs each",
                           cluster.num_nodes(), cluster.gpus_per_node()));
    return;
  }
  const topo::LinkSpec& link = cluster.link();
  if (!(link.intra_node_gbps > 0.0)) {
    sink->Report(Severity::kError, kLintClusterBadBandwidth,
                 "cluster.link.intra_node",
                 StrFormat("intra-node bandwidth is %.3f GB/s",
                           link.intra_node_gbps));
  }
  if (cluster.num_nodes() > 1 && !(link.inter_node_gbps > 0.0)) {
    sink->Report(Severity::kError, kLintClusterBadBandwidth,
                 "cluster.link.inter_node",
                 StrFormat("inter-node bandwidth is %.3f GB/s",
                           link.inter_node_gbps));
  }
  if (link.intra_node_latency_s < 0.0 || link.inter_node_latency_s < 0.0) {
    sink->Report(Severity::kError, kLintClusterBadBandwidth, "cluster.link",
                 "negative link latency");
  }
  if (cluster.gpu().UsableBytes() == 0) {
    sink->Report(
        Severity::kError, kLintClusterNoUsableMemory, "cluster.gpu",
        StrFormat("reserved gap (%s) consumes the whole GPU memory (%s)",
                  FormatBytes(cluster.gpu().reserved_bytes).c_str(),
                  FormatBytes(cluster.gpu().memory_bytes).c_str()));
  }
}

void LintSituation(const topo::ClusterSpec& cluster,
                   const straggler::Situation& situation,
                   DiagnosticSink* sink) {
  if (situation.num_gpus() != cluster.num_gpus()) {
    sink->Report(
        Severity::kError, kLintSituationSizeMismatch, "situation",
        StrFormat("situation covers %d GPUs, cluster has %d",
                  situation.num_gpus(), cluster.num_gpus()),
        {{"situation_gpus", StrFormat("%d", situation.num_gpus())},
         {"cluster_gpus", StrFormat("%d", cluster.num_gpus())}});
    return;
  }
  const double max_fit = MaxFittedRate();
  for (topo::GpuId g = 0; g < situation.num_gpus(); ++g) {
    const double rate = situation.rate(g);
    const std::string loc = StrFormat("situation.gpu[%d]", g);
    if (situation.IsFailed(g)) {
      sink->Report(Severity::kNote, kLintSituationFailedGpu, loc,
                   StrFormat("GPU %d is failed/unreachable; plans must "
                             "exclude it",
                             g));
      continue;
    }
    if (std::isnan(rate) || rate < 1.0 - 1e-12) {
      sink->Report(Severity::kError, kLintSituationBadRate, loc,
                   StrFormat("straggling rate %.4f of GPU %d is below 1 "
                             "(rates are slowdowns; 1 = healthy)",
                             rate, g),
                   {{"rate", StrFormat("%.6f", rate)}});
    } else if (rate > max_fit * (1.0 + 1e-9)) {
      sink->Report(
          Severity::kWarn, kLintSituationRateAboveFit, loc,
          StrFormat("straggling rate %.2f of GPU %d exceeds the fitted "
                    "range x = 1 + 1.44k, k <= 8 (max %.2f); the cost "
                    "model is extrapolating",
                    rate, g, max_fit),
          {{"rate", StrFormat("%.3f", rate)},
           {"max_fitted", StrFormat("%.3f", max_fit)}});
    }
  }
}

// ----- Event-graph / flow passes ---------------------------------------

void LintPipelineSchedule(
    const std::vector<std::vector<sim::StageTask>>& per_stage,
    int64_t num_micro, const std::string& location_prefix,
    DiagnosticSink* sink) {
  const int pp = static_cast<int>(per_stage.size());
  const auto stage_loc = [&](int j) {
    return location_prefix.empty()
               ? StrFormat("stage[%d]", j)
               : StrFormat("%s.stage[%d]", location_prefix.c_str(), j);
  };

  // Completeness: each stage must run fwd and bwd of every micro-batch
  // exactly once.
  bool malformed = false;
  for (int j = 0; j < pp; ++j) {
    std::vector<int> fwd_count(num_micro, 0), bwd_count(num_micro, 0);
    int out_of_range = 0;
    for (const sim::StageTask& t : per_stage[j]) {
      if (t.micro < 0 || t.micro >= num_micro) {
        ++out_of_range;
        continue;
      }
      ++(t.is_fwd ? fwd_count : bwd_count)[t.micro];
    }
    int missing = 0, duplicated = 0;
    for (int64_t m = 0; m < num_micro; ++m) {
      missing += (fwd_count[m] == 0) + (bwd_count[m] == 0);
      duplicated += (fwd_count[m] > 1) + (bwd_count[m] > 1);
    }
    if (missing > 0 || duplicated > 0 || out_of_range > 0) {
      malformed = true;
      sink->Report(
          Severity::kError, kLintGraphMalformedSchedule, stage_loc(j),
          StrFormat("stage %d schedule is not a 1F1B permutation: %d "
                    "missing, %d duplicated, %d out-of-range task(s) over "
                    "%lld micro-batches",
                    j, missing, duplicated, out_of_range,
                    static_cast<long long>(num_micro)),
          {{"missing", StrFormat("%d", missing)},
           {"duplicated", StrFormat("%d", duplicated)},
           {"out_of_range", StrFormat("%d", out_of_range)}});
    }
  }
  if (malformed) return;  // Playback of a non-permutation is meaningless.

  // Topological playback under the 1F1B dependencies. This is the same
  // readiness rule the simulator uses, without times: a schedule that
  // stalls here would deadlock (or CHECK-fail) the simulation.
  std::vector<std::vector<bool>> fwd_done(pp), bwd_done(pp);
  for (int j = 0; j < pp; ++j) {
    fwd_done[j].assign(num_micro, false);
    bwd_done[j].assign(num_micro, false);
  }
  std::vector<size_t> pos(pp, 0);
  size_t total_done = 0;
  const size_t total_tasks = static_cast<size_t>(pp) * 2 * num_micro;
  bool progressed = true;
  while (total_done < total_tasks && progressed) {
    progressed = false;
    for (int j = 0; j < pp; ++j) {
      while (pos[j] < per_stage[j].size()) {
        const sim::StageTask& t = per_stage[j][pos[j]];
        if (t.is_fwd) {
          if (j > 0 && !fwd_done[j - 1][t.micro]) break;
          fwd_done[j][t.micro] = true;
        } else {
          // A backward consumes the stashed activation of its own forward
          // and the gradient from downstream.
          if (!fwd_done[j][t.micro]) break;
          if (j < pp - 1 && !bwd_done[j + 1][t.micro]) break;
          bwd_done[j][t.micro] = true;
        }
        ++pos[j];
        ++total_done;
        progressed = true;
      }
    }
  }
  if (total_done < total_tasks) {
    // Name the first stalled stage and the task it is blocked on.
    for (int j = 0; j < pp; ++j) {
      if (pos[j] >= per_stage[j].size()) continue;
      const sim::StageTask& t = per_stage[j][pos[j]];
      sink->Report(
          Severity::kError, kLintGraphDeadlock, stage_loc(j),
          StrFormat("1F1B schedule deadlocks: stage %d is blocked on %s of "
                    "micro-batch %lld with %zu of %zu tasks done",
                    j, t.is_fwd ? "forward" : "backward",
                    static_cast<long long>(t.micro), total_done,
                    total_tasks),
          {{"blocked_micro", StrFormat("%lld",
                                       static_cast<long long>(t.micro))},
           {"blocked_kind", t.is_fwd ? "fwd" : "bwd"}});
      return;  // One finding pinpoints the cycle; the rest is fallout.
    }
  }
}

void LintEventGraph(const plan::ParallelPlan& p, DiagnosticSink* sink) {
  for (size_t i = 0; i < p.pipelines.size(); ++i) {
    const plan::Pipeline& pipe = p.pipelines[i];
    const int pp = pipe.num_stages();
    if (pp <= 0 || pipe.num_microbatches <= 0) continue;  // Structural.
    std::vector<std::vector<sim::StageTask>> per_stage(pp);
    for (int j = 0; j < pp; ++j) {
      per_stage[j] = sim::Build1F1BSchedule(j, pp, pipe.num_microbatches);
    }
    LintPipelineSchedule(per_stage, pipe.num_microbatches, PipelineLoc(i),
                         sink);
  }
}

FlowAudit AuditFlowSim(const net::FlowSim& sim) {
  FlowAudit audit;
  audit.total_flow_bytes = sim.TotalBytes();
  const std::vector<net::LinkUsage>& usage = sim.link_usage();
  audit.link_bytes.reserve(usage.size());
  audit.link_peak_utilization.reserve(usage.size());
  audit.link_names.reserve(usage.size());
  for (size_t i = 0; i < usage.size(); ++i) {
    audit.link_bytes.push_back(usage[i].bytes);
    audit.link_peak_utilization.push_back(usage[i].peak_utilization);
    audit.link_names.push_back(
        sim.fabric().link(static_cast<net::LinkId>(i)).name);
  }
  return audit;
}

void LintFlowConservation(const FlowAudit& audit, double expected_bytes,
                          double rel_tolerance, DiagnosticSink* sink) {
  for (size_t i = 0; i < audit.link_bytes.size(); ++i) {
    const std::string name = i < audit.link_names.size()
                                 ? audit.link_names[i]
                                 : StrFormat("link[%zu]", i);
    const double bytes = audit.link_bytes[i];
    if (std::isnan(bytes) || bytes < 0.0) {
      sink->Report(Severity::kError, kLintNetNegativeLinkBytes,
                   StrFormat("link.%s", name.c_str()),
                   StrFormat("link %s carried %.3f bytes", name.c_str(),
                             bytes),
                   {{"bytes", StrFormat("%.3f", bytes)}});
    }
    if (i < audit.link_peak_utilization.size()) {
      const double peak = audit.link_peak_utilization[i];
      if (std::isnan(peak) || peak > 1.0 + 1e-6) {
        sink->Report(
            Severity::kError, kLintNetLinkOvercommit, StrFormat("link.%s", name.c_str()),
            StrFormat("link %s peaked at %.4fx its capacity (max–min fair "
                      "sharing must not overcommit)",
                      name.c_str(), peak),
            {{"peak_utilization", StrFormat("%.6f", peak)}});
      }
    }
  }
  const double diff = std::abs(audit.total_flow_bytes - expected_bytes);
  if (std::isnan(audit.total_flow_bytes) ||
      diff > rel_tolerance * std::max(1.0, expected_bytes)) {
    sink->Report(
        Severity::kError, kLintNetVolumeMismatch, "",
        StrFormat("flows moved %.0f bytes, the collective lowering "
                  "expected %.0f (off by %.2f%%)",
                  audit.total_flow_bytes, expected_bytes,
                  expected_bytes > 0.0 ? diff / expected_bytes * 100.0
                                       : 0.0),
        {{"actual_bytes", StrFormat("%.3f", audit.total_flow_bytes)},
         {"expected_bytes", StrFormat("%.3f", expected_bytes)}});
  }
}

}  // namespace lint
}  // namespace malleus
