#include "baselines/deepspeed.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/string_util.h"
#include "sim/restart.h"

namespace malleus {
namespace baselines {

namespace {

/// Asymptotic MFU of the analytic throughput curve
/// mfu(P) = kMfuMax * (1 - exp(-P / kMfuScaleParams)).
constexpr double kMfuMax = 0.54;
constexpr double kMfuScaleParams = 42e9;
/// Straggler compounding per extra co-located straggler (see header).
constexpr double kCoStragglerBeta = 0.3;
/// Communication fraction for models below / above kSmallModelParams.
constexpr double kCommFractionSmall = 0.35;
constexpr double kCommFractionLarge = 0.10;
constexpr double kSmallModelParams = 40e9;
/// DeepSpeed's framework re-initialization is faster than Megatron's.
constexpr sim::RestartCostConfig kRestartCost{.framework_init_seconds = 40.0};

}  // namespace

std::string DeepSpeedConfig::ToString() const {
  return StrFormat("DP%dSP%d%s, mbs%d", dp, sp,
                   activation_ckpt ? "+AC" : "", micro_batch);
}

DeepSpeedBaseline::DeepSpeedBaseline(const topo::ClusterSpec& cluster,
                                     const model::CostModel& cost,
                                     DeepSpeedOptions options)
    : cluster_(cluster),
      cost_(cost),
      options_(options),
      rng_(options.seed) {}

std::string DeepSpeedBaseline::name() const {
  return options_.with_restart ? "DeepSpeed w/ Restart"
                               : "DeepSpeed w/o Restart";
}

double DeepSpeedBaseline::HealthyMfu() const {
  const double params = static_cast<double>(cost_.spec().TotalParams());
  return kMfuMax * (1.0 - std::exp(-params / kMfuScaleParams));
}

double DeepSpeedBaseline::CommFraction() const {
  const double params = static_cast<double>(cost_.spec().TotalParams());
  return params < kSmallModelParams ? kCommFractionSmall
                                    : kCommFractionLarge;
}

double DeepSpeedBaseline::BaseStepSeconds(int num_gpus) const {
  const double flops =
      global_batch_ * cost_.spec().TrainFlopsPerMicroBatch(1);
  return flops /
         (num_gpus * cost_.gpu().peak_tflops * 1e12 * HealthyMfu());
}

Result<DeepSpeedConfig> DeepSpeedBaseline::TuneConfig(int num_gpus) const {
  const model::ModelSpec& spec = cost_.spec();
  const double usable = static_cast<double>(cost_.gpu().UsableBytes());
  const double total_params = static_cast<double>(spec.TotalParams());
  const double layer_params = static_cast<double>(spec.ParamsPerLayer());

  bool found = false;
  DeepSpeedConfig best;
  double best_score = -1.0;
  for (int sp : {1, 2, 4, 8}) {
    if (num_gpus % sp != 0) continue;
    const int dp = num_gpus / sp;
    for (int mbs : {1, 2, 4, 6, 8}) {
      // Each ZeRO rank must have work: B >= dp sequences per mbs batch.
      if (static_cast<int64_t>(dp) * mbs > global_batch_) continue;
      for (bool ac : {true, false}) {
        // ZeRO-3 states are fully sharded; two layers' worth of gathered
        // bf16 parameters stay resident for prefetch overlap.
        const double states = 16.0 * total_params / num_gpus;
        const double gathered = 2.0 * 2.0 * layer_params;
        const double act_full =
            cost_.ActBytesFwd(mbs) / sp * spec.num_layers;
        const double act_ckpt =
            (2.0 * spec.seq_len * spec.hidden_size * mbs / sp) *
                spec.num_layers +
            cost_.ActBytesFwdBwd(mbs) / sp;
        const double mem = states + gathered + (ac ? act_ckpt : act_full);
        if (mem > usable) continue;
        const double score = (1.0 - 0.15 / mbs) *
                             (1.0 - 0.02 * (sp - 1)) * (ac ? 0.85 : 1.0);
        if (score > best_score) {
          best_score = score;
          best = DeepSpeedConfig{dp, sp, mbs, ac};
          found = true;
        }
      }
    }
  }
  if (!found) {
    return Status::Infeasible(
        StrFormat("no DeepSpeed config fits on %d GPUs", num_gpus));
  }
  return best;
}

Status DeepSpeedBaseline::Initialize(int64_t global_batch) {
  global_batch_ = global_batch;
  excluded_nodes_.clear();
  active_gpus_ = cluster_.num_gpus();
  Result<DeepSpeedConfig> tuned = TuneConfig(active_gpus_);
  if (!tuned.ok()) return tuned.status();
  config_ = std::move(tuned).ValueOrDie();
  return Status::OK();
}

Result<core::StepReport> DeepSpeedBaseline::OnSituationChange(
    const straggler::Situation& situation) {
  core::StepReport report;
  if (!options_.with_restart) return report;
  std::set<topo::NodeId> bad;
  for (topo::GpuId g : situation.Stragglers()) {
    bad.insert(cluster_.NodeOf(g));
  }
  if (bad == excluded_nodes_) return report;
  const int alive_nodes = cluster_.num_nodes() - static_cast<int>(bad.size());
  if (alive_nodes <= 0) {
    return Status::Unavailable("every node hosts a straggler");
  }
  const int gpus = alive_nodes * cluster_.gpus_per_node();
  Result<DeepSpeedConfig> tuned = TuneConfig(gpus);
  if (!tuned.ok()) return tuned.status();
  config_ = std::move(tuned).ValueOrDie();
  excluded_nodes_ = bad;
  active_gpus_ = gpus;
  report.recovery_seconds = sim::RestartSeconds(
      cost_.CheckpointBytes(), alive_nodes, kRestartCost);
  return report;
}

Result<core::StepReport> DeepSpeedBaseline::Step(
    const straggler::Situation& situation) {
  if (active_gpus_ <= 0) {
    return Status::FailedPrecondition("not initialized");
  }
  // Effective slowdown: per node, co-located stragglers compound because
  // the per-layer all-gather loses its compute overlap.
  double x_eff = 1.0;
  for (topo::NodeId n = 0; n < cluster_.num_nodes(); ++n) {
    if (excluded_nodes_.count(n) != 0) continue;
    int k = 0;
    double mx = 1.0;
    for (topo::GpuId g : cluster_.GpusOnNode(n)) {
      if (situation.IsFailed(g)) {
        return Status::Unavailable(StrFormat("GPU %d unresponsive", g));
      }
      if (situation.IsStraggler(g)) {
        ++k;
        mx = std::max(mx, situation.rate(g));
      }
    }
    if (k > 0) {
      x_eff = std::max(x_eff, mx * (1.0 + kCoStragglerBeta * (k - 1)));
    }
  }
  const double f = CommFraction();
  const double jitter = std::max(0.5, 1.0 + rng_.Normal(0.0, 0.01));
  core::StepReport report;
  report.step_seconds =
      BaseStepSeconds(active_gpus_) * ((1.0 - f) * x_eff + f) * jitter;
  return report;
}

}  // namespace baselines
}  // namespace malleus
