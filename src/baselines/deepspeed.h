// DeepSpeed-style baseline: ZeRO-3 fully-sharded data parallelism with
// Ulysses sequence parallelism and activation checkpointing (the
// configurations of the paper's Table 7).
//
// ZeRO-3 gathers the parameters of every layer in both forward and backward
// passes, which is globally synchronous: a single slow GPU stalls every
// all-gather, and co-located stragglers compound because the gather loses
// its compute overlap. We model the step time analytically:
//
//   T = T_base * ((1 - f) * X_eff + f)
//   X_eff = max over nodes of (max_x_node * (1 + beta * (k_node - 1)))
//
// where f is the communication fraction (large for small models, which is
// why DeepSpeed's 32B MFU is only ~30%) and beta captures the compounding
// of multiple stragglers on one node (calibrated to the paper's S5/S6).
// With restarts enabled, excluding a straggler node costs a checkpoint save,
// a 40 s framework re-init and a load.

#ifndef MALLEUS_BASELINES_DEEPSPEED_H_
#define MALLEUS_BASELINES_DEEPSPEED_H_

#include <set>

#include "common/rng.h"
#include "core/trace_driver.h"
#include "model/cost_model.h"

namespace malleus {
namespace baselines {

/// A DeepSpeed launch configuration (Table 7 vocabulary).
struct DeepSpeedConfig {
  int dp = 1;                ///< ZeRO-3 data-parallel degree.
  int sp = 1;                ///< Ulysses sequence-parallel degree.
  int micro_batch = 1;       ///< mbs.
  bool activation_ckpt = true;
  std::string ToString() const;
};

/// The analytic model's coefficients (MFU curve, communication fraction,
/// straggler compounding beta) are fitted once to Table 2 and are named
/// constants in deepspeed.cc, as is the restart cost (40 s framework init).
struct DeepSpeedOptions {
  bool with_restart = false;
  uint64_t seed = 1;
};

class DeepSpeedBaseline : public core::TrainingFramework {
 public:
  DeepSpeedBaseline(const topo::ClusterSpec& cluster,
                    const model::CostModel& cost, DeepSpeedOptions options);

  std::string name() const override;
  Status Initialize(int64_t global_batch) override;
  Result<core::StepReport> OnSituationChange(
      const straggler::Situation& situation) override;
  Result<core::StepReport> Step(
      const straggler::Situation& situation) override;

  /// Tunes (sp, mbs, AC) for `num_gpus` devices; exposed for the Table 7
  /// configuration dump.
  Result<DeepSpeedConfig> TuneConfig(int num_gpus) const;

  /// The zero-straggler MFU of the analytic model (for Table 2's column).
  double HealthyMfu() const;

 private:
  double BaseStepSeconds(int num_gpus) const;
  double CommFraction() const;

  const topo::ClusterSpec& cluster_;
  const model::CostModel& cost_;
  DeepSpeedOptions options_;
  int64_t global_batch_ = 0;
  DeepSpeedConfig config_;
  std::set<topo::NodeId> excluded_nodes_;
  int active_gpus_ = 0;
  Rng rng_;
};

}  // namespace baselines
}  // namespace malleus

#endif  // MALLEUS_BASELINES_DEEPSPEED_H_
