// The Malleus engine: the overall routine of paper S3.2.
//
//   (1) start from a planner-deduced (or user-provided) initial plan;
//   (2) the executor instantiates it and carries out training;
//   (3) the profiler tracks per-GPU rates from the step measurements and
//       probes standby devices;
//   (4) when any rate shifts by more than 5%, re-planning runs concurrently
//       with training (S5.3) and the executor migrates states on the fly.
//
// GPU failures (straggling rate = infinity) are handled by reloading the
// latest checkpoint onto the remaining GPUs (S5.1).

#ifndef MALLEUS_CORE_ENGINE_H_
#define MALLEUS_CORE_ENGINE_H_

#include <string>

#include "common/result.h"
#include "common/rng.h"
#include "core/executor.h"
#include "core/planner.h"
#include "core/profiler.h"
#include "core/trace_driver.h"
#include "sim/pipeline_sim.h"

namespace malleus {
namespace core {

/// The profiler runs at its paper defaults (5% shift threshold) and
/// checkpoint reloads at sim::kPerNodeIoGbps.
struct EngineOptions {
  PlannerOptions planner;
  sim::SimOptions sim;
  /// When >= 0, StepReport::planning_seconds uses this fixed value instead
  /// of the planner's measured wall time. Measured time is the honest
  /// overlap model (S5.3) but makes step reports -- and thus trace/JSONL
  /// exports -- vary run to run; tools that need byte-reproducible output
  /// for a fixed seed set a representative constant here.
  double planning_seconds_override = -1.0;
  uint64_t seed = 42;
};

/// Malleus as a TrainingFramework. It detects shifts itself, so it keeps
/// the default OnSituationChange, which pays nothing.
class MalleusEngine : public TrainingFramework {
 public:
  MalleusEngine(const topo::ClusterSpec& cluster,
                const model::CostModel& cost,
                EngineOptions options = EngineOptions());

  std::string name() const override { return "Malleus"; }

  /// Plans for a healthy cluster and installs the initial plan.
  Status Initialize(int64_t global_batch) override;

  /// Installs a user-provided initial plan instead.
  Status InitializeWithPlan(plan::ParallelPlan p);

  /// Executes one training iteration under the true (hidden) situation.
  /// The engine only observes it through simulated measurements.
  Result<StepReport> Step(const straggler::Situation& truth) override;

  const plan::ParallelPlan& current_plan() const {
    return executor_.current_plan();
  }
  const Profiler& profiler() const { return profiler_; }

  /// The engine's planner (and through it the solve cache). Mutable access
  /// exists so hosts can warm or persist the cache around the engine's own
  /// replans (scenario_cli --cache-save/--cache-load, malleus::serve).
  Planner& planner() { return planner_; }
  const Planner& planner() const { return planner_; }

 private:
  /// Devices not participating in training under the current plan.
  std::vector<topo::GpuId> InactiveGpus() const;

  /// Re-plans the profiler's estimated situation through
  /// Planner::Replan, keeping the installed plan's DP degree when feasible.
  Result<PlanResult> Replan();

  /// Measured planner wall time, or the configured deterministic override.
  double PlanningSeconds(const PlannerTimings& timings) const {
    return options_.planning_seconds_override >= 0
               ? options_.planning_seconds_override
               : timings.total_seconds;
  }

  /// Failure path: mark dead GPUs, replan, reload from checkpoint.
  Result<StepReport> RecoverFromFailure(const straggler::Situation& truth);

  const topo::ClusterSpec& cluster_;
  const model::CostModel& cost_;
  EngineOptions options_;
  Planner planner_;
  Executor executor_;
  Profiler profiler_;
  Rng rng_;
  int64_t global_batch_ = 0;
  bool initialized_ = false;
};

}  // namespace core
}  // namespace malleus

#endif  // MALLEUS_CORE_ENGINE_H_
