// The Malleus engine: the overall routine of paper S3.2.
//
//   (1) start from a planner-deduced (or user-provided) initial plan;
//   (2) the executor instantiates it and carries out training;
//   (3) an observer watches the cluster: the profiler (per-GPU rates from
//       step measurements, standby probes) or the truth at change points;
//   (4) on a change an actor decides the move. The default re-plans
//       concurrently with training (S5.3) and the executor migrates states
//       on the fly; a plan that lost a GPU (straggling rate = infinity)
//       is reloaded from the latest checkpoint (S5.1). policy::RunDynamic
//       passes an actor that prices five actions instead.

#ifndef MALLEUS_CORE_ENGINE_H_
#define MALLEUS_CORE_ENGINE_H_

#include <string>
#include <vector>

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

class MalleusEngine;

/// What the engine observes (S3.2 step 3): the profiler's estimate, or the
/// truth handed over at each change point of a drive.
enum class Observer { kProfiler, kTruth };

/// An actor's decision: migrate to `plan` (the installed plan is a no-op)
/// or reload it from the latest checkpoint (S5.1), charging `report`. The
/// engine adds its executor's migration charge and the new plan signature.
struct EngineMove {
  plan::ParallelPlan plan;
  bool reload = false;
  StepReport report;
};

/// \brief Decides the engine's move when the observed situation changes.
class EngineActor {
 public:
  virtual ~EngineActor() = default;

  /// `installed_step_seconds` is the installed plan's step under
  /// `observed`, which a re-plan overlaps (S5.3); 0 when that plan lost a
  /// GPU and cannot run.
  virtual Result<EngineMove> Act(const MalleusEngine& engine,
                                 const straggler::Situation& observed,
                                 double installed_step_seconds) = 0;
};

/// Malleus as a TrainingFramework. The profiler observer acts on a rate
/// shift beyond 5% or a failed step; the truth observer acts at each
/// change point, never re-plans in Step, and runs a noise-free segment
/// as one `segment xN @s s/iter` report.
class MalleusEngine : public TrainingFramework {
 public:
  /// A null `actor` is the default act: re-plan the observed situation
  /// keeping the DP degree and migrate, or reload from the checkpoint
  /// when the installed plan lost a GPU.
  MalleusEngine(const topo::ClusterSpec& cluster,
                const model::CostModel& cost,
                EngineOptions options = EngineOptions(),
                Observer observer = Observer::kProfiler,
                EngineActor* actor = nullptr);

  std::string name() const override { return "Malleus"; }

  /// Plans for a healthy cluster and installs the initial plan.
  Status Initialize(int64_t global_batch) override;

  /// Installs a user-provided initial plan instead.
  Status InitializeWithPlan(plan::ParallelPlan p);

  /// Executes one training iteration under the true situation.
  Result<StepReport> Step(const straggler::Situation& truth) override;
  Result<StepReport> OnSituationChange(
      const straggler::Situation& situation) override;
  Status Advance(const straggler::Situation& situation, int64_t iterations,
                 std::vector<StepReport>* reports) override;

  /// Noise-free simulated step time of `p` under `situation`; Unavailable
  /// when `p` trains on a failed GPU.
  Result<double> PriceStep(const plan::ParallelPlan& p,
                           const straggler::Situation& situation) const;

  /// Planner::Replan through the engine's planner, keeping the installed
  /// plan's DP degree when feasible (paper footnote 2).
  Result<PlanResult> Replan(const straggler::Situation& situation,
                            PlannerOptions options) const;

  const plan::ParallelPlan& current_plan() const {
    return executor_.current_plan();
  }
  const Executor& executor() const { return executor_; }
  const Profiler& profiler() const { return profiler_; }

  /// The engine's planner (and through it the solve cache). Mutable access
  /// exists so hosts can warm or persist the cache around the engine's own
  /// replans (scenario_cli --cache-save/--cache-load, malleus::serve).
  Planner& planner() { return planner_; }
  const Planner& planner() const { return planner_; }

 private:
  /// Standby devices the profiler probes (none for the truth observer).
  std::vector<topo::GpuId> ProbedGpus() const;

  /// Commits the actor's (or ReplanMove's) move for `observed`.
  Result<StepReport> Act(const straggler::Situation& observed,
                         double installed_step_seconds);
  Result<EngineMove> ReplanMove(const straggler::Situation& observed,
                                double installed_step_seconds) const;

  /// Profiler failure path: mark dead GPUs, act, then train one step.
  Result<StepReport> RecoverFromFailure(const straggler::Situation& truth);

  const topo::ClusterSpec& cluster_;
  const model::CostModel& cost_;
  EngineOptions options_;
  Observer observer_;
  EngineActor* actor_;
  Planner planner_;
  Executor executor_;
  Profiler profiler_;
  Rng rng_;
  int64_t global_batch_ = 0;
};

}  // namespace core
}  // namespace malleus

#endif  // MALLEUS_CORE_ENGINE_H_
