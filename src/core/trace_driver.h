// The one trace driver: Drive() plays a cluster timeline through a
// TrainingFramework and keeps the goodput ledger. Figure 7 phase runs
// (baselines::RunTrace), event-trace runs (policy::RunDynamic, a
// truth-observing core::MalleusEngine), bench_policy's baselines and the
// engine examples all go through it. A step and a change point both
// report a StepReport, and the driver sums every report's
// TransitionSeconds(). A re-plan is charged by one rule, ChargeReplanning
// (S5.3), by the engine's default actor and the policy actor alike.

#ifndef MALLEUS_CORE_TRACE_DRIVER_H_
#define MALLEUS_CORE_TRACE_DRIVER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "straggler/situation.h"
#include "topology/cluster.h"

namespace malleus {
namespace core {

/// What happened during one training step, or during one segment of
/// identical steps (see TrainingFramework::Advance).
struct StepReport {
  /// Training time of the iteration itself.
  double step_seconds = 0.0;
  /// Time spent migrating model states after re-planning (not overlapped).
  double migration_seconds = 0.0;
  /// Checkpoint-reload time after a failure (not overlapped).
  double recovery_seconds = 0.0;
  /// Wall time of the planner run; overlapped with training (S5.3) except
  /// for `planning_overflow_seconds` (see ChargeReplanning).
  double planning_seconds = 0.0;
  double planning_overflow_seconds = 0.0;
  bool replanned = false;
  std::string note;
  /// Fingerprint of the plan adopted this step (plan::ParallelPlan::
  /// Signature()); set only when a re-plan installed a different plan.
  std::string plan_signature;

  /// Total wall-clock cost of the step including transition overheads.
  double TotalSeconds() const {
    return step_seconds + migration_seconds + recovery_seconds +
           planning_overflow_seconds;
  }
  /// The transition overheads alone: what the report costs beyond training.
  double TransitionSeconds() const {
    return migration_seconds + recovery_seconds + planning_overflow_seconds;
  }
};

/// Charges a re-plan of `planning_seconds` wall time to `report` by the
/// asynchronous re-planning rule (S5.3): the planner runs while the current
/// plan trains one step of `overlapped_step_seconds`, so only the planning
/// time beyond that step stalls the GPUs. Pass 0 when the current plan
/// cannot run (it lost a GPU), which charges the whole planning time. Sets
/// replanned, planning_seconds and planning_overflow_seconds =
/// max(0, planning - overlapped step).
void ChargeReplanning(double planning_seconds, double overlapped_step_seconds,
                      StepReport* report);

/// \brief A training framework under evaluation (S7.1), driven through a
/// timeline: Initialize() once, then Drive().
class TrainingFramework {
 public:
  virtual ~TrainingFramework() = default;

  virtual std::string name() const = 0;

  virtual Status Initialize(int64_t global_batch) = 0;

  /// Reacts to a change in the straggler situation and reports what the
  /// change cost: step_seconds 0, a restart's checkpoint I/O in
  /// recovery_seconds.
  virtual Result<StepReport> OnSituationChange(
      const straggler::Situation& situation) = 0;

  /// Runs one training iteration under `situation`.
  virtual Result<StepReport> Step(const straggler::Situation& situation) = 0;

  /// Runs `iterations` event-free iterations and appends their reports.
  /// The default appends one Step() per iteration and stops at the first
  /// failure; a framework whose iterations are identical may instead
  /// append one report covering them all.
  virtual Status Advance(const straggler::Situation& situation,
                         int64_t iterations, std::vector<StepReport>* reports);
};

/// From `iteration` on, until the next change point, `situation` holds.
struct ChangePoint {
  int64_t iteration = 0;
  straggler::Situation situation;
  std::string label;
};

/// Iterations [0, iterations): `initial` holds until the first change
/// point; change points are sorted by iteration.
struct Timeline {
  straggler::Situation initial;
  std::vector<ChangePoint> changes;
  int64_t iterations = 0;
};

/// Figure 7 phases as a timeline: one change point per phase, labelled
/// with its situation name. A phase with steps <= 0 is InvalidArgument.
Result<Timeline> PhaseTimeline(
    const topo::ClusterSpec& cluster,
    const std::vector<straggler::TracePhase>& phases);

/// The iterations one situation held: the transition paid on entering it
/// (none for the initial situation) and the step reports, in order.
struct DrivenSegment {
  StepReport transition;
  std::vector<StepReport> steps;
};

/// Every report of a drive and the ledger.
struct DriveResult {
  /// segments[0] ran under Timeline::initial and segments[i + 1] under
  /// change point i, for each change point the drive reached.
  std::vector<DrivenSegment> segments;
  int64_t iterations_run = 0;
  /// Sum of the step reports' step_seconds.
  double training_seconds = 0.0;
  /// Sum, in timeline order, of every report's TransitionSeconds(), step
  /// and transition alike.
  double transition_seconds = 0.0;
  double wall_seconds = 0.0;  ///< training + transition.
  /// iterations_run x healthy step / wall; 1.0 when no time passed.
  double goodput = 0.0;
  /// OK when the whole timeline ran. A failed step names its iteration; a
  /// failed change keeps the framework's status.
  Status stop;
};

/// Plays `timeline` through an initialized `framework`; the goodput
/// numeraire is the step time of an undisturbed cluster (0 when goodput
/// is not wanted).
DriveResult Drive(TrainingFramework* framework, const Timeline& timeline,
                  double healthy_step_seconds);

}  // namespace core
}  // namespace malleus

#endif  // MALLEUS_CORE_TRACE_DRIVER_H_
