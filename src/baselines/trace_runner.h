// The Figure 7 protocol: plays straggler-situation phases through the one
// trace driver (core::PhaseTimeline, core::Drive), one step per iteration,
// and folds the step reports into per-phase statistics. A step's value is
// its TotalSeconds(), so the engine's detect-and-migrate transient lands in
// the steps, while the baselines' restarts land at the phase boundary.

#ifndef MALLEUS_BASELINES_TRACE_RUNNER_H_
#define MALLEUS_BASELINES_TRACE_RUNNER_H_

#include <string>
#include <vector>

#include "core/run_log.h"
#include "core/trace_driver.h"
#include "straggler/situation.h"
#include "topology/cluster.h"

namespace malleus {
namespace baselines {

/// Statistics of one trace phase for one framework.
struct PhaseStats {
  straggler::SituationId situation = straggler::SituationId::kNormal;
  /// Mean per-step time, excluding the first `warmup_steps` steps after a
  /// transition (Malleus needs a step or two to detect + migrate).
  double mean_step_seconds = 0.0;
  /// Per-step times of every step of the phase.
  std::vector<double> step_seconds;
  /// Overheads paid at the transition into this phase.
  double restart_seconds = 0.0;
  double migration_seconds = 0.0;
};

struct TraceRunOptions {
  /// Steps excluded from the phase mean (adaptation transient).
  int warmup_steps = 3;
  /// When set, every step's report is also recorded here under the
  /// phase's situation name.
  core::RunLog* run_log = nullptr;
};

/// Initializes `framework`, runs it through `trace` and returns per-phase
/// statistics, or the drive's stop status. Each phase runs its own
/// `steps`; a phase with steps <= 0 is InvalidArgument.
Result<std::vector<PhaseStats>> RunTrace(
    core::TrainingFramework* framework, const topo::ClusterSpec& cluster,
    const std::vector<straggler::TracePhase>& trace, int64_t global_batch,
    const TraceRunOptions& options = TraceRunOptions());

}  // namespace baselines
}  // namespace malleus

#endif  // MALLEUS_BASELINES_TRACE_RUNNER_H_
