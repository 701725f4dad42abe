// Drives a TrainingFramework through a straggler-situation trace (the
// Figure 7 protocol) and collects per-phase statistics.

#ifndef MALLEUS_BASELINES_TRACE_RUNNER_H_
#define MALLEUS_BASELINES_TRACE_RUNNER_H_

#include <string>
#include <vector>

#include "baselines/baseline.h"
#include "straggler/situation.h"
#include "topology/cluster.h"

namespace malleus {

namespace core {
class RunLog;
}  // namespace core

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
  std::string transition_note;
};

struct TraceRunOptions {
  /// Steps excluded from the phase mean (adaptation transient).
  int warmup_steps = 3;
  /// When set, every step is also recorded here under the phase's
  /// situation name. Frameworks that expose a detailed StepReport (see
  /// TrainingFramework::last_step_report) contribute it verbatim; others
  /// contribute a report carrying just the step time.
  core::RunLog* run_log = nullptr;
};

/// Runs `framework` through `trace` and returns per-phase statistics. Each
/// phase runs its own `steps`; a phase with steps <= 0 is InvalidArgument.
Result<std::vector<PhaseStats>> RunTrace(
    TrainingFramework* framework, const topo::ClusterSpec& cluster,
    const std::vector<straggler::TracePhase>& trace, int64_t global_batch,
    const TraceRunOptions& options = TraceRunOptions());

}  // namespace baselines
}  // namespace malleus

#endif  // MALLEUS_BASELINES_TRACE_RUNNER_H_
