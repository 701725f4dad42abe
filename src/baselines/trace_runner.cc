#include "baselines/trace_runner.h"

#include <algorithm>
#include <utility>

namespace malleus {
namespace baselines {

Result<std::vector<PhaseStats>> RunTrace(
    core::TrainingFramework* framework, const topo::ClusterSpec& cluster,
    const std::vector<straggler::TracePhase>& trace, int64_t global_batch,
    const TraceRunOptions& options) {
  MALLEUS_ASSIGN_OR_RETURN(core::Timeline timeline,
                           core::PhaseTimeline(cluster, trace));
  MALLEUS_RETURN_NOT_OK(framework->Initialize(global_batch));
  const core::DriveResult drive =
      core::Drive(framework, timeline, /*healthy_step_seconds=*/0.0);
  std::vector<PhaseStats> out;
  for (size_t i = 1; i < drive.segments.size(); ++i) {
    const core::DrivenSegment& segment = drive.segments[i];
    PhaseStats stats;
    stats.situation = trace[i - 1].id;
    stats.restart_seconds = segment.transition.recovery_seconds;
    stats.migration_seconds = segment.transition.migration_seconds;
    for (const core::StepReport& report : segment.steps) {
      if (options.run_log != nullptr) {
        options.run_log->Record(timeline.changes[i - 1].label, report);
      }
      stats.step_seconds.push_back(report.TotalSeconds());
    }
    const int warmup = std::max(
        0, std::min<int>(options.warmup_steps,
                         static_cast<int>(stats.step_seconds.size()) - 1));
    double sum = 0.0;
    int count = 0;
    for (size_t s = warmup; s < stats.step_seconds.size(); ++s) {
      sum += stats.step_seconds[s];
      ++count;
    }
    stats.mean_step_seconds = count > 0 ? sum / count : 0.0;
    out.push_back(std::move(stats));
  }
  MALLEUS_RETURN_NOT_OK(drive.stop);
  return out;
}

}  // namespace baselines
}  // namespace malleus
