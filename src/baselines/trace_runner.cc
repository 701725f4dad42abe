#include "baselines/trace_runner.h"

#include <algorithm>

#include "common/string_util.h"
#include "core/run_log.h"

namespace malleus {
namespace baselines {

Result<std::vector<PhaseStats>> RunTrace(
    TrainingFramework* framework, const topo::ClusterSpec& cluster,
    const std::vector<straggler::TracePhase>& trace, int64_t global_batch,
    const TraceRunOptions& options) {
  for (size_t i = 0; i < trace.size(); ++i) {
    if (trace[i].steps <= 0) {
      return Status::InvalidArgument(StrFormat(
          "trace phase %zu (%s) has %d steps; every phase needs at least one",
          i, straggler::SituationName(trace[i].id), trace[i].steps));
    }
  }
  MALLEUS_RETURN_NOT_OK(framework->Initialize(global_batch));

  std::vector<PhaseStats> out;
  for (const straggler::TracePhase& phase : trace) {
    Result<straggler::Situation> situation =
        straggler::Situation::Canonical(cluster, phase.id);
    MALLEUS_RETURN_NOT_OK(situation.status());

    PhaseStats stats;
    stats.situation = phase.id;
    Result<TransitionReport> transition =
        framework->OnSituationChange(*situation);
    MALLEUS_RETURN_NOT_OK(transition.status());
    stats.restart_seconds = transition->restart_seconds;
    stats.migration_seconds = transition->migration_seconds;
    stats.transition_note = transition->description;

    for (int s = 0; s < phase.steps; ++s) {
      Result<double> t = framework->StepSeconds(*situation);
      MALLEUS_RETURN_NOT_OK(t.status());
      stats.step_seconds.push_back(*t);
      if (options.run_log != nullptr) {
        core::StepReport report;
        if (const core::StepReport* last = framework->last_step_report()) {
          report = *last;
        } else {
          report.step_seconds = *t;
        }
        options.run_log->Record(straggler::SituationName(phase.id), report);
      }
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
  return out;
}

}  // namespace baselines
}  // namespace malleus
