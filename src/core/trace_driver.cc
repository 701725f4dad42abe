#include "core/trace_driver.h"

#include <algorithm>
#include <utility>

#include "common/string_util.h"

namespace malleus {
namespace core {

void ChargeReplanning(double planning_seconds, double overlapped_step_seconds,
                      StepReport* report) {
  report->replanned = true;
  report->planning_seconds = planning_seconds;
  report->planning_overflow_seconds =
      std::max(0.0, planning_seconds - overlapped_step_seconds);
}

Status TrainingFramework::Advance(const straggler::Situation& situation,
                                  int64_t iterations,
                                  std::vector<StepReport>* reports) {
  for (int64_t i = 0; i < iterations; ++i) {
    MALLEUS_ASSIGN_OR_RETURN(StepReport report, Step(situation));
    reports->push_back(std::move(report));
  }
  return Status::OK();
}

Result<Timeline> PhaseTimeline(
    const topo::ClusterSpec& cluster,
    const std::vector<straggler::TracePhase>& phases) {
  Timeline timeline{straggler::Situation(cluster.num_gpus()), {}, 0};
  for (size_t i = 0; i < phases.size(); ++i) {
    if (phases[i].steps <= 0) {
      return Status::InvalidArgument(StrFormat(
          "trace phase %zu (%s) has %d steps; every phase needs at least one",
          i, straggler::SituationName(phases[i].id), phases[i].steps));
    }
    MALLEUS_ASSIGN_OR_RETURN(
        straggler::Situation situation,
        straggler::Situation::Canonical(cluster, phases[i].id));
    timeline.changes.push_back({timeline.iterations, std::move(situation),
                                straggler::SituationName(phases[i].id)});
    timeline.iterations += phases[i].steps;
  }
  return timeline;
}

DriveResult Drive(TrainingFramework* framework, const Timeline& timeline,
                  double healthy_step_seconds) {
  DriveResult out;
  // The one ledger entry of a report, step or transition alike.
  auto charge = [&out](const StepReport& report) {
    out.training_seconds += report.step_seconds;
    out.transition_seconds += report.TransitionSeconds();
  };
  out.segments.emplace_back();
  const straggler::Situation* situation = &timeline.initial;
  int64_t at = 0;
  // Runs up to change point i (the last pass to the end), then hands it on.
  for (size_t i = 0; i <= timeline.changes.size(); ++i) {
    const bool last = i == timeline.changes.size();
    const int64_t until =
        last ? timeline.iterations : timeline.changes[i].iteration;
    if (until > at) {
      std::vector<StepReport>& steps = out.segments.back().steps;
      const size_t first = steps.size();
      const Status status = framework->Advance(*situation, until - at, &steps);
      for (size_t k = first; k < steps.size(); ++k) charge(steps[k]);
      if (!status.ok()) {
        at += static_cast<int64_t>(steps.size() - first);
        out.stop = Status(status.code(),
                          StrFormat("step at iteration %lld failed: %s",
                                    static_cast<long long>(at),
                                    status.message().c_str()));
        break;
      }
      at = until;
    }
    if (last) break;
    situation = &timeline.changes[i].situation;
    Result<StepReport> transition = framework->OnSituationChange(*situation);
    if (!transition.ok()) {
      out.stop = transition.status();
      break;
    }
    charge(*transition);
    out.segments.push_back({std::move(*transition), {}});
  }
  out.iterations_run = at;
  out.wall_seconds = out.training_seconds + out.transition_seconds;
  out.goodput = out.wall_seconds > 0.0
                    ? static_cast<double>(at) * healthy_step_seconds /
                          out.wall_seconds
                    : 1.0;
  return out;
}

}  // namespace core
}  // namespace malleus
