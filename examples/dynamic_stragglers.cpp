// Dynamic-straggler demo: run the full Malleus engine (profiler + planner +
// executor) through the paper's Figure 7 trace on the 32B model and watch
// it detect shifts, re-plan asynchronously, and migrate on the fly.
//
//   $ ./examples/dynamic_stragglers

#include <cstdio>

#include "core/engine.h"
#include "model/cost_model.h"
#include "straggler/situation.h"
#include "topology/cluster.h"

using namespace malleus;

int main() {
  const topo::ClusterSpec cluster = topo::ClusterSpec::A800Cluster(4);
  const model::CostModel cost(model::ModelSpec::Llama32B(), cluster.gpu());

  core::MalleusEngine engine(cluster, cost);
  MALLEUS_CHECK_OK(engine.Initialize(/*global_batch=*/64));
  std::printf("initial plan:\n%s\n", engine.current_plan().ToString().c_str());

  Result<core::Timeline> timeline = core::PhaseTimeline(
      cluster, straggler::StandardTrace(/*steps_per_phase=*/6));
  MALLEUS_CHECK_OK(timeline.status());
  const core::DriveResult drive =
      core::Drive(&engine, *timeline, /*healthy_step_seconds=*/0.0);
  MALLEUS_CHECK_OK(drive.stop);

  for (size_t i = 1; i < drive.segments.size(); ++i) {
    const core::ChangePoint& point = timeline->changes[i - 1];
    std::printf("--- %s  (%s)\n", point.label.c_str(),
                point.situation.ToString().c_str());
    int step = 0;
    for (const core::StepReport& r : drive.segments[i].steps) {
      std::printf("  step %d: %.1f s", step++, r.step_seconds);
      if (r.replanned) {
        std::printf("  [re-planned in %.2f s (overlapped)%s%s]",
                    r.planning_seconds,
                    r.migration_seconds > 0 ? ", migrated" : "",
                    r.note.empty() ? "" : (", " + r.note).c_str());
      }
      std::printf("\n");
    }
  }
  std::printf("\n%lld iterations: %.1f s training + %.1f s transitions\n",
              static_cast<long long>(drive.iterations_run),
              drive.training_seconds, drive.transition_seconds);
  std::printf("\nfinal plan:\n%s", engine.current_plan().ToString().c_str());
  return 0;
}
