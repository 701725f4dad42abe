// Failure handling demo (paper S5.1/S8): a GPU dies mid-training
// (straggling rate = infinity), Malleus reloads the latest checkpoint onto
// the remaining devices and continues; when the GPU comes back, the
// standby micro-benchmarks notice and the planner re-includes it.
//
//   $ ./examples/elastic_failures

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

  const straggler::Situation healthy(cluster.num_gpus());
  straggler::Situation failed(cluster.num_gpus());
  failed.Fail(/*gpu=*/5);
  // GPU 5 fails at iteration 3 and returns at iteration 7.
  const core::Timeline timeline{healthy,
                                {{0, healthy, "all GPUs healthy"},
                                 {3, failed, "GPU 5 becomes unresponsive"},
                                 {7, healthy, "GPU 5 recovers"}},
                                12};
  const core::DriveResult drive =
      core::Drive(&engine, timeline, /*healthy_step_seconds=*/0.0);
  MALLEUS_CHECK_OK(drive.stop);

  for (size_t i = 1; i < drive.segments.size(); ++i) {
    std::printf("--- %s\n", timeline.changes[i - 1].label.c_str());
    for (const core::StepReport& r : drive.segments[i].steps) {
      std::printf("  step: %.1f s", r.step_seconds);
      if (r.recovery_seconds > 0) {
        std::printf("  [checkpoint reload %.0f s]", r.recovery_seconds);
      }
      if (r.replanned) std::printf("  [re-planned]");
      if (!r.note.empty()) std::printf("  (%s)", r.note.c_str());
      std::printf("\n");
    }
  }
  std::printf("\n%lld iterations: %.1f s training + %.1f s transitions; "
              "active GPUs: %zu\n",
              static_cast<long long>(drive.iterations_run),
              drive.training_seconds, drive.transition_seconds,
              engine.current_plan().ActiveGpus().size());
  return 0;
}
