// Planner exploration tool: dissects a planning run for a user-specified
// scenario - grouping (with Theorem 1/2 splitting decisions), pipeline
// orchestration, work assignment, the ablation of each non-uniform
// dimension, and the migration cost from the healthy plan.
//
//   $ ./examples/planner_explore [straggler_gpu=0] [level=3]

#include <cstdio>

#include "common/string_util.h"
#include "core/grouping.h"
#include "core/migration.h"
#include "core/planner.h"
#include "model/cost_model.h"
#include "plan/estimator.h"

using namespace malleus;

int main(int argc, char** argv) {
  int straggler_gpu = 0;
  int level = 3;
  if ((argc > 1 && !ParseValue(argv[1], &straggler_gpu).ok()) ||
      (argc > 2 && !ParseValue(argv[2], &level).ok())) {
    std::fprintf(stderr, "usage: %s [straggler_gpu=0] [level=3]\n", argv[0]);
    return 2;
  }

  const topo::ClusterSpec cluster = topo::ClusterSpec::A800Cluster(4);
  const model::CostModel cost(model::ModelSpec::Llama32B(), cluster.gpu());
  if (!cluster.ValidGpu(straggler_gpu)) {
    std::fprintf(stderr, "GPU id out of range (0..%d)\n",
                 cluster.num_gpus() - 1);
    return 1;
  }

  straggler::Situation s(cluster.num_gpus());
  s.SetLevel(straggler_gpu, level);
  std::printf("scenario: %s on %s\n\n", s.ToString().c_str(),
              cluster.ToString().c_str());

  // --- Grouping: show how Theorem 1/2 treat the straggler per TP degree.
  for (int tp : {2, 4, 8}) {
    core::GroupingOptions gopts;
    gopts.max_tp_degree = tp;
    Result<core::GroupingResult> g = core::GroupGpus(cluster, cost, s, gopts);
    MALLEUS_CHECK_OK(g.status());
    std::printf("grouping (max TP %d): capacity %.2f\n", tp, g->Capacity());
    for (size_t i = 0; i < g->groups.size(); ++i) {
      if (cluster.NodeOf(g->groups[i].gpus[0]) != 0) continue;  // Node 0.
      std::printf("  %s  y=%.3f\n", g->groups[i].ToString().c_str(),
                  g->rates[i]);
    }
  }

  // --- Full planning and per-dimension ablation.
  core::Planner planner(cluster, cost);
  const straggler::Situation healthy(cluster.num_gpus());
  Result<core::PlanResult> base = planner.Plan(healthy, 64);
  MALLEUS_CHECK_OK(base.status());

  struct Variant {
    const char* label;
    bool devices, layers, data;
  } variants[] = {
      {"uniform everything", false, false, false},
      {"+ non-uniform data", false, false, true},
      {"+ non-uniform layers", false, true, true},
      {"+ non-uniform devices/stages (full Malleus)", true, true, true},
  };
  std::printf("\nablation (estimated step seconds; healthy plan %.1f s):\n",
              base->estimated_full_seconds);
  for (const Variant& v : variants) {
    core::PlannerOptions opts;
    opts.dp_degree = base->plan.dp_degree();
    opts.nonuniform_devices = v.devices;
    opts.nonuniform_layers = v.layers;
    opts.nonuniform_data = v.data;
    Result<core::PlanResult> r = planner.Plan(s, 64, opts);
    if (!r.ok()) {
      std::printf("  %-45s: %s\n", v.label, r.status().ToString().c_str());
      continue;
    }
    std::printf("  %-45s: %.1f s\n", v.label, r->estimated_full_seconds);
  }

  // --- Chosen plan + what migrating to it would cost.
  core::PlannerOptions opts;
  opts.dp_degree = base->plan.dp_degree();
  Result<core::PlanResult> final_plan = planner.Plan(s, 64, opts);
  MALLEUS_CHECK_OK(final_plan.status());
  std::printf("\nchosen plan:\n%s", final_plan->plan.ToString().c_str());
  Result<core::MigrationPlan> migration =
      core::ComputeMigration(base->plan, final_plan->plan, cost);
  MALLEUS_CHECK_OK(migration.status());
  std::printf("\nmigration from the healthy plan: %s in %zu transfers, "
              "%.2f s\n",
              FormatBytes(static_cast<uint64_t>(migration->total_bytes))
                  .c_str(),
              migration->transfers.size(),
              core::MigrationSeconds(*migration, cluster));
  return 0;
}
