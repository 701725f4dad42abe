// Micro-benchmarks (google-benchmark) of the planning and simulation
// building blocks: LP/ILP solvers, bottleneck allocation, the Eq. (4)
// division, GPU grouping, full planning runs, step simulation, migration
// diffing and plan signatures. Also benchmarks the DP-degree-enumeration
// planner mode (the footnote-2 extension) against the pinned-DP mode.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "core/migration.h"
#include "core/planner.h"
#include "sim/pipeline_sim.h"
#include "solver/division.h"
#include "solver/minmax.h"
#include "testkit/ilp.h"
#include "testkit/lp.h"

namespace malleus {
namespace {

void BM_SolveLp(benchmark::State& state) {
  testkit::LinearProgram lp = testkit::LinearProgram::Create(8);
  Rng rng(1);
  for (int j = 0; j < 8; ++j) lp.objective[j] = rng.Uniform(-1, 1);
  for (int c = 0; c < 6; ++c) {
    std::vector<double> row(8);
    for (double& v : row) v = rng.Uniform(0, 1);
    lp.AddLessEqual(std::move(row), 4.0);
  }
  lp.upper_bounds.assign(8, 3.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(testkit::SolveLp(lp));
  }
}
BENCHMARK(BM_SolveLp);

void BM_SolveIlp(benchmark::State& state) {
  testkit::IntegerProgram ip = testkit::IntegerProgram::Create(6);
  Rng rng(2);
  for (int j = 0; j < 6; ++j) ip.lp.objective[j] = -rng.Uniform(1, 5);
  std::vector<double> row(6);
  for (double& v : row) v = rng.Uniform(1, 3);
  ip.lp.AddLessEqual(std::move(row), 10.0);
  ip.lp.upper_bounds.assign(6, 4.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(testkit::SolveIlp(ip));
  }
}
BENCHMARK(BM_SolveIlp);

void BM_BottleneckAllocation(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<double> rates(n);
  Rng rng(3);
  for (double& r : rates) r = rng.Uniform(0.2, 4.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver::SolveBottleneckAllocation(rates, 256));
  }
}
BENCHMARK(BM_BottleneckAllocation)->Arg(4)->Arg(16)->Arg(64);

void BM_Division(benchmark::State& state) {
  solver::DivisionProblem problem;
  problem.num_pipelines = 4;
  problem.num_fast_groups = 24;
  problem.fast_rate = 0.15;
  const int slow = static_cast<int>(state.range(0));
  for (int i = 0; i < slow; ++i) {
    problem.slow_rates.push_back(i % 2 == 0 ? 2.6 : 3.8);
  }
  problem.total_microbatches = 64;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver::SolveDivision(problem));
  }
}
BENCHMARK(BM_Division)->Arg(2)->Arg(6)->Arg(10);

void BM_Grouping(benchmark::State& state) {
  const topo::ClusterSpec cluster = topo::ClusterSpec::A800Cluster(8);
  const model::CostModel cost(model::ModelSpec::Llama70B(), cluster.gpu());
  straggler::Situation s =
      straggler::Situation::Canonical(cluster, straggler::SituationId::kS5)
          .ValueOrDie();
  core::GroupingOptions opts;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::GroupGpus(cluster, cost, s, opts));
  }
}
BENCHMARK(BM_Grouping);

void PlannerBench(benchmark::State& state, straggler::SituationId id,
                  int dp_degree) {
  const topo::ClusterSpec cluster = topo::ClusterSpec::A800Cluster(8);
  const model::CostModel cost(model::ModelSpec::Llama110B(), cluster.gpu());
  core::Planner planner(cluster, cost);
  straggler::Situation s =
      straggler::Situation::Canonical(cluster, id).ValueOrDie();
  core::PlannerOptions opts;
  opts.dp_degree = dp_degree;
  for (auto _ : state) {
    benchmark::DoNotOptimize(planner.Plan(s, 64, opts));
  }
}

void BM_PlannerHealthyPinnedDp(benchmark::State& state) {
  PlannerBench(state, straggler::SituationId::kNormal, 2);
}
BENCHMARK(BM_PlannerHealthyPinnedDp);

void BM_PlannerS4PinnedDp(benchmark::State& state) {
  PlannerBench(state, straggler::SituationId::kS4, 2);
}
BENCHMARK(BM_PlannerS4PinnedDp);

// Footnote-2 ablation: enumerating the DP degree instead of keeping it.
void BM_PlannerS4AutoDp(benchmark::State& state) {
  PlannerBench(state, straggler::SituationId::kS4, 0);
}
BENCHMARK(BM_PlannerS4AutoDp);

void BM_SimulateStep(benchmark::State& state) {
  const topo::ClusterSpec cluster = topo::ClusterSpec::A800Cluster(8);
  const model::CostModel cost(model::ModelSpec::Llama110B(), cluster.gpu());
  core::Planner planner(cluster, cost);
  const straggler::Situation healthy(cluster.num_gpus());
  auto planned = planner.Plan(healthy, 64);
  MALLEUS_CHECK_OK(planned.status());
  Rng rng(4);
  sim::SimOptions opts;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::SimulateStep(
        cluster, cost, planned->plan, healthy, opts, &rng));
  }
}
BENCHMARK(BM_SimulateStep);

void BM_MigrationDiff(benchmark::State& state) {
  const topo::ClusterSpec cluster = topo::ClusterSpec::A800Cluster(8);
  const model::CostModel cost(model::ModelSpec::Llama110B(), cluster.gpu());
  core::Planner planner(cluster, cost);
  const straggler::Situation healthy(cluster.num_gpus());
  auto from = planner.Plan(healthy, 64);
  MALLEUS_CHECK_OK(from.status());
  straggler::Situation s =
      straggler::Situation::Canonical(cluster, straggler::SituationId::kS4)
          .ValueOrDie();
  core::PlannerOptions opts;
  opts.dp_degree = from->plan.dp_degree();
  auto to = planner.Plan(s, 64, opts);
  MALLEUS_CHECK_OK(to.status());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::ComputeMigration(from->plan, to->plan, cost));
  }
}
BENCHMARK(BM_MigrationDiff);

// The change-detection key of a 64-GPU plan (serve responses, the policy
// runner's simulation memo, the engine's run log).
void BM_PlanSignature(benchmark::State& state) {
  const topo::ClusterSpec cluster = topo::ClusterSpec::A800Cluster(8);
  const model::CostModel cost(model::ModelSpec::Llama110B(), cluster.gpu());
  core::Planner planner(cluster, cost);
  straggler::Situation s =
      straggler::Situation::Canonical(cluster, straggler::SituationId::kS4)
          .ValueOrDie();
  auto planned = planner.Plan(s, 64);
  MALLEUS_CHECK_OK(planned.status());
  for (auto _ : state) {
    benchmark::DoNotOptimize(planned->plan.Signature());
  }
}
BENCHMARK(BM_PlanSignature);

}  // namespace
}  // namespace malleus

BENCHMARK_MAIN();
