// Planner thread-scaling bench: wall time of one Plan() call at worker
// thread counts {1,2,4,8} across cluster sizes, plus the single-thread
// speedup from a warm SolveCache (re-planning the same situation). Every
// configuration must produce a bit-identical plan — the bench checks the
// plan signatures and estimates and reports any divergence.
//
// Emits BENCH_planner_scaling.json (see bench::WriteBenchJson) with the
// measured seconds, speedups and the identical-plan verdict per scenario.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/table.h"
#include "core/planner.h"
#include "net/flow_sim.h"
#include "testkit/flow_sim_reference.h"

namespace malleus {
namespace bench {
namespace {

constexpr int kThreadCounts[] = {1, 2, 4, 8};
constexpr int kReps = 3;  // Best-of-N per configuration.

struct Scenario {
  std::string label;
  model::ModelSpec spec;
  topo::ClusterSpec cluster;
  straggler::Situation situation;
  int64_t global_batch;
  int dp_degree;  // 0 enumerates the full dp sweep (the heavy case).
};

struct Measured {
  double seconds = std::numeric_limits<double>::infinity();
  std::string signature;
  double estimate = 0.0;
};

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// One cold Plan() call: fresh planner (empty cache) per repetition so every
// run performs identical work; best-of-kReps wall time.
Measured MeasureCold(const Scenario& sc, const model::CostModel& cost,
                     int threads) {
  Measured m;
  for (int rep = 0; rep < kReps; ++rep) {
    core::Planner planner(sc.cluster, cost);
    core::PlannerOptions opts;
    opts.dp_degree = sc.dp_degree;
    opts.num_threads = threads;
    const double t0 = Now();
    Result<core::PlanResult> r =
        planner.Plan(sc.situation, sc.global_batch, opts);
    const double seconds = Now() - t0;
    MALLEUS_CHECK_OK(r.status());
    if (seconds < m.seconds) m.seconds = seconds;
    m.signature = r->plan.Signature();
    m.estimate = r->estimated_full_seconds;
  }
  return m;
}

// Warm-cache re-plan: one cold call fills the planner's SolveCache, then
// the same situation is re-planned on the same planner (single thread).
Measured MeasureWarm(const Scenario& sc, const model::CostModel& cost) {
  Measured m;
  core::Planner planner(sc.cluster, cost);
  core::PlannerOptions opts;
  opts.dp_degree = sc.dp_degree;
  opts.num_threads = 1;
  MALLEUS_CHECK_OK(
      planner.Plan(sc.situation, sc.global_batch, opts).status());
  for (int rep = 0; rep < kReps; ++rep) {
    const double t0 = Now();
    Result<core::PlanResult> r =
        planner.Plan(sc.situation, sc.global_batch, opts);
    const double seconds = Now() - t0;
    MALLEUS_CHECK_OK(r.status());
    if (seconds < m.seconds) m.seconds = seconds;
    m.signature = r->plan.Signature();
    m.estimate = r->estimated_full_seconds;
  }
  return m;
}

// Cache-off single-thread run, for the cache-speedup denominator and the
// cache-on/off plan-identity check.
Measured MeasureNoCache(const Scenario& sc, const model::CostModel& cost) {
  Measured m;
  for (int rep = 0; rep < kReps; ++rep) {
    core::Planner planner(sc.cluster, cost);
    core::PlannerOptions opts;
    opts.dp_degree = sc.dp_degree;
    opts.num_threads = 1;
    opts.enable_solve_cache = false;
    const double t0 = Now();
    Result<core::PlanResult> r =
        planner.Plan(sc.situation, sc.global_batch, opts);
    const double seconds = Now() - t0;
    MALLEUS_CHECK_OK(r.status());
    if (seconds < m.seconds) m.seconds = seconds;
    m.signature = r->plan.Signature();
    m.estimate = r->estimated_full_seconds;
  }
  return m;
}

// ---------------------------------------------------------------------------
// Scale-out section: hierarchical planning on pod-structured fat-tree
// clusters at 512 / 2048 / 8192 GPUs. The acceptance bar is a sub-second
// cold plan at 2048 GPUs and an 8192-GPU plan that completes at all; the
// warm column shows the island-memo delta re-plan after one new straggler.

topo::ClusterSpec ScaleCluster(int nodes, int gpn, int nodes_per_pod,
                               double oversub) {
  topo::FabricSpec f;
  f.kind = topo::FabricSpec::Kind::kFatTree;
  f.nodes_per_pod = nodes_per_pod;
  f.oversubscription = oversub;
  return topo::ClusterSpec(nodes, gpn, topo::GpuSpec(), topo::LinkSpec(), f);
}

std::string RunScale() {
  struct ScaleCase {
    std::string label;
    int nodes, gpn, pod;
    int64_t batch;
  };
  const std::vector<ScaleCase> cases = {
      {"512 GPUs (64n fat-tree, pods of 4)", 64, 8, 4, 1024},
      {"2048 GPUs (256n fat-tree, pods of 8)", 256, 8, 8, 2048},
      {"8192 GPUs (1024n fat-tree, pods of 16)", 1024, 8, 16, 8192},
  };

  std::string json = "\"scale\":[";
  TablePrinter table("hierarchical planning at scale (fat-tree, 4:1 spine)");
  table.SetHeader({"Scenario", "cold plan", "warm delta re-plan",
                   "sub-second", "valid"});
  bool first = true;
  for (const ScaleCase& c : cases) {
    const topo::ClusterSpec cluster = ScaleCluster(c.nodes, c.gpn, c.pod, 4.0);
    const model::CostModel cost(model::ModelSpec::Tiny(), cluster.gpu());
    straggler::Situation situation(cluster.num_gpus());
    situation.SetLevel(0, 3);  // One S3-style straggler in pod 0 ...
    situation.SetLevel(cluster.num_gpus() / 2, 1);  // ... one S1 mid-cluster.

    core::Planner planner(cluster, cost);
    double cold = std::numeric_limits<double>::infinity();
    Result<core::PlanResult> r = Status::Internal("unset");
    for (int rep = 0; rep < kReps; ++rep) {
      core::Planner fresh(cluster, cost);
      const double t0 = Now();
      Result<core::PlanResult> attempt = fresh.Plan(situation, c.batch);
      const double seconds = Now() - t0;
      MALLEUS_CHECK_OK(attempt.status());
      if (seconds < cold) cold = seconds;
      r = std::move(attempt);
    }
    const bool valid = r->plan.Validate(cluster, cost).ok();

    // Warm delta re-plan on a planner whose island memo is already primed:
    // one additional straggler appears, everything else replays.
    MALLEUS_CHECK_OK(planner.Plan(situation, c.batch).status());
    situation.SetLevel(cluster.num_gpus() / 4, 2);
    const double t1 = Now();
    MALLEUS_CHECK_OK(planner.Plan(situation, c.batch).status());
    const double warm = Now() - t1;

    const bool sub_second = cold < 1.0;
    table.AddRow({c.label, StrFormat("%.3fs", cold),
                  StrFormat("%.3fs", warm), sub_second ? "yes" : "NO",
                  valid ? "yes" : "NO"});
    if (!first) json += ",";
    first = false;
    json += StrFormat(
        "{\"label\":\"%s\",\"gpus\":%d,\"cold_seconds\":%.6f,"
        "\"warm_replan_seconds\":%.6f,\"sub_second\":%s,"
        "\"plan_valid\":%s}",
        JsonEscape(c.label).c_str(), c.nodes * c.gpn, cold, warm,
        sub_second ? "true" : "false", valid ? "true" : "false");
  }
  json += "]";
  table.Print();
  return json;
}

// ---------------------------------------------------------------------------
// FlowSim event-loop section: 2048 staggered flows on a 256-GPU fat-tree
// fabric, played once by the seed's from-scratch engine (testkit's
// reference) and once by the incremental engine. Both must agree bitwise;
// the speedup column is the acceptance number (target >= 10x).

std::vector<net::Flow> ScaleFlows(const topo::ClusterSpec& cluster) {
  // Eight staggered waves of neighbour shuffles: wave w sends GPU g ->
  // g + w + 1, all waves offset in time so the active set churns — the
  // regime where from-scratch re-sharing at every event hurts most.
  std::vector<net::Flow> flows;
  const int n = cluster.num_gpus();
  const int waves = 2048 / n;
  for (int w = 0; w < waves; ++w) {
    for (int g = 0; g < n; ++g) {
      net::Flow f;
      f.src = g;
      f.dst = (g + w + 1) % n;
      f.bytes = 1e9 + 1e7 * ((g + w) % 13);
      f.start_seconds = 0.05 * w + 1e-4 * (g % 7);
      flows.push_back(f);
    }
  }
  return flows;
}

std::string RunFlowSim() {
  const topo::ClusterSpec cluster = ScaleCluster(32, 8, 4, 4.0);
  const net::Fabric fabric(cluster);
  const std::vector<net::Flow> flows = ScaleFlows(cluster);

  // Best of kReps wall times of each engine's run; flow submission to the
  // incremental engine stays outside its timed region.
  double legacy_seconds = std::numeric_limits<double>::infinity();
  double incr_seconds = std::numeric_limits<double>::infinity();
  double legacy_makespan = 0.0, incr_makespan = 0.0;
  std::vector<net::FlowOutcome> legacy_out, incr_out;
  for (int rep = 0; rep < kReps; ++rep) {
    double t0 = Now();
    testkit::ReferenceFlowSimResult ref =
        testkit::RunReferenceFlowSim(fabric, flows);
    legacy_seconds = std::min(legacy_seconds, Now() - t0);
    legacy_makespan = ref.makespan_seconds;
    legacy_out = std::move(ref.outcomes);

    net::FlowSim sim(fabric);
    for (const net::Flow& f : flows) sim.Submit(f);
    t0 = Now();
    sim.Run();
    incr_seconds = std::min(incr_seconds, Now() - t0);
    incr_makespan = sim.MakespanSeconds();
    incr_out = sim.outcomes();
  }

  bool identical = legacy_makespan == incr_makespan &&
                   legacy_out.size() == incr_out.size();
  for (size_t i = 0; identical && i < legacy_out.size(); ++i) {
    identical = legacy_out[i].end_seconds == incr_out[i].end_seconds;
  }
  const double speedup = legacy_seconds / incr_seconds;

  TablePrinter table("FlowSim event loop, 2048 flows on a 256-GPU fat-tree");
  table.SetHeader({"Engine", "wall time", "makespan", "speedup",
                   "bit-identical"});
  table.AddRow({"legacy (from-scratch)", StrFormat("%.3fs", legacy_seconds),
                StrFormat("%.4fs", legacy_makespan), "1.00x",
                identical ? "yes" : "NO"});
  table.AddRow({"incremental", StrFormat("%.3fs", incr_seconds),
                StrFormat("%.4fs", incr_makespan),
                StrFormat("%.2fx", speedup), identical ? "yes" : "NO"});
  table.Print();

  return StrFormat(
      "\"flowsim\":{\"flows\":%d,\"legacy_seconds\":%.6f,"
      "\"incremental_seconds\":%.6f,\"speedup\":%.3f,"
      "\"bit_identical\":%s}",
      static_cast<int>(flows.size()), legacy_seconds, incr_seconds, speedup,
      identical ? "true" : "false");
}

void Run() {
  std::vector<Scenario> scenarios;
  {
    Scenario sc{"32 GPUs (S3)", model::ModelSpec::Llama32B(),
                topo::ClusterSpec::A800Cluster(4), straggler::Situation(32),
                64, 0};
    sc.situation = straggler::Situation::Canonical(sc.cluster,
                                                   straggler::SituationId::kS3)
                       .ValueOrDie();
    scenarios.push_back(std::move(sc));
  }
  {
    Scenario sc{"64 GPUs (S3)", model::ModelSpec::Llama110B(),
                topo::ClusterSpec::A800Cluster(8), straggler::Situation(64),
                64, 0};
    sc.situation = straggler::Situation::Canonical(sc.cluster,
                                                   straggler::SituationId::kS3)
                       .ValueOrDie();
    scenarios.push_back(std::move(sc));
  }

  std::string json = "{\"bench\":\"planner_scaling\",\"scenarios\":[";
  TablePrinter table("planner thread scaling (cold cache, best of 3)");
  table.SetHeader({"Scenario", "1 thread", "2 threads", "4 threads",
                   "8 threads", "8T speedup", "cache speedup", "identical"});
  bool first = true;
  for (const Scenario& sc : scenarios) {
    const model::CostModel cost(sc.spec, sc.cluster.gpu());
    std::vector<Measured> by_threads;
    for (int threads : kThreadCounts) {
      by_threads.push_back(MeasureCold(sc, cost, threads));
    }
    const Measured warm = MeasureWarm(sc, cost);
    const Measured nocache = MeasureNoCache(sc, cost);

    bool identical = true;
    for (const Measured& m : by_threads) {
      identical = identical && m.signature == by_threads[0].signature &&
                  m.estimate == by_threads[0].estimate;
    }
    identical = identical && warm.signature == by_threads[0].signature &&
                nocache.signature == by_threads[0].signature &&
                warm.estimate == by_threads[0].estimate &&
                nocache.estimate == by_threads[0].estimate;

    const double speedup_8t = by_threads[0].seconds / by_threads[3].seconds;
    const double speedup_cache = nocache.seconds / warm.seconds;
    table.AddRow({sc.label, StrFormat("%.3fs", by_threads[0].seconds),
                  StrFormat("%.3fs", by_threads[1].seconds),
                  StrFormat("%.3fs", by_threads[2].seconds),
                  StrFormat("%.3fs", by_threads[3].seconds),
                  StrFormat("%.2fx", speedup_8t),
                  StrFormat("%.2fx", speedup_cache),
                  identical ? "yes" : "NO"});

    if (!first) json += ",";
    first = false;
    json += StrFormat("{\"label\":\"%s\",\"threads\":[",
                      JsonEscape(sc.label).c_str());
    for (size_t i = 0; i < by_threads.size(); ++i) {
      if (i > 0) json += ",";
      json += StrFormat("{\"threads\":%d,\"seconds\":%.6f,\"speedup\":%.3f}",
                        kThreadCounts[i], by_threads[i].seconds,
                        by_threads[0].seconds / by_threads[i].seconds);
    }
    json += StrFormat(
        "],\"cache\":{\"cold_seconds\":%.6f,\"warm_seconds\":%.6f,"
        "\"nocache_seconds\":%.6f,\"speedup\":%.3f},"
        "\"identical_plans\":%s}",
        by_threads[0].seconds, warm.seconds, nocache.seconds, speedup_cache,
        identical ? "true" : "false");
  }
  json += "],";
  table.Print();
  std::printf(
      "\nIdentical = plan signature and full-step estimate match across all\n"
      "thread counts, warm/cold cache and cache-off. Thread speedups are\n"
      "bounded by the machine's core count; on a single-core host all\n"
      "thread columns measure the same serialized work.\n\n");
  json += RunScale() + ",";
  std::printf("\n");
  json += RunFlowSim();
  json += "}\n";
  WriteBenchJson("planner_scaling", json);
}

}  // namespace
}  // namespace bench
}  // namespace malleus

int main() {
  std::printf("Malleus bench: planner thread scaling + solve cache\n\n");
  malleus::bench::Run();
  malleus::bench::DumpBenchMetrics("planner_scaling");
  return 0;
}
