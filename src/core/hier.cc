#include "core/hier.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/string_util.h"
#include "core/work_assignment.h"
#include "lint/lint.h"
#include "obs/metrics.h"
#include "plan/estimator.h"
#include "solver/solve_cache.h"

namespace malleus {
namespace core {

std::shared_ptr<HierPlanState> MakeHierPlanState() {
  return std::make_shared<HierPlanState>();
}

int ResolveIslandNodes(const topo::ClusterSpec& cluster,
                       const PlannerOptions& options) {
  const int nodes = cluster.num_nodes();
  if (options.island_nodes < 0) return 0;
  if (options.island_nodes > 0) {
    // A non-dividing size is rejected by Plan() before dispatch; a size
    // covering the whole cluster means one island, i.e. the flat sweep.
    if (options.island_nodes >= nodes) return 0;
    if (nodes % options.island_nodes != 0) return 0;
    return options.island_nodes;
  }
  if (cluster.fabric().kind == topo::FabricSpec::Kind::kFatTree &&
      cluster.num_pods() >= 2 && cluster.num_gpus() >= kHierAutoMinGpus) {
    return cluster.NodesPerPod();
  }
  return 0;
}

namespace {

double Elapsed(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Deterministic largest-remainder split of `total` over the healthy
// islands, proportional to their capacities, every share >= 1 (requires
// total >= healthy.size()). Ties in the fractional parts break to the
// lower island index.
std::vector<int64_t> SplitProportional(int64_t total,
                                       const std::vector<int>& healthy,
                                       const std::vector<double>& caps) {
  const size_t h = healthy.size();
  MALLEUS_CHECK_GE(total, static_cast<int64_t>(h));
  std::vector<int64_t> share(h, 1);
  const int64_t rem = total - static_cast<int64_t>(h);
  double cap_sum = 0.0;
  for (int k : healthy) cap_sum += caps[k];
  std::vector<std::pair<double, size_t>> fracs(h);
  int64_t given = 0;
  for (size_t i = 0; i < h; ++i) {
    const double quota =
        static_cast<double>(rem) * (caps[healthy[i]] / cap_sum);
    const int64_t base = static_cast<int64_t>(std::floor(quota));
    share[i] += base;
    given += base;
    fracs[i] = {quota - static_cast<double>(base), i};
  }
  std::sort(fracs.begin(), fracs.end(),
            [](const std::pair<double, size_t>& a,
               const std::pair<double, size_t>& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;
            });
  const int64_t leftover = rem - given;
  MALLEUS_CHECK_GE(leftover, 0);
  MALLEUS_CHECK_LE(leftover, static_cast<int64_t>(h));
  for (int64_t j = 0; j < leftover; ++j) ++share[fracs[j].second];
  return share;
}

}  // namespace

Result<PlanResult> PlanHierarchical(const topo::ClusterSpec& cluster,
                                    const model::CostModel& cost,
                                    const straggler::Situation& situation,
                                    int64_t global_batch,
                                    const PlannerOptions& options,
                                    int island_nodes, HierPlanState* state) {
  const auto t_total = std::chrono::steady_clock::now();
  MALLEUS_CHECK(state != nullptr);
  MALLEUS_CHECK_GT(island_nodes, 0);
  MALLEUS_CHECK_EQ(cluster.num_nodes() % island_nodes, 0);
  const int num_islands = cluster.num_nodes() / island_nodes;
  const int gpn = cluster.gpus_per_node();
  const int island_gpus = island_nodes * gpn;

  // Island-local view of the hardware: inside a pod the network is flat,
  // so islands plan on a flat sub-cluster of the same GPU and link specs.
  const topo::ClusterSpec island_cluster(island_nodes, gpn, cluster.gpu(),
                                         cluster.link());
  const Planner island_planner(island_cluster, cost);

  // Slice the situation per island; Theorem-2 capacity sum(1/x) per island
  // decides both the nominal micro-batch shares and the DP pinning split.
  std::vector<straggler::Situation> sits(num_islands,
                                         straggler::Situation(island_gpus));
  std::vector<double> caps(num_islands, 0.0);
  for (int k = 0; k < num_islands; ++k) {
    for (int g = 0; g < island_gpus; ++g) {
      const double r = situation.rate(k * island_gpus + g);
      sits[k].SetRate(g, r);
      if (r != straggler::kFailedRate) caps[k] += 1.0 / r;
    }
  }
  std::vector<int> healthy;
  for (int k = 0; k < num_islands; ++k) {
    if (caps[k] > 0.0) healthy.push_back(k);
  }
  if (healthy.empty()) {
    return Status::Infeasible("every island is fully failed");
  }
  const int64_t num_healthy = static_cast<int64_t>(healthy.size());

  // A pinned DP degree is distributed over the healthy islands by
  // capacity; Plan() only dispatches here when dp >= the island count.
  std::vector<int64_t> dp_share(num_islands, 0);
  if (options.dp_degree > 0) {
    if (options.dp_degree < num_healthy) {
      return Status::Infeasible(
          StrFormat("pinned dp %d is below the %lld healthy islands",
                    options.dp_degree,
                    static_cast<long long>(num_healthy)));
    }
    const std::vector<int64_t> split =
        SplitProportional(options.dp_degree, healthy, caps);
    for (size_t i = 0; i < healthy.size(); ++i) {
      dp_share[healthy[i]] = split[i];
    }
  }

  std::vector<int> micro_batches;
  if (options.forced_micro_batch > 0) {
    if (global_batch % options.forced_micro_batch == 0) {
      micro_batches.push_back(options.forced_micro_batch);
    }
  } else {
    for (int b = 1; b <= kMaxMicroBatch; ++b) {
      if (global_batch % b == 0) micro_batches.push_back(b);
    }
  }

  PlannerTimings timings;
  PlanResult best;
  best.estimated_seconds = std::numeric_limits<double>::infinity();
  best.estimated_full_seconds = std::numeric_limits<double>::infinity();
  bool found = false;
  Status last_error =
      Status::Infeasible("no micro-batch candidate produced a stitched plan");
  int64_t hits = 0;
  int64_t misses = 0;

  for (int b : micro_batches) {
    const int64_t total_micro = global_batch / b;
    if (total_micro < num_healthy ||
        (options.dp_degree > 0 && total_micro < options.dp_degree)) {
      last_error = Status::Infeasible(
          StrFormat("batch %lld at micro-batch %d yields too few "
                    "micro-batches for the island split",
                    static_cast<long long>(global_batch), b));
      continue;
    }
    const std::vector<int64_t> micro_share =
        SplitProportional(total_micro, healthy, caps);

    // Solve every island (memoized) and stitch in island order.
    plan::ParallelPlan stitched;
    stitched.micro_batch_size = b;
    stitched.global_batch = global_batch;
    int tp_max = 0;
    bool islands_ok = true;
    for (int k = 0, next_healthy = 0; k < num_islands; ++k) {
      const topo::GpuId offset = static_cast<topo::GpuId>(k) * island_gpus;
      if (caps[k] <= 0.0) {
        // A fully failed island contributes no pipelines; its GPUs sit on
        // standby so the stitched plan still accounts for every device.
        for (int g = 0; g < island_gpus; ++g) {
          stitched.standby_gpus.push_back(offset + g);
        }
        continue;
      }
      int64_t m_k = micro_share[next_healthy];
      ++next_healthy;
      if (dp_share[k] > 0) m_k = std::max(m_k, dp_share[k]);

      // The memo key covers everything that can change this island's
      // answer. enable_solve_cache is deliberately absent (it cannot), and
      // kMaxMicroBatch is unused once b is pinned.
      solver::CacheKey key;
      key.Tag('H')
          .Int(island_nodes)
          .Int(gpn)
          .Int(b)
          .Int(m_k)
          .Int(dp_share[k])
          .Int(options.forced_tp)
          .Bool(options.nonuniform_devices)
          .Bool(options.nonuniform_layers)
          .Bool(options.nonuniform_data)
          .Int(kMaxDivisionNodes)
          .Doubles(sits[k].rates());

      std::shared_ptr<const HierPlanState::Entry> entry;
      {
        std::lock_guard<std::mutex> lock(state->mu);
        auto it = state->memo.find(key.str());
        if (it != state->memo.end()) {
          entry = it->second;
          ++state->hits;
          ++hits;
        } else {
          ++state->misses;
          ++misses;
        }
      }
      if (entry == nullptr) {
        PlannerOptions iopts = options;
        iopts.dp_degree = static_cast<int>(dp_share[k]);
        iopts.forced_micro_batch = b;
        iopts.island_nodes = -1;  // Islands always run the flat sweep.
        iopts.num_threads = 1;    // Memoization makes island solves cheap.
        const Result<PlanResult> solved =
            island_planner.Plan(sits[k], m_k * b, iopts);
        auto fresh = std::make_shared<HierPlanState::Entry>();
        if (solved.ok()) {
          fresh->feasible = true;
          fresh->plan = solved->plan;
          fresh->chosen_tp = solved->chosen_tp;
          timings.grouping_seconds += solved->timings.grouping_seconds;
          timings.division_seconds += solved->timings.division_seconds;
          timings.ordering_seconds += solved->timings.ordering_seconds;
          timings.assignment_seconds += solved->timings.assignment_seconds;
        } else {
          fresh->error = solved.status().ToString();
        }
        std::lock_guard<std::mutex> lock(state->mu);
        entry = state->memo.emplace(key.str(), std::move(fresh))
                    .first->second;
      }
      if (!entry->feasible) {
        last_error = Status::Infeasible(StrFormat(
            "island %d (micro-batch %d): %s", k, b, entry->error.c_str()));
        islands_ok = false;
        break;
      }
      tp_max = std::max(tp_max, entry->chosen_tp);
      for (const plan::Pipeline& p : entry->plan.pipelines) {
        plan::Pipeline remapped = p;
        for (plan::Stage& stage : remapped.stages) {
          for (topo::GpuId& g : stage.group.gpus) g += offset;
        }
        stitched.pipelines.push_back(std::move(remapped));
      }
      for (topo::GpuId g : entry->plan.standby_gpus) {
        stitched.standby_gpus.push_back(g + offset);
      }
    }
    if (!islands_ok) continue;

    // Global Eq. (3) re-assignment: micro-batches follow the stitched
    // pipelines' true bottlenecks under the GLOBAL situation, not the
    // nominal capacity split the islands were seeded with.
    if (static_cast<int64_t>(stitched.pipelines.size()) > total_micro) {
      last_error = Status::Infeasible(
          StrFormat("stitched %zu pipelines exceed %lld micro-batches",
                    stitched.pipelines.size(),
                    static_cast<long long>(total_micro)));
      continue;
    }
    std::vector<double> bottlenecks;
    bottlenecks.reserve(stitched.pipelines.size());
    for (const plan::Pipeline& p : stitched.pipelines) {
      double bn = 0.0;
      for (const plan::Stage& s : p.stages) {
        bn = std::max(
            bn, plan::StageTimePerMicrobatch(s, b, cost, situation));
      }
      bottlenecks.push_back(bn);
    }
    const Result<std::vector<int64_t>> data =
        AssignData(bottlenecks, total_micro, options.nonuniform_data);
    if (!data.ok()) {
      last_error = data.status();
      continue;
    }
    for (size_t i = 0; i < stitched.pipelines.size(); ++i) {
      stitched.pipelines[i].num_microbatches = (*data)[i];
    }

    Status valid = stitched.Validate(cluster, cost);
    if (!valid.ok()) {
      last_error = std::move(valid);
      continue;
    }

    const plan::StepEstimate est =
        plan::EstimateStep(stitched, cost, situation);
    // Strict <, so the first (lowest) b keeps ties — the flat sweep's
    // deterministic tie-break rule.
    if (est.step_seconds < best.estimated_full_seconds) {
      best.plan = std::move(stitched);
      best.estimated_seconds = est.simplified_seconds;
      best.estimated_full_seconds = est.step_seconds;
      best.chosen_tp = tp_max;
      found = true;
    }
  }

  timings.total_seconds = Elapsed(t_total);

  auto& registry = obs::MetricsRegistry::Current();
  registry.GetCounter("planner.hier_solves")->Increment();
  registry.GetGauge("planner.islands")->Set(static_cast<double>(num_islands));
  registry.GetCounter("planner.island_cache_hits")
      ->Increment(static_cast<double>(hits));
  registry.GetCounter("planner.island_cache_misses")
      ->Increment(static_cast<double>(misses));
  registry.GetHistogram("planner.solve_seconds")
      ->Observe(timings.total_seconds);

  if (!found) {
    registry.GetCounter("planner.infeasible_solves")->Increment();
    return last_error;
  }
  registry.GetGauge("planner.last_estimate_seconds")
      ->Set(best.estimated_full_seconds);
  best.timings = timings;

  lint::LintPlan(best.plan, cluster, cost, &situation, &best.diagnostics);
  lint::LintEventGraph(best.plan, &best.diagnostics);
  lint::RecordDiagnosticMetrics(best.diagnostics);

  return best;
}

}  // namespace core
}  // namespace malleus
