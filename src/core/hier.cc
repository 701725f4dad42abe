#include "core/hier.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/string_util.h"
#include "core/work_assignment.h"
#include "obs/metrics.h"
#include "plan/estimator.h"
#include "solver/cache_key.h"

namespace malleus {
namespace core {

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
                                    const std::vector<int>& micro_batches,
                                    int island_nodes,
                                    PlannerCache* memo) {
  MALLEUS_CHECK_GT(island_nodes, 0);
  MALLEUS_CHECK_EQ(cluster.num_nodes() % island_nodes, 0);
  const int num_islands = cluster.num_nodes() / island_nodes;
  const int gpn = cluster.gpus_per_node();
  const int island_gpus = island_nodes * gpn;

  // Island-local view of the hardware: inside a pod the network is flat,
  // so islands plan on a flat sub-cluster of the same GPU and link specs.
  const topo::ClusterSpec island_cluster(island_nodes, gpn, cluster.gpu(),
                                         cluster.link());
  // Island division/layer solves live only as long as this call (see file
  // comment); the island answers themselves go to `memo`.
  PlannerCache island_solves;
  PlannerCache* island_cache = memo != nullptr ? &island_solves : nullptr;

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

  PlanResult best;  // Its timings sum the island sweeps that ran.
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
      // kMaxMicroBatch plays no part: b is the sweep's only micro-batch.
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

      std::shared_ptr<const Result<PlanResult>> entry =
          memo != nullptr ? memo->FindPlan(key.str()) : nullptr;
      if (entry != nullptr) {
        ++hits;
      } else {
        ++misses;
        PlannerOptions iopts = options;
        iopts.dp_degree = static_cast<int>(dp_share[k]);
        auto solved = std::make_shared<const Result<PlanResult>>(
            SweepCandidates(island_cluster, cost, sits[k], m_k * b, iopts,
                            {b}, /*num_threads=*/1, island_cache));
        if (solved->ok()) {
          const PlannerTimings& t = (*solved)->timings;
          best.timings.grouping_seconds += t.grouping_seconds;
          best.timings.division_seconds += t.division_seconds;
          best.timings.ordering_seconds += t.ordering_seconds;
          best.timings.assignment_seconds += t.assignment_seconds;
        }
        if (memo != nullptr) memo->Insert(key.str(), solved);
        entry = std::move(solved);
      }
      if (!entry->ok()) {
        last_error = Status::Infeasible(
            StrFormat("island %d (micro-batch %d): %s", k, b,
                      entry->status().ToString().c_str()));
        islands_ok = false;
        break;
      }
      const PlanResult& island = **entry;
      tp_max = std::max(tp_max, island.chosen_tp);
      for (const plan::Pipeline& p : island.plan.pipelines) {
        plan::Pipeline remapped = p;
        for (plan::Stage& stage : remapped.stages) {
          for (topo::GpuId& g : stage.group.gpus) g += offset;
        }
        stitched.pipelines.push_back(std::move(remapped));
      }
      for (topo::GpuId g : island.plan.standby_gpus) {
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

  auto& registry = obs::MetricsRegistry::Current();
  registry.GetCounter("planner.hier_solves")->Increment();
  registry.GetGauge("planner.islands")->Set(static_cast<double>(num_islands));
  registry.GetCounter("planner.island_cache_hits")
      ->Increment(static_cast<double>(hits));
  registry.GetCounter("planner.island_cache_misses")
      ->Increment(static_cast<double>(misses));

  if (!found) return last_error;
  return best;
}

}  // namespace core
}  // namespace malleus
