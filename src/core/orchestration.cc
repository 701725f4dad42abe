#include "core/orchestration.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <map>
#include <memory>

#include "common/logging.h"
#include "common/string_util.h"
#include "core/cache_codec.h"
#include "core/work_assignment.h"
#include "solver/division.h"

namespace malleus {
namespace core {

namespace {

// Groups rates that differ by less than this are "the same value" when
// electing the fast majority.
constexpr double kRateTolerance = 1e-9;

// Builds the stage order for one bundle-size permutation: bundles appear in
// `size_order`, each internally sorted by rate descending (Theorem 3).
std::vector<int> StagesForSizeOrder(
    const std::map<int, std::vector<int>>& bundles,
    const std::vector<int>& size_order) {
  std::vector<int> stages;
  for (int size : size_order) {
    const auto& bundle = bundles.at(size);
    stages.insert(stages.end(), bundle.begin(), bundle.end());
  }
  return stages;
}

// The cache value types CachedLayers / CachedOrchestration live in
// core/cache_codec.h so the persistence codec can name them too.

// Solves Eq. (2) for one ordered stage profile, memoized by the profile.
// The same (rates, sizes, b, DP) quadruple is solved for every pipeline
// that shares the composition, for every bundle permutation that reproduces
// it, and again across the planner's candidate sweep.
Result<LayerAssignment> CachedAssignLayers(
    const std::vector<double>& rates, const std::vector<int>& sizes,
    int micro_batch, int dp_degree, const model::CostModel& cost,
    bool nonuniform_layers, solver::SolveCache* cache) {
  if (cache == nullptr) {
    return AssignLayers(rates, sizes, micro_batch, dp_degree, cost,
                        nonuniform_layers);
  }
  const std::string key = solver::CacheKey()
                              .Tag('L')
                              .Doubles(rates)
                              .Ints(sizes)
                              .Int(micro_batch)
                              .Int(dp_degree)
                              .Bool(nonuniform_layers)
                              .str();
  if (auto hit = cache->LookupAs<CachedLayers>(key)) {
    if (!hit->status.ok()) return hit->status;
    return hit->assignment;
  }
  Result<LayerAssignment> r = AssignLayers(rates, sizes, micro_batch,
                                           dp_degree, cost, nonuniform_layers);
  CachedLayers entry;
  if (r.ok()) {
    entry.assignment = *r;
  } else {
    entry.status = r.status();
  }
  cache->InsertAs(key, std::move(entry));
  return r;
}

}  // namespace

Result<OrchestratedPipeline> OrderAndAssignLayers(
    const std::vector<int>& group_indices, const GroupingResult& grouping,
    const model::CostModel& cost, int micro_batch, int dp_degree,
    bool nonuniform_layers, std::vector<int>* removed,
    solver::SolveCache* solve_cache) {
  std::vector<int> working = group_indices;
  if (working.empty()) {
    return Status::InvalidArgument("pipeline has no groups");
  }

  while (true) {
    // Bundle equal-size groups; sort by rate descending inside each bundle.
    std::map<int, std::vector<int>> bundles;
    for (int g : working) {
      bundles[grouping.groups[g].size()].push_back(g);
    }
    for (auto& [size, bundle] : bundles) {
      std::sort(bundle.begin(), bundle.end(), [&](int a, int b) {
        if (grouping.rates[a] != grouping.rates[b]) {
          return grouping.rates[a] > grouping.rates[b];
        }
        return a < b;
      });
    }
    std::vector<int> size_order;
    for (const auto& [size, bundle] : bundles) size_order.push_back(size);
    std::sort(size_order.begin(), size_order.end());

    // Enumerate bundle orders (at most 4! since sizes are in {1,2,4,8}).
    bool found = false;
    OrchestratedPipeline best;
    do {
      const std::vector<int> stages = StagesForSizeOrder(bundles, size_order);
      std::vector<double> rates;
      std::vector<int> sizes;
      for (int g : stages) {
        rates.push_back(grouping.rates[g]);
        sizes.push_back(grouping.groups[g].size());
      }
      Result<LayerAssignment> assigned =
          CachedAssignLayers(rates, sizes, micro_batch, dp_degree, cost,
                             nonuniform_layers, solve_cache);
      if (!assigned.ok()) continue;
      if (!found || assigned->bottleneck < best.bottleneck) {
        found = true;
        best.group_indices = stages;
        best.layers = assigned->layers;
        best.bottleneck = assigned->bottleneck;
      }
    } while (std::next_permutation(size_order.begin(), size_order.end()));

    if (!found) {
      return Status::Infeasible(
          "no stage ordering fits the model in memory");
    }

    // Drop zero-layer groups (removed stragglers) and re-solve: the memory
    // coefficients depend on the stage count, so the assignment changes.
    std::vector<int> kept;
    bool dropped = false;
    for (size_t j = 0; j < best.group_indices.size(); ++j) {
      if (best.layers[j] == 0) {
        if (removed != nullptr) removed->push_back(best.group_indices[j]);
        dropped = true;
      } else {
        kept.push_back(best.group_indices[j]);
      }
    }
    if (!dropped) return best;
    if (kept.empty()) {
      return Status::Infeasible("all groups were assigned zero layers");
    }
    working = std::move(kept);
  }
}

namespace {

// The uncached orchestration body; Orchestrate() below adds memoization.
Result<OrchestrationResult> OrchestrateImpl(
    const GroupingResult& grouping, const model::CostModel& cost,
    int micro_batch, int dp_degree, int64_t total_micro,
    const OrchestrationOptions& options) {
  const int num_groups = static_cast<int>(grouping.groups.size());
  if (dp_degree <= 0) {
    return Status::InvalidArgument("DP degree must be positive");
  }
  if (num_groups < dp_degree) {
    return Status::Infeasible("fewer TP groups than pipelines");
  }
  if (total_micro < dp_degree) {
    return Status::Infeasible("fewer micro-batches than pipelines");
  }

  OrchestrationResult out;
  std::vector<std::vector<int>> membership(dp_degree);

  if (!options.nonuniform_stages) {
    // Uniform orchestration: identical pipeline shapes, groups dealt
    // round-robin in rate order so every pipeline sees a similar mix.
    if (num_groups % dp_degree != 0) {
      return Status::Infeasible(
          StrFormat("%d groups do not divide into %d uniform pipelines",
                    num_groups, dp_degree));
    }
    std::vector<int> order(num_groups);
    for (int g = 0; g < num_groups; ++g) order[g] = g;
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      if (grouping.rates[a] != grouping.rates[b]) {
        return grouping.rates[a] > grouping.rates[b];
      }
      return a < b;
    });
    for (int g = 0; g < num_groups; ++g) {
      membership[g % dp_degree].push_back(order[g]);
    }
  } else {
    // Elect the fast majority rate y-hat.
    std::vector<std::pair<double, int>> counted;  // (rate, count)
    for (double y : grouping.rates) {
      bool merged = false;
      for (auto& [rate, count] : counted) {
        if (std::fabs(rate - y) < kRateTolerance) {
          ++count;
          merged = true;
          break;
        }
      }
      if (!merged) counted.push_back({y, 1});
    }
    std::pair<double, int> fast = counted[0];
    for (const auto& c : counted) {
      if (c.second > fast.second ||
          (c.second == fast.second && c.first < fast.first)) {
        fast = c;
      }
    }
    const double fast_rate = fast.first;

    std::vector<int> fast_groups, slow_groups;
    for (int g = 0; g < num_groups; ++g) {
      if (std::fabs(grouping.rates[g] - fast_rate) < kRateTolerance) {
        fast_groups.push_back(g);
      } else {
        slow_groups.push_back(g);
      }
    }
    const int fast_size =
        fast_groups.empty() ? 1 : grouping.groups[fast_groups[0]].size();

    solver::DivisionProblem problem;
    problem.num_pipelines = dp_degree;
    problem.num_fast_groups = static_cast<int>(fast_groups.size());
    problem.fast_rate = fast_rate;
    for (int g : slow_groups) problem.slow_rates.push_back(grouping.rates[g]);
    problem.total_microbatches = total_micro;
    problem.max_nodes = kMaxDivisionNodes;
    const int num_layers = cost.spec().num_layers;
    // The capacity check depends only on the multiset of group sizes, and
    // the division search probes the same shapes over and over; memoize.
    auto feasibility_cache =
        std::make_shared<std::map<std::vector<int>, bool>>();
    problem.pipeline_feasible = [&, fast_size, num_layers,
                                 feasibility_cache](
                                    int num_fast,
                                    const std::vector<int>& slow_local) {
      std::vector<int> sizes(num_fast, fast_size);
      for (int s : slow_local) {
        sizes.push_back(grouping.groups[slow_groups[s]].size());
      }
      // Most permissive order for the capacity check: mu_j shrinks toward
      // the later stages, so total capacity sum k_j/mu_j is maximized by
      // pairing the big groups with the cheap late stages (rearrangement
      // inequality) - sizes ascending.
      std::sort(sizes.begin(), sizes.end());
      auto it = feasibility_cache->find(sizes);
      if (it != feasibility_cache->end()) return it->second;
      const std::vector<int64_t> caps =
          StageLayerCapacities(sizes, micro_batch, dp_degree, cost);
      int64_t total = 0;
      for (int64_t c : caps) total += c;
      const bool feasible = total >= num_layers;
      (*feasibility_cache)[sizes] = feasible;
      return feasible;
    };

    const auto div_start = std::chrono::steady_clock::now();
    Result<solver::DivisionResult> division = solver::SolveDivision(problem);
    out.division_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      div_start)
            .count();
    if (!division.ok()) return division.status();
    out.division_exact = division->exact;
    out.division_nodes = division->nodes_explored;

    size_t next_fast = 0;
    for (int i = 0; i < dp_degree; ++i) {
      const auto& pipe = division->pipelines[i];
      for (int f = 0; f < pipe.num_fast; ++f) {
        membership[i].push_back(fast_groups[next_fast++]);
      }
      for (int s : pipe.slow_indices) {
        membership[i].push_back(slow_groups[s]);
      }
    }
    MALLEUS_CHECK_EQ(next_fast, fast_groups.size());
  }

  const auto order_start = std::chrono::steady_clock::now();
  for (int i = 0; i < dp_degree; ++i) {
    Result<OrchestratedPipeline> pipe = OrderAndAssignLayers(
        membership[i], grouping, cost, micro_batch, dp_degree,
        options.nonuniform_layers, &out.removed_groups,
        options.solve_cache);
    if (!pipe.ok()) return pipe.status();
    out.pipelines.push_back(std::move(pipe).ValueOrDie());
  }
  out.ordering_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    order_start)
          .count();
  return out;
}

}  // namespace

Result<OrchestrationResult> Orchestrate(const GroupingResult& grouping,
                                        const model::CostModel& cost,
                                        int micro_batch, int dp_degree,
                                        int64_t total_micro,
                                        const OrchestrationOptions& options) {
  if (options.solve_cache == nullptr) {
    return OrchestrateImpl(grouping, cost, micro_batch, dp_degree,
                           total_micro, options);
  }
  // The outcome depends only on the grouping's (rate, size) profile and the
  // scalar candidate parameters (plus the cost model, fixed per cache —
  // see OrchestrationOptions::solve_cache).
  std::vector<int> sizes;
  sizes.reserve(grouping.groups.size());
  for (const plan::TpGroup& g : grouping.groups) sizes.push_back(g.size());
  const std::string key = solver::CacheKey()
                              .Tag('O')
                              .Doubles(grouping.rates)
                              .Ints(sizes)
                              .Int(micro_batch)
                              .Int(dp_degree)
                              .Int(total_micro)
                              .Bool(options.nonuniform_layers)
                              .Bool(options.nonuniform_stages)
                              .Int(kMaxDivisionNodes)
                              .str();
  if (auto hit = options.solve_cache->LookupAs<CachedOrchestration>(key)) {
    if (!hit->status.ok()) return hit->status;
    OrchestrationResult replay = hit->result;
    // A replay spends no solver time; report what this call actually cost.
    replay.division_seconds = 0.0;
    replay.ordering_seconds = 0.0;
    return replay;
  }
  Result<OrchestrationResult> r = OrchestrateImpl(
      grouping, cost, micro_batch, dp_degree, total_micro, options);
  CachedOrchestration entry;
  if (r.ok()) {
    entry.result = *r;
  } else {
    entry.status = r.status();
  }
  options.solve_cache->InsertAs(key, std::move(entry));
  return r;
}

}  // namespace core
}  // namespace malleus
