// Pipeline orchestration (paper S4.3.2): divide the TP groups into DP-bar
// pipelines (the Eq. (4) MINLP) and order the groups within each pipeline
// (Theorem 3 within equal-size bundles + enumeration of bundle orders).

#ifndef MALLEUS_CORE_ORCHESTRATION_H_
#define MALLEUS_CORE_ORCHESTRATION_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "core/grouping.h"
#include "model/cost_model.h"
#include "solver/solve_cache.h"

namespace malleus {
namespace core {

/// Node budget of the Eq. (4) division search per Orchestrate call. It is
/// part of the 'O' and 'H' solve-cache keys, which keep it at the value
/// it had as an option, so saved cache files still load warm.
constexpr int64_t kMaxDivisionNodes = 500'000;

/// One orchestrated pipeline: ordered stages with their layer counts.
struct OrchestratedPipeline {
  std::vector<int> group_indices;  ///< Stage order; indexes GroupingResult.
  std::vector<int> layers;         ///< l_{i,j}, parallel to group_indices.
  double bottleneck = 0.0;         ///< o_i = max_j y_j * l_j.
};

struct OrchestrationResult {
  std::vector<OrchestratedPipeline> pipelines;
  /// Groups assigned zero layers; their GPUs go to standby (S5.2).
  std::vector<int> removed_groups;
  bool division_exact = true;
  int64_t division_nodes = 0;
  /// Wall time spent in the Eq. (4) division search.
  double division_seconds = 0.0;
  /// Wall time spent ordering groups + solving Eq. (2) per permutation.
  double ordering_seconds = 0.0;
};

struct OrchestrationOptions {
  /// Non-uniform layer assignment (Eq. (2)); even split when false.
  bool nonuniform_layers = true;
  /// Allow pipelines of different shapes (the upper-level non-uniformity).
  /// When false, groups are dealt round-robin into identically sized
  /// pipelines (requires the group count to divide by DP).
  bool nonuniform_stages = true;
  /// Optional memo of orchestration and layer-assignment solves. The
  /// orchestration outcome depends only on the grouping's (rate, size)
  /// profile, the micro-batch size, the DP degree, M and the flags above —
  /// plus the cost model, which is deliberately NOT part of the key: a
  /// cache must only ever be used with one cost model (core::Planner keys
  /// one cache per instance). Null disables memoization.
  solver::SolveCache* solve_cache = nullptr;
};

/// Orchestrates `dp_degree` pipelines over the grouping result and solves
/// the per-pipeline layer assignment. `total_micro` = B / b.
Result<OrchestrationResult> Orchestrate(const GroupingResult& grouping,
                                        const model::CostModel& cost,
                                        int micro_batch, int dp_degree,
                                        int64_t total_micro,
                                        const OrchestrationOptions& options);

/// Orders the given groups into pipeline stages and solves Eq. (2):
/// equal-size groups are bundled, sorted by rate descending inside the
/// bundle (Theorem 3), every bundle permutation is evaluated, and the
/// feasible order with the lowest bottleneck wins. Groups assigned zero
/// layers are dropped into `removed` and the assignment is re-solved.
/// `solve_cache` (optional) memoizes the per-permutation Eq. (2) solves by
/// their (rates, sizes, b, DP) profile; see OrchestrationOptions.
Result<OrchestratedPipeline> OrderAndAssignLayers(
    const std::vector<int>& group_indices, const GroupingResult& grouping,
    const model::CostModel& cost, int micro_batch, int dp_degree,
    bool nonuniform_layers, std::vector<int>* removed,
    solver::SolveCache* solve_cache = nullptr);

}  // namespace core
}  // namespace malleus

#endif  // MALLEUS_CORE_ORCHESTRATION_H_
