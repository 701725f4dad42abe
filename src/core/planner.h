// The Malleus parallelization planner (paper S4): given the live straggling
// rates, deduce the plan that minimizes the estimated step time by
// enumerating the maximum TP degree in {1,2,4,8} and the micro-batch size,
// solving the upper-level problem (grouping + orchestration) and the
// lower-level problem (layer + data assignment) for each candidate.
//
// Plan() is the one entry point: it runs one candidate sweep (over the
// whole cluster, or per island, see below), lints the winner once and
// records the per-call planner.* series once. Candidates are independent,
// so the sweep enumerates them all up front and evaluates them
// concurrently on a malleus::exec thread pool, reducing to the winner with
// a deterministic rule (lowest full-step estimate, ties to the lowest
// enumeration index). The result is bit-identical at any thread count,
// including 1. Repeated subproblems are memoized in a per-planner
// core::PlannerCache (see planner_cache.h), which also persists across
// Plan() calls: re-planning under an unchanged situation replays cached
// solves instead of re-running the division/ILP searches.
//
// At pod scale the flat sweep gives way to hierarchical decomposition
// (core/hier.h): islands — fat-tree pods by default — are swept
// independently, memoized per island in the same PlannerCache, and stitched
// across the inter-island fabric, which is what keeps 1k-10k GPU planning
// sub-second.

#ifndef MALLEUS_CORE_PLANNER_H_
#define MALLEUS_CORE_PLANNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/grouping.h"
#include "core/orchestration.h"
#include "core/planner_cache.h"
#include "lint/lint.h"
#include "model/cost_model.h"
#include "plan/plan.h"
#include "straggler/situation.h"
#include "topology/cluster.h"

namespace malleus {
namespace core {

/// Micro-batch sizes b in [1, kMaxMicroBatch] dividing B are enumerated.
constexpr int kMaxMicroBatch = 4;

struct PlannerOptions {
  /// Number of pipelines. 0 enumerates candidates. Plan() treats a positive
  /// value as a hard pin; Replan() treats it as the degree to keep (footnote
  /// 2 of the paper: model state memory depends on it) and falls back to
  /// the unpinned search when it is infeasible.
  int dp_degree = 0;
  /// 0 enumerates TP degrees in {1,2,4,8} (capped by gpus_per_node); a
  /// value from that set pins the sweep to exactly that degree. The
  /// what-if engine uses this for `force_tp` counterfactuals.
  int forced_tp = 0;
  /// Feature flags for the Figure 9 ablation.
  bool nonuniform_devices = true;  ///< Grouping splits + varied stage counts.
  bool nonuniform_layers = true;   ///< Eq. (2) vs even layer split.
  bool nonuniform_data = true;     ///< Eq. (3) vs even data split.
  /// Worker threads for the candidate sweep. 0 picks the default: the
  /// MALLEUS_PLANNER_THREADS environment variable when set, otherwise the
  /// hardware concurrency. 1 evaluates inline on the calling thread. The
  /// chosen plan is bit-identical at every thread count.
  int num_threads = 0;
  /// Memoize division/layer and island solves in the planner's cache
  /// (across candidates and across Plan calls). Off re-solves everything,
  /// islands included; the chosen plan is identical either way.
  bool enable_solve_cache = true;
  /// Hierarchical decomposition (see core/hier.h): plan islands of this
  /// many nodes independently and stitch across the inter-island fabric.
  /// 0 = automatic — islands are the fat-tree pods when the fabric defines
  /// at least two of them and the cluster is large enough for stitching to
  /// pay off; -1 forces the flat sweep; N > 0 forces islands of N nodes
  /// (N must divide the node count).
  int island_nodes = 0;
};

/// Wall-time breakdown of one planning run (Appendix A.2 / Table 5).
/// Component times are summed over candidates (never negative; clamped at
/// attribution); with more than one worker thread they aggregate busy time
/// across workers and may exceed `total_seconds`, which is always the
/// wall-clock time of the whole Plan() call.
struct PlannerTimings {
  double grouping_seconds = 0.0;
  double division_seconds = 0.0;
  double ordering_seconds = 0.0;
  double assignment_seconds = 0.0;
  double total_seconds = 0.0;
};

struct PlanResult {
  plan::ParallelPlan plan;
  /// Eq. (1) objective: max_i m_i * max_j y_{i,j} l_{i,j} * tau(b) - the
  /// planner's estimated step time (R_est).
  double estimated_seconds = 0.0;
  /// The full (warm-up + 1F1B + cool-down) closed-form estimate.
  double estimated_full_seconds = 0.0;
  int chosen_tp = 0;
  PlannerTimings timings;
  /// Lint findings for the chosen plan under the planning situation (the
  /// warn-level quality passes plus an event-graph audit; the structural
  /// checks hold by construction — every candidate is Validate()d). The
  /// engine logs these and refuses error-level plans.
  lint::DiagnosticSink diagnostics;
};

/// \brief Deduces the best parallelization plan for the situation.
class Planner {
 public:
  Planner(const topo::ClusterSpec& cluster, const model::CostModel& cost)
      : cluster_(cluster), cost_(cost) {}

  /// Plans a global batch of `global_batch` sequences under `situation`.
  Result<PlanResult> Plan(const straggler::Situation& situation,
                          int64_t global_batch,
                          const PlannerOptions& options = PlannerOptions())
      const;

  /// The one online re-plan rule (engine, policy and serve): Plan() with
  /// `options.dp_degree` pinned; when that fails, Plan() again with the
  /// degree unpinned, counted in `planner.replan_fallbacks`. With
  /// dp_degree == 0 this is exactly Plan().
  Result<PlanResult> Replan(const straggler::Situation& situation,
                            int64_t global_batch,
                            const PlannerOptions& options) const;

  /// The planner's memo of division/layer and island solves (valid for
  /// this planner's cost model only). Exposed for tests and
  /// cache-management callers.
  PlannerCache& solve_cache() const { return solve_cache_; }

 private:
  const topo::ClusterSpec& cluster_;
  const model::CostModel& cost_;
  /// Keyed to cost_ (see OrchestrationOptions::solve_cache); mutable so
  /// the logically-const Plan() can memoize. Internally thread-safe.
  mutable PlannerCache solve_cache_;
};

}  // namespace core
}  // namespace malleus

#endif  // MALLEUS_CORE_PLANNER_H_
