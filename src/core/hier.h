// Hierarchical planning for pod-scale clusters (paper S4 at 1k-10k GPUs).
//
// The flat candidate sweep scales with the whole cluster: grouping walks
// every node, and each orchestration solve sees every TP group. On a
// 10k-GPU fat-tree that is both slow and wasteful, because the fabric
// already decomposes the problem — within a pod the network is flat and
// non-blocking, and pipelines that span the oversubscribed spine lose to
// pod-local ones on communication alone.
//
// PlanHierarchical exploits that structure:
//
//   1. Partition the nodes into contiguous islands (the fat-tree pods by
//      default, or an explicit PlannerOptions::island_nodes).
//   2. For each candidate micro-batch size b, give every island a nominal
//      share of the micro-batches proportional to its Theorem-2 capacity
//      sum(1/x) and run the planner's own candidate sweep (SweepCandidates)
//      on an island-local ClusterSpec with b as the only micro-batch size.
//   3. Stitch: remap island GPU ids by the island offset, concatenate the
//      pipelines, and re-run the global Eq. (3) data assignment over the
//      stitched pipelines' true bottlenecks so micro-batches follow the
//      measured imbalance rather than the nominal split.
//   4. Keep the b whose stitched plan has the lowest full-step estimate
//      (strict <, first b wins ties — the flat sweep's tie-break rule).
//
// Island solves are memoized in the planner's SolveCache under tag 'H',
// keyed by everything that can change the island's answer (its rates
// bit-for-bit, b, micro share, DP pin, feature flags). Equal healthy
// islands therefore collapse into ONE solve, and delta re-planning — one
// straggler appears somewhere in a 10k-GPU cluster — re-solves exactly the
// one island whose key changed. 'H' has no cache codec, so island entries
// are never persisted. An island sweep's own division/layer solves go to a
// SolveCache local to one call, bounding what the planner's cache keeps.
// Island sweeps are neither linted nor counted as solves; Planner::Plan
// lints the stitched winner and records its per-call series once.
//
// The decomposition is a heuristic: pipelines never span islands (which is
// exactly what a pod-aware operator wants), so a model too big for one
// island is infeasible here. Planner::Plan falls back to the flat sweep
// when PlanHierarchical reports failure.

#ifndef MALLEUS_CORE_HIER_H_
#define MALLEUS_CORE_HIER_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "core/planner.h"
#include "model/cost_model.h"
#include "solver/solve_cache.h"
#include "straggler/situation.h"
#include "topology/cluster.h"

namespace malleus {
namespace core {

/// The candidate sweep behind Planner::Plan, defined in planner.cc: every
/// (tp, b, dp) candidate with b from `micro_batches` (each dividing
/// `global_batch`) on up to `num_threads` workers, memoized in
/// `solve_cache` when non-null. Uses the DP pin, forced TP and feature
/// flags of `options`. Records the sweep's work series but neither lints
/// nor counts a solve; `timings.total_seconds` stays 0.
Result<PlanResult> SweepCandidates(const topo::ClusterSpec& cluster,
                                   const model::CostModel& cost,
                                   const straggler::Situation& situation,
                                   int64_t global_batch,
                                   const PlannerOptions& options,
                                   const std::vector<int>& micro_batches,
                                   int num_threads,
                                   solver::SolveCache* solve_cache);

/// The island size (in nodes) Plan() should decompose at, or 0 for the
/// flat sweep. Explicit island_nodes wins; automatic mode picks the
/// fat-tree pod size once the cluster has at least two pods and at least
/// kHierAutoMinGpus GPUs (below that the flat sweep is already fast, and
/// its plans can use cross-pod pipelines small fabrics sometimes need).
int ResolveIslandNodes(const topo::ClusterSpec& cluster,
                       const PlannerOptions& options);

/// GPU count at which automatic hierarchical decomposition switches on.
inline constexpr int kHierAutoMinGpus = 128;

/// Plans `cluster` by island decomposition (see file comment) over the b
/// in `micro_batches`, memoizing island solves in `memo` (null = no memo).
/// Returns the stitched plan, or an infeasibility Status when no b
/// produced a valid stitched plan (the caller falls back to flat).
Result<PlanResult> PlanHierarchical(const topo::ClusterSpec& cluster,
                                    const model::CostModel& cost,
                                    const straggler::Situation& situation,
                                    int64_t global_batch,
                                    const PlannerOptions& options,
                                    const std::vector<int>& micro_batches,
                                    int island_nodes,
                                    solver::SolveCache* memo);

}  // namespace core
}  // namespace malleus

#endif  // MALLEUS_CORE_HIER_H_
