// GPU grouping (paper S4.3.1): partition each node's GPUs into TP groups.
//
// Even partitioning follows Theorem 1 (sort by straggling rate descending,
// cut into contiguous blocks of k), which provably minimizes the achievable
// training time for equal-size groups. Heavy stragglers are then isolated by
// group splitting: candidate re-groupings are the contiguous descending
// placements of Proposition 4 / Appendix B.7 (e.g. the 6 ways to split 7
// GPUs into blocks of 1, 2 and 4), compared in O(1) via the Theorem 2
// capacity estimate sum_groups 1 / y.

#ifndef MALLEUS_CORE_GROUPING_H_
#define MALLEUS_CORE_GROUPING_H_

#include <vector>

#include "common/result.h"
#include "model/cost_model.h"
#include "plan/plan.h"
#include "straggler/situation.h"
#include "topology/cluster.h"

namespace malleus {
namespace core {

/// A grouping of the cluster's GPUs into TP groups.
struct GroupingResult {
  std::vector<plan::TpGroup> groups;
  /// Group straggling rates y (parallel to `groups`).
  std::vector<double> rates;
  /// GPUs excluded up front (failed devices).
  std::vector<topo::GpuId> excluded;

  /// Theorem 2 capacity: sum_g 1 / y_g; higher is better.
  double Capacity() const;
};

struct GroupingOptions {
  /// Maximum TP degree of this grouping pass (the planner enumerates
  /// {1, 2, 4, 8}).
  int max_tp_degree = 8;
  /// Enables heavy-straggler isolation via group splitting of GPUs whose
  /// rate exceeds 1.05 (grouping.cc). Disabled for the Figure 9 ablation
  /// (non-uniform devices/stages off).
  bool enable_splitting = true;
};

/// Groups all live GPUs of `cluster` under `situation`.
Result<GroupingResult> GroupGpus(const topo::ClusterSpec& cluster,
                                 const model::CostModel& cost,
                                 const straggler::Situation& situation,
                                 const GroupingOptions& options);

/// Decomposes n into descending powers of two, each <= max_size
/// (7 -> {4,2,1} at max 8); used to size groups after isolating a straggler.
std::vector<int> PowerOfTwoComposition(int n, int max_size);

}  // namespace core
}  // namespace malleus

#endif  // MALLEUS_CORE_GROUPING_H_
