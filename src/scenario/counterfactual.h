// Counterfactual specs: the query grammar of the what-if attribution
// engine (tools/malleus_whatif, src/whatif). A counterfactual is one
// targeted edit to a recorded run's world — heal or dampen a straggler,
// scale the fabric, constrain or free the planner, add standby capacity,
// swap the network cost model — that the engine re-plans and re-simulates
// to measure what the edited world would have cost.
//
// Grammar (one counterfactual per line; '#' comments and blank lines are
// ignored; a grid file is just many lines):
//
//   remove_straggler gpu=9            # rate -> 1.0 on GPU 9
//   dampen_straggler gpu=9 factor=0.5 # rate -> 1 + (rate-1)*factor
//   scale_nic factor=2                # inter-node bandwidth x2, all nodes
//   scale_nvlink factor=0.5           # intra-node bandwidth x0.5
//   force_tp tp=8                     # planner enumerates only TP=8
//   add_standby_node nodes=1          # grow the cluster by healthy nodes
//   net_model model=flow              # re-price comm under this model
//
// Parsing is purely syntactic (like scenario.h), with the same value rules
// (DESIGN.md §10, "Scenario files and other text inputs"): a key given
// twice is an error. Range checks that need the cluster (GPU ids) happen
// when the engine applies the counterfactual.
// The ClusterSpec is homogeneous, so the bandwidth scales apply fleet-wide
// — "this node's NIC is degraded" is modeled as "what if every NIC ran at
// factor x", the right question under the paper's nominally-uniform
// hardware premise (DESIGN.md §12).

#ifndef MALLEUS_SCENARIO_COUNTERFACTUAL_H_
#define MALLEUS_SCENARIO_COUNTERFACTUAL_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "net/fabric.h"
#include "straggler/situation.h"
#include "topology/cluster.h"

namespace malleus {
namespace scenario {

enum class CounterfactualKind {
  kRemoveStraggler,  ///< Heal one GPU (rate -> 1.0).
  kDampenStraggler,  ///< Shrink one GPU's excess rate by `factor`.
  kScaleNic,         ///< Scale inter-node (NIC) bandwidth by `factor`.
  kScaleNvlink,      ///< Scale intra-node (NVLink) bandwidth by `factor`.
  kForceTp,          ///< Pin the planner's TP enumeration to `tp`.
  kAddStandbyNode,   ///< Add `nodes` healthy nodes to the cluster.
  kSwapNetModel,     ///< Re-price communication under `net_model`.
};

/// Stable lowercase name, e.g. "remove_straggler".
const char* CounterfactualKindName(CounterfactualKind kind);

/// One parsed counterfactual.
struct Counterfactual {
  CounterfactualKind kind = CounterfactualKind::kRemoveStraggler;
  topo::GpuId gpu = -1;       ///< kRemove/kDampenStraggler.
  double factor = 1.0;        ///< kDampen (in [0,1)) / kScale* (> 0).
  int tp = 0;                 ///< kForceTp, in {1,2,4,8}.
  int nodes = 0;              ///< kAddStandbyNode, >= 1.
  net::NetModel net_model = net::NetModel::kAnalytic;  ///< kSwapNetModel.
  int line = 0;               ///< 1-based grid-file line, for diagnostics.

  /// Canonical one-line rendering; parses back to an equal value.
  std::string Label() const;
};

/// Parses one counterfactual line. Errors name the offending token and
/// check per-kind argument ranges that need no cluster (factor, tp, nodes).
Result<Counterfactual> ParseCounterfactual(const std::string& text);

/// Parses a grid file body: one counterfactual per non-comment line.
/// Errors name the 1-based line.
Result<std::vector<Counterfactual>> ParseCounterfactualGrid(
    const std::string& text);

/// The settable part of the standard grid. The rest is fixed: removals
/// over EVERY GPU (healthy ones included — their attribution must come out
/// ~0, which both scales the grid to the cluster and cross-checks the
/// engine), dampen factors {0.75, 0.5, 0.25}, force_tp over {1,2,4,8}
/// capped by gpus_per_node, and the swap to the other net model.
struct DefaultGridOptions {
  /// Sweep the dampen factors over EVERY GPU instead of stragglers only.
  /// Dampening a healthy GPU is definitionally the identity, so the extra
  /// rows are ~0-attribution cross-checks; this is the "full" grid the
  /// bench and `--auto-grid=full` use to stress sweep throughput (a
  /// 64-GPU cluster yields 250+ counterfactuals).
  bool dampen_all_gpus = false;
  /// Bandwidth scales applied to the NIC and to NVLink, each.
  std::vector<double> bandwidth_factors = {0.5, 2.0, 4.0};
  /// Standby-node additions to try.
  std::vector<int> standby_nodes = {1};
};

/// The standard counterfactual grid for `situation` on `cluster`:
/// per-GPU straggler removals, per-straggler dampenings, bandwidth scales,
/// TP constraints, standby additions and the net-model swap, in that
/// order. Deterministic for deterministic inputs.
std::vector<Counterfactual> DefaultCounterfactualGrid(
    const topo::ClusterSpec& cluster,
    const straggler::Situation& situation, net::NetModel base_model,
    const DefaultGridOptions& options = {});

}  // namespace scenario
}  // namespace malleus

#endif  // MALLEUS_SCENARIO_COUNTERFACTUAL_H_
