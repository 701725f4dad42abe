// Canonical text snapshots of planner output, for golden-trace regression
// testing (tools/malleus_golden, src/testkit/golden.h).
//
// A snapshot pins everything a future PR could silently change: the chosen
// plan (layout + signature), the planner's closed-form step estimates, the
// grad-sync estimate under BOTH network cost models, and one deterministic
// (noise-free) simulated step under both models. Wall-clock quantities
// (PlannerTimings) are deliberately excluded — a snapshot must be
// byte-identical across machines and runs. Every floating-point field has
// 9 significant digits: genuine behavioral drift shows, and so does a
// sub-ulp refactor (e.g. an fma the compiler contracts differently) — that
// is the point of a golden trace.

#ifndef MALLEUS_CORE_SNAPSHOT_H_
#define MALLEUS_CORE_SNAPSHOT_H_

#include <string>

#include "core/planner.h"
#include "model/cost_model.h"
#include "straggler/situation.h"
#include "topology/cluster.h"

namespace malleus {
namespace core {

/// Renders `result` (a Planner::Plan outcome under `situation`) as a
/// stable, human-diffable text block. Deterministic for deterministic
/// inputs; independent of thread counts, caches and MALLEUS_NET_MODEL.
std::string PlanResultSnapshot(const PlanResult& result,
                               const topo::ClusterSpec& cluster,
                               const model::CostModel& cost,
                               const straggler::Situation& situation);

}  // namespace core
}  // namespace malleus

#endif  // MALLEUS_CORE_SNAPSHOT_H_
