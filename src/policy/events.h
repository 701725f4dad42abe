// Seeded, deterministic cluster-event traces for the online
// fault-tolerance policy engine (ROADMAP "Chameleon-style" item; see
// "Chameleon: Adaptive Fault Tolerance for Distributed Training via
// Real-time Policy Selection", arXiv 2508.21613, in PAPERS.md).
//
// A trace is a list of (iteration, event) pairs drawn from the stochastic
// processes of a scenario's `dynamic = { ... }` block: per-GPU Poisson
// straggle and fail-stop arrivals, correlated whole-node failures,
// exponential-ish recovery delays, flapping stragglers that re-straggle
// shortly after healing, and a diurnal sine modulation of the straggle
// arrival rate. Generation is a pure function of (cluster shape,
// DynamicSpec, seed): a single malleus::Rng drives every draw in a fixed
// order, so the trace is bit-identical on every platform and at any
// thread count.

#ifndef MALLEUS_POLICY_EVENTS_H_
#define MALLEUS_POLICY_EVENTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "scenario/scenario.h"
#include "straggler/situation.h"
#include "topology/cluster.h"

namespace malleus {
namespace policy {

/// What happened to the cluster at one simulated iteration.
enum class EventKind {
  kStraggle,     ///< One GPU starts straggling at `level`.
  kFail,         ///< One GPU fail-stops.
  kNodeFail,     ///< Every GPU of one node fail-stops at once.
  kRecover,      ///< One GPU returns to rate 1.0.
  kNodeRecover,  ///< Every GPU of one node returns to rate 1.0.
};

/// Stable lowercase name, e.g. "straggle"; used by logs and golden files.
const char* EventKindName(EventKind kind);

/// One cluster event. `gpu` is -1 for node-scoped events and `node` is -1
/// for GPU-scoped ones; `level` / `rate` are meaningful for kStraggle.
struct ClusterEvent {
  int64_t iteration = 0;
  EventKind kind = EventKind::kStraggle;
  topo::GpuId gpu = -1;
  topo::NodeId node = -1;
  int level = 0;
  double rate = 1.0;
  /// True when this straggle arrival is a flap (re-straggle after heal).
  bool flap = false;

  /// One-line rendering, e.g. "@120 straggle gpu=9 level=2".
  std::string ToString() const;
};

/// A generated trace: events sorted by iteration (stable in generation
/// order within an iteration), over `iterations` simulated iterations.
struct EventTrace {
  std::vector<ClusterEvent> events;
  int64_t iterations = 0;
};

/// Generates the event trace implied by `dynamic` on `cluster`, seeded
/// with `seed` (callers pass `dynamic.seed` when nonzero, else the
/// scenario seed). Pure function of its arguments; see file comment.
///
/// Feasibility guard: failure arrivals that would leave fewer than
/// max(2, num_gpus / 2) live GPUs are skipped, so generated traces stay
/// plannable by construction.
EventTrace GenerateEventTrace(const topo::ClusterSpec& cluster,
                              const scenario::DynamicSpec& dynamic,
                              uint64_t seed);

/// Applies one event to `situation` (sized for the generating cluster).
/// Node-scoped events touch every GPU of the node.
void ApplyEvent(const topo::ClusterSpec& cluster, const ClusterEvent& event,
                straggler::Situation* situation);

}  // namespace policy
}  // namespace malleus

#endif  // MALLEUS_POLICY_EVENTS_H_
