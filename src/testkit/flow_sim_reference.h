// Reference FlowSim engine: the seed's from-scratch progressive max-min
// water-filling, O(events x links x flows). net::FlowSim's incremental
// engine must reproduce it bit for bit; the differential oracle
// (differential.flowsim-incremental), net_test and bench_planner_scaling
// compare the two.

#ifndef MALLEUS_TESTKIT_FLOW_SIM_REFERENCE_H_
#define MALLEUS_TESTKIT_FLOW_SIM_REFERENCE_H_

#include <vector>

#include "net/fabric.h"
#include "net/flow_sim.h"

namespace malleus {
namespace testkit {

/// Everything net::FlowSim exposes after Run(), from the reference engine.
struct ReferenceFlowSimResult {
  std::vector<net::FlowOutcome> outcomes;  ///< In submission order.
  std::vector<net::LinkUsage> link_usage;  ///< Indexed by LinkId.
  double makespan_seconds = 0.0;
  double total_bytes = 0.0;
};

/// Plays `flows`, in submission order, to completion on `fabric`.
ReferenceFlowSimResult RunReferenceFlowSim(const net::Fabric& fabric,
                                           const std::vector<net::Flow>& flows);

}  // namespace testkit
}  // namespace malleus

#endif  // MALLEUS_TESTKIT_FLOW_SIM_REFERENCE_H_
