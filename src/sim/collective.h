// Cost models of the NCCL-style transfers priced outside a step
// simulation: point-to-point activation transfers and the fused
// batched-send-recv of model migration. (Grad-sync rings are priced by
// plan::AnalyticRingSeconds and lowered onto net::FlowSim by
// sim::SimulateStep and plan::EstimateGradSyncSeconds.)
//
// P2pSeconds is the closed-form isolated-link model: the transfer is
// priced against the narrowest link on its path. Batched send-recv also
// has a flow form, selected by net::NetModel:
//   - kAnalytic: the closed form, with each endpoint serializing its own
//     transfers. Cheap.
//   - kFlow: the transfers are lowered onto net::FlowSim as concurrent
//     flows over the explicit fabric graph, so transfers that share a link
//     split its bandwidth max–min fairly.

#ifndef MALLEUS_SIM_COLLECTIVE_H_
#define MALLEUS_SIM_COLLECTIVE_H_

#include <cstdint>
#include <vector>

#include "net/fabric.h"
#include "topology/cluster.h"

namespace malleus {
namespace sim {

/// Point-to-point transfer time for `bytes` from `src` to `dst`.
double P2pSeconds(const topo::ClusterSpec& cluster, topo::GpuId src,
                  topo::GpuId dst, double bytes);

/// A single point-to-point transfer (used by migration).
struct Transfer {
  topo::GpuId src = 0;
  topo::GpuId dst = 0;
  double bytes = 0.0;
};

/// \brief Time of a fused batched-send-recv executing `transfers`
/// concurrently: each GPU's NVLink port serializes its own intra-node
/// sends+receives, cross-node moves serialize on the node's shared IB NIC,
/// links are otherwise independent, and every batch pays one latency per
/// `packs` groups (the paper fuses slices and packs 4 layers per batch).
///
/// Degenerate inputs are free: an empty list, a list containing only
/// self-transfers or zero-byte entries, and a non-positive `packs` (no
/// packing groups means nothing is sent) all return 0.
double BatchedSendRecvSeconds(const topo::ClusterSpec& cluster,
                              const std::vector<Transfer>& transfers,
                              int packs = 1);

// --- Contention-aware (flow-model) form -------------------------------

/// All transfers run concurrently as flows (NIC/port sharing is max–min
/// instead of the analytic serialization bound) plus `packs` latencies.
double BatchedSendRecvSecondsFlow(const net::Fabric& fabric,
                                  const std::vector<Transfer>& transfers,
                                  int packs = 1);

/// Picks the analytic or flow form; the flow path builds a transient
/// Fabric per call.
double BatchedSendRecvSeconds(const topo::ClusterSpec& cluster,
                              const std::vector<Transfer>& transfers,
                              int packs, net::NetModel model);

}  // namespace sim
}  // namespace malleus

#endif  // MALLEUS_SIM_COLLECTIVE_H_
