// Cost models of the NCCL-style communication primitives the runtime uses:
// ring all-reduce / reduce-scatter / all-gather, point-to-point activation
// transfers, and fused batched-send-recv (used by model migration).
//
// Every primitive exists in two forms selected by net::NetModel:
//   - kAnalytic: the closed-form isolated-link model below (each transfer
//     priced against the narrowest link on its path, concurrent transfers
//     never interact). Cheap; the planner's solver inner loops use it.
//   - kFlow: the primitive is lowered onto net::FlowSim as a set of
//     concurrent flows over the explicit fabric graph, so transfers that
//     share a link split its bandwidth max–min fairly. Without contention
//     the two models agree (the flow lowerings reproduce the analytic
//     closed forms exactly for an isolated primitive).

#ifndef MALLEUS_SIM_COLLECTIVE_H_
#define MALLEUS_SIM_COLLECTIVE_H_

#include <cstdint>
#include <vector>

#include "net/fabric.h"
#include "topology/cluster.h"

namespace malleus {
namespace sim {

/// Bandwidth (bytes/s) of the narrowest link among `gpus` (ring collectives
/// are bottlenecked by the slowest hop; any cross-node pair forces IB).
///
/// Convention for degenerate groups: a single-GPU or empty group performs
/// no inter-GPU traffic, so there is no bottleneck to report; both return
/// the intra-node (NVLink) bandwidth — the fastest link — so degenerate
/// groups never dominate a min() over groups and callers dividing by the
/// result stay finite. Collective times over such groups are 0 regardless.
double GroupBottleneckBandwidth(const topo::ClusterSpec& cluster,
                                const std::vector<topo::GpuId>& gpus);

/// Aggregate alpha (latency) cost of a ring over `gpus`: the sum of the
/// per-hop latencies of the first n-1 hops (a ring collective takes n-1
/// steps, each bounded by its hop latency). 0 for degenerate groups.
double RingLatencySeconds(const topo::ClusterSpec& cluster,
                          const std::vector<topo::GpuId>& gpus);

/// Ring all-reduce time for `bytes` over `gpus`.
double AllReduceSeconds(const topo::ClusterSpec& cluster,
                        const std::vector<topo::GpuId>& gpus, double bytes);

/// Ring reduce-scatter time for `bytes` over `gpus`.
double ReduceScatterSeconds(const topo::ClusterSpec& cluster,
                            const std::vector<topo::GpuId>& gpus,
                            double bytes);

/// Ring all-gather time for `bytes` over `gpus`.
double AllGatherSeconds(const topo::ClusterSpec& cluster,
                        const std::vector<topo::GpuId>& gpus, double bytes);

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

// --- Contention-aware (flow-model) forms ------------------------------
// Each lowers the primitive onto a fresh net::FlowSim over `fabric` and
// returns its makespan. For an isolated primitive the result matches the
// analytic form above; concurrency effects only appear when the *caller*
// shares one FlowSim across primitives (see sim::SimulateStep), so these
// standalone wrappers are mainly glue and test anchors.

double AllReduceSecondsFlow(const net::Fabric& fabric,
                            const std::vector<topo::GpuId>& gpus,
                            double bytes);
double ReduceScatterSecondsFlow(const net::Fabric& fabric,
                                const std::vector<topo::GpuId>& gpus,
                                double bytes);
double P2pSecondsFlow(const net::Fabric& fabric, topo::GpuId src,
                      topo::GpuId dst, double bytes);
/// All transfers run concurrently as flows (NIC/port sharing is max–min
/// instead of the analytic serialization bound) plus `packs` latencies.
double BatchedSendRecvSecondsFlow(const net::Fabric& fabric,
                                  const std::vector<Transfer>& transfers,
                                  int packs = 1);

// --- Model-dispatching forms ------------------------------------------
// Convenience overloads that pick the analytic or flow form. The flow
// path builds a transient Fabric per call; hot loops that care should
// build one Fabric and call the *Flow forms directly.

double AllReduceSeconds(const topo::ClusterSpec& cluster,
                        const std::vector<topo::GpuId>& gpus, double bytes,
                        net::NetModel model);
double P2pSeconds(const topo::ClusterSpec& cluster, topo::GpuId src,
                  topo::GpuId dst, double bytes, net::NetModel model);
double BatchedSendRecvSeconds(const topo::ClusterSpec& cluster,
                              const std::vector<Transfer>& transfers,
                              int packs, net::NetModel model);

}  // namespace sim
}  // namespace malleus

#endif  // MALLEUS_SIM_COLLECTIVE_H_
