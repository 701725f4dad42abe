#include "sim/collective.h"

#include <algorithm>
#include <map>

#include "common/logging.h"
#include "net/flow_sim.h"

namespace malleus {
namespace sim {

double P2pSeconds(const topo::ClusterSpec& cluster, topo::GpuId src,
                  topo::GpuId dst, double bytes) {
  if (src == dst) return 0.0;
  return bytes / cluster.BandwidthBytesPerSec(src, dst) +
         cluster.LatencySec(src, dst);
}

double BatchedSendRecvSeconds(const topo::ClusterSpec& cluster,
                              const std::vector<Transfer>& transfers,
                              int packs) {
  if (transfers.empty() || packs <= 0) return 0.0;
  // Endpoint serialization: intra-node moves are charged to each GPU's
  // NVLink port, cross-node moves to the *node's* shared InfiniBand NIC.
  std::map<topo::GpuId, double> gpu_seconds;
  std::map<topo::NodeId, double> node_seconds;
  double max_latency = 0.0;
  for (const Transfer& t : transfers) {
    if (t.src == t.dst || t.bytes <= 0) continue;
    const double bw = cluster.BandwidthBytesPerSec(t.src, t.dst);
    const double s = t.bytes / bw;
    if (cluster.SameNode(t.src, t.dst)) {
      gpu_seconds[t.src] += s;
      gpu_seconds[t.dst] += s;
    } else {
      node_seconds[cluster.NodeOf(t.src)] += s;
      node_seconds[cluster.NodeOf(t.dst)] += s;
    }
    max_latency = std::max(max_latency, cluster.LatencySec(t.src, t.dst));
  }
  double busiest = 0.0;
  for (const auto& [gpu, s] : gpu_seconds) busiest = std::max(busiest, s);
  for (const auto& [node, s] : node_seconds) busiest = std::max(busiest, s);
  return busiest + packs * max_latency;
}

double BatchedSendRecvSecondsFlow(const net::Fabric& fabric,
                                  const std::vector<Transfer>& transfers,
                                  int packs) {
  if (transfers.empty() || packs <= 0) return 0.0;
  const topo::ClusterSpec& cluster = fabric.cluster();
  net::FlowSim fs(fabric);
  double max_latency = 0.0;
  bool any = false;
  for (const Transfer& t : transfers) {
    if (t.src == t.dst || t.bytes <= 0) continue;
    // Latency is charged per pack below, not per flow.
    fs.Submit({t.src, t.dst, t.bytes, /*start_seconds=*/0.0,
               /*latency_seconds=*/0.0});
    max_latency = std::max(max_latency, cluster.LatencySec(t.src, t.dst));
    any = true;
  }
  if (!any) return 0.0;
  fs.Run();
  return fs.MakespanSeconds() + packs * max_latency;
}

double BatchedSendRecvSeconds(const topo::ClusterSpec& cluster,
                              const std::vector<Transfer>& transfers,
                              int packs, net::NetModel model) {
  if (model == net::NetModel::kAnalytic) {
    return BatchedSendRecvSeconds(cluster, transfers, packs);
  }
  return BatchedSendRecvSecondsFlow(net::Fabric(cluster), transfers, packs);
}

}  // namespace sim
}  // namespace malleus
