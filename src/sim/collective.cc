#include "sim/collective.h"

#include <algorithm>
#include <map>

#include "common/logging.h"
#include "net/flow_sim.h"

namespace malleus {
namespace sim {

// Alpha cost of a ring collective: n-1 steps, each bounded by the slowest
// hop of that step; approximated as the sum over the first n-1 hops.
double RingLatencySeconds(const topo::ClusterSpec& cluster,
                          const std::vector<topo::GpuId>& gpus) {
  double lat = 0.0;
  for (size_t i = 0; i + 1 < gpus.size(); ++i) {
    lat += cluster.LatencySec(gpus[i], gpus[i + 1]);
  }
  return lat;
}

double ReduceScatterSeconds(const topo::ClusterSpec& cluster,
                            const std::vector<topo::GpuId>& gpus,
                            double bytes) {
  const size_t n = gpus.size();
  if (n <= 1) return 0.0;
  const double bw = topo::GroupBottleneckBandwidth(cluster, gpus);
  // Ring reduce-scatter moves (n-1)/n of the data through each link.
  return bytes * (static_cast<double>(n - 1) / n) / bw +
         RingLatencySeconds(cluster, gpus);
}

double AllGatherSeconds(const topo::ClusterSpec& cluster,
                        const std::vector<topo::GpuId>& gpus, double bytes) {
  return ReduceScatterSeconds(cluster, gpus, bytes);
}

double AllReduceSeconds(const topo::ClusterSpec& cluster,
                        const std::vector<topo::GpuId>& gpus, double bytes) {
  // All-reduce = reduce-scatter + all-gather.
  return ReduceScatterSeconds(cluster, gpus, bytes) +
         AllGatherSeconds(cluster, gpus, bytes);
}

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

namespace {

// Shared body of the flow-model ring collectives: one pass moving
// `per_hop_factor` * (n-1)/n * bytes per hop under `latency` total alpha.
double RingPassSecondsFlow(const net::Fabric& fabric,
                           const std::vector<topo::GpuId>& gpus,
                           double bytes_per_hop, double latency) {
  if (gpus.size() <= 1) return 0.0;
  net::FlowSim fs(fabric);
  net::SubmitRing(&fs, gpus, bytes_per_hop, /*start_seconds=*/0.0, latency);
  fs.Run();
  return fs.MakespanSeconds();
}

}  // namespace

double ReduceScatterSecondsFlow(const net::Fabric& fabric,
                                const std::vector<topo::GpuId>& gpus,
                                double bytes) {
  const double n = static_cast<double>(gpus.size());
  if (n <= 1) return 0.0;
  return RingPassSecondsFlow(fabric, gpus, bytes * (n - 1) / n,
                             RingLatencySeconds(fabric.cluster(), gpus));
}

double AllReduceSecondsFlow(const net::Fabric& fabric,
                            const std::vector<topo::GpuId>& gpus,
                            double bytes) {
  // Reduce-scatter + all-gather fused into one doubled pass: same bytes
  // per link, same total latency, identical to the analytic sum when
  // uncontended.
  const double n = static_cast<double>(gpus.size());
  if (n <= 1) return 0.0;
  return RingPassSecondsFlow(
      fabric, gpus, 2.0 * bytes * (n - 1) / n,
      2.0 * RingLatencySeconds(fabric.cluster(), gpus));
}

double P2pSecondsFlow(const net::Fabric& fabric, topo::GpuId src,
                      topo::GpuId dst, double bytes) {
  if (src == dst) return 0.0;
  net::FlowSim fs(fabric);
  fs.Submit({src, dst, bytes, /*start_seconds=*/0.0});
  fs.Run();
  return fs.MakespanSeconds();
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

double AllReduceSeconds(const topo::ClusterSpec& cluster,
                        const std::vector<topo::GpuId>& gpus, double bytes,
                        net::NetModel model) {
  if (model == net::NetModel::kAnalytic) {
    return AllReduceSeconds(cluster, gpus, bytes);
  }
  return AllReduceSecondsFlow(net::Fabric(cluster), gpus, bytes);
}

double P2pSeconds(const topo::ClusterSpec& cluster, topo::GpuId src,
                  topo::GpuId dst, double bytes, net::NetModel model) {
  if (model == net::NetModel::kAnalytic) {
    return P2pSeconds(cluster, src, dst, bytes);
  }
  return P2pSecondsFlow(net::Fabric(cluster), src, dst, bytes);
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
