#include "topology/cluster.h"

#include <algorithm>

#include "common/string_util.h"

namespace malleus {
namespace topo {

const char* FabricKindName(FabricSpec::Kind kind) {
  switch (kind) {
    case FabricSpec::Kind::kFlat:
      return "flat";
    case FabricSpec::Kind::kFatTree:
      return "fat-tree";
    case FabricSpec::Kind::kRail:
      return "rail";
  }
  return "flat";
}

Result<FabricSpec::Kind> ParseFabricKind(const std::string& name) {
  if (name == "flat") return FabricSpec::Kind::kFlat;
  if (name == "fat-tree" || name == "fattree" || name == "fat_tree") {
    return FabricSpec::Kind::kFatTree;
  }
  if (name == "rail") return FabricSpec::Kind::kRail;
  return Status::InvalidArgument(
      StrFormat("unknown fabric kind '%s' (expected flat, fat-tree, or rail)",
                name.c_str()));
}

std::vector<GpuId> ClusterSpec::GpusOnNode(NodeId node) const {
  std::vector<GpuId> out;
  out.reserve(gpus_per_node_);
  for (int i = 0; i < gpus_per_node_; ++i) {
    out.push_back(node * gpus_per_node_ + i);
  }
  return out;
}

std::vector<GpuId> ClusterSpec::AllGpus() const {
  std::vector<GpuId> out;
  out.reserve(num_gpus());
  for (int g = 0; g < num_gpus(); ++g) out.push_back(g);
  return out;
}

double ClusterSpec::BandwidthBytesPerSec(GpuId a, GpuId b) const {
  if (SameNode(a, b)) return link_.intra_node_gbps * 1e9;
  double bw = link_.inter_node_gbps * 1e9;
  switch (fabric_.kind) {
    case FabricSpec::Kind::kFlat:
      break;
    case FabricSpec::Kind::kFatTree:
      if (!SamePod(a, b)) bw = std::min(bw, PodUplinkBytesPerSec());
      break;
    case FabricSpec::Kind::kRail:
      if (!SameRail(a, b)) bw = std::min(bw, RailUplinkBytesPerSec());
      break;
  }
  return bw;
}

double ClusterSpec::LatencySec(GpuId a, GpuId b) const {
  if (SameNode(a, b)) return link_.intra_node_latency_s;
  double lat = link_.inter_node_latency_s;
  switch (fabric_.kind) {
    case FabricSpec::Kind::kFlat:
      break;
    case FabricSpec::Kind::kFatTree:
      if (!SamePod(a, b)) lat += fabric_.spine_latency_s;
      break;
    case FabricSpec::Kind::kRail:
      if (!SameRail(a, b)) lat += fabric_.spine_latency_s;
      break;
  }
  return lat;
}

Status ClusterSpec::Validate() const {
  if (num_nodes_ <= 0) {
    return Status::InvalidArgument("cluster must have at least one node");
  }
  if (gpus_per_node_ <= 0) {
    return Status::InvalidArgument("node must have at least one GPU");
  }
  if (gpu_.peak_tflops <= 0) {
    return Status::InvalidArgument("GPU peak TFLOPS must be positive");
  }
  if (gpu_.memory_bytes <= gpu_.reserved_bytes) {
    return Status::InvalidArgument(
        "GPU memory must exceed the reserved gap");
  }
  if (link_.intra_node_gbps <= 0 || link_.inter_node_gbps <= 0) {
    return Status::InvalidArgument("link bandwidths must be positive");
  }
  if (fabric_.oversubscription < 1.0) {
    return Status::InvalidArgument(
        "fabric oversubscription must be >= 1 (1 = non-blocking)");
  }
  if (fabric_.spine_latency_s < 0) {
    return Status::InvalidArgument("fabric spine latency must be >= 0");
  }
  switch (fabric_.kind) {
    case FabricSpec::Kind::kFlat:
      if (fabric_.nodes_per_pod != 0) {
        return Status::InvalidArgument(
            "nodes_per_pod only applies to fat-tree fabrics");
      }
      break;
    case FabricSpec::Kind::kFatTree:
      if (fabric_.nodes_per_pod <= 0) {
        return Status::InvalidArgument(
            "fat-tree fabric requires nodes_per_pod > 0");
      }
      if (num_nodes_ % fabric_.nodes_per_pod != 0) {
        return Status::InvalidArgument(StrFormat(
            "nodes_per_pod=%d must divide num_nodes=%d",
            fabric_.nodes_per_pod, num_nodes_));
      }
      break;
    case FabricSpec::Kind::kRail:
      if (fabric_.nodes_per_pod != 0) {
        return Status::InvalidArgument(
            "nodes_per_pod only applies to fat-tree fabrics");
      }
      break;
  }
  return Status::OK();
}

std::string ClusterSpec::ToString() const {
  std::string out = StrFormat(
      "Cluster(%d nodes x %d GPUs, %.0f TFLOPS, %s HBM, "
      "NVLink %.0f GB/s, IB %.0f GB/s",
      num_nodes_, gpus_per_node_, gpu_.peak_tflops,
      FormatBytes(gpu_.memory_bytes).c_str(), link_.intra_node_gbps,
      link_.inter_node_gbps);
  switch (fabric_.kind) {
    case FabricSpec::Kind::kFlat:
      break;
    case FabricSpec::Kind::kFatTree:
      out += StrFormat(", fat-tree pods of %d @ %.2f:1",
                       fabric_.nodes_per_pod, fabric_.oversubscription);
      break;
    case FabricSpec::Kind::kRail:
      out += StrFormat(", rail-optimized @ %.2f:1", fabric_.oversubscription);
      break;
  }
  out += ")";
  return out;
}

double GroupBottleneckBandwidth(const ClusterSpec& cluster,
                                const std::vector<GpuId>& gpus) {
  // Degenerate groups (see header): no inter-GPU traffic, report the
  // fastest link so the value never dominates a bottleneck computation.
  if (gpus.size() <= 1) return cluster.link().intra_node_gbps * 1e9;
  bool cross_node = false;
  for (GpuId g : gpus) {
    if (!cluster.SameNode(g, gpus[0])) {
      cross_node = true;
      break;
    }
  }
  const double gbps = cross_node ? cluster.link().inter_node_gbps
                                 : cluster.link().intra_node_gbps;
  return gbps * 1e9;
}

}  // namespace topo
}  // namespace malleus
