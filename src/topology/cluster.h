// Cluster topology: nodes, GPUs, and interconnect characteristics.
//
// This module stands in for the paper's physical testbed (8 servers with
// 8 x A800-80GB each, NVLink 400 GB/s intra-node, InfiniBand 200 GB/s
// inter-node). All other modules reason about devices through ClusterSpec.

#ifndef MALLEUS_TOPOLOGY_CLUSTER_H_
#define MALLEUS_TOPOLOGY_CLUSTER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace malleus {
namespace topo {

/// Global GPU identifier: GPUs are numbered node-major, i.e. GPU g lives on
/// node g / gpus_per_node at local index g % gpus_per_node.
using GpuId = int;
using NodeId = int;

/// Hardware characteristics of one GPU.
struct GpuSpec {
  double peak_tflops = 312.0;       ///< BF16 tensor-core peak (A800-like).
  uint64_t memory_bytes = 80ULL << 30;  ///< HBM capacity (80 GB).
  /// Reserved memory gap G for NCCL/CUDA contexts (paper: 4096 MiB).
  uint64_t reserved_bytes = 4096ULL << 20;

  /// Usable memory for model states + activations.
  uint64_t UsableBytes() const {
    return memory_bytes > reserved_bytes ? memory_bytes - reserved_bytes : 0;
  }
};

/// Interconnect characteristics.
struct LinkSpec {
  double intra_node_gbps = 400.0;  ///< NVLink bandwidth, GB/s per direction.
  double inter_node_gbps = 200.0;  ///< InfiniBand bandwidth, GB/s.
  double intra_node_latency_s = 5e-6;
  double inter_node_latency_s = 12e-6;
};

/// \brief Hierarchical fabric layout above the node tier.
///
/// The seed model is a flat non-blocking fabric: every cross-node path gets
/// the full `inter_node_gbps`. Production clusters are not like that, so two
/// hierarchical shapes are supported:
///
///  - `kFatTree`: nodes are grouped into pods of `nodes_per_pod` leaf-switch
///    neighbours. Intra-pod traffic is non-blocking; cross-pod traffic funnels
///    through a per-pod spine uplink of capacity
///    `nodes_per_pod * inter_node_gbps / oversubscription` and pays
///    `spine_latency_s` extra one-way latency.
///  - `kRail`: rail-optimized IB. Each GPU's NIC attaches to the leaf switch
///    of its rail (= local index), so same-rail cross-node traffic is
///    non-blocking, while cross-rail traffic crosses the spine through a
///    per-rail uplink of capacity
///    `num_nodes * inter_node_gbps / oversubscription`.
///
/// `oversubscription` is the standard taper ratio (1.0 = non-blocking,
/// 4.0 = 4:1 tapered spine).
struct FabricSpec {
  enum class Kind { kFlat, kFatTree, kRail };

  Kind kind = Kind::kFlat;
  int nodes_per_pod = 0;         ///< Fat-tree only; must divide num_nodes.
  double oversubscription = 1.0;  ///< Spine taper ratio, >= 1.
  double spine_latency_s = 2e-6;  ///< Extra one-way latency across the spine.
};

/// Canonical lower-case name for a fabric kind ("flat", "fat-tree", "rail").
const char* FabricKindName(FabricSpec::Kind kind);

/// Parses a fabric kind name; accepts the canonical names plus "fattree" and
/// "fat_tree" aliases.
Result<FabricSpec::Kind> ParseFabricKind(const std::string& name);

/// \brief Describes a homogeneous cluster of `num_nodes` servers with
/// `gpus_per_node` GPUs each.
///
/// Heterogeneity (stragglers) is *not* part of the topology; it is overlaid
/// by malleus::straggler at runtime, matching the paper's premise that the
/// hardware is nominally homogeneous but dynamically degrades.
class ClusterSpec {
 public:
  ClusterSpec() = default;
  ClusterSpec(int num_nodes, int gpus_per_node, GpuSpec gpu = GpuSpec(),
              LinkSpec link = LinkSpec(), FabricSpec fabric = FabricSpec())
      : num_nodes_(num_nodes),
        gpus_per_node_(gpus_per_node),
        gpu_(gpu),
        link_(link),
        fabric_(fabric) {}

  /// Builds the paper's testbed: `num_nodes` x 8 A800-80GB.
  static ClusterSpec A800Cluster(int num_nodes) {
    return ClusterSpec(num_nodes, 8);
  }

  int num_nodes() const { return num_nodes_; }
  int gpus_per_node() const { return gpus_per_node_; }
  int num_gpus() const { return num_nodes_ * gpus_per_node_; }
  const GpuSpec& gpu() const { return gpu_; }
  const LinkSpec& link() const { return link_; }
  const FabricSpec& fabric() const { return fabric_; }

  NodeId NodeOf(GpuId gpu) const { return gpu / gpus_per_node_; }
  int LocalIndexOf(GpuId gpu) const { return gpu % gpus_per_node_; }
  bool SameNode(GpuId a, GpuId b) const { return NodeOf(a) == NodeOf(b); }
  bool ValidGpu(GpuId gpu) const { return gpu >= 0 && gpu < num_gpus(); }

  /// Pod size in nodes. For a fat-tree this is `fabric().nodes_per_pod`; for
  /// flat and rail fabrics the whole cluster is one pod.
  int NodesPerPod() const {
    return (fabric_.kind == FabricSpec::Kind::kFatTree &&
            fabric_.nodes_per_pod > 0)
               ? fabric_.nodes_per_pod
               : num_nodes_;
  }
  int num_pods() const {
    const int per = NodesPerPod();
    return per > 0 ? num_nodes_ / per : 0;
  }
  int PodOf(NodeId node) const { return node / NodesPerPod(); }
  bool SamePod(GpuId a, GpuId b) const {
    return PodOf(NodeOf(a)) == PodOf(NodeOf(b));
  }
  /// Rail index of a GPU (rail-optimized fabrics): its local index.
  int RailOf(GpuId gpu) const { return LocalIndexOf(gpu); }
  bool SameRail(GpuId a, GpuId b) const { return RailOf(a) == RailOf(b); }

  /// Capacity (bytes/s) of one pod's spine uplink (fat-tree fabrics).
  double PodUplinkBytesPerSec() const {
    return NodesPerPod() * link_.inter_node_gbps * 1e9 /
           fabric_.oversubscription;
  }
  /// Capacity (bytes/s) of one rail's spine uplink (rail fabrics).
  double RailUplinkBytesPerSec() const {
    return num_nodes_ * link_.inter_node_gbps * 1e9 /
           fabric_.oversubscription;
  }

  /// All GPU ids on `node`, in local-index order.
  std::vector<GpuId> GpusOnNode(NodeId node) const;

  /// All GPU ids in the cluster.
  std::vector<GpuId> AllGpus() const;

  /// Bandwidth (bytes/s) of the narrowest link on the path between two GPUs.
  double BandwidthBytesPerSec(GpuId a, GpuId b) const;

  /// One-way latency (s) between two GPUs.
  double LatencySec(GpuId a, GpuId b) const;

  /// Validates structural invariants.
  Status Validate() const;

  std::string ToString() const;

 private:
  int num_nodes_ = 0;
  int gpus_per_node_ = 0;
  GpuSpec gpu_;
  LinkSpec link_;
  FabricSpec fabric_;
};

/// Bandwidth (bytes/s) of the narrowest link among `gpus` (ring collectives
/// are bottlenecked by the slowest hop; any cross-node pair forces IB).
///
/// Convention for degenerate groups: a single-GPU or empty group performs
/// no inter-GPU traffic, so there is no bottleneck to report; both return
/// the intra-node (NVLink) bandwidth — the fastest link — so degenerate
/// groups never dominate a min() over groups and callers dividing by the
/// result stay finite. Collective times over such groups are 0 regardless.
double GroupBottleneckBandwidth(const ClusterSpec& cluster,
                                const std::vector<GpuId>& gpus);

}  // namespace topo
}  // namespace malleus

#endif  // MALLEUS_TOPOLOGY_CLUSTER_H_
