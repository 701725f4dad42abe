// Explicit link-graph model of the cluster's communication fabric.
//
// The analytic collective model (src/sim/collective.h) prices every
// transfer against the narrowest link on its path in isolation; overlapping
// transfers never interact. malleus::net makes the fabric explicit so a
// flow-level simulator (flow_sim.h) can charge concurrent transfers for the
// links they *share*: each GPU owns a directional NVLink egress/ingress
// port pair (full duplex, intra-node bandwidth) and each node owns a
// directional InfiniBand NIC pair (inter-node bandwidth). The switch cores
// (NVSwitch intra-node, IB spine inter-node) are assumed non-blocking, as
// on the paper's testbed.
//
// Routes are directional: an intra-node transfer crosses the sender's
// egress port and the receiver's ingress port; a cross-node transfer
// additionally crosses both nodes' NIC (egress on the source node, ingress
// on the destination). A single isolated flow therefore sees exactly the
// bandwidth the analytic model uses (min over its path), while two flows
// that cross the same directional link split it max–min fairly.

#ifndef MALLEUS_NET_FABRIC_H_
#define MALLEUS_NET_FABRIC_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "topology/cluster.h"

namespace malleus {
namespace net {

/// Which communication cost model a component uses.
///
/// kAnalytic is the closed-form isolated-link model (cheap; the planner's
/// solver inner loops evaluate thousands of candidates per solve).
/// kFlow runs transfers through the contention-aware flow simulator
/// (what the step simulator and the executor use by default).
enum class NetModel {
  kAnalytic,
  kFlow,
};

/// "analytic" or "flow".
const char* NetModelName(NetModel model);

/// Parses "analytic" / "flow" (case-sensitive).
Result<NetModel> ParseNetModel(const std::string& name);

/// The process-wide default: the MALLEUS_NET_MODEL environment variable
/// ("analytic" / "flow") when set and valid, otherwise kAnalytic. Read
/// once and cached for the process lifetime.
NetModel DefaultNetModel();

/// Index into Fabric's link table.
using LinkId = int;

/// One directional link of the fabric.
struct Link {
  std::string name;           ///< e.g. "gpu3.out", "node1.nic.in".
  double capacity_bps = 0.0;  ///< Bytes per second.
};

/// \brief The directional link graph of a ClusterSpec.
///
/// Link layout (ids are stable for a given cluster shape; sections are
/// fabric-kind dependent but always in this order):
///   [0, 2G)            per-GPU NVLink ports, alternating out/in (all kinds);
///   flat / fat-tree:
///     [2G, 2G + 2N)    per-node NIC ports, alternating out/in;
///     fat-tree only:
///     [2G + 2N, 2G + 2N + 2P)  per-pod spine uplinks, alternating up/down;
///   rail-optimized:
///     [2G, 4G)         per-GPU NIC ports, alternating out/in;
///     [4G, 4G + 2R)    per-rail spine uplinks, alternating up/down
/// with G = num_gpus, N = num_nodes, P = num_pods, R = gpus_per_node.
///
/// Hierarchical routes are deterministic: a cross-pod fat-tree transfer
/// always crosses exactly pod(src).up then pod(dst).down (single logical
/// spine), and a cross-rail transfer crosses rail(src).up then
/// rail(dst).down. Oversubscription shows up as reduced uplink capacity,
/// not as routing randomness, which keeps FlowSim bit-deterministic.
class Fabric {
 public:
  /// Builds the fabric of `cluster` (which must outlive the Fabric).
  explicit Fabric(const topo::ClusterSpec& cluster);

  const topo::ClusterSpec& cluster() const { return *cluster_; }
  int num_links() const { return static_cast<int>(links_.size()); }
  const Link& link(LinkId id) const { return links_[id]; }

  LinkId GpuOut(topo::GpuId gpu) const { return 2 * gpu; }
  LinkId GpuIn(topo::GpuId gpu) const { return 2 * gpu + 1; }
  /// Per-node NIC ports (flat and fat-tree fabrics only).
  LinkId NicOut(topo::NodeId node) const;
  LinkId NicIn(topo::NodeId node) const;
  /// Per-pod spine uplinks (fat-tree fabrics only).
  LinkId PodUp(int pod) const;
  LinkId PodDown(int pod) const;
  /// Per-GPU NIC ports (rail-optimized fabrics only).
  LinkId GpuNicOut(topo::GpuId gpu) const;
  LinkId GpuNicIn(topo::GpuId gpu) const;
  /// Per-rail spine uplinks (rail-optimized fabrics only).
  LinkId RailUp(int rail) const;
  LinkId RailDown(int rail) const;

  /// The directional links a `src` -> `dst` transfer crosses, in path
  /// order. Empty when src == dst (loopback moves no bytes).
  std::vector<LinkId> Route(topo::GpuId src, topo::GpuId dst) const;

 private:
  const topo::ClusterSpec* cluster_;
  std::vector<Link> links_;
  int nic_base_ = 0;
  int pod_base_ = 0;
  int rail_base_ = 0;
};

}  // namespace net
}  // namespace malleus

#endif  // MALLEUS_NET_FABRIC_H_
