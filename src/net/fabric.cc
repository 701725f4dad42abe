#include "net/fabric.h"

#include <cstdlib>

#include "common/logging.h"
#include "common/string_util.h"

namespace malleus {
namespace net {

const char* NetModelName(NetModel model) {
  return model == NetModel::kAnalytic ? "analytic" : "flow";
}

Result<NetModel> ParseNetModel(const std::string& name) {
  if (name == "analytic") return NetModel::kAnalytic;
  if (name == "flow") return NetModel::kFlow;
  return Status::InvalidArgument("unknown net model: " + name +
                                 " (expected analytic or flow)");
}

NetModel DefaultNetModel() {
  static const NetModel cached = [] {
    NetModel model = NetModel::kAnalytic;
    if (const char* env = std::getenv("MALLEUS_NET_MODEL");
        env != nullptr && *env != '\0') {
      Result<NetModel> parsed = ParseNetModel(env);
      if (parsed.ok()) {
        model = *parsed;
      } else {
        MALLEUS_LOG(Warning) << "ignoring MALLEUS_NET_MODEL=" << env << ": "
                             << parsed.status().ToString();
      }
    }
    return model;
  }();
  return cached;
}

Fabric::Fabric(const topo::ClusterSpec& cluster) : cluster_(&cluster) {
  using topo::FabricSpec;
  const double nvlink_bps = cluster.link().intra_node_gbps * 1e9;
  const double ib_bps = cluster.link().inter_node_gbps * 1e9;
  const FabricSpec::Kind kind = cluster.fabric().kind;
  for (topo::GpuId g = 0; g < cluster.num_gpus(); ++g) {
    links_.push_back({StrFormat("gpu%d.out", g), nvlink_bps});
    links_.push_back({StrFormat("gpu%d.in", g), nvlink_bps});
  }
  if (kind == FabricSpec::Kind::kRail) {
    nic_base_ = static_cast<int>(links_.size());
    for (topo::GpuId g = 0; g < cluster.num_gpus(); ++g) {
      links_.push_back({StrFormat("gpu%d.nic.out", g), ib_bps});
      links_.push_back({StrFormat("gpu%d.nic.in", g), ib_bps});
    }
    rail_base_ = static_cast<int>(links_.size());
    const double uplink_bps = cluster.RailUplinkBytesPerSec();
    for (int r = 0; r < cluster.gpus_per_node(); ++r) {
      links_.push_back({StrFormat("rail%d.up", r), uplink_bps});
      links_.push_back({StrFormat("rail%d.down", r), uplink_bps});
    }
    return;
  }
  nic_base_ = static_cast<int>(links_.size());
  for (topo::NodeId n = 0; n < cluster.num_nodes(); ++n) {
    links_.push_back({StrFormat("node%d.nic.out", n), ib_bps});
    links_.push_back({StrFormat("node%d.nic.in", n), ib_bps});
  }
  if (kind == FabricSpec::Kind::kFatTree) {
    pod_base_ = static_cast<int>(links_.size());
    const double uplink_bps = cluster.PodUplinkBytesPerSec();
    for (int p = 0; p < cluster.num_pods(); ++p) {
      links_.push_back({StrFormat("pod%d.up", p), uplink_bps});
      links_.push_back({StrFormat("pod%d.down", p), uplink_bps});
    }
  }
}

LinkId Fabric::NicOut(topo::NodeId node) const {
  MALLEUS_CHECK(cluster_->fabric().kind != topo::FabricSpec::Kind::kRail);
  return nic_base_ + 2 * node;
}

LinkId Fabric::NicIn(topo::NodeId node) const {
  MALLEUS_CHECK(cluster_->fabric().kind != topo::FabricSpec::Kind::kRail);
  return nic_base_ + 2 * node + 1;
}

LinkId Fabric::PodUp(int pod) const {
  MALLEUS_CHECK(cluster_->fabric().kind == topo::FabricSpec::Kind::kFatTree);
  return pod_base_ + 2 * pod;
}

LinkId Fabric::PodDown(int pod) const {
  MALLEUS_CHECK(cluster_->fabric().kind == topo::FabricSpec::Kind::kFatTree);
  return pod_base_ + 2 * pod + 1;
}

LinkId Fabric::GpuNicOut(topo::GpuId gpu) const {
  MALLEUS_CHECK(cluster_->fabric().kind == topo::FabricSpec::Kind::kRail);
  return nic_base_ + 2 * gpu;
}

LinkId Fabric::GpuNicIn(topo::GpuId gpu) const {
  MALLEUS_CHECK(cluster_->fabric().kind == topo::FabricSpec::Kind::kRail);
  return nic_base_ + 2 * gpu + 1;
}

LinkId Fabric::RailUp(int rail) const {
  MALLEUS_CHECK(cluster_->fabric().kind == topo::FabricSpec::Kind::kRail);
  return rail_base_ + 2 * rail;
}

LinkId Fabric::RailDown(int rail) const {
  MALLEUS_CHECK(cluster_->fabric().kind == topo::FabricSpec::Kind::kRail);
  return rail_base_ + 2 * rail + 1;
}

std::vector<LinkId> Fabric::Route(topo::GpuId src, topo::GpuId dst) const {
  using topo::FabricSpec;
  MALLEUS_CHECK(cluster_->ValidGpu(src));
  MALLEUS_CHECK(cluster_->ValidGpu(dst));
  if (src == dst) return {};
  if (cluster_->SameNode(src, dst)) return {GpuOut(src), GpuIn(dst)};
  switch (cluster_->fabric().kind) {
    case FabricSpec::Kind::kFlat:
      break;
    case FabricSpec::Kind::kFatTree:
      if (!cluster_->SamePod(src, dst)) {
        return {GpuOut(src),
                NicOut(cluster_->NodeOf(src)),
                PodUp(cluster_->PodOf(cluster_->NodeOf(src))),
                PodDown(cluster_->PodOf(cluster_->NodeOf(dst))),
                NicIn(cluster_->NodeOf(dst)),
                GpuIn(dst)};
      }
      break;
    case FabricSpec::Kind::kRail:
      if (cluster_->SameRail(src, dst)) {
        return {GpuOut(src), GpuNicOut(src), GpuNicIn(dst), GpuIn(dst)};
      }
      return {GpuOut(src),
              GpuNicOut(src),
              RailUp(cluster_->RailOf(src)),
              RailDown(cluster_->RailOf(dst)),
              GpuNicIn(dst),
              GpuIn(dst)};
  }
  return {GpuOut(src), NicOut(cluster_->NodeOf(src)),
          NicIn(cluster_->NodeOf(dst)), GpuIn(dst)};
}

}  // namespace net
}  // namespace malleus
