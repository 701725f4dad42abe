#include "testkit/graph/graph.h"

#include "common/string_util.h"

namespace malleus {
namespace testkit {
namespace graph {

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kForward:
      return "Forward";
    case OpKind::kBackward:
      return "Backward";
    case OpKind::kP2pTransfer:
      return "P2pTransfer";
    case OpKind::kReduceScatter:
      return "ReduceScatter";
    case OpKind::kAllGather:
      return "AllGather";
    case OpKind::kOptimizerStep:
      return "OptimizerStep";
  }
  return "?";
}

std::string Op::ToString() const {
  std::string out = StrFormat("#%d %s", id, OpKindName(kind));
  if (pipeline >= 0) out += StrFormat(" p%d", pipeline);
  if (stage >= 0) out += StrFormat(" s%d", stage);
  if (micro >= 0) out += StrFormat(" m%lld", static_cast<long long>(micro));
  if (layer >= 0) out += StrFormat(" L%d", layer);
  if (slice >= 0) out += StrFormat("/%d", slice);
  return out;
}

const std::vector<OpId> Graph::kEmptyQueue;

OpId Graph::Add(Op op) {
  op.id = static_cast<OpId>(ops_.size());
  if (op.OccupiesDevices()) {
    for (topo::GpuId g : op.devices) {
      device_queues_[g].push_back(op.id);
    }
  }
  ops_.push_back(std::move(op));
  return ops_.back().id;
}

const std::vector<OpId>& Graph::DeviceQueue(topo::GpuId gpu) const {
  auto it = device_queues_.find(gpu);
  return it == device_queues_.end() ? kEmptyQueue : it->second;
}

Status Graph::Validate() const {
  for (const Op& op : ops_) {
    if (op.devices.empty()) {
      return Status::InvalidArgument(
          StrFormat("op %d has no devices", op.id));
    }
    for (OpId dep : op.deps) {
      if (dep < 0 || dep >= op.id) {
        return Status::InvalidArgument(StrFormat(
            "op %d depends on %d (deps must point backwards)", op.id, dep));
      }
    }
    if (op.IsCompute() && op.base_seconds < 0) {
      return Status::InvalidArgument("negative compute duration");
    }
    if (!op.IsCompute() && op.bytes < 0) {
      return Status::InvalidArgument("negative comm payload");
    }
    if (op.kind == OpKind::kP2pTransfer && op.devices.size() != 2) {
      return Status::InvalidArgument("P2P transfer needs src and dst");
    }
  }
  return Status::OK();
}

GraphStats Graph::Stats() const {
  GraphStats s;
  s.num_ops = size();
  for (const Op& op : ops_) {
    if (op.IsCompute()) {
      ++s.num_compute;
      s.total_flops_seconds += op.base_seconds;
    } else if (op.kind == OpKind::kP2pTransfer) {
      ++s.num_p2p;
      s.total_comm_bytes += op.bytes;
    } else {
      ++s.num_collectives;
      s.total_comm_bytes += op.bytes;
    }
  }
  return s;
}

}  // namespace graph
}  // namespace testkit
}  // namespace malleus
