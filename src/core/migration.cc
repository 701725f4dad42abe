#include "core/migration.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/string_util.h"
#include "core/sharding.h"

namespace malleus {
namespace core {

namespace {

// Adds the transfers needed so that the `to` owners of one layer obtain
// every interval fraction they do not already hold in `from`.
// `bytes_full` is the byte size of the whole interval [0, 1).
void DiffIntervals(const std::vector<OwnedInterval>& from,
                   const std::vector<OwnedInterval>& to, double bytes_full,
                   std::map<std::pair<topo::GpuId, topo::GpuId>, double>*
                       fused) {
  // Both interval lists cover [0,1) contiguously and in order; sweep them
  // with two pointers.
  size_t a = 0, b = 0;
  double pos = 0.0;
  while (b < to.size() && a < from.size()) {
    const double end = std::min(from[a].end, to[b].end);
    if (end > pos && from[a].gpu != to[b].gpu) {
      (*fused)[{from[a].gpu, to[b].gpu}] += (end - pos) * bytes_full;
    }
    pos = end;
    if (from[a].end <= pos) ++a;
    if (b < to.size() && to[b].end <= pos) ++b;
  }
}

}  // namespace

Result<MigrationPlan> ComputeMigration(const plan::ParallelPlan& from,
                                       const plan::ParallelPlan& to,
                                       const model::CostModel& cost) {
  if (from.pipelines.empty() || to.pipelines.empty()) {
    return Status::InvalidArgument("plans must have pipelines");
  }
  const int num_layers = cost.spec().num_layers;
  if (from.pipelines[0].TotalLayers() != num_layers ||
      to.pipelines[0].TotalLayers() != num_layers) {
    return Status::InvalidArgument("plans cover different layer counts");
  }
  const int dp_from = from.dp_degree();
  const int dp_to = to.dp_degree();
  const double params = static_cast<double>(cost.spec().ParamsPerLayer());
  // Per replica, per layer: bf16 weights + this replica's ZeRO-1 optimizer
  // shard (fp32 master + Adam moments).
  const double bytes_weights = 2.0 * params;
  const double bytes_optimizer =
      model::kShardedBytesPerParam * params / dp_to;

  std::map<std::pair<topo::GpuId, topo::GpuId>, double> fused;
  for (int layer = 0; layer < num_layers; ++layer) {
    for (int i = 0; i < dp_to; ++i) {
      Result<std::vector<OwnedInterval>> dst =
          LayerWeightOwners(to, i, layer);
      MALLEUS_RETURN_NOT_OK(dst.status());
      Result<std::vector<OwnedInterval>> src =
          LayerWeightOwners(from, i % dp_from, layer);
      MALLEUS_RETURN_NOT_OK(src.status());
      DiffIntervals(*src, *dst, bytes_weights + bytes_optimizer, &fused);
    }
  }

  MigrationPlan out;
  for (const auto& [pair, bytes] : fused) {
    if (bytes <= 0) continue;
    out.transfers.push_back({pair.first, pair.second, bytes});
    out.total_bytes += bytes;
  }
  out.num_packs = (num_layers + kLayersPerMigrationPack - 1) /
                  kLayersPerMigrationPack;
  return out;
}

double MigrationSeconds(const MigrationPlan& migration,
                        const topo::ClusterSpec& cluster) {
  return sim::BatchedSendRecvSeconds(cluster, migration.transfers,
                                     migration.num_packs);
}

double MigrationSeconds(const MigrationPlan& migration,
                        const topo::ClusterSpec& cluster,
                        net::NetModel model) {
  return sim::BatchedSendRecvSeconds(cluster, migration.transfers,
                                     migration.num_packs, model);
}

}  // namespace core
}  // namespace malleus
