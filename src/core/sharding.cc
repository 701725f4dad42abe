#include "core/sharding.h"

#include "common/string_util.h"

namespace malleus {
namespace core {

namespace {

// Finds the stage of `pipeline` hosting `layer`; returns -1 if none.
int StageOfLayer(const plan::Pipeline& pipeline, int layer) {
  int offset = 0;
  for (size_t j = 0; j < pipeline.stages.size(); ++j) {
    const int next = offset + pipeline.stages[j].num_layers;
    if (layer >= offset && layer < next) return static_cast<int>(j);
    offset = next;
  }
  return -1;
}

}  // namespace

Result<std::vector<OwnedInterval>> LayerWeightOwners(
    const plan::ParallelPlan& p, int pipeline_index, int layer) {
  if (pipeline_index < 0 || pipeline_index >= p.dp_degree()) {
    return Status::InvalidArgument("pipeline index out of range");
  }
  const plan::Pipeline& pipe = p.pipelines[pipeline_index];
  const int j = StageOfLayer(pipe, layer);
  if (j < 0) {
    return Status::InvalidArgument(
        StrFormat("layer %d not hosted by pipeline %d", layer,
                  pipeline_index));
  }
  const plan::TpGroup& group = pipe.stages[j].group;
  const int n = group.size();
  std::vector<OwnedInterval> out;
  out.reserve(n);
  for (int q = 0; q < n; ++q) {
    out.push_back({group.gpus[q], static_cast<double>(q) / n,
                   static_cast<double>(q + 1) / n});
  }
  return out;
}

}  // namespace core
}  // namespace malleus
