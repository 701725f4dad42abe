#include "plan/plan.h"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <string>

#include "common/logging.h"
#include "common/string_util.h"
#include "plan/plan_checks.h"

namespace malleus {
namespace plan {

double TpGroup::Rate(const model::CostModel& cost,
                     const straggler::Situation& situation) const {
  std::vector<double> xs;
  xs.reserve(gpus.size());
  for (topo::GpuId g : gpus) {
    MALLEUS_CHECK(g >= 0 && g < situation.num_gpus())
        << "situation does not cover GPU " << g;
    xs.push_back(situation.rate(g));
  }
  return cost.GroupRate(xs);
}

std::string TpGroup::ToString() const {
  std::vector<std::string> parts;
  for (topo::GpuId g : gpus) parts.push_back(StrFormat("x%d", g));
  std::string out = "{";
  out += Join(parts, ",");
  out += "}";
  return out;
}

int Pipeline::TotalLayers() const {
  int total = 0;
  for (const Stage& s : stages) total += s.num_layers;
  return total;
}

std::vector<topo::GpuId> Pipeline::Gpus() const {
  std::vector<topo::GpuId> out;
  for (const Stage& s : stages) {
    out.insert(out.end(), s.group.gpus.begin(), s.group.gpus.end());
  }
  return out;
}

std::vector<topo::GpuId> ParallelPlan::ActiveGpus() const {
  std::vector<topo::GpuId> out;
  for (const Pipeline& p : pipelines) {
    auto g = p.Gpus();
    out.insert(out.end(), g.begin(), g.end());
  }
  return out;
}

double StageMemoryBytesPerGpu(const ParallelPlan& p, int pipeline_index,
                              int stage_index, const model::CostModel& cost) {
  MALLEUS_CHECK(pipeline_index >= 0 &&
                pipeline_index < static_cast<int>(p.pipelines.size()))
      << "StageMemoryBytesPerGpu: pipeline index " << pipeline_index
      << " out of range [0, " << p.pipelines.size() << ")";
  const Pipeline& pipe = p.pipelines[pipeline_index];
  MALLEUS_CHECK(stage_index >= 0 &&
                stage_index < static_cast<int>(pipe.stages.size()))
      << "StageMemoryBytesPerGpu: stage index " << stage_index
      << " out of range [0, " << pipe.stages.size() << ") in pipeline "
      << pipeline_index;
  const Stage& stage = pipe.stages[stage_index];
  const int pp = pipe.num_stages();
  const int dp = p.dp_degree();
  const int j = stage_index + 1;  // 1-based as in the paper.
  const double mu = cost.MuBytes(p.micro_batch_size, j, pp, dp,
                                 p.activation_checkpointing);
  const double nu = cost.NuBytes(p.micro_batch_size, j, pp, dp);
  return (stage.num_layers * mu + nu) / stage.group.size();
}

Status ParallelPlan::Validate(const topo::ClusterSpec& cluster,
                              const model::CostModel& cost) const {
  // Thin wrapper over the lint pass: run the structural checks in
  // fail-fast mode and convert the first finding back to the Status this
  // method has always returned (same traversal order, same message).
  lint::DiagnosticSink sink;
  sink.set_fail_fast(true);
  LintPlanStructure(*this, cluster, cost, &sink);
  if (sink.HasErrors()) {
    return StatusFromPlanDiagnostic(sink.diagnostics().front());
  }
  return Status::OK();
}

std::string ParallelPlan::ToString() const {
  std::string out = StrFormat("ParallelPlan(b=%d, B=%lld, DP=%d)\n",
                              micro_batch_size,
                              static_cast<long long>(global_batch),
                              dp_degree());
  for (size_t i = 0; i < pipelines.size(); ++i) {
    const Pipeline& pipe = pipelines[i];
    out += StrFormat("  pipeline %zu: m=%lld (%d stages)\n", i + 1,
                     static_cast<long long>(pipe.num_microbatches),
                     pipe.num_stages());
    for (size_t j = 0; j < pipe.stages.size(); ++j) {
      const Stage& s = pipe.stages[j];
      out += StrFormat("    stage %zu: %s  l=%d\n", j + 1,
                       s.group.ToString().c_str(), s.num_layers);
    }
  }
  if (!standby_gpus.empty()) {
    std::vector<std::string> parts;
    for (topo::GpuId g : standby_gpus) parts.push_back(StrFormat("x%d", g));
    out += "  standby: " + Join(parts, ",") + "\n";
  }
  return out;
}

namespace {

// Appends the decimal form of `v` (what "%d"/"%lld" print).
void AppendInt(std::string* out, int64_t v) {
  char buf[24];
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), v);
  out->append(buf, r.ptr);
}

}  // namespace

std::string ParallelPlan::Signature() const {
  std::string sig = "b";
  AppendInt(&sig, micro_batch_size);
  if (activation_checkpointing) sig += "ac";
  sig += '|';
  for (const Pipeline& pipe : pipelines) {
    sig += 'm';
    AppendInt(&sig, pipe.num_microbatches);
    sig += '[';
    for (const Stage& s : pipe.stages) {
      sig += 'l';
      AppendInt(&sig, s.num_layers);
      sig += '(';
      for (topo::GpuId g : s.group.gpus) {
        AppendInt(&sig, g);
        sig += ',';
      }
      sig += ')';
    }
    sig += ']';
  }
  if (!standby_gpus.empty()) {
    sig += "s(";
    for (topo::GpuId g : standby_gpus) {
      AppendInt(&sig, g);
      sig += ',';
    }
    sig += ')';
  }
  return sig;
}

}  // namespace plan
}  // namespace malleus
