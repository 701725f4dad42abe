#include "model/cost_model.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace malleus {
namespace model {

bool IsValidTpDegree(int n) { return n == 1 || n == 2 || n == 4 || n == 8; }

namespace {

// Calibration constants of the roofline model (DESIGN §5).

/// Fraction of peak FLOPS achieved by the fused kernels (per-kernel
/// efficiency, excluding pipeline bubbles / DP sync which the event
/// simulator accounts for separately).
constexpr double kKernelEfficiency = 0.65;

/// TP communication overhead epsilon_n for n = 1, 2, 4, 8 (indexed by
/// log2 n): zeta_n = flops * (1 + eps_n) / (n * peak * kernel_efficiency).
constexpr double kTpOverhead[4] = {0.0, 0.05, 0.12, 0.22};

/// Activation bytes per token per layer = attn_coeff * h + mlp_coeff * ffn
/// (bf16 intermediates, FlashAttention so no s x s score tensor).
constexpr double kActBytesAttnCoeff = 16.0;
constexpr double kActBytesMlpCoeff = 4.0;

/// Peak fwd+bwd activation memory relative to the stashed fwd activations
/// (activation gradients + kernel workspaces live alongside the stash).
constexpr double kFwdBwdActFactor = 2.0;

/// Bytes per parameter written to a checkpoint (weights + optimizer).
constexpr double kCheckpointBytesPerParam = 14.0;

/// Fraction of usable memory the *planner* may budget (GroupCapacityBytes).
/// Keeping headroom avoids razor-edge plans that leave re-planning with
/// no feasible moves; final plan validation still checks 100%.
constexpr double kPlanningMemoryHeadroom = 0.94;

/// Activation checkpointing: fraction of the stashed activations that
/// remain resident (layer-boundary tensors only).
constexpr double kAcActFraction = 0.15;

int Log2Exact(int n) {
  int k = 0;
  while ((1 << k) < n) ++k;
  return k;
}
}  // namespace

CostModel::CostModel(ModelSpec spec, topo::GpuSpec gpu, CostModelConfig config)
    : spec_(std::move(spec)), gpu_(gpu), config_(config) {
  MALLEUS_CHECK_OK(spec_.Validate());
}

double CostModel::ZetaSeconds(int tp_degree, int micro_batch) const {
  MALLEUS_CHECK(IsValidTpDegree(tp_degree)) << "tp_degree=" << tp_degree;
  MALLEUS_CHECK_GT(micro_batch, 0);
  const double flops = spec_.TrainFlopsPerLayer(micro_batch);
  const double eps = kTpOverhead[Log2Exact(tp_degree)];
  const double throughput =
      tp_degree * gpu_.peak_tflops * 1e12 * kKernelEfficiency;
  return flops * (1.0 + eps) / throughput;
}

double CostModel::Rho(int tp_degree) const {
  // zeta is maximal at TP = 1, so rho_n = zeta_n / zeta_1. Micro-batch size
  // cancels in the ratio.
  return ZetaSeconds(tp_degree, 1) / ZetaSeconds(1, 1);
}

double CostModel::TauSeconds(int micro_batch) const {
  return ZetaSeconds(1, micro_batch);
}

double CostModel::GroupRate(const std::vector<double>& gpu_rates) const {
  MALLEUS_CHECK(!gpu_rates.empty());
  const int n = static_cast<int>(gpu_rates.size());
  const double max_x = *std::max_element(gpu_rates.begin(), gpu_rates.end());
  return Rho(n) * max_x;
}

double CostModel::StateBytesPerLayer(int dp_degree) const {
  MALLEUS_CHECK_GT(dp_degree, 0);
  const double per_param = config_.replicated_bytes_per_param +
                           kShardedBytesPerParam / dp_degree;
  return static_cast<double>(spec_.ParamsPerLayer()) * per_param;
}

double CostModel::ActBytesFwd(int micro_batch, bool activation_ckpt) const {
  const double per_token = kActBytesAttnCoeff * spec_.hidden_size +
                           kActBytesMlpCoeff * spec_.ffn_hidden_size;
  const double full =
      static_cast<double>(micro_batch) * spec_.seq_len * per_token;
  return activation_ckpt ? full * kAcActFraction : full;
}

double CostModel::ActBytesFwdBwd(int micro_batch,
                                 bool activation_ckpt) const {
  // Under checkpointing only one layer at a time re-materializes its full
  // working set; that transient buffer is amortized into the reserved gap,
  // so the per-layer peak scales with the resident fraction.
  return kFwdBwdActFactor * ActBytesFwd(micro_batch, activation_ckpt);
}

double CostModel::MuBytes(int micro_batch, int stage_index, int num_stages,
                          int dp_degree, bool activation_ckpt) const {
  MALLEUS_CHECK_GE(stage_index, 1);
  MALLEUS_CHECK_LE(stage_index, num_stages);
  // mu_j(b) = b * [a_f * (PP - j) + a_{f+b}] + s   (Appendix B.4; the j = PP
  // case degenerates to b * a_{f+b} + s).
  const int stashed_rounds = num_stages - stage_index;
  return ActBytesFwd(micro_batch, activation_ckpt) * stashed_rounds +
         ActBytesFwdBwd(micro_batch, activation_ckpt) +
         StateBytesPerLayer(dp_degree);
}

double CostModel::NuBytes(int micro_batch, int stage_index, int num_stages,
                          int dp_degree) const {
  MALLEUS_CHECK_GE(stage_index, 1);
  MALLEUS_CHECK_LE(stage_index, num_stages);
  const double per_param = config_.replicated_bytes_per_param +
                           kShardedBytesPerParam / dp_degree;
  const double emb_states =
      static_cast<double>(spec_.vocab_size) * spec_.hidden_size * per_param;
  const double tokens = static_cast<double>(micro_batch) * spec_.seq_len;
  double nu = 0.0;
  if (stage_index == 1) {
    // Input embedding: states + stashed bf16 embedding outputs per in-flight
    // micro-batch.
    const double emb_act = tokens * 2.0 * spec_.hidden_size;
    nu += emb_states + emb_act * num_stages;
  }
  if (stage_index == num_stages) {
    // LM head: states + chunked logits/grad working set (~1 byte per vocab
    // entry per token amortized thanks to chunking) + final hidden states.
    const double head_act =
        tokens * (2.0 * spec_.hidden_size + 1.0 * spec_.vocab_size);
    nu += emb_states + head_act;
  }
  return nu;
}

double CostModel::GroupCapacityBytes(int group_size,
                                     double min_usable_bytes) const {
  MALLEUS_CHECK_GT(group_size, 0);
  // C_{i,j} = k_{i,j} * (min_X C_X - G); UsableBytes already removes G.
  return group_size * min_usable_bytes * kPlanningMemoryHeadroom;
}

double CostModel::GroupCapacityBytes(int group_size) const {
  return GroupCapacityBytes(group_size,
                            static_cast<double>(gpu_.UsableBytes()));
}

double CostModel::P2pActivationBytes(int micro_batch) const {
  return static_cast<double>(micro_batch) * spec_.seq_len * 2.0 *
         spec_.hidden_size;
}

double CostModel::GradSyncBytesPerLayer() const {
  return 2.0 * static_cast<double>(spec_.ParamsPerLayer());
}

double CostModel::CheckpointBytes() const {
  return kCheckpointBytesPerParam * static_cast<double>(spec_.TotalParams());
}

double CostModel::Mfu(double step_seconds, int global_batch,
                      int num_gpus) const {
  MALLEUS_CHECK_GT(step_seconds, 0.0);
  const double flops = global_batch * spec_.TrainFlopsPerMicroBatch(1);
  return flops / (step_seconds * num_gpus * gpu_.peak_tflops * 1e12);
}

}  // namespace model
}  // namespace malleus
