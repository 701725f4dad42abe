// Analytic cost model: compute time, TP-degree efficiency, and memory.
//
// This is the profiled information the paper's planner consumes (S4.2):
//   - tau(b):   fwd+bwd time of one layer at group straggling rate 1,
//   - rho_n:    efficiency-degradation coefficient of a TP group of n GPUs,
//   - y:        group straggling rate, y = rho_n * max{x_k} (S4.2),
//   - mu/nu/C:  the memory-constraint coefficients of Appendix B.4.
//
// In the paper these come from profiling real kernels; here they come from a
// roofline model of the same GPU (FLOPs / (peak * kernel-efficiency), with a
// per-TP-degree communication overhead), which preserves every *relative*
// quantity the planner reasons about.

#ifndef MALLEUS_MODEL_COST_MODEL_H_
#define MALLEUS_MODEL_COST_MODEL_H_

#include <vector>

#include "common/result.h"
#include "model/model_spec.h"
#include "topology/cluster.h"

namespace malleus {
namespace model {

/// Bytes per parameter that ZeRO-1 shards across DP ranks (fp32 master
/// weights + Adam moments). Migration and checkpoint volumes use it too.
inline constexpr double kShardedBytesPerParam = 12.0;

/// Compute overhead of re-running the forward pass during backward under
/// activation checkpointing (the estimator and the simulator scale the
/// backward pass by it).
inline constexpr double kAcComputeOverhead = 4.0 / 3.0;

/// The one setting of the analytic model a caller may change. Every other
/// coefficient (kernel efficiency, TP overheads, activation sizes, memory
/// headroom) is a named constant in cost_model.cc.
struct CostModelConfig {
  /// Bytes per parameter that are replicated on every DP rank
  /// (bf16 weights + fp32 gradient-accumulation buffers).
  /// bench_fig10_costmodel sets 4.0 for a bf16-gradient recipe.
  double replicated_bytes_per_param = 6.0;
};

/// \brief Profiled-equivalent cost model for one (model, GPU) pair.
///
/// All "k = 1 perspective" memory quantities follow Appendix B.4: mu/nu are
/// full-layer quantities as seen by a single GPU, and the group capacity is
/// C_{i,j} = k_{i,j} * (min_X C_X - G).
class CostModel {
 public:
  CostModel(ModelSpec spec, topo::GpuSpec gpu,
            CostModelConfig config = CostModelConfig());

  const ModelSpec& spec() const { return spec_; }
  const topo::GpuSpec& gpu() const { return gpu_; }
  const CostModelConfig& config() const { return config_; }

  // ----- Compute time -----

  /// zeta_n(b): fwd+bwd time of one layer with micro-batch b on a TP group
  /// of `tp_degree` healthy GPUs. tp_degree must be a power of two in [1,8].
  double ZetaSeconds(int tp_degree, int micro_batch) const;

  /// rho_n = zeta_n / max_n' zeta_n' (= zeta_n / zeta_1); rho_1 == 1.
  double Rho(int tp_degree) const;

  /// tau(b): per-layer fwd+bwd time at group straggling rate y = 1
  /// (i.e. the TP = 1, non-straggler reference).
  double TauSeconds(int micro_batch) const;

  /// Group straggling rate y = rho_n * max{x_k} for a TP group whose GPUs
  /// have straggling rates `gpu_rates` (S4.2). Empty groups are invalid.
  double GroupRate(const std::vector<double>& gpu_rates) const;

  // ----- Memory ("k = 1 perspective", bytes) -----

  /// s: model states of one full layer (weights + grads + the ZeRO-1 shard
  /// of optimizer states at DP degree `dp_degree`).
  double StateBytesPerLayer(int dp_degree) const;

  /// b * a_f: stashed forward activations of one layer for micro-batch b.
  /// With `activation_ckpt` only layer-boundary tensors stay resident.
  double ActBytesFwd(int micro_batch, bool activation_ckpt = false) const;

  /// b * a_{f+b}: peak fwd+bwd activation memory of one layer.
  double ActBytesFwdBwd(int micro_batch, bool activation_ckpt = false) const;

  /// mu_{i,j}(b): per-layer memory coefficient of the j-th of `num_stages`
  /// stages in 1F1B execution (stage_index is 1-based as in the paper).
  double MuBytes(int micro_batch, int stage_index, int num_stages,
                 int dp_degree, bool activation_ckpt = false) const;

  /// nu_{i,j}(b): layer-independent memory of the stage (embedding table on
  /// the first stage, LM head + logits on the last, 0 elsewhere).
  double NuBytes(int micro_batch, int stage_index, int num_stages,
                 int dp_degree) const;

  /// C_{i,j}: capacity of a group of `group_size` GPUs whose smallest
  /// usable memory is min_usable_bytes (already excludes the reserved gap).
  double GroupCapacityBytes(int group_size, double min_usable_bytes) const;

  /// Convenience: capacity with homogeneous GPUs from the GpuSpec.
  double GroupCapacityBytes(int group_size) const;

  // ----- Communication volumes -----

  /// Bytes of activations sent between consecutive pipeline stages for one
  /// micro-batch (bf16 hidden states).
  double P2pActivationBytes(int micro_batch) const;

  /// Per-layer gradient bytes reduce-scattered across DP (bf16), equal to
  /// the parameter bytes all-gathered back after the update.
  double GradSyncBytesPerLayer() const;

  /// Full checkpoint size (weights + optimizer states).
  double CheckpointBytes() const;

  // ----- Derived metrics -----

  /// Model FLOPs utilization for a measured step time over `num_gpus`.
  double Mfu(double step_seconds, int global_batch, int num_gpus) const;

 private:
  ModelSpec spec_;
  topo::GpuSpec gpu_;
  CostModelConfig config_;
};

/// Returns true iff n is one of the candidate TP degrees {1, 2, 4, 8}.
bool IsValidTpDegree(int n);

}  // namespace model
}  // namespace malleus

#endif  // MALLEUS_MODEL_COST_MODEL_H_
