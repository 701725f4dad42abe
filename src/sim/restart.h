// Cost model of checkpoint-save + restart + checkpoint-load, the recovery
// path of the "w/ Restart" baselines (and of Malleus after GPU failures).

#ifndef MALLEUS_SIM_RESTART_H_
#define MALLEUS_SIM_RESTART_H_

namespace malleus {
namespace sim {

/// Aggregate checkpoint I/O bandwidth per node (GB/s, parallel save/load).
/// Restarts and core::CheckpointIoSeconds both price storage with it.
inline constexpr double kPerNodeIoGbps = 2.0;

struct RestartCostConfig {
  /// Framework re-initialization: process launch, resource allocation,
  /// communication-group construction (paper S7.2 lists this as a major
  /// component of the 199-442 s Megatron restart overhead).
  double framework_init_seconds = 80.0;
};

/// Seconds to save a checkpoint of `checkpoint_bytes`, restart the job, and
/// load it back, with `num_io_nodes` nodes sharing the I/O at
/// kPerNodeIoGbps each.
double RestartSeconds(double checkpoint_bytes, int num_io_nodes,
                      const RestartCostConfig& config = RestartCostConfig());

/// Seconds to restart after a fail-stop (or a migration that died
/// mid-flight): the latest checkpoint already exists and the failed
/// processes' state is unsaveable, so the cost is framework re-init plus
/// one load — NOT RestartSeconds, whose save leg would double-count the
/// checkpoint I/O for state that is already (and only) on disk. Always
/// RestartSeconds minus one load.
double RestartAfterFailureSeconds(
    double checkpoint_bytes, int num_io_nodes,
    const RestartCostConfig& config = RestartCostConfig());

}  // namespace sim
}  // namespace malleus

#endif  // MALLEUS_SIM_RESTART_H_
