// The profiler (paper S3.2, S5.2): turns per-GPU timing measurements into
// straggling-rate estimates, detects shifts greater than 5% between
// consecutive estimates, tracks failures, and keeps probing standby devices
// so they can be re-included when they recover.

#ifndef MALLEUS_CORE_PROFILER_H_
#define MALLEUS_CORE_PROFILER_H_

#include <vector>

#include "straggler/situation.h"
#include "topology/cluster.h"

namespace malleus {
namespace core {

/// The shift threshold (the paper's 5%), the healthy band and the rate
/// quantum are named constants in profiler.cc; only the smoothing factor
/// is settable.
struct ProfilerOptions {
  /// Exponential smoothing factor for new measurements. The default of 1
  /// (no smoothing) matches the paper's consecutive-iteration comparison;
  /// the healthy band (profiler.cc) absorbs kernel jitter instead.
  double ema_alpha = 1.0;
};

/// \brief Online estimator of per-GPU straggling rates.
///
/// Measurements arrive normalized to "kernel time relative to nominal"
/// (what CUDA-event timing divided by the profiled healthy time gives);
/// the profiler re-normalizes by the median so a fleet-wide drift does not
/// read as universal straggling, smooths with an EMA, and snaps healthy
/// devices to exactly 1.0.
class Profiler {
 public:
  Profiler(int num_gpus, ProfilerOptions options = ProfilerOptions());

  /// Records one training step's measurements; entries <= 0 mean "no
  /// measurement for this GPU this step" (idle or standby).
  void RecordStep(const std::vector<double>& measured_rates);

  /// Records a standby-device micro-benchmark (S5.2 elastic scaling).
  void RecordProbe(topo::GpuId gpu, double measured_rate);

  /// Marks a device unresponsive (straggling rate = infinity).
  void MarkFailed(topo::GpuId gpu);

  /// Clears the failed flag once the device answers probes again.
  void MarkRecovered(topo::GpuId gpu);

  /// The current best estimate of the straggler situation.
  const straggler::Situation& Estimated() const { return estimate_; }

  /// True iff any GPU's estimate moved more than the shift threshold since
  /// the last AcknowledgeShift() (i.e. since the last re-planning).
  bool ShiftDetected() const;

  /// Accepts the current estimate as the new planning baseline.
  void AcknowledgeShift();

 private:
  void Update(topo::GpuId gpu, double normalized);

  ProfilerOptions options_;
  straggler::Situation estimate_;
  straggler::Situation acknowledged_;
  std::vector<bool> has_sample_;
};

}  // namespace core
}  // namespace malleus

#endif  // MALLEUS_CORE_PROFILER_H_
