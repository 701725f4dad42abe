#include "core/profiler.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "obs/metrics.h"

namespace malleus {
namespace core {

namespace {

/// Relative change between two consecutive per-GPU estimates that counts
/// as "an obvious shift in the straggling situation" (paper S5.2: 5%).
constexpr double kShiftThreshold = 0.05;

/// Estimates within this relative distance of 1.0 snap to exactly 1.0, so
/// kernel jitter does not masquerade as a straggler.
constexpr double kHealthyBand = 0.03;

/// Straggler estimates are quantized onto a log-scale grid of this relative
/// pitch. Equally-impaired GPUs then report *identical* rates, which both
/// stabilizes shift detection under kernel jitter and preserves the
/// planner's "majority share the same y-hat" structure (Eq. (4) collapses
/// identical groups; see S4.3.2).
constexpr double kRateQuantum = 0.04;

}  // namespace

Profiler::Profiler(int num_gpus, ProfilerOptions options)
    : options_(options),
      estimate_(num_gpus),
      acknowledged_(num_gpus),
      has_sample_(num_gpus, false) {}

void Profiler::Update(topo::GpuId gpu, double normalized) {
  if (estimate_.IsFailed(gpu)) return;  // Only probes can clear failure.
  if (std::fabs(normalized - 1.0) < kHealthyBand) {
    if (normalized != 1.0) {
      obs::MetricsRegistry::Current()
          .GetCounter("profiler.snap_to_healthy")
          ->Increment();
    }
    normalized = 1.0;
  }
  double value = normalized;
  if (has_sample_[gpu]) {
    const double prev = estimate_.rate(gpu);
    value = options_.ema_alpha * normalized +
            (1.0 - options_.ema_alpha) * prev;
    if (std::fabs(value - 1.0) < kHealthyBand) value = 1.0;
  }
  value = std::max(value, 1.0);
  if (value > 1.0) {
    value = std::exp(std::round(std::log(value) / kRateQuantum) *
                     kRateQuantum);
  }
  estimate_.SetRate(gpu, value);
  has_sample_[gpu] = true;
}

void Profiler::RecordStep(const std::vector<double>& measured_rates) {
  MALLEUS_CHECK_EQ(static_cast<int>(measured_rates.size()),
                   estimate_.num_gpus());
  // Normalize by the median positive measurement: the bulk of the fleet is
  // healthy, so the median tracks "nominal" even if the cost model's
  // reference drifts.
  std::vector<double> positive;
  for (double m : measured_rates) {
    if (m > 0) positive.push_back(m);
  }
  if (positive.empty()) return;
  std::nth_element(positive.begin(), positive.begin() + positive.size() / 2,
                   positive.end());
  double median = positive[positive.size() / 2];
  // If the majority of the fleet is straggling, the median itself is a
  // straggler; only trust it as "nominal" when it looks healthy.
  if (median > 1.0 + kHealthyBand || median <= 0) median = 1.0;

  for (int g = 0; g < estimate_.num_gpus(); ++g) {
    if (measured_rates[g] > 0) {
      Update(g, measured_rates[g] / median);
    }
  }
}

void Profiler::RecordProbe(topo::GpuId gpu, double measured_rate) {
  if (measured_rate <= 0) return;
  obs::MetricsRegistry::Current().GetCounter("profiler.probes")->Increment();
  if (estimate_.IsFailed(gpu)) MarkRecovered(gpu);
  Update(gpu, measured_rate);
}

void Profiler::MarkFailed(topo::GpuId gpu) {
  if (!estimate_.IsFailed(gpu)) {
    obs::MetricsRegistry::Current()
        .GetCounter("profiler.failures_marked")
        ->Increment();
  }
  estimate_.Fail(gpu);
  has_sample_[gpu] = true;
}

void Profiler::MarkRecovered(topo::GpuId gpu) {
  estimate_.SetRate(gpu, 1.0);
  has_sample_[gpu] = false;
}

bool Profiler::ShiftDetected() const {
  for (int g = 0; g < estimate_.num_gpus(); ++g) {
    const double now = estimate_.rate(g);
    const double base = acknowledged_.rate(g);
    if (now == base) continue;  // Also covers inf == inf.
    if (std::isinf(now) != std::isinf(base)) return true;
    const double rel = std::fabs(now - base) / base;
    if (rel > kShiftThreshold) return true;
  }
  return false;
}

void Profiler::AcknowledgeShift() { acknowledged_ = estimate_; }

}  // namespace core
}  // namespace malleus
