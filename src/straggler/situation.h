// Straggler modeling: per-GPU straggling rates, the paper's six canonical
// situations (S1-S6), and situation traces.
//
// The paper injects stragglers by launching k in {1,2,3,8} extra compute
// processes on a GPU ("level-k" stragglers). We substitute the processes
// with their measured effect: a straggling rate x = 1 + 1.44 * k, which fits
// every concrete rate the paper reports (level-1: 2.57-2.62, level-2:
// 3.75-3.8, level-3: 5.42, level-8: 12.53; see Table 4 and Appendix B.7).

#ifndef MALLEUS_STRAGGLER_SITUATION_H_
#define MALLEUS_STRAGGLER_SITUATION_H_

#include <limits>
#include <string>
#include <vector>

#include "common/result.h"
#include "topology/cluster.h"

namespace malleus {
namespace straggler {

/// Straggling rate of a GPU running k extra compute processes.
/// Level 0 means not a straggler (rate 1.0).
double RateForLevel(int level);

/// Highest straggler level the x = 1 + 1.44k fit covers (the paper's
/// App. B.7 injects up to k = 8, x = 12.52).
inline constexpr int kMaxFittedLevel = 8;

/// Rate used to mark a completely failed (unresponsive) GPU.
inline constexpr double kFailedRate = std::numeric_limits<double>::infinity();

/// The paper's canonical straggler situations (S7.1).
enum class SituationId {
  kNormal,  ///< No stragglers.
  kS1,      ///< One level-1 straggler.
  kS2,      ///< One level-3 straggler.
  kS3,      ///< One level-1 + one level-3, on different nodes.
  kS4,      ///< Level-1 + level-2 + level-3, on three different nodes.
  kS5,      ///< Eight level-1 on one node + one level-2 on another node.
  kS6,      ///< Eight level-1 on one node.
};

const char* SituationName(SituationId id);

/// \brief A snapshot of the straggler state: one rate per GPU.
///
/// Rates are >= 1.0 for live GPUs; kFailedRate marks a dead GPU.
class Situation {
 public:
  Situation() = default;
  /// All GPUs healthy.
  explicit Situation(int num_gpus) : rates_(num_gpus, 1.0) {}

  /// Builds one of the canonical situations on `cluster`. Stragglers are
  /// placed deterministically: the most severe level on GPU 0, then the
  /// first GPU of each subsequent node (matching the placements implied by
  /// the paper's Table 4 case studies).
  static Result<Situation> Canonical(const topo::ClusterSpec& cluster,
                                     SituationId id);

  int num_gpus() const { return static_cast<int>(rates_.size()); }
  double rate(topo::GpuId gpu) const { return rates_[gpu]; }
  const std::vector<double>& rates() const { return rates_; }

  /// Sets the rate of one GPU.
  void SetRate(topo::GpuId gpu, double rate) { rates_[gpu] = rate; }
  /// Sets the rate of one GPU from a straggler level.
  void SetLevel(topo::GpuId gpu, int level) {
    rates_[gpu] = RateForLevel(level);
  }
  /// Marks a GPU as failed.
  void Fail(topo::GpuId gpu) { rates_[gpu] = kFailedRate; }

  bool IsStraggler(topo::GpuId gpu) const { return rates_[gpu] > 1.0 + 1e-9; }
  bool IsFailed(topo::GpuId gpu) const {
    return rates_[gpu] == kFailedRate;
  }

  /// Ids of all GPUs with rate > 1.
  std::vector<topo::GpuId> Stragglers() const;

  /// Theoretic-optimum slowdown ratio N / ((N - n) + sum 1/x_i) from S7.2:
  /// the best achievable time-with-stragglers over time-without, if capacity
  /// were perfectly divisible.
  double TheoreticSlowdown() const;

  std::string ToString() const;

 private:
  std::vector<double> rates_;
};

/// One phase of a trace: hold `situation` for `steps` training iterations.
struct TracePhase {
  SituationId id = SituationId::kNormal;
  int steps = 10;
};

/// The end-to-end evaluation trace from Figure 7:
/// Normal -> S1 -> S2 -> S3 -> S4 -> S5 -> S6 -> Normal.
std::vector<TracePhase> StandardTrace(int steps_per_phase = 10);

}  // namespace straggler
}  // namespace malleus

#endif  // MALLEUS_STRAGGLER_SITUATION_H_
