// Aggregates of a core::RunLog for tests: step counts, the seconds of
// each ledger term, and per-phase mean step times.

#ifndef MALLEUS_TESTKIT_RUN_SUMMARY_H_
#define MALLEUS_TESTKIT_RUN_SUMMARY_H_

#include <string>

#include "core/run_log.h"

namespace malleus {
namespace testkit {

/// Aggregates of a recorded run.
struct RunSummary {
  int steps = 0;
  int replans = 0;
  int recoveries = 0;
  double training_seconds = 0.0;
  double migration_seconds = 0.0;
  double recovery_seconds = 0.0;
  double planning_overflow_seconds = 0.0;
  /// Everything the run spent, transitions included.
  double TotalSeconds() const {
    return training_seconds + migration_seconds + recovery_seconds +
           planning_overflow_seconds;
  }
  /// Fraction of wall time spent training (vs transition overheads).
  double Efficiency() const {
    const double total = TotalSeconds();
    return total > 0 ? training_seconds / total : 1.0;
  }
};

/// Sums the reports of every step `log` recorded.
RunSummary Summarize(const core::RunLog& log);

/// Mean step_seconds over the steps `log` recorded for `phase`; 0 when
/// there are none.
double PhaseMeanSeconds(const core::RunLog& log, const std::string& phase);

}  // namespace testkit
}  // namespace malleus

#endif  // MALLEUS_TESTKIT_RUN_SUMMARY_H_
