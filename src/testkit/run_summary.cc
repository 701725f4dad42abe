#include "testkit/run_summary.h"

namespace malleus {
namespace testkit {

RunSummary Summarize(const core::RunLog& log) {
  RunSummary s;
  for (const core::RunLog::Entry& e : log.entries()) {
    ++s.steps;
    if (e.report.replanned) ++s.replans;
    if (e.report.recovery_seconds > 0) ++s.recoveries;
    s.training_seconds += e.report.step_seconds;
    s.migration_seconds += e.report.migration_seconds;
    s.recovery_seconds += e.report.recovery_seconds;
    s.planning_overflow_seconds += e.report.planning_overflow_seconds;
  }
  return s;
}

double PhaseMeanSeconds(const core::RunLog& log, const std::string& phase) {
  double sum = 0.0;
  int count = 0;
  for (const core::RunLog::Entry& e : log.entries()) {
    if (e.phase == phase) {
      sum += e.report.step_seconds;
      ++count;
    }
  }
  return count > 0 ? sum / count : 0.0;
}

}  // namespace testkit
}  // namespace malleus
