// Run telemetry: a structured record of an engine run (per-step times,
// re-planning and migration events, failures), with CSV export for the
// Figure-7-style series, a JSONL export of steps plus typed engine events
// (replan / migrate / fail / recover / plan-adopted with plan fingerprint).

#ifndef MALLEUS_CORE_RUN_LOG_H_
#define MALLEUS_CORE_RUN_LOG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/trace_driver.h"

namespace malleus {
namespace core {

/// What kind of engine transition a RunEvent records.
enum class RunEventType {
  kReplan,       ///< The planner produced (and the engine accepted) a plan.
  kMigrate,      ///< Model states moved between GPUs.
  kFail,         ///< A GPU failure interrupted the step.
  kRecover,      ///< Checkpoint reload after a failure.
  kPlanAdopted,  ///< A new plan was installed (carries its fingerprint).
};

/// Stable lowercase name, e.g. "replan"; used by the JSONL export.
const char* RunEventTypeName(RunEventType type);

/// One typed engine event, tied to the step it happened on.
struct RunEvent {
  int64_t step = -1;  ///< Index of the step entry the event derives from.
  RunEventType type = RunEventType::kReplan;
  std::string phase;   ///< Phase label of that step.
  double seconds = 0.0;  ///< Cost attributed to the event (0 if none).
  std::string detail;  ///< Free-form context (engine note etc.).
  std::string plan_signature;  ///< For kPlanAdopted: the plan fingerprint.
};

/// \brief Accumulates StepReports with phase labels.
class RunLog {
 public:
  /// Appends one step's outcome under a phase label (e.g. "S3") and
  /// derives the typed events the report implies (replan, migrate, fail +
  /// recover, plan-adopted).
  void Record(const std::string& phase, const StepReport& report);

  /// One recorded step: its phase label and report.
  struct Entry {
    std::string phase;
    StepReport report;
  };

  int num_steps() const { return static_cast<int>(entries_.size()); }
  const std::vector<Entry>& entries() const { return entries_; }
  const std::vector<RunEvent>& events() const { return events_; }

  /// CSV with header: step,phase,step_seconds,migration_seconds,
  /// recovery_seconds,planning_seconds,replanned,note. Phase and note are
  /// RFC 4180 quoted when they contain commas, quotes or newlines.
  std::string ToCsv() const;

  /// JSONL: one {"kind":"step",...} object per recorded step (in order),
  /// followed by one {"kind":"event",...} object per typed event. Readers
  /// can join events to steps via the "step" index.
  std::string ToJsonl() const;

 private:
  std::vector<Entry> entries_;
  std::vector<RunEvent> events_;
};

}  // namespace core
}  // namespace malleus

#endif  // MALLEUS_CORE_RUN_LOG_H_
