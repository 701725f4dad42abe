#include "core/run_log.h"

#include "common/string_util.h"

namespace malleus {
namespace core {

const char* RunEventTypeName(RunEventType type) {
  switch (type) {
    case RunEventType::kReplan:
      return "replan";
    case RunEventType::kMigrate:
      return "migrate";
    case RunEventType::kFail:
      return "fail";
    case RunEventType::kRecover:
      return "recover";
    case RunEventType::kPlanAdopted:
      return "plan_adopted";
  }
  return "?";
}

void RunLog::Record(const std::string& phase, const StepReport& report) {
  const int64_t step = static_cast<int64_t>(entries_.size());
  entries_.push_back({phase, report});

  // A recovery implies the step was interrupted by a failure first.
  if (report.recovery_seconds > 0) {
    events_.push_back(
        {step, RunEventType::kFail, phase, 0.0, report.note, ""});
    events_.push_back({step, RunEventType::kRecover, phase,
                       report.recovery_seconds, report.note, ""});
  }
  if (report.replanned) {
    events_.push_back({step, RunEventType::kReplan, phase,
                       report.planning_seconds, report.note, ""});
    if (!report.plan_signature.empty()) {
      events_.push_back({step, RunEventType::kPlanAdopted, phase, 0.0,
                         report.note, report.plan_signature});
    }
  }
  if (report.migration_seconds > 0) {
    events_.push_back({step, RunEventType::kMigrate, phase,
                       report.migration_seconds, report.note, ""});
  }
}

void RunLog::RecordEvent(RunEvent event) {
  events_.push_back(std::move(event));
}

RunLog::Summary RunLog::Summarize() const {
  Summary s;
  for (const Entry& e : entries_) {
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

double RunLog::PhaseMeanSeconds(const std::string& phase) const {
  double sum = 0.0;
  int count = 0;
  for (const Entry& e : entries_) {
    if (e.phase == phase) {
      sum += e.report.step_seconds;
      ++count;
    }
  }
  return count > 0 ? sum / count : 0.0;
}

std::string RunLog::ToCsv() const {
  std::string out =
      "step,phase,step_seconds,migration_seconds,recovery_seconds,"
      "planning_seconds,replanned,note\n";
  for (size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    out += StrFormat("%zu,%s,%.4f,%.4f,%.4f,%.4f,%d,%s\n", i,
                     CsvEscape(e.phase).c_str(), e.report.step_seconds,
                     e.report.migration_seconds, e.report.recovery_seconds,
                     e.report.planning_seconds, e.report.replanned ? 1 : 0,
                     CsvEscape(e.report.note).c_str());
  }
  return out;
}

std::string RunLog::ToJsonl() const {
  std::string out;
  for (size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    const StepReport& r = e.report;
    JsonWriter w;
    w.BeginObject().Key("kind").String("step").Key("step").Uint(i);
    w.Key("phase").String(e.phase);
    w.Key("step_seconds").Fixed(r.step_seconds, 6);
    w.Key("migration_seconds").Fixed(r.migration_seconds, 6);
    w.Key("recovery_seconds").Fixed(r.recovery_seconds, 6);
    w.Key("planning_seconds").Fixed(r.planning_seconds, 6);
    w.Key("planning_overflow_seconds").Fixed(r.planning_overflow_seconds, 6);
    w.Key("replanned").Bool(r.replanned).Key("note").String(r.note);
    out += w.EndObject().str() + "\n";
  }
  for (const RunEvent& ev : events_) {
    JsonWriter w;
    w.BeginObject().Key("kind").String("event").Key("step").Int(ev.step);
    w.Key("type").String(RunEventTypeName(ev.type));
    w.Key("phase").String(ev.phase).Key("seconds").Fixed(ev.seconds, 6);
    w.Key("detail").String(ev.detail);
    if (!ev.plan_signature.empty()) {
      w.Key("plan_signature").String(ev.plan_signature);
    }
    out += w.EndObject().str() + "\n";
  }
  return out;
}

}  // namespace core
}  // namespace malleus
