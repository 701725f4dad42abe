// Tests for core/run_log: aggregation, phase means, and CSV/JSONL export.

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "core/run_log.h"
#include "serve/json.h"

namespace malleus {
namespace core {
namespace {

StepReport MakeReport(double step, double migration = 0.0,
                      double recovery = 0.0, bool replanned = false) {
  StepReport r;
  r.step_seconds = step;
  r.migration_seconds = migration;
  r.recovery_seconds = recovery;
  r.replanned = replanned;
  return r;
}

TEST(RunLogTest, EmptySummary) {
  RunLog log;
  const RunLog::Summary s = log.Summarize();
  EXPECT_EQ(s.steps, 0);
  EXPECT_DOUBLE_EQ(s.TotalSeconds(), 0.0);
  EXPECT_DOUBLE_EQ(s.Efficiency(), 1.0);
  EXPECT_DOUBLE_EQ(log.PhaseMeanSeconds("S1"), 0.0);
}

TEST(RunLogTest, SummaryAggregates) {
  RunLog log;
  log.Record("Normal", MakeReport(10.0));
  log.Record("S1", MakeReport(20.0, 2.0, 0.0, true));
  log.Record("S1", MakeReport(12.0));
  log.Record("S1", MakeReport(12.0, 0.0, 50.0, true));
  const RunLog::Summary s = log.Summarize();
  EXPECT_EQ(s.steps, 4);
  EXPECT_EQ(s.replans, 2);
  EXPECT_EQ(s.recoveries, 1);
  EXPECT_DOUBLE_EQ(s.training_seconds, 54.0);
  EXPECT_DOUBLE_EQ(s.migration_seconds, 2.0);
  EXPECT_DOUBLE_EQ(s.recovery_seconds, 50.0);
  EXPECT_DOUBLE_EQ(s.TotalSeconds(), 106.0);
  EXPECT_NEAR(s.Efficiency(), 54.0 / 106.0, 1e-12);
}

TEST(RunLogTest, PhaseMeans) {
  RunLog log;
  log.Record("Normal", MakeReport(10.0));
  log.Record("S1", MakeReport(20.0));
  log.Record("S1", MakeReport(10.0));
  EXPECT_DOUBLE_EQ(log.PhaseMeanSeconds("Normal"), 10.0);
  EXPECT_DOUBLE_EQ(log.PhaseMeanSeconds("S1"), 15.0);
}

TEST(RunLogTest, CsvFormat) {
  RunLog log;
  log.Record("S2", MakeReport(1.5, 0.25, 0.0, true));
  const std::string csv = log.ToCsv();
  EXPECT_NE(csv.find("step,phase,step_seconds"), std::string::npos);
  EXPECT_NE(csv.find("0,S2,1.5000,0.2500,0.0000,0.0000,1"), std::string::npos);
}

TEST(RunLogTest, CsvEscapesPhaseAndNotePerRfc4180) {
  RunLog log;
  StepReport r = MakeReport(1.0);
  r.note = "shift, then \"snap\"\nline2";
  log.Record("S1,custom", r);
  const std::string csv = log.ToCsv();
  // Comma-bearing phase is quoted; note doubles embedded quotes and keeps
  // the newline inside the quoted field.
  EXPECT_NE(csv.find("\"S1,custom\""), std::string::npos) << csv;
  EXPECT_NE(csv.find("\"shift, then \"\"snap\"\"\nline2\""),
            std::string::npos)
      << csv;
  // The header gained the note column.
  EXPECT_NE(csv.find("replanned,note"), std::string::npos);
  // Plain fields stay unquoted.
  log = RunLog();
  log.Record("Normal", MakeReport(2.0));
  EXPECT_EQ(log.ToCsv().find('"'), std::string::npos);
}

TEST(RunLogTest, DerivesTypedEvents) {
  RunLog log;
  log.Record("Normal", MakeReport(10.0));  // no events
  StepReport replan = MakeReport(20.0, 2.0, 0.0, true);
  replan.plan_signature = "dp2[tp4pp4]";
  replan.note = "straggler shift";
  log.Record("S1", replan);
  StepReport fail = MakeReport(12.0, 0.0, 50.0, true);
  log.Record("S3", fail);

  const std::vector<RunEvent>& ev = log.events();
  ASSERT_EQ(ev.size(), 6u);
  // Step 1: replan + plan-adopted + migrate.
  EXPECT_EQ(ev[0].type, RunEventType::kReplan);
  EXPECT_EQ(ev[0].step, 1);
  EXPECT_EQ(ev[0].phase, "S1");
  EXPECT_EQ(ev[0].detail, "straggler shift");
  EXPECT_EQ(ev[1].type, RunEventType::kPlanAdopted);
  EXPECT_EQ(ev[1].plan_signature, "dp2[tp4pp4]");
  EXPECT_EQ(ev[2].type, RunEventType::kMigrate);
  EXPECT_DOUBLE_EQ(ev[2].seconds, 2.0);
  // Step 2: fail + recover, then the post-recovery replan.
  EXPECT_EQ(ev[3].type, RunEventType::kFail);
  EXPECT_EQ(ev[4].type, RunEventType::kRecover);
  EXPECT_DOUBLE_EQ(ev[4].seconds, 50.0);
  EXPECT_EQ(ev[5].type, RunEventType::kReplan);
}

TEST(RunLogTest, JsonlHasStepAndEventLines) {
  RunLog log;
  log.Record("Normal", MakeReport(10.0));
  StepReport replan = MakeReport(20.0, 2.0, 0.0, true);
  replan.plan_signature = "sig-1";
  log.Record("S1", replan);

  const std::string jsonl = log.ToJsonl();
  // One line per step plus one line per derived event, all joinable on
  // "step".
  size_t lines = 0;
  for (char c : jsonl) lines += (c == '\n');
  EXPECT_EQ(lines, 2u + log.events().size());
  EXPECT_NE(jsonl.find("\"kind\":\"step\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"kind\":\"event\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"type\":\"replan\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"type\":\"plan_adopted\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"plan_signature\":\"sig-1\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"replanned\":true"), std::string::npos);
}

TEST(RunLogTest, JsonlRendersNonFiniteSecondsAsNull) {
  RunLog log;
  StepReport report = MakeReport(1.5, 0.0, 0.0, true);
  report.planning_seconds = std::numeric_limits<double>::infinity();
  log.Record("S1", report);
  const std::string jsonl = log.ToJsonl();
  // One step line, then the replan event that carries planning_seconds.
  const size_t newline = jsonl.find('\n');
  ASSERT_NE(newline, std::string::npos);
  Result<serve::JsonValue> step =
      serve::JsonValue::Parse(jsonl.substr(0, newline));
  ASSERT_TRUE(step.ok()) << step.status().ToString();
  EXPECT_TRUE(step->Find("planning_seconds")->is_null());
  EXPECT_EQ(step->Find("step_seconds")->number(), 1.5);
  Result<serve::JsonValue> event = serve::JsonValue::Parse(
      jsonl.substr(newline + 1, jsonl.size() - newline - 2));
  ASSERT_TRUE(event.ok()) << event.status().ToString();
  EXPECT_EQ(event->Find("type")->string_value(), "replan");
  EXPECT_TRUE(event->Find("seconds")->is_null());
}

TEST(RunLogTest, IntegratesWithEngine) {
  const topo::ClusterSpec cluster = topo::ClusterSpec::A800Cluster(2);
  const model::CostModel cost(model::ModelSpec::Llama32B(),
                              cluster.gpu());
  MalleusEngine engine(cluster, cost);
  ASSERT_TRUE(engine.Initialize(64).ok());
  RunLog log;
  straggler::Situation healthy(cluster.num_gpus());
  straggler::Situation s1(cluster.num_gpus());
  s1.SetLevel(0, 1);
  for (int i = 0; i < 3; ++i) {
    log.Record("Normal", *engine.Step(healthy));
  }
  for (int i = 0; i < 3; ++i) {
    log.Record("S1", *engine.Step(s1));
  }
  const RunLog::Summary s = log.Summarize();
  EXPECT_EQ(s.steps, 6);
  EXPECT_GE(s.replans, 1);
  EXPECT_GT(log.PhaseMeanSeconds("S1"), 0.0);
  EXPECT_LT(s.Efficiency(), 1.0 + 1e-12);
}

}  // namespace
}  // namespace core
}  // namespace malleus
