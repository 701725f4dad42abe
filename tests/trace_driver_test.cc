// Tests for core::Drive, the one trace driver: a phase timeline and the
// event timeline of an equivalent trace drive a framework identically, a
// failed step stops the drive with the ledger kept up to it, and a
// framework that advances segment-wise fills the same ledger; and for
// ChargeReplanning, the one re-plan overflow rule.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/string_util.h"
#include "core/trace_driver.h"
#include "policy/events.h"
#include "straggler/situation.h"

namespace malleus {
namespace core {
namespace {

// Deterministic framework on `num_gpus` healthy GPUs: a step costs 1 s
// plus half a second per unit of excess straggling rate, and a change to a
// different situation costs a 2 s migration. Optionally fails the step at
// iteration `fail_at`.
class FakeFramework : public TrainingFramework {
 public:
  explicit FakeFramework(int num_gpus, int64_t fail_at = -1)
      : fail_at_(fail_at), last_(num_gpus) {}

  std::string name() const override { return "fake"; }
  Status Initialize(int64_t /*global_batch*/) override { return Status::OK(); }

  Result<StepReport> OnSituationChange(
      const straggler::Situation& situation) override {
    StepReport report;
    if (situation.rates() != last_.rates()) report.migration_seconds = 2.0;
    last_ = situation;
    return report;
  }

  Result<StepReport> Step(const straggler::Situation& situation) override {
    if (iteration_ == fail_at_) {
      return Status::Unavailable("injected failure");
    }
    StepReport report;
    report.step_seconds = StepSecondsOf(situation);
    report.note =
        StrFormat("iteration %lld", static_cast<long long>(iteration_));
    ++iteration_;
    return report;
  }

  static double StepSecondsOf(const straggler::Situation& situation) {
    double seconds = 1.0;
    for (double rate : situation.rates()) seconds += 0.5 * (rate - 1.0);
    return seconds;
  }

 private:
  int64_t fail_at_;
  int64_t iteration_ = 0;
  straggler::Situation last_;
};

// The same framework, advancing each segment as one report.
class SegmentFramework : public FakeFramework {
 public:
  using FakeFramework::FakeFramework;
  Status Advance(const straggler::Situation& situation, int64_t iterations,
                 std::vector<StepReport>* reports) override {
    StepReport report;
    report.step_seconds =
        StepSecondsOf(situation) * static_cast<double>(iterations);
    reports->push_back(report);
    return Status::OK();
  }
};

class TraceDriverTest : public ::testing::Test {
 protected:
  // Normal for 3 iterations, S1 (one level-1 straggler on GPU 0) for 4,
  // then Normal for 2.
  std::vector<straggler::TracePhase> Phases() const {
    return {{straggler::SituationId::kNormal, 3},
            {straggler::SituationId::kS1, 4},
            {straggler::SituationId::kNormal, 2}};
  }

  // The same timeline as cluster events from an all-healthy start.
  policy::EventTrace Events() const {
    policy::EventTrace trace;
    trace.iterations = 9;
    policy::ClusterEvent straggle;
    straggle.iteration = 3;
    straggle.kind = policy::EventKind::kStraggle;
    straggle.gpu = 0;
    straggle.level = 1;
    straggle.rate = straggler::RateForLevel(1);
    policy::ClusterEvent recover;
    recover.iteration = 7;
    recover.kind = policy::EventKind::kRecover;
    recover.gpu = 0;
    trace.events = {straggle, recover};
    return trace;
  }

  topo::ClusterSpec cluster_ = topo::ClusterSpec::A800Cluster(4);
};

std::vector<StepReport> AllSteps(const DriveResult& drive) {
  std::vector<StepReport> steps;
  for (const DrivenSegment& segment : drive.segments) {
    steps.insert(steps.end(), segment.steps.begin(), segment.steps.end());
  }
  return steps;
}

void ExpectSameLedger(const DriveResult& a, const DriveResult& b) {
  EXPECT_EQ(a.iterations_run, b.iterations_run);
  EXPECT_EQ(a.training_seconds, b.training_seconds);
  EXPECT_EQ(a.transition_seconds, b.transition_seconds);
  EXPECT_EQ(a.wall_seconds, b.wall_seconds);
  EXPECT_EQ(a.goodput, b.goodput);
  EXPECT_EQ(a.stop.ToString(), b.stop.ToString());
}

TEST_F(TraceDriverTest, PhaseAndEventTimelinesDriveIdentically) {
  Result<Timeline> phases = PhaseTimeline(cluster_, Phases());
  ASSERT_TRUE(phases.ok()) << phases.status();
  const Timeline events = policy::EventTimeline(
      cluster_, straggler::Situation(cluster_.num_gpus()), Events());
  ASSERT_EQ(phases->iterations, events.iterations);

  // The phase timeline also changes to Normal at iteration 0, which is
  // free for the fake, as for a framework that keeps its plan.
  FakeFramework by_phase(cluster_.num_gpus());
  FakeFramework by_event(cluster_.num_gpus());
  const DriveResult a = Drive(&by_phase, *phases, /*healthy=*/1.0);
  const DriveResult b = Drive(&by_event, events, /*healthy=*/1.0);

  ASSERT_TRUE(a.stop.ok()) << a.stop;
  const std::vector<StepReport> a_steps = AllSteps(a);
  const std::vector<StepReport> b_steps = AllSteps(b);
  ASSERT_EQ(a_steps.size(), 9u);
  ASSERT_EQ(a_steps.size(), b_steps.size());
  for (size_t i = 0; i < a_steps.size(); ++i) {
    EXPECT_EQ(a_steps[i].step_seconds, b_steps[i].step_seconds) << i;
    EXPECT_EQ(a_steps[i].note, b_steps[i].note) << i;
  }
  ExpectSameLedger(a, b);
  EXPECT_EQ(a.iterations_run, 9);
  // Five healthy 1 s steps and four straggling ones.
  EXPECT_DOUBLE_EQ(a.training_seconds,
                   5.0 + 4.0 * FakeFramework::StepSecondsOf(
                                   events.changes[0].situation));
  EXPECT_DOUBLE_EQ(a.transition_seconds, 4.0);  // Two 2 s migrations.
  EXPECT_DOUBLE_EQ(a.wall_seconds, a.training_seconds + 4.0);
  EXPECT_DOUBLE_EQ(a.goodput, 9.0 / a.wall_seconds);
}

TEST_F(TraceDriverTest, FailedStepStopsTheDriveAtItsIteration) {
  Result<Timeline> timeline = PhaseTimeline(cluster_, Phases());
  ASSERT_TRUE(timeline.ok()) << timeline.status();
  FakeFramework framework(cluster_.num_gpus(), /*fail_at=*/5);
  const DriveResult drive = Drive(&framework, *timeline, /*healthy=*/1.0);

  ASSERT_FALSE(drive.stop.ok());
  EXPECT_TRUE(drive.stop.IsUnavailable()) << drive.stop;
  EXPECT_NE(drive.stop.message().find("iteration 5"), std::string::npos)
      << drive.stop;
  EXPECT_NE(drive.stop.message().find("injected failure"), std::string::npos)
      << drive.stop;
  // The ledger keeps iterations 0-4: three healthy, two straggling.
  EXPECT_EQ(drive.iterations_run, 5);
  EXPECT_EQ(AllSteps(drive).size(), 5u);
  const double straggling =
      FakeFramework::StepSecondsOf(timeline->changes[1].situation);
  EXPECT_DOUBLE_EQ(drive.training_seconds, 3.0 + 2.0 * straggling);
  // Normal -> S1 was paid; the later S1 -> Normal change was never reached.
  ASSERT_EQ(drive.segments.size(), 3u);  // The initial one, Normal, S1.
  EXPECT_EQ(drive.segments[2].steps.size(), 2u);
  EXPECT_DOUBLE_EQ(drive.transition_seconds, 2.0);
  EXPECT_DOUBLE_EQ(drive.wall_seconds,
                   drive.training_seconds + drive.transition_seconds);
}

TEST_F(TraceDriverTest, SegmentReportsFillTheSameLedger) {
  Result<Timeline> timeline = PhaseTimeline(cluster_, Phases());
  ASSERT_TRUE(timeline.ok()) << timeline.status();
  FakeFramework stepwise(cluster_.num_gpus());
  SegmentFramework segmented(cluster_.num_gpus());
  const DriveResult a = Drive(&stepwise, *timeline, /*healthy=*/1.0);
  const DriveResult b = Drive(&segmented, *timeline, /*healthy=*/1.0);
  ASSERT_TRUE(b.stop.ok()) << b.stop;
  EXPECT_EQ(AllSteps(b).size(), 3u);  // One report per phase.
  EXPECT_EQ(b.iterations_run, a.iterations_run);
  EXPECT_NEAR(b.training_seconds, a.training_seconds, 1e-12);
  EXPECT_EQ(b.transition_seconds, a.transition_seconds);
  EXPECT_NEAR(b.goodput, a.goodput, 1e-12);
}

TEST(ChargeReplanningTest, OnlyPlanningBeyondTheOverlappedStepStalls) {
  StepReport hidden;
  ChargeReplanning(/*planning_seconds=*/0.5, /*overlapped_step_seconds=*/2.0,
                   &hidden);
  EXPECT_TRUE(hidden.replanned);
  EXPECT_EQ(hidden.planning_seconds, 0.5);
  EXPECT_EQ(hidden.planning_overflow_seconds, 0.0);

  StepReport longer;
  ChargeReplanning(3.0, 2.0, &longer);
  EXPECT_EQ(longer.planning_seconds, 3.0);
  EXPECT_EQ(longer.planning_overflow_seconds, 1.0);

  // No step runs while the planner works: the whole planning time stalls.
  StepReport stopped;
  stopped.migration_seconds = 1.5;
  ChargeReplanning(0.5, 0.0, &stopped);
  EXPECT_EQ(stopped.planning_overflow_seconds, 0.5);
  EXPECT_EQ(stopped.TransitionSeconds(), 2.0);
  EXPECT_EQ(stopped.TotalSeconds(), stopped.TransitionSeconds());
}

TEST_F(TraceDriverTest, PhaseTimelineRejectsPhasesWithoutSteps) {
  Result<Timeline> timeline =
      PhaseTimeline(cluster_, {{straggler::SituationId::kNormal, 2},
                               {straggler::SituationId::kS1, 0}});
  ASSERT_FALSE(timeline.ok());
  EXPECT_TRUE(timeline.status().IsInvalidArgument()) << timeline.status();
}

}  // namespace
}  // namespace core
}  // namespace malleus
