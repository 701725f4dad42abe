#include "core/engine.h"

#include <algorithm>
#include <set>

#include "common/logging.h"
#include "common/string_util.h"
#include "core/checkpoint.h"
#include "lint/lint.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace malleus {
namespace core {

namespace {

// The engine refuses plans carrying error-level diagnostics and logs the
// rest: warnings are real findings (wasted capacity, razor-edge memory)
// but the plan is executable, so they must not stop training.
Status GatePlanDiagnostics(const lint::DiagnosticSink& sink,
                           const char* origin) {
  const lint::Diagnostic* first_error = nullptr;
  for (const lint::Diagnostic& d : sink.diagnostics()) {
    if (d.severity == lint::Severity::kError) {
      MALLEUS_LOG(Error) << origin << ": " << d.ToString();
      if (first_error == nullptr) first_error = &d;
    } else {
      MALLEUS_LOG(Warning) << origin << ": " << d.ToString();
    }
  }
  if (first_error != nullptr) {
    obs::MetricsRegistry::Current()
        .GetCounter("engine.plans_refused")
        ->Increment();
    return Status::InvalidArgument(
        StrFormat("%s: plan refused, %d lint error(s), first: %s", origin,
                  sink.num_errors(), first_error->ToString().c_str()));
  }
  return Status::OK();
}

// Transition spans/instants go on a dedicated engine track so re-planning
// and migration overheads are visible next to the per-stage timelines.
obs::TrackId EngineTrack(obs::TraceRecorder* trace) {
  return trace->Track("engine", "transitions");
}

}  // namespace

MalleusEngine::MalleusEngine(const topo::ClusterSpec& cluster,
                             const model::CostModel& cost,
                             EngineOptions options, Observer observer,
                             EngineActor* actor)
    : cluster_(cluster),
      cost_(cost),
      options_(options),
      observer_(observer),
      actor_(actor),
      planner_(cluster, cost),
      executor_(cluster, cost, options.sim.net_model),
      profiler_(cluster.num_gpus()),
      rng_(options.seed) {}

Status MalleusEngine::Initialize(int64_t global_batch) {
  global_batch_ = global_batch;
  const straggler::Situation healthy(cluster_.num_gpus());
  Result<PlanResult> initial =
      planner_.Plan(healthy, global_batch, options_.planner);
  MALLEUS_RETURN_NOT_OK(initial.status());
  MALLEUS_RETURN_NOT_OK(
      GatePlanDiagnostics(initial->diagnostics, "initial plan"));
  MALLEUS_RETURN_NOT_OK(executor_.Install(std::move(initial->plan)));
  profiler_.AcknowledgeShift();
  return Status::OK();
}

Status MalleusEngine::InitializeWithPlan(plan::ParallelPlan p) {
  global_batch_ = p.global_batch;
  // User-provided plans get the full treatment: structural checks (no
  // situation yet, so quality passes are skipped) plus the event-graph
  // audit. Error-level findings refuse the plan before Install.
  lint::DiagnosticSink diagnostics;
  lint::LintPlan(p, cluster_, cost_, /*situation=*/nullptr, &diagnostics);
  lint::LintEventGraph(p, &diagnostics);
  lint::RecordDiagnosticMetrics(diagnostics);
  MALLEUS_RETURN_NOT_OK(
      GatePlanDiagnostics(diagnostics, "user-provided plan"));
  MALLEUS_RETURN_NOT_OK(executor_.Install(std::move(p)));
  profiler_.AcknowledgeShift();
  return Status::OK();
}

std::vector<topo::GpuId> MalleusEngine::ProbedGpus() const {
  if (observer_ == Observer::kTruth) return {};
  std::set<topo::GpuId> active;
  for (topo::GpuId g : executor_.current_plan().ActiveGpus()) {
    active.insert(g);
  }
  std::vector<topo::GpuId> out;
  for (topo::GpuId g : cluster_.AllGpus()) {
    if (active.count(g) == 0) out.push_back(g);
  }
  return out;
}

Result<PlanResult> MalleusEngine::Replan(
    const straggler::Situation& situation, PlannerOptions options) const {
  options.dp_degree = executor_.current_plan().dp_degree();
  return planner_.Replan(situation, global_batch_, options);
}

Result<double> MalleusEngine::PriceStep(
    const plan::ParallelPlan& p, const straggler::Situation& situation) const {
  sim::SimOptions sim = options_.sim;
  sim.timing_noise_stddev = 0.0;
  sim.trace = nullptr;
  Rng rng(options_.seed);  // Draws nothing that matters: no noise.
  MALLEUS_ASSIGN_OR_RETURN(
      sim::StepResult step,
      sim::SimulateStep(cluster_, cost_, p, situation, sim, &rng));
  return step.step_seconds;
}

Result<EngineMove> MalleusEngine::ReplanMove(
    const straggler::Situation& observed,
    double installed_step_seconds) const {
  MALLEUS_ASSIGN_OR_RETURN(PlanResult planned,
                           Replan(observed, options_.planner));
  // A refused plan surfaces as a planning failure: the caller keeps
  // training on the current plan (Step) or aborts recovery.
  MALLEUS_RETURN_NOT_OK(GatePlanDiagnostics(planned.diagnostics, "re-plan"));
  EngineMove move{std::move(planned.plan), false, {}};
  // Asynchronous re-planning (S5.3): the search overlaps the installed
  // plan's step; a failure halts training, so nothing overlaps it.
  const double planning = options_.planning_seconds_override >= 0
                              ? options_.planning_seconds_override
                              : planned.timings.total_seconds;
  ChargeReplanning(planning, installed_step_seconds, &move.report);
  if (installed_step_seconds > 0.0) {
    MALLEUS_ASSIGN_OR_RETURN(const MigrationReport price,
                             executor_.PriceMigration(move.plan));
    move.report.note =
        price.no_op ? "re-planned; plan unchanged"
                    : StrFormat("migrated %s in %d transfers",
                                FormatBytes(static_cast<uint64_t>(
                                    price.bytes)).c_str(),
                                price.num_transfers);
    return move;
  }
  // Each GPU of the new plan reads exactly the slices it will own.
  MALLEUS_ASSIGN_OR_RETURN(const CheckpointIoPlan load,
                           PlanCheckpointLoad(move.plan, cost_));
  move.reload = true;
  move.report.recovery_seconds = CheckpointIoSeconds(load, cluster_);
  move.report.note = "recovered from GPU failure via checkpoint reload";
  return move;
}

Result<StepReport> MalleusEngine::Act(const straggler::Situation& observed,
                                      double installed_step_seconds) {
  MALLEUS_ASSIGN_OR_RETURN(
      EngineMove move,
      actor_ != nullptr ? actor_->Act(*this, observed, installed_step_seconds)
                        : ReplanMove(observed, installed_step_seconds));
  StepReport report = std::move(move.report);
  const std::string before = executor_.current_plan().Signature();
  if (move.reload) {
    MALLEUS_RETURN_NOT_OK(executor_.Reload(std::move(move.plan)));
  } else {
    MALLEUS_ASSIGN_OR_RETURN(const MigrationReport migrated,
                             executor_.Migrate(std::move(move.plan)));
    report.migration_seconds = migrated.seconds;
  }
  std::string after = executor_.current_plan().Signature();
  if (after != before) report.plan_signature = std::move(after);
  return report;
}

Result<StepReport> MalleusEngine::RecoverFromFailure(
    const straggler::Situation& truth) {
  for (topo::GpuId g : executor_.current_plan().ActiveGpus()) {
    if (truth.IsFailed(g)) profiler_.MarkFailed(g);
  }
  MALLEUS_ASSIGN_OR_RETURN(StepReport report, Act(profiler_.Estimated(), 0.0));
  profiler_.AcknowledgeShift();

  auto& registry = obs::MetricsRegistry::Current();
  registry.GetCounter("engine.replans")->Increment();
  registry.GetCounter("engine.recoveries")->Increment();
  registry.GetHistogram("engine.recovery_seconds")
      ->Observe(report.recovery_seconds);

  // The failure stalls training: planning + checkpoint reload happen before
  // the step, so the step's spans start after the recovery span.
  if (options_.sim.trace != nullptr) {
    const double stall =
        report.planning_overflow_seconds + report.recovery_seconds;
    options_.sim.trace->AddSpan(
        "recover", "engine", EngineTrack(options_.sim.trace),
        options_.sim.trace_time_offset_seconds, stall,
        {obs::TraceArg::Num("planning_seconds", report.planning_seconds),
         obs::TraceArg::Num("recovery_seconds", report.recovery_seconds),
         obs::TraceArg::Str("plan", report.plan_signature)});
    options_.sim.trace_time_offset_seconds += stall;
  }

  Result<sim::StepResult> step =
      sim::SimulateStep(cluster_, cost_, executor_.current_plan(), truth,
                        options_.sim, &rng_);
  MALLEUS_RETURN_NOT_OK(step.status());
  profiler_.RecordStep(step->measured_rates);
  report.step_seconds = step->step_seconds;
  registry.GetCounter("engine.steps")->Increment();
  registry.GetHistogram("engine.step_seconds")->Observe(report.step_seconds);
  if (options_.sim.trace != nullptr) {
    options_.sim.trace_time_offset_seconds += report.step_seconds;
  }
  return report;
}

Result<StepReport> MalleusEngine::Step(const straggler::Situation& truth) {
  if (!executor_.installed()) {
    return Status::FailedPrecondition("engine not initialized");
  }
  if (truth.num_gpus() != cluster_.num_gpus()) {
    return Status::InvalidArgument("situation does not match cluster");
  }

  // Standby-device micro-benchmarks (S5.2): the profiler periodically
  // probes devices that are out of the training so they can be re-included.
  for (topo::GpuId g : ProbedGpus()) {
    if (truth.IsFailed(g)) {
      profiler_.MarkFailed(g);
    } else {
      const double jitter = std::max(
          0.5, 1.0 + rng_.Normal(0.0, options_.sim.timing_noise_stddev));
      profiler_.RecordProbe(g, truth.rate(g) * jitter);
    }
  }

  Result<sim::StepResult> step =
      sim::SimulateStep(cluster_, cost_, executor_.current_plan(), truth,
                        options_.sim, &rng_);
  if (!step.ok()) {
    if (observer_ == Observer::kProfiler && step.status().IsUnavailable()) {
      return RecoverFromFailure(truth);
    }
    return step.status();
  }

  StepReport report;
  report.step_seconds = step->step_seconds;

  auto& registry = obs::MetricsRegistry::Current();
  registry.GetCounter("engine.steps")->Increment();
  registry.GetHistogram("engine.step_seconds")->Observe(report.step_seconds);

  // Emits transition telemetry and advances the trace timeline past this
  // step; every exit of the straggler (non-failure) path funnels through.
  auto finish = [this, &registry](StepReport r) {
    if (r.replanned) {
      registry.GetCounter("engine.replans")->Increment();
      // Asynchronous re-planning (S5.3) hides min(planning, step) of the
      // planner's wall time behind training.
      registry.GetCounter("engine.planning_overlap_saved_seconds")
          ->Increment(std::min(r.planning_seconds, r.step_seconds));
      if (r.migration_seconds > 0) {
        registry.GetCounter("engine.migrations")->Increment();
        registry.GetHistogram("engine.migration_seconds")
            ->Observe(r.migration_seconds);
      }
    }
    if (obs::TraceRecorder* trace = options_.sim.trace) {
      const double step_end =
          options_.sim.trace_time_offset_seconds + r.step_seconds;
      if (r.replanned) {
        trace->AddInstant(
            "replan", "engine", EngineTrack(trace), step_end,
            {obs::TraceArg::Num("planning_seconds", r.planning_seconds),
             obs::TraceArg::Num("overflow_seconds",
                                r.planning_overflow_seconds),
             obs::TraceArg::Str("plan", r.plan_signature)});
      }
      if (r.migration_seconds > 0) {
        trace->AddSpan("migrate", "engine", EngineTrack(trace), step_end,
                       r.migration_seconds,
                       {obs::TraceArg::Str("note", r.note)});
      }
      options_.sim.trace_time_offset_seconds += r.TotalSeconds();
    }
    return r;
  };

  if (observer_ == Observer::kTruth) return finish(std::move(report));
  profiler_.RecordStep(step->measured_rates);
  if (profiler_.ShiftDetected()) {
    registry.GetCounter("profiler.shifts_detected")->Increment();
    Result<StepReport> acted = Act(profiler_.Estimated(), report.step_seconds);
    profiler_.AcknowledgeShift();
    if (!acted.ok()) {
      // Keep training with the current plan; try again on the next shift.
      registry.GetCounter("engine.replan_failures")->Increment();
      report.note = StrFormat("re-planning failed: %s",
                              acted.status().ToString().c_str());
      return finish(std::move(report));
    }
    acted->step_seconds = report.step_seconds;
    return finish(std::move(*acted));
  }
  return finish(std::move(report));
}

Result<StepReport> MalleusEngine::OnSituationChange(
    const straggler::Situation& situation) {
  // The profiler observer detects changes itself.
  if (observer_ == Observer::kProfiler) return StepReport{};
  const Result<double> installed =
      PriceStep(executor_.current_plan(), situation);
  return Act(situation, installed.ok() ? *installed : 0.0);
}

Status MalleusEngine::Advance(const straggler::Situation& situation,
                              int64_t iterations,
                              std::vector<StepReport>* reports) {
  if (observer_ == Observer::kProfiler ||
      options_.sim.timing_noise_stddev != 0.0) {
    return TrainingFramework::Advance(situation, iterations, reports);
  }
  // The segment's iterations are identical: one report covers them all.
  MALLEUS_ASSIGN_OR_RETURN(const double step,
                           PriceStep(executor_.current_plan(), situation));
  StepReport report;
  report.step_seconds = step * static_cast<double>(iterations);
  report.note = StrFormat("segment x%lld @%.17g s/iter",
                          static_cast<long long>(iterations), step);
  reports->push_back(std::move(report));
  return Status::OK();
}

}  // namespace core
}  // namespace malleus
