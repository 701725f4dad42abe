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
                             EngineOptions options)
    : cluster_(cluster),
      cost_(cost),
      options_(options),
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
  initialized_ = true;
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
  initialized_ = true;
  return Status::OK();
}

std::vector<topo::GpuId> MalleusEngine::InactiveGpus() const {
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

Result<PlanResult> MalleusEngine::Replan() {
  // Keep the installed plan's DP degree (paper footnote 2).
  PlannerOptions opts = options_.planner;
  opts.dp_degree = executor_.current_plan().dp_degree();
  Result<PlanResult> planned =
      planner_.Replan(profiler_.Estimated(), global_batch_, opts);
  if (planned.ok()) {
    // A refused plan surfaces as a planning failure: the caller keeps
    // training on the current plan (Step) or aborts recovery.
    MALLEUS_RETURN_NOT_OK(
        GatePlanDiagnostics(planned->diagnostics, "re-plan"));
  }
  return planned;
}

Result<StepReport> MalleusEngine::RecoverFromFailure(
    const straggler::Situation& truth) {
  StepReport report;
  for (topo::GpuId g : executor_.current_plan().ActiveGpus()) {
    if (truth.IsFailed(g)) profiler_.MarkFailed(g);
  }
  Result<PlanResult> planned = Replan();
  MALLEUS_RETURN_NOT_OK(planned.status());
  // Failure halts training: no step overlaps the planner, and the model
  // states are re-loaded from the latest checkpoint (S5.1).
  ChargeReplanning(PlanningSeconds(planned->timings),
                   /*overlapped_step_seconds=*/0.0, &report);
  MALLEUS_RETURN_NOT_OK(executor_.Reload(std::move(planned->plan)));
  // Each GPU of the new plan reads exactly the slices it will own.
  Result<CheckpointIoPlan> load =
      PlanCheckpointLoad(executor_.current_plan(), cost_);
  MALLEUS_RETURN_NOT_OK(load.status());
  report.recovery_seconds = CheckpointIoSeconds(*load, cluster_);
  report.plan_signature = executor_.current_plan().Signature();
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
  report.note = "recovered from GPU failure via checkpoint reload";
  registry.GetCounter("engine.steps")->Increment();
  registry.GetHistogram("engine.step_seconds")->Observe(report.step_seconds);
  if (options_.sim.trace != nullptr) {
    options_.sim.trace_time_offset_seconds += report.step_seconds;
  }
  return report;
}

Result<StepReport> MalleusEngine::Step(const straggler::Situation& truth) {
  if (!initialized_) {
    return Status::FailedPrecondition("engine not initialized");
  }
  if (truth.num_gpus() != cluster_.num_gpus()) {
    return Status::InvalidArgument("situation does not match cluster");
  }

  // Standby-device micro-benchmarks (S5.2): the engine periodically probes
  // devices that are out of the training so they can be re-included.
  for (topo::GpuId g : InactiveGpus()) {
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
    if (step.status().IsUnavailable()) return RecoverFromFailure(truth);
    return step.status();
  }
  profiler_.RecordStep(step->measured_rates);

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

  if (profiler_.ShiftDetected()) {
    registry.GetCounter("profiler.shifts_detected")->Increment();
    Result<PlanResult> planned = Replan();
    if (!planned.ok()) {
      // Keep training with the current plan; try again on the next shift.
      registry.GetCounter("engine.replan_failures")->Increment();
      report.note = StrFormat("re-planning failed: %s",
                              planned.status().ToString().c_str());
      profiler_.AcknowledgeShift();
      return finish(std::move(report));
    }
    // Asynchronous re-planning (S5.3): the search overlaps this step.
    ChargeReplanning(PlanningSeconds(planned->timings), report.step_seconds,
                     &report);
    Result<MigrationReport> migrated =
        executor_.Migrate(std::move(planned->plan));
    MALLEUS_RETURN_NOT_OK(migrated.status());
    if (!migrated->no_op) {
      report.migration_seconds = migrated->seconds;
      report.plan_signature = executor_.current_plan().Signature();
      report.note = StrFormat("migrated %s in %d transfers",
                              FormatBytes(static_cast<uint64_t>(
                                  migrated->bytes)).c_str(),
                              migrated->num_transfers);
    } else {
      report.note = "re-planned; plan unchanged";
    }
    profiler_.AcknowledgeShift();
  }
  return finish(std::move(report));
}

}  // namespace core
}  // namespace malleus
