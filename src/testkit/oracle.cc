#include "testkit/oracle.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "core/planner.h"
#include "lint/lint.h"
#include "model/cost_model.h"
#include "net/flow_sim.h"
#include "plan/estimator.h"
#include "policy/events.h"
#include "policy/policy.h"
#include "policy/runner.h"
#include "sim/pipeline_sim.h"
#include "straggler/situation.h"
#include "testkit/flow_sim_reference.h"
#include "topology/cluster.h"
#include "whatif/whatif.h"

namespace malleus {
namespace testkit {

namespace {

// Exact-agreement tolerance: the differential pairs are required to be
// bit-identical modulo the final double rounding of independent call
// paths, so anything beyond a relative ulp-scale epsilon is a bug.
constexpr double kExactRelTol = 1e-9;

bool SameDouble(double a, double b) {
  return a == b || (std::isnan(a) && std::isnan(b));
}

bool NearlyEqual(double a, double b, double rel_tol) {
  if (SameDouble(a, b)) return true;
  if (!std::isfinite(a) || !std::isfinite(b)) return false;
  return std::fabs(a - b) <= rel_tol * std::max({1.0, std::fabs(a),
                                                 std::fabs(b)});
}

// Compares two independent planning runs that must agree exactly: same
// success/failure, same failure status, or same plan signature and
// bitwise-identical estimates. Returns "" on agreement, else the diff.
std::string DiffPlanResults(const char* a_name,
                            const Result<core::PlanResult>& a,
                            const char* b_name,
                            const Result<core::PlanResult>& b) {
  if (a.ok() != b.ok()) {
    return StrFormat("%s %s but %s %s", a_name,
                     a.ok() ? "planned" : "failed", b_name,
                     b.ok() ? "planned" : "failed");
  }
  if (!a.ok()) {
    if (a.status() == b.status()) return "";
    return StrFormat("%s failed with \"%s\" but %s with \"%s\"", a_name,
                     a.status().ToString().c_str(), b_name,
                     b.status().ToString().c_str());
  }
  if (a->plan.Signature() != b->plan.Signature()) {
    return StrFormat("plan signature %s=%s vs %s=%s", a_name,
                     a->plan.Signature().c_str(), b_name,
                     b->plan.Signature().c_str());
  }
  if (a->chosen_tp != b->chosen_tp) {
    return StrFormat("chosen_tp %s=%d vs %s=%d", a_name, a->chosen_tp,
                     b_name, b->chosen_tp);
  }
  if (!SameDouble(a->estimated_seconds, b->estimated_seconds)) {
    return StrFormat("estimated_seconds %s=%.17g vs %s=%.17g", a_name,
                     a->estimated_seconds, b_name, b->estimated_seconds);
  }
  if (!SameDouble(a->estimated_full_seconds, b->estimated_full_seconds)) {
    return StrFormat("estimated_full_seconds %s=%.17g vs %s=%.17g", a_name,
                     a->estimated_full_seconds, b_name,
                     b->estimated_full_seconds);
  }
  return "";
}

// Collects the oracle bookkeeping so each oracle body reads linearly.
struct OracleContext {
  OracleOutcome* out;

  void Ran(const char* oracle) { out->oracles_run.push_back(oracle); }
  void Violate(const char* oracle, std::string message) {
    out->violations.push_back(Violation{oracle, std::move(message)});
  }
};

}  // namespace

OracleOutcome RunOracles(const scenario::ScenarioSpec& spec,
                         const OracleOptions& options) {
  OracleOutcome out;
  OracleContext ctx{&out};

  Result<scenario::ResolvedScenario> resolved =
      scenario::ResolveScenario(spec);
  if (!resolved.ok()) {
    // Semantically invalid scenarios (a generator-probed boundary) have no
    // planner behavior to check; rejecting them cleanly IS the pass.
    out.error = resolved.status().ToString();
    return out;
  }
  out.resolved = true;
  const topo::ClusterSpec& cluster = resolved->cluster;

  // One situation per run: the custom overlay when present, else the first
  // trace phase, else all-healthy. (MixSeed spreads the generator over the
  // other combinations across runs.)
  straggler::Situation situation(cluster.num_gpus());
  if (resolved->has_overlay) {
    situation = resolved->overlay;
  } else if (!resolved->trace.empty()) {
    Result<straggler::Situation> canonical = straggler::Situation::Canonical(
        cluster, resolved->trace.front().id);
    if (!canonical.ok()) {
      out.error = canonical.status().ToString();
      return out;
    }
    situation = *canonical;
  }

  const model::CostModel cost(resolved->spec, cluster.gpu());

  // ----- differential.planner-threads / differential.solve-cache --------
  //
  // Five planning runs that must agree exactly (planner.h's bit-identity
  // contract): serial, 4 workers, cache disabled, cold cache, and a warm
  // re-plan on the serial planner (replaying its now-populated memo).
  core::PlannerOptions serial_opts;
  serial_opts.num_threads = 1;
  core::Planner planner(cluster, cost);
  const Result<core::PlanResult> base =
      planner.Plan(situation, spec.batch, serial_opts);

  {
    ctx.Ran("differential.planner-threads");
    core::PlannerOptions threaded_opts = serial_opts;
    threaded_opts.num_threads = 4;
    core::Planner threaded(cluster, cost);
    const Result<core::PlanResult> parallel =
        threaded.Plan(situation, spec.batch, threaded_opts);
    std::string diff =
        DiffPlanResults("threads=1", base, "threads=4", parallel);
    if (!diff.empty()) ctx.Violate("differential.planner-threads", diff);
  }
  {
    ctx.Ran("differential.solve-cache");
    core::PlannerOptions nocache_opts = serial_opts;
    nocache_opts.enable_solve_cache = false;
    core::Planner uncached(cluster, cost);
    const Result<core::PlanResult> nocache =
        uncached.Plan(situation, spec.batch, nocache_opts);
    std::string diff = DiffPlanResults("cache=off", nocache, "cache=cold",
                                       base);
    if (diff.empty()) {
      const Result<core::PlanResult> warm =
          planner.Plan(situation, spec.batch, serial_opts);
      diff = DiffPlanResults("cache=cold", base, "cache=warm", warm);
    }
    if (!diff.empty()) ctx.Violate("differential.solve-cache", diff);
  }

  if (!base.ok()) {
    // Unplannable (e.g. the model cannot fit): the determinism of the
    // failure was checked above; the plan-shaped oracles have no subject.
    out.error = base.status().ToString();
    return out;
  }
  out.planned = true;
  const plan::ParallelPlan& p = base->plan;
  const int dp = p.dp_degree();

  // ----- differential.replan-fallback ------------------------------------
  //
  // Planner::Replan keeps a feasible pinned degree and otherwise falls
  // back to the unpinned search: pinned to the chosen plan's own DP it
  // must return that plan (the pinned sweep is the unpinned one restricted
  // to that degree, in the same enumeration order), and pinned above any
  // possible group count it must return the unpinned plan.
  {
    ctx.Ran("differential.replan-fallback");
    const std::pair<const char*, int> pins[] = {
        {"pinned to the chosen dp", dp},
        {"pinned above the group count", cluster.num_gpus() + 1},
    };
    for (const auto& [label, pinned_dp] : pins) {
      core::PlannerOptions pinned_opts = serial_opts;
      pinned_opts.dp_degree = pinned_dp;
      const Result<core::PlanResult> replanned =
          planner.Replan(situation, spec.batch, pinned_opts);
      const std::string diff =
          DiffPlanResults("unpinned", base, label, replanned);
      if (!diff.empty()) ctx.Violate("differential.replan-fallback", diff);
    }
  }

  // ----- differential.net-model -----------------------------------------
  //
  // The flow model only ever ADDS contention to the analytic closed form,
  // and reproduces it exactly when no two grad-sync flows share a
  // directional fabric link (all ring flows start at t=0, so static
  // crossing counts decide sharing).
  {
    ctx.Ran("differential.net-model");
    const double analytic = plan::EstimateGradSyncSeconds(
        p, cost, cluster, net::NetModel::kAnalytic);
    const double flow = plan::EstimateGradSyncSeconds(
        p, cost, cluster, net::NetModel::kFlow);
    if (flow < analytic * (1.0 - kExactRelTol)) {
      ctx.Violate("differential.net-model",
                  StrFormat("flow grad-sync %.17g s beats the analytic "
                            "lower bound %.17g s",
                            flow, analytic));
    }
    const net::Fabric fabric(cluster);
    std::vector<int> crossings(fabric.num_links(), 0);
    bool contended = false;
    for (const plan::GradSyncRing& ring :
         plan::CollectGradSyncRings(p, cost, cluster)) {
      if (ring.peers.size() < 2) continue;
      for (size_t i = 0; i < ring.peers.size(); ++i) {
        const topo::GpuId src = ring.peers[i];
        const topo::GpuId dst = ring.peers[(i + 1) % ring.peers.size()];
        for (net::LinkId link : fabric.Route(src, dst)) {
          if (++crossings[link] > 1) contended = true;
        }
      }
    }
    if (!contended && !NearlyEqual(flow, analytic, kExactRelTol)) {
      ctx.Violate("differential.net-model",
                  StrFormat("uncontended rings: flow %.17g s != analytic "
                            "%.17g s",
                            flow, analytic));
    }
  }

  // ----- differential.validate-lint -------------------------------------
  //
  // ParallelPlan::Validate (fail-fast) and the lint engine's error-level
  // verdict are two routes through the same structural checks; they must
  // agree on the chosen plan and on deterministically broken mutants.
  {
    ctx.Ran("differential.validate-lint");
    std::vector<std::pair<const char*, plan::ParallelPlan>> variants;
    variants.emplace_back("chosen plan", p);
    if (!p.pipelines.empty() && !p.pipelines[0].stages.empty()) {
      plan::ParallelPlan extra_layer = p;
      extra_layer.pipelines[0].stages[0].num_layers += 1;
      variants.emplace_back("mutant(+1 layer)", std::move(extra_layer));
      plan::ParallelPlan reused_gpu = p;
      plan::TpGroup& group = reused_gpu.pipelines[0].stages[0].group;
      group.gpus.push_back(group.gpus.front());
      variants.emplace_back("mutant(duplicated GPU)", std::move(reused_gpu));
    }
    plan::ParallelPlan extra_batch = p;
    extra_batch.global_batch += 1;
    variants.emplace_back("mutant(+1 batch)", std::move(extra_batch));
    for (const auto& [label, variant] : variants) {
      const bool validate_ok = variant.Validate(cluster, cost).ok();
      lint::DiagnosticSink sink;
      lint::LintPlan(variant, cluster, cost, &situation, &sink);
      const bool lint_ok = !sink.HasErrors();
      if (validate_ok != lint_ok) {
        ctx.Violate(
            "differential.validate-lint",
            StrFormat("%s: Validate says %s but lint says %s", label,
                      validate_ok ? "valid" : "invalid",
                      lint_ok ? "no errors" : "errors"));
      }
    }
  }

  // The metamorphic straggler oracles worsen the first active GPU; the
  // planner never schedules failed GPUs, but guard anyway.
  topo::GpuId worsen_target = -1;
  for (topo::GpuId g : p.ActiveGpus()) {
    if (!situation.IsFailed(g)) {
      worsen_target = g;
      break;
    }
  }

  // ----- metamorphic.straggler-monotone-plan ----------------------------
  //
  // The closed-form estimate is pointwise monotone in every rate (y = rho
  // * max{x} feeds positive products, sums and maxes only), so worsening a
  // rate can never improve a FIXED plan. Exact, no heuristic slack.
  double base_step_seconds = 0.0;
  if (worsen_target >= 0) {
    ctx.Ran("metamorphic.straggler-monotone-plan");
    straggler::Situation worse = situation;
    worse.SetRate(worsen_target, situation.rate(worsen_target) * 1.5);
    base_step_seconds = plan::EstimateStep(p, cost, situation).step_seconds;
    double worse_step_seconds =
        plan::EstimateStep(p, cost, worse).step_seconds;
    if (options.inject_perturb_estimate) worse_step_seconds *= 0.5;
    if (worse_step_seconds < base_step_seconds * (1.0 - 1e-12)) {
      ctx.Violate("metamorphic.straggler-monotone-plan",
                  StrFormat("worsening GPU %d's rate x1.5 improved the "
                            "fixed-plan estimate: %.17g s -> %.17g s",
                            worsen_target, base_step_seconds,
                            worse_step_seconds));
    }

    // ----- metamorphic.straggler-monotone-replan ------------------------
    //
    // Feasibility is rate-independent (the memory and shape constraints
    // never see rates), so the worse situation must still plan; and the
    // re-planned plan, held fixed, must obey exact estimate monotonicity
    // in the worsened rate. The re-planned OPTIMUM is deliberately not
    // compared against the base optimum: the grouping candidates move
    // with the rate vector, so the heuristic search routinely lands
    // 10-20% away in either direction — honest suboptimality, not a bug.
    ctx.Ran("metamorphic.straggler-monotone-replan");
    core::Planner replanner(cluster, cost);
    const Result<core::PlanResult> replanned =
        replanner.Plan(worse, spec.batch, serial_opts);
    if (!replanned.ok()) {
      ctx.Violate("metamorphic.straggler-monotone-replan",
                  StrFormat("worsening GPU %d's rate x1.5 made planning "
                            "fail: %s",
                            worsen_target,
                            replanned.status().ToString().c_str()));
    } else {
      const double replan_under_worse =
          plan::EstimateStep(replanned->plan, cost, worse).step_seconds;
      const double replan_under_base =
          plan::EstimateStep(replanned->plan, cost, situation).step_seconds;
      if (replan_under_worse < replan_under_base * (1.0 - 1e-12)) {
        ctx.Violate(
            "metamorphic.straggler-monotone-replan",
            StrFormat("the re-planned plan estimates faster under the "
                      "worse rates (GPU %d x1.5): %.17g s -> %.17g s",
                      worsen_target, replan_under_base,
                      replan_under_worse));
      }
    }
  }

  // ----- metamorphic.standby-monotone -----------------------------------
  //
  // One extra node must keep the cluster plannable (more resources never
  // remove a feasible shape), and a node of FAILED newcomers must be
  // equivalent to no node at all: grouping drops failed GPUs (and then
  // empty nodes) before any search runs, so the chosen estimates must
  // match the base cluster bitwise. Only the standby list legitimately
  // differs (it absorbs the dead newcomers), so plan signatures are not
  // compared. The healthy-newcomer estimate is deliberately not compared
  // against the base: the planner uses every healthy GPU, and on
  // comm-dominated shapes more GPUs can honestly cost time.
  {
    ctx.Ran("metamorphic.standby-monotone");
    const topo::ClusterSpec bigger(cluster.num_nodes() + 1,
                                   cluster.gpus_per_node(), cluster.gpu(),
                                   cluster.link());
    straggler::Situation extended(bigger.num_gpus());
    for (topo::GpuId g = 0; g < cluster.num_gpus(); ++g) {
      extended.SetRate(g, situation.rate(g));
    }
    core::Planner grown(bigger, cost);
    const Result<core::PlanResult> grown_plan =
        grown.Plan(extended, spec.batch, serial_opts);
    if (!grown_plan.ok()) {
      ctx.Violate("metamorphic.standby-monotone",
                  StrFormat("adding a healthy node made planning fail: %s",
                            grown_plan.status().ToString().c_str()));
    }

    straggler::Situation dead = extended;
    for (topo::GpuId g = cluster.num_gpus(); g < bigger.num_gpus(); ++g) {
      dead.Fail(g);
    }
    core::Planner grown_dead(bigger, cost);
    const Result<core::PlanResult> dead_plan =
        grown_dead.Plan(dead, spec.batch, serial_opts);
    if (!dead_plan.ok()) {
      ctx.Violate("metamorphic.standby-monotone",
                  StrFormat("adding a node of failed GPUs made planning "
                            "fail: %s",
                            dead_plan.status().ToString().c_str()));
    } else if (dead_plan->chosen_tp != base->chosen_tp ||
               !SameDouble(dead_plan->estimated_seconds,
                           base->estimated_seconds) ||
               !SameDouble(dead_plan->estimated_full_seconds,
                           base->estimated_full_seconds)) {
      ctx.Violate(
          "metamorphic.standby-monotone",
          StrFormat("a node of failed GPUs changed the plan: tp %d -> %d, "
                    "estimate %.17g s -> %.17g s",
                    base->chosen_tp, dead_plan->chosen_tp,
                    base->estimated_full_seconds,
                    dead_plan->estimated_full_seconds));
    }
  }

  // ----- metamorphic.bandwidth-scaling ----------------------------------
  //
  // With latencies zeroed the grad-sync estimate is pure bytes/bandwidth,
  // so doubling every link capacity must exactly halve it — under both
  // net models (max–min rates scale linearly with capacities).
  {
    ctx.Ran("metamorphic.bandwidth-scaling");
    topo::LinkSpec zero_lat = cluster.link();
    zero_lat.intra_node_latency_s = 0.0;
    zero_lat.inter_node_latency_s = 0.0;
    topo::LinkSpec doubled = zero_lat;
    doubled.intra_node_gbps *= 2.0;
    doubled.inter_node_gbps *= 2.0;
    const topo::ClusterSpec c_base(cluster.num_nodes(),
                                   cluster.gpus_per_node(), cluster.gpu(),
                                   zero_lat);
    const topo::ClusterSpec c_fast(cluster.num_nodes(),
                                   cluster.gpus_per_node(), cluster.gpu(),
                                   doubled);
    for (net::NetModel m :
         {net::NetModel::kAnalytic, net::NetModel::kFlow}) {
      const double t_base =
          plan::EstimateGradSyncSeconds(p, cost, c_base, m);
      const double t_fast =
          plan::EstimateGradSyncSeconds(p, cost, c_fast, m);
      if (!NearlyEqual(t_fast, t_base / 2.0, kExactRelTol)) {
        ctx.Violate("metamorphic.bandwidth-scaling",
                    StrFormat("%s: doubling bandwidths scaled grad-sync "
                              "%.17g s -> %.17g s (expected %.17g s)",
                              net::NetModelName(m), t_base, t_fast,
                              t_base / 2.0));
      }
    }
  }

  // ----- whatif.remove-straggler-monotone ---------------------------------
  //
  // The counterfactual-grid oracle: replaying the FIXED chosen plan with
  // one injected straggler healed must never attribute a negative span —
  // i.e. the replayed step cannot get slower when a rate improves. Exact
  // under the analytic model (the 1F1B event DAG's longest path is
  // monotone in task durations, and isolated transfer times do not depend
  // on rates); the flow model is deliberately excluded because max–min
  // bandwidth sharing is not provably monotone.
  {
    const std::vector<topo::GpuId> stragglers = situation.Stragglers();
    if (!stragglers.empty()) {
      ctx.Ran("whatif.remove-straggler-monotone");
      const Result<whatif::ReplayResult> baseline_replay =
          whatif::ReplayPlanStep(cluster, cost, p, situation,
                                 net::NetModel::kAnalytic, spec.seed);
      if (!baseline_replay.ok()) {
        ctx.Violate("whatif.remove-straggler-monotone",
                    StrFormat("baseline replay failed: %s",
                              baseline_replay.status().ToString().c_str()));
      } else {
        for (topo::GpuId g : stragglers) {
          straggler::Situation healed = situation;
          healed.SetRate(g, 1.0);
          const Result<whatif::ReplayResult> replay =
              whatif::ReplayPlanStep(cluster, cost, p, healed,
                                     net::NetModel::kAnalytic, spec.seed);
          if (!replay.ok()) {
            ctx.Violate("whatif.remove-straggler-monotone",
                        StrFormat("replay with GPU %d healed failed: %s", g,
                                  replay.status().ToString().c_str()));
            continue;
          }
          if (replay->step_seconds >
              baseline_replay->step_seconds * (1.0 + kExactRelTol)) {
            ctx.Violate(
                "whatif.remove-straggler-monotone",
                StrFormat("healing straggler GPU %d SLOWED the replayed "
                          "step: %.17g s -> %.17g s",
                          g, baseline_replay->step_seconds,
                          replay->step_seconds));
          }
        }
      }
    }
  }

  // ----- sim.invariants --------------------------------------------------
  //
  // Noise-free simulation of the chosen plan under both net models: spans
  // finite and nonnegative, the step dominates every pipeline, and the
  // contention-aware model can only be slower than the isolated one (a
  // flow never exceeds its isolated rate, and 1F1B event times are
  // monotone in task durations).
  {
    ctx.Ran("sim.invariants");
    double step_by_model[2] = {0.0, 0.0};
    bool sim_ok[2] = {false, false};
    int index = 0;
    for (net::NetModel m :
         {net::NetModel::kAnalytic, net::NetModel::kFlow}) {
      sim::SimOptions sim_opts;
      sim_opts.timing_noise_stddev = 0.0;
      sim_opts.net_model = m;
      Rng rng(0);
      const Result<sim::StepResult> step =
          sim::SimulateStep(cluster, cost, p, situation, sim_opts, &rng);
      const char* name = net::NetModelName(m);
      if (!step.ok()) {
        ctx.Violate("sim.invariants",
                    StrFormat("%s: simulating the validated plan failed: %s",
                              name, step.status().ToString().c_str()));
        ++index;
        continue;
      }
      sim_ok[index] = true;
      step_by_model[index] = step->step_seconds;
      if (!std::isfinite(step->step_seconds) || step->step_seconds < 0.0) {
        ctx.Violate("sim.invariants",
                    StrFormat("%s: step time %.17g s is not finite and "
                              "nonnegative",
                              name, step->step_seconds));
      }
      double max_pipeline = 0.0;
      for (size_t i = 0; i < step->pipeline_seconds.size(); ++i) {
        const double t = step->pipeline_seconds[i];
        if (!std::isfinite(t) || t < 0.0) {
          ctx.Violate("sim.invariants",
                      StrFormat("%s: pipeline %zu span %.17g s is not "
                                "finite and nonnegative",
                                name, i, t));
        }
        max_pipeline = std::max(max_pipeline, t);
      }
      if (step->step_seconds <
          max_pipeline * (1.0 - kExactRelTol)) {
        ctx.Violate("sim.invariants",
                    StrFormat("%s: step %.17g s ends before its slowest "
                              "pipeline %.17g s",
                              name, step->step_seconds, max_pipeline));
      }
      if (!std::isfinite(step->grad_sync_seconds) ||
          step->grad_sync_seconds < 0.0) {
        ctx.Violate("sim.invariants",
                    StrFormat("%s: grad-sync span %.17g s is not finite "
                              "and nonnegative",
                              name, step->grad_sync_seconds));
      }
      ++index;
    }
    if (sim_ok[0] && sim_ok[1] &&
        step_by_model[1] < step_by_model[0] * (1.0 - kExactRelTol)) {
      ctx.Violate("sim.invariants",
                  StrFormat("flow step %.17g s beats the analytic step "
                            "%.17g s",
                            step_by_model[1], step_by_model[0]));
    }
  }

  // ----- differential.sim-replay -----------------------------------------
  //
  // The NOISY simulator is still a pure function of its Rng: replaying the
  // same seed under the configured net model must reproduce the step
  // bit-for-bit (this is what makes every fuzz report hashable).
  {
    ctx.Ran("differential.sim-replay");
    sim::SimOptions sim_opts;
    sim_opts.net_model = options.sim_net_model;
    double replay_steps[2] = {0.0, 0.0};
    bool replay_ok[2] = {false, false};
    for (int attempt = 0; attempt < 2; ++attempt) {
      Rng rng(spec.seed);
      const Result<sim::StepResult> step =
          sim::SimulateStep(cluster, cost, p, situation, sim_opts, &rng);
      replay_ok[attempt] = step.ok();
      if (step.ok()) replay_steps[attempt] = step->step_seconds;
    }
    if (replay_ok[0] != replay_ok[1] ||
        !SameDouble(replay_steps[0], replay_steps[1])) {
      ctx.Violate("differential.sim-replay",
                  StrFormat("%s: same Rng seed simulated %.17g s then "
                            "%.17g s",
                            net::NetModelName(options.sim_net_model),
                            replay_steps[0], replay_steps[1]));
    }
  }

  // ----- sim.event-graph --------------------------------------------------
  {
    ctx.Ran("sim.event-graph");
    lint::DiagnosticSink sink;
    lint::LintEventGraph(p, &sink);
    if (!sink.empty()) {
      ctx.Violate("sim.event-graph",
                  StrFormat("1F1B schedule lint: %s",
                            sink.diagnostics().front().ToString().c_str()));
    }
  }

  // ----- net.flow-conservation -------------------------------------------
  //
  // Replay the plan's grad-sync lowering (exactly as the flow estimator
  // submits it) and audit: FlowSim must move precisely the submitted
  // bytes, with no negative per-link volume and no overcommitted link.
  {
    ctx.Ran("net.flow-conservation");
    const net::Fabric fabric(cluster);
    net::FlowSim fs(fabric);
    double expected_bytes = 0.0;
    for (const plan::GradSyncRing& ring :
         plan::CollectGradSyncRings(p, cost, cluster)) {
      const double bytes_per_hop =
          ring.bytes_per_gpu * (dp - 1.0) / std::max(dp, 1);
      const std::vector<int64_t> ids =
          net::SubmitRing(&fs, ring.peers, bytes_per_hop,
                          /*start_seconds=*/0.0,
                          2.0 * dp * ring.hop_latency);
      expected_bytes += static_cast<double>(ids.size()) * bytes_per_hop;
    }
    fs.Run();
    const lint::FlowAudit audit = lint::AuditFlowSim(fs);
    lint::DiagnosticSink sink;
    lint::LintFlowConservation(audit, expected_bytes, /*rel_tolerance=*/1e-6,
                               &sink);
    if (!sink.empty()) {
      ctx.Violate("net.flow-conservation",
                  StrFormat("grad-sync flow audit: %s",
                            sink.diagnostics().front().ToString().c_str()));
    }
  }

  // ----- differential.flowsim-incremental --------------------------------
  //
  // The incremental max–min engine (component-restricted water-filling +
  // indexed arrival queue) must reproduce the from-scratch reference engine
  // (RunReferenceFlowSim) bit for bit. The workload is the plan's grad-sync
  // lowering twice: once as the estimator submits it (all rings at t=0) and
  // once with each ring's start staggered, so arrivals and drains genuinely
  // interleave and the incremental engine's dirty-component tracking is
  // exercised across many membership changes.
  {
    ctx.Ran("differential.flowsim-incremental");
    const net::Fabric fabric(cluster);
    net::FlowSim inc(fabric);
    const std::vector<plan::GradSyncRing> rings =
        plan::CollectGradSyncRings(p, cost, cluster);
    for (int pass = 0; pass < 2; ++pass) {
      for (size_t r = 0; r < rings.size(); ++r) {
        const plan::GradSyncRing& ring = rings[r];
        const double bytes_per_hop =
            ring.bytes_per_gpu * (dp - 1.0) / std::max(dp, 1);
        const double start =
            pass == 0 ? 0.0 : 1e-4 * static_cast<double>(r + 1);
        net::SubmitRing(&inc, ring.peers, bytes_per_hop, start,
                        2.0 * dp * ring.hop_latency);
      }
    }
    inc.Run();
    std::vector<net::Flow> flows;
    for (const net::FlowOutcome& o : inc.outcomes()) flows.push_back(o.flow);
    const ReferenceFlowSimResult ref = RunReferenceFlowSim(fabric, flows);
    std::string diff;
    if (!SameDouble(inc.MakespanSeconds(), ref.makespan_seconds)) {
      diff = StrFormat("makespan incremental=%.17g vs reference=%.17g",
                       inc.MakespanSeconds(), ref.makespan_seconds);
    }
    for (size_t i = 0; diff.empty() && i < inc.outcomes().size(); ++i) {
      if (!SameDouble(inc.outcomes()[i].end_seconds,
                      ref.outcomes[i].end_seconds) ||
          !SameDouble(inc.outcomes()[i].seconds, ref.outcomes[i].seconds)) {
        diff = StrFormat("flow %zu end incremental=%.17g vs reference=%.17g",
                         i, inc.outcomes()[i].end_seconds,
                         ref.outcomes[i].end_seconds);
      }
    }
    for (int l = 0; diff.empty() && l < fabric.num_links(); ++l) {
      const net::LinkUsage& a = inc.link_usage()[l];
      const net::LinkUsage& b = ref.link_usage[l];
      if (!SameDouble(a.bytes, b.bytes) ||
          !SameDouble(a.peak_utilization, b.peak_utilization)) {
        diff = StrFormat("link %s bytes/peak incremental=%.17g/%.17g vs "
                         "reference=%.17g/%.17g",
                         fabric.link(l).name.c_str(), a.bytes,
                         a.peak_utilization, b.bytes, b.peak_utilization);
      }
    }
    if (!diff.empty()) {
      ctx.Violate("differential.flowsim-incremental", diff);
    }
  }

  // ----- dynamic.engine-state-valid / dynamic.goodput-conservation --------
  //
  // Scenarios carrying a `dynamic = { ... }` block run the full policy
  // engine (adaptive selector — the one that actually switches between all
  // five actions) over the generated event trace and audit two invariants:
  //
  //   engine-state-valid     after EVERY applied event the installed plan
  //                          passes Validate and schedules work on no
  //                          failed GPU, whatever action was chosen
  //   goodput-conservation   wall time is exactly training + transition
  //                          (no seconds invented or dropped across policy
  //                          switches), goodput is finite and nonnegative,
  //                          and a run that did not stop early covers the
  //                          whole trace
  //
  // A dynamic run that cannot even start (no initial plan under the
  // overlay situation) is a skip, like an unplannable base scenario.
  if (spec.dynamic.enabled) {
    const policy::EventTrace trace = policy::GenerateEventTrace(
        cluster, spec.dynamic,
        spec.dynamic.seed != 0 ? spec.dynamic.seed : spec.seed);
    Result<std::unique_ptr<policy::PolicySelector>> selector =
        policy::MakeSelector("adaptive");
    policy::DynamicRunOptions dyn_options;
    dyn_options.planner.num_threads = 1;
    const Result<policy::DynamicRunResult> run =
        selector.ok() ? policy::RunDynamic(cluster, cost, situation, trace,
                                           spec.batch, **selector,
                                           dyn_options)
                      : selector.status();
    if (run.ok()) {
      ctx.Ran("dynamic.engine-state-valid");
      for (const policy::EventAudit& audit : run->audits) {
        if (!audit.plan_valid || audit.uses_failed_gpu) {
          ctx.Violate(
              "dynamic.engine-state-valid",
              StrFormat("after %s at iteration %lld, action %s left %s",
                        policy::EventKindName(audit.kind),
                        static_cast<long long>(audit.iteration),
                        policy::PolicyActionName(audit.action),
                        audit.uses_failed_gpu
                            ? "a failed GPU scheduled"
                            : "an invalid plan installed"));
          break;
        }
      }
      ctx.Ran("dynamic.goodput-conservation");
      if (!SameDouble(run->wall_seconds,
                      run->training_seconds + run->transition_seconds)) {
        ctx.Violate("dynamic.goodput-conservation",
                    StrFormat("wall %.17g s != training %.17g s + "
                              "transition %.17g s",
                              run->wall_seconds, run->training_seconds,
                              run->transition_seconds));
      }
      if (!std::isfinite(run->goodput) || run->goodput < 0.0) {
        ctx.Violate("dynamic.goodput-conservation",
                    StrFormat("goodput %.17g is not finite and nonnegative",
                              run->goodput));
      }
      if (run->stop_reason.empty() &&
          run->iterations_run != trace.iterations) {
        ctx.Violate("dynamic.goodput-conservation",
                    StrFormat("run without a stop reason covered %lld of "
                              "%lld iterations",
                              static_cast<long long>(run->iterations_run),
                              static_cast<long long>(trace.iterations)));
      }
    }
  }

  return out;
}

}  // namespace testkit
}  // namespace malleus
