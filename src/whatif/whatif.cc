#include "whatif/whatif.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

#include "common/rng.h"
#include "common/string_util.h"
#include "core/planner.h"
#include "exec/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/pipeline_sim.h"

namespace malleus {
namespace whatif {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// One planning world: a cluster variant plus its cost model and planner.
// The planner holds references into this struct, so entries live behind
// unique_ptr and never move. One entry is shared by every counterfactual
// with the same world, which is what makes the solver cache effective:
// all straggler heals/dampenings and force_tp rows hit the base entry.
struct PlannerEntry {
  topo::ClusterSpec cluster;
  model::CostModel cost;
  core::Planner planner;

  PlannerEntry(topo::ClusterSpec c, const model::ModelSpec& spec)
      : cluster(c), cost(spec, cluster.gpu()), planner(cluster, cost) {}
};

// Lazily-built map of world key -> planner entry. Thread-safe: the sweep
// workers race to create entries, but Planner::Plan itself is const and
// internally synchronized, so sharing an entry across workers is safe.
class PlannerMap {
 public:
  PlannerMap(const topo::ClusterSpec& base, const model::ModelSpec& spec)
      : base_(base), spec_(spec) {}

  // The unmodified recorded world.
  PlannerEntry* Base() { return Get("base", base_); }

  PlannerEntry* ScaledLink(bool intra, double factor) {
    topo::LinkSpec link = base_.link();
    if (intra) {
      link.intra_node_gbps *= factor;
    } else {
      link.inter_node_gbps *= factor;
    }
    const std::string key = StrFormat(
        "%s:%.17g", intra ? "nvlink" : "nic", factor);
    return Get(key, topo::ClusterSpec(base_.num_nodes(),
                                      base_.gpus_per_node(), base_.gpu(),
                                      link));
  }

  PlannerEntry* Grown(int extra_nodes) {
    const std::string key = StrFormat("standby:%d", extra_nodes);
    return Get(key, topo::ClusterSpec(base_.num_nodes() + extra_nodes,
                                      base_.gpus_per_node(), base_.gpu(),
                                      base_.link()));
  }

  // Cache traffic summed over every world created so far.
  core::PlannerCache::Stats TotalCacheStats() const {
    std::lock_guard<std::mutex> lock(mu_);
    core::PlannerCache::Stats total;
    for (const auto& [key, entry] : entries_) {
      const core::PlannerCache::Stats s = entry->planner.solve_cache().stats();
      total.hits += s.hits;
      total.misses += s.misses;
    }
    return total;
  }

 private:
  PlannerEntry* Get(const std::string& key, const topo::ClusterSpec& c) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it == entries_.end()) {
      it = entries_
               .emplace(key, std::make_unique<PlannerEntry>(c, spec_))
               .first;
    }
    return it->second.get();
  }

  const topo::ClusterSpec base_;
  const model::ModelSpec spec_;
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<PlannerEntry>> entries_;
};

// Whether the recorded plan can meaningfully replay under this kind. The
// planner-targeted kinds (force_tp, add_standby_node) leave the executed
// world untouched, so their replay is definitionally the baseline.
bool ReplayApplies(scenario::CounterfactualKind kind) {
  return kind != scenario::CounterfactualKind::kForceTp &&
         kind != scenario::CounterfactualKind::kAddStandbyNode;
}

// Whether the planner can react to this kind's edit. Network PRICING is
// invisible to the planner's closed-form objective, so re-planning under a
// swapped net model is pure confirmation (same plan) and replay answers.
bool PlannerReacts(scenario::CounterfactualKind kind) {
  return kind != scenario::CounterfactualKind::kSwapNetModel;
}

// The edited world of one counterfactual.
struct Variant {
  PlannerEntry* entry = nullptr;
  straggler::Situation situation;
  net::NetModel net_model = net::NetModel::kAnalytic;
  int forced_tp = 0;
};

Result<Variant> BuildVariant(const scenario::Counterfactual& cf,
                             PlannerMap* planners,
                             const straggler::Situation& baseline,
                             net::NetModel base_model) {
  Variant v;
  v.entry = planners->Base();
  v.situation = baseline;
  v.net_model = base_model;
  switch (cf.kind) {
    case scenario::CounterfactualKind::kRemoveStraggler:
    case scenario::CounterfactualKind::kDampenStraggler: {
      if (!v.entry->cluster.ValidGpu(cf.gpu)) {
        return Status::InvalidArgument(
            StrFormat("gpu %d outside the recorded cluster (%d GPUs)",
                      cf.gpu, v.entry->cluster.num_gpus()));
      }
      if (cf.kind == scenario::CounterfactualKind::kRemoveStraggler) {
        v.situation.SetRate(cf.gpu, 1.0);
      } else {
        const double rate = baseline.rate(cf.gpu);
        v.situation.SetRate(cf.gpu, 1.0 + (rate - 1.0) * cf.factor);
      }
      break;
    }
    case scenario::CounterfactualKind::kScaleNic:
      v.entry = planners->ScaledLink(/*intra=*/false, cf.factor);
      break;
    case scenario::CounterfactualKind::kScaleNvlink:
      v.entry = planners->ScaledLink(/*intra=*/true, cf.factor);
      break;
    case scenario::CounterfactualKind::kForceTp:
      v.forced_tp = cf.tp;
      break;
    case scenario::CounterfactualKind::kAddStandbyNode: {
      v.entry = planners->Grown(cf.nodes);
      straggler::Situation grown(v.entry->cluster.num_gpus());
      for (int g = 0; g < baseline.num_gpus(); ++g) {
        grown.SetRate(g, baseline.rate(g));
      }
      v.situation = std::move(grown);
      break;
    }
    case scenario::CounterfactualKind::kSwapNetModel:
      v.net_model = cf.net_model;
      break;
  }
  return v;
}

}  // namespace

Result<RecordedRun> LoadRecordedRun(const obs::RunBundle& bundle,
                                    const std::string& source) {
  const std::string* scenario_text = bundle.Find(obs::kBundleScenarioName);
  if (scenario_text == nullptr) {
    return Status::NotFound(
        StrFormat("bundle has no %s member", obs::kBundleScenarioName));
  }
  RecordedRun run;
  MALLEUS_ASSIGN_OR_RETURN(run.spec,
                           scenario::ParseScenarioString(*scenario_text));
  MALLEUS_ASSIGN_OR_RETURN(run.resolved,
                           scenario::ResolveScenario(run.spec));
  if (const std::string* snap = bundle.Find(obs::kBundleSnapshotName)) {
    run.snapshot_text = *snap;
  }
  run.source = source.empty() ? bundle.producer : source;
  return run;
}

Result<RecordedRun> RecordedRunFromSpec(const scenario::ScenarioSpec& spec) {
  RecordedRun run;
  run.spec = spec;
  MALLEUS_ASSIGN_OR_RETURN(run.resolved, scenario::ResolveScenario(spec));
  run.source = spec.source.empty() ? "<spec>" : spec.source;
  return run;
}

Result<ReplayResult> ReplayPlanStep(const topo::ClusterSpec& cluster,
                                    const model::CostModel& cost,
                                    const plan::ParallelPlan& plan,
                                    const straggler::Situation& situation,
                                    net::NetModel net_model, uint64_t seed) {
  obs::TraceRecorder trace;
  sim::SimOptions sopts;
  sopts.timing_noise_stddev = 0.0;  // Replays must be deterministic.
  sopts.net_model = net_model;
  sopts.trace = &trace;
  Rng rng(seed);
  MALLEUS_ASSIGN_OR_RETURN(
      sim::StepResult step,
      sim::SimulateStep(cluster, cost, plan, situation, sopts, &rng));
  ReplayResult out;
  out.step_seconds = step.step_seconds;
  for (const obs::TraceEvent& e : trace.Events()) {
    if (e.phase != 'X') continue;
    const double seconds = e.duration_us / 1e6;
    if (e.category == "compute") {
      out.compute_span_seconds += seconds;
    } else if (e.category == "comm") {
      out.comm_span_seconds += seconds;
    } else if (e.category == "sync") {
      out.sync_span_seconds += seconds;
    }
  }
  return out;
}

Result<scenario::LabeledSituation> AnalyzedSituation(
    const RecordedRun& run, const std::string& phase) {
  MALLEUS_ASSIGN_OR_RETURN(
      std::vector<scenario::LabeledSituation> situations,
      scenario::ImpliedSituations(run.resolved));
  const scenario::LabeledSituation* chosen = nullptr;
  if (!phase.empty()) {
    for (const scenario::LabeledSituation& s : situations) {
      if (s.label == phase) chosen = &s;
    }
    if (chosen == nullptr) {
      return Status::InvalidArgument(
          "scenario implies no situation labeled " + phase);
    }
  } else {
    size_t most = 0;
    for (const scenario::LabeledSituation& s : situations) {
      const size_t stragglers = s.situation.Stragglers().size();
      if (chosen == nullptr || stragglers > most) {
        chosen = &s;
        most = stragglers;
      }
    }
    if (chosen == nullptr) {
      return Status::InvalidArgument("scenario implies no situations");
    }
  }
  return *chosen;
}

Result<obs::AttributionReport> RunWhatIf(
    const RecordedRun& run,
    const std::vector<scenario::Counterfactual>& grid,
    const WhatIfOptions& options) {
  MALLEUS_ASSIGN_OR_RETURN(const scenario::LabeledSituation analyzed,
                           AnalyzedSituation(run, options.phase));
  const scenario::LabeledSituation* chosen = &analyzed;

  PlannerMap planners(run.resolved.cluster, run.resolved.spec);
  PlannerEntry* base = planners.Base();

  // Re-derive the recorded plan. The planner is bit-identical at any
  // thread count, so this IS the plan the bundle snapshot rendered.
  core::PlannerOptions popts;
  popts.num_threads = 1;
  MALLEUS_ASSIGN_OR_RETURN(
      core::PlanResult baseline_plan,
      base->planner.Plan(chosen->situation, run.spec.batch, popts));
  const std::string baseline_signature = baseline_plan.plan.Signature();
  if (!run.snapshot_text.empty() &&
      run.snapshot_text.find("plan.signature = " + baseline_signature) ==
          std::string::npos) {
    return Status::InvalidArgument(
        "re-derived baseline plan signature " + baseline_signature +
        " does not appear in the bundle snapshot: the bundle was recorded "
        "by a different build or the scenario member was edited");
  }

  MALLEUS_ASSIGN_OR_RETURN(
      ReplayResult baseline,
      ReplayPlanStep(base->cluster, base->cost, baseline_plan.plan,
                     chosen->situation, run.resolved.net_model,
                     run.spec.seed));

  obs::AttributionReport report;
  report.title = "what-if attribution";
  report.scenario = run.source;
  report.phase = chosen->label;
  report.net_model = net::NetModelName(run.resolved.net_model);
  report.baseline_step_seconds = baseline.step_seconds;
  report.baseline_compute_seconds = baseline.compute_span_seconds;
  report.baseline_comm_seconds = baseline.comm_span_seconds;
  report.baseline_sync_seconds = baseline.sync_span_seconds;

  // Sweep: each worker writes only rows[i]; the shared planner entries are
  // internally synchronized.
  std::vector<obs::AttributionRow> rows(grid.size());
  obs::MetricsRegistry* metrics = &obs::MetricsRegistry::Current();
  const auto evaluate = [&, metrics](int64_t i) {
    // Re-install the caller's registry on the pool worker so the nested
    // planner/replay metrics stay with this sweep's request.
    obs::MetricsScope metrics_scope(metrics);
    const scenario::Counterfactual& cf = grid[i];
    obs::AttributionRow& row = rows[i];
    row.cause = cf.Label();
    row.kind = scenario::CounterfactualKindName(cf.kind);
    row.replay_step_seconds = kNaN;
    row.replan_step_seconds = kNaN;
    row.compute_delta_seconds = kNaN;
    row.comm_delta_seconds = kNaN;
    row.sync_delta_seconds = kNaN;

    Result<Variant> variant =
        BuildVariant(cf, &planners, chosen->situation,
                     run.resolved.net_model);
    if (!variant.ok()) {
      row.error = variant.status().ToString();
      return;
    }
    const bool replay_applies = ReplayApplies(cf.kind);
    const bool want_replan =
        !replay_applies || (options.replan && PlannerReacts(cf.kind));

    // The row is credited with the BEST step time the system could reach
    // in the edited world: Malleus is malleable, so the recorded plan
    // often routes AROUND a severe straggler (it sits on the standby
    // list) and fixed-plan replay attributes ~0 to healing it — the
    // replan column is what reveals the capacity that straggler costs.
    bool have_primary = false;
    ReplayResult primary;
    if (replay_applies) {
      Result<ReplayResult> replay = ReplayPlanStep(
          variant->entry->cluster, variant->entry->cost, baseline_plan.plan,
          variant->situation, variant->net_model, run.spec.seed);
      if (!replay.ok()) {
        row.error = replay.status().ToString();
        return;
      }
      row.replay_step_seconds = replay->step_seconds;
      primary = *replay;
      have_primary = true;
    }

    if (want_replan) {
      core::PlannerOptions vpopts;
      vpopts.num_threads = 1;
      vpopts.forced_tp = variant->forced_tp;
      Result<core::PlanResult> replanned = variant->entry->planner.Plan(
          variant->situation, run.spec.batch, vpopts);
      if (!replanned.ok()) {
        // The replay column stands for world edits; a planner edit has no
        // fallback and the row carries the failure.
        if (!replay_applies) {
          row.error = replanned.status().ToString();
          return;
        }
      } else {
        row.plan_signature = replanned->plan.Signature();
        row.plan_changed = row.plan_signature != baseline_signature;
        Result<ReplayResult> replan_step = ReplayPlanStep(
            variant->entry->cluster, variant->entry->cost, replanned->plan,
            variant->situation, variant->net_model, run.spec.seed);
        if (!replan_step.ok()) {
          if (!replay_applies) {
            row.error = replan_step.status().ToString();
            return;
          }
        } else {
          row.replan_step_seconds = replan_step->step_seconds;
          if (!have_primary ||
              replan_step->step_seconds < primary.step_seconds) {
            primary = *replan_step;
          }
          have_primary = true;
        }
      }
      if (!have_primary) {
        row.error = "re-plan produced no step time";
        return;
      }
    }

    row.attributed_seconds = baseline.step_seconds - primary.step_seconds;
    row.attributed_fraction =
        baseline.step_seconds > 0.0
            ? row.attributed_seconds / baseline.step_seconds
            : 0.0;
    row.compute_delta_seconds =
        baseline.compute_span_seconds - primary.compute_span_seconds;
    row.comm_delta_seconds =
        baseline.comm_span_seconds - primary.comm_span_seconds;
    row.sync_delta_seconds =
        baseline.sync_span_seconds - primary.sync_span_seconds;
  };

  const int requested = options.num_threads > 0
                            ? options.num_threads
                            : exec::DefaultPlannerThreads();
  const int workers = static_cast<int>(
      std::min<size_t>(requested, std::max<size_t>(grid.size(), 1)));
  if (workers > 1) {
    exec::ThreadPool pool(workers);
    exec::ParallelFor(&pool, static_cast<int64_t>(grid.size()), evaluate);
  } else {
    for (size_t i = 0; i < grid.size(); ++i) {
      evaluate(static_cast<int64_t>(i));
    }
  }

  // Deterministic ranking: evaluated rows by attributed seconds
  // descending, ties (and error rows, which rank last) by grid order.
  std::vector<size_t> order(rows.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&rows](size_t a, size_t b) {
    const bool a_ok = rows[a].error.empty();
    const bool b_ok = rows[b].error.empty();
    if (a_ok != b_ok) return a_ok;
    if (!a_ok) return false;
    return rows[a].attributed_seconds > rows[b].attributed_seconds;
  });
  report.rows.reserve(rows.size());
  for (size_t i : order) report.rows.push_back(std::move(rows[i]));

  const core::PlannerCache::Stats cache = planners.TotalCacheStats();
  report.cache_hits = cache.hits;
  report.cache_misses = cache.misses;

  // Sweep telemetry for the process-global registry (dashboards, bench
  // snapshots). Deliberately NOT part of the report struct: report bytes
  // must stay interleaving-independent.
  auto& registry = obs::MetricsRegistry::Current();
  registry.GetCounter("whatif.sweeps")->Increment();
  registry.GetCounter("whatif.counterfactuals")
      ->Increment(static_cast<double>(grid.size()));
  obs::Histogram* attributed =
      registry.GetHistogram("whatif.attributed_seconds");
  int64_t errors = 0;
  for (const obs::AttributionRow& row : report.rows) {
    if (row.error.empty()) {
      attributed->Observe(row.attributed_seconds);
    } else {
      ++errors;
    }
  }
  registry.GetCounter("whatif.row_errors")
      ->Increment(static_cast<double>(errors));
  return report;
}

}  // namespace whatif
}  // namespace malleus
