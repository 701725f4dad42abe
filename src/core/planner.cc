#include "core/planner.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <memory>
#include <string>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"
#include "core/hier.h"
#include "core/work_assignment.h"
#include "exec/thread_pool.h"
#include "obs/metrics.h"
#include "plan/estimator.h"
#include "solver/cache_key.h"

namespace malleus {
namespace core {

namespace {

double Elapsed(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// One (tp, b, dp) point of the sweep, in serial enumeration order (tp
// outermost, then micro-batch, then DP) — the order that defines the
// deterministic tie-break.
struct Candidate {
  int tp = 0;
  int micro_batch = 0;
  int dp = 0;
  int64_t total_micro = 0;
  const GroupingResult* grouping = nullptr;
};

// Everything one candidate evaluation produced. Outcomes are collected
// into a pre-sized vector (one slot per candidate, no sharing between
// workers) and reduced in index order after the sweep.
struct CandidateOutcome {
  bool feasible = false;
  plan::ParallelPlan plan;
  double est_simplified = 0.0;
  double est_full = std::numeric_limits<double>::infinity();
  Status error;  // Meaningful iff !feasible.
  // Component wall time spent by this candidate, each clamped at >= 0
  // (ordering_seconds can include queueing skew that would otherwise
  // drive the division share negative).
  double division_seconds = 0.0;
  double ordering_seconds = 0.0;
  double assignment_seconds = 0.0;
};

// Pool dispatch (thread startup, task handoff, cache cooldown) only
// amortizes when every worker gets a meaty slice of the sweep; below this
// many candidates per worker the sweep runs inline instead, which is
// bit-identical by construction and measurably faster on small clusters.
constexpr int kMinCandidatesPerWorker = 8;

// Grouping outcomes are compared so that a later TP degree that collapses
// to the same groups (e.g. after heavy splitting) is skipped: its
// candidates would duplicate an earlier TP's and lose every tie-break.
bool SameGrouping(const GroupingResult& a, const GroupingResult& b) {
  if (a.rates != b.rates || a.excluded != b.excluded) return false;
  if (a.groups.size() != b.groups.size()) return false;
  for (size_t i = 0; i < a.groups.size(); ++i) {
    if (a.groups[i].gpus != b.groups[i].gpus) return false;
  }
  return true;
}

CandidateOutcome EvaluateCandidate(const Candidate& c,
                                   const topo::ClusterSpec& cluster,
                                   const model::CostModel& cost,
                                   const straggler::Situation& situation,
                                   const PlannerOptions& options,
                                   PlannerCache* solve_cache) {
  CandidateOutcome out;
  const GroupingResult& grouping = *c.grouping;

  OrchestrationOptions oopts;
  oopts.nonuniform_layers = options.nonuniform_layers;
  oopts.nonuniform_stages = options.nonuniform_devices;
  oopts.solve_cache = solve_cache;
  const auto t_orch = std::chrono::steady_clock::now();
  Result<OrchestrationResult> orch = Orchestrate(
      grouping, cost, c.micro_batch, c.dp, c.total_micro, oopts);
  const double orch_seconds = std::max(0.0, Elapsed(t_orch));
  if (!orch.ok()) {
    // Failed candidates spend their time in the division search.
    out.division_seconds = orch_seconds;
    out.error = orch.status();
    return out;
  }
  out.ordering_seconds =
      std::min(std::max(0.0, orch->ordering_seconds), orch_seconds);
  out.division_seconds = orch_seconds - out.ordering_seconds;

  const auto t_assign = std::chrono::steady_clock::now();
  // Per-worker scratch: the sweep evaluates thousands of candidates at pod
  // scale, and a fresh allocation per candidate shows up in the profile.
  thread_local std::vector<double> bottlenecks;
  bottlenecks.clear();
  bottlenecks.reserve(orch->pipelines.size());
  for (const OrchestratedPipeline& p : orch->pipelines) {
    bottlenecks.push_back(p.bottleneck);
  }
  Result<std::vector<int64_t>> data =
      AssignData(bottlenecks, c.total_micro, options.nonuniform_data);
  out.assignment_seconds = std::max(0.0, Elapsed(t_assign));
  if (!data.ok()) {
    out.error = data.status();
    return out;
  }

  // Assemble the candidate plan.
  plan::ParallelPlan candidate;
  candidate.micro_batch_size = c.micro_batch;
  candidate.global_batch = c.total_micro * c.micro_batch;
  for (int i = 0; i < c.dp; ++i) {
    plan::Pipeline pipe;
    pipe.num_microbatches = (*data)[i];
    const OrchestratedPipeline& op = orch->pipelines[i];
    for (size_t j = 0; j < op.group_indices.size(); ++j) {
      plan::Stage stage;
      stage.group = grouping.groups[op.group_indices[j]];
      stage.num_layers = op.layers[j];
      pipe.stages.push_back(std::move(stage));
    }
    candidate.pipelines.push_back(std::move(pipe));
  }
  candidate.standby_gpus = grouping.excluded;
  for (int g : orch->removed_groups) {
    const plan::TpGroup& group = grouping.groups[g];
    candidate.standby_gpus.insert(candidate.standby_gpus.end(),
                                  group.gpus.begin(), group.gpus.end());
  }
  Status valid = candidate.Validate(cluster, cost);
  if (!valid.ok()) {
    out.error = std::move(valid);
    return out;
  }

  // Candidates are ranked by the full closed-form estimate (warm-up +
  // 1F1B + cool-down): the simplified objective drives the inner ILPs but
  // ignores pipeline bubbles, which matter when comparing shallow against
  // deep pipeline layouts.
  const plan::StepEstimate est =
      plan::EstimateStep(candidate, cost, situation);
  out.plan = std::move(candidate);
  out.est_simplified = est.simplified_seconds;
  out.est_full = est.step_seconds;
  out.feasible = true;
  return out;
}

}  // namespace

Result<PlanResult> SweepCandidates(const topo::ClusterSpec& cluster,
                                   const model::CostModel& cost,
                                   const straggler::Situation& situation,
                                   int64_t global_batch,
                                   const PlannerOptions& options,
                                   const std::vector<int>& micro_batches,
                                   int num_threads,
                                   PlannerCache* solve_cache) {
  PlannerCache::Stats cache_before;
  if (solve_cache != nullptr) cache_before = solve_cache->stats();

  PlannerTimings timings;

  // Phase 1 (serial): one grouping per TP degree; a degree whose grouping
  // collapses to an earlier degree's is dropped as a duplicate.
  struct TpEntry {
    int tp;
    Result<GroupingResult> grouping;
  };
  std::vector<TpEntry> entries;
  for (int tp : {1, 2, 4, 8}) {
    if (tp > cluster.gpus_per_node()) continue;
    if (options.forced_tp > 0 && tp != options.forced_tp) continue;
    GroupingOptions gopts;
    gopts.max_tp_degree = tp;
    gopts.enable_splitting = options.nonuniform_devices;
    const auto t_group = std::chrono::steady_clock::now();
    Result<GroupingResult> grouping =
        GroupGpus(cluster, cost, situation, gopts);
    timings.grouping_seconds += std::max(0.0, Elapsed(t_group));
    if (grouping.ok()) {
      bool duplicate = false;
      for (const TpEntry& prev : entries) {
        if (prev.grouping.ok() && SameGrouping(*prev.grouping, *grouping)) {
          duplicate = true;
          break;
        }
      }
      if (duplicate) continue;
    }
    entries.push_back(TpEntry{tp, std::move(grouping)});
  }

  // Phase 2 (serial): enumerate every candidate in sweep order. The index
  // into `candidates` is the deterministic tie-break rank.
  std::vector<Candidate> candidates;
  std::vector<std::pair<size_t, size_t>> entry_ranges;  // Per TpEntry.
  for (const TpEntry& entry : entries) {
    const size_t begin = candidates.size();
    if (entry.grouping.ok()) {
      const GroupingResult& grouping = *entry.grouping;
      const int num_groups = static_cast<int>(grouping.groups.size());
      std::vector<int> dp_candidates;
      if (options.dp_degree > 0) {
        dp_candidates.push_back(options.dp_degree);
      } else {
        // The DP search is bounded at 16 pipelines: beyond that the per-
        // pipeline micro-batch counts collapse below the 1F1B regime for
        // the paper's batch sizes, and every plan in the evaluation uses
        // far fewer. Raise the bound for unusually large B/b if needed.
        for (int dp = 1; dp <= std::min(num_groups, 16); ++dp) {
          dp_candidates.push_back(dp);
        }
      }
      for (int b : micro_batches) {
        const int64_t total_micro = global_batch / b;
        for (int dp : dp_candidates) {
          if (dp > num_groups || total_micro < dp) continue;
          candidates.push_back(
              Candidate{entry.tp, b, dp, total_micro, &grouping});
        }
      }
    }
    entry_ranges.push_back({begin, candidates.size()});
  }

  // Phase 3: evaluate all candidates, concurrently when asked to. Every
  // worker writes only its own outcome slot; the shared inputs (cluster,
  // cost model, situation, groupings) are read-only, and the solve cache
  // is internally synchronized.
  std::vector<CandidateOutcome> outcomes(candidates.size());
  // Pool workers start with no MetricsScope of their own, so re-install the
  // caller's registry inside each task — solver metrics recorded off-thread
  // then land in the same registry as this sweep's own series.
  obs::MetricsRegistry* metrics = &obs::MetricsRegistry::Current();
  const auto evaluate = [&, metrics](int64_t i) {
    obs::MetricsScope metrics_scope(metrics);
    outcomes[i] = EvaluateCandidate(candidates[i], cluster, cost, situation,
                                    options, solve_cache);
  };
  // Clamp the worker count to what can pay off: never more threads than
  // the hardware can actually run (except when MALLEUS_PLANNER_THREADS
  // forces oversubscription, see exec::ConcurrencyCap), and never so many
  // that each gets less than kMinCandidatesPerWorker candidates — pool
  // dispatch on a tiny sweep costs more than it wins, and the plan is
  // bit-identical at any worker count anyway.
  int workers = static_cast<int>(
      std::min<size_t>(num_threads, std::max<size_t>(candidates.size(), 1)));
  workers = std::min(workers, exec::ConcurrencyCap());
  workers = std::min(
      workers, std::max(1, static_cast<int>(candidates.size()) /
                               kMinCandidatesPerWorker));
  if (workers > 1) {
    exec::ThreadPool pool(workers);
    exec::ParallelFor(&pool, static_cast<int64_t>(candidates.size()),
                      evaluate);
  } else {
    for (size_t i = 0; i < candidates.size(); ++i) {
      evaluate(static_cast<int64_t>(i));
    }
  }

  // Phase 4 (serial): deterministic reduction in enumeration order —
  // strictly lower full-step estimate wins, so the first (lowest-index)
  // candidate keeps ties regardless of evaluation interleaving.
  int64_t candidates_feasible = 0;
  bool found = false;
  PlanResult best;
  best.estimated_seconds = std::numeric_limits<double>::infinity();
  best.estimated_full_seconds = std::numeric_limits<double>::infinity();
  Status last_error = Status::Infeasible("no candidate plan succeeded");
  for (size_t e = 0; e < entries.size(); ++e) {
    if (!entries[e].grouping.ok()) {
      last_error = entries[e].grouping.status();
      continue;
    }
    for (size_t i = entry_ranges[e].first; i < entry_ranges[e].second; ++i) {
      CandidateOutcome& out = outcomes[i];
      timings.division_seconds += out.division_seconds;
      timings.ordering_seconds += out.ordering_seconds;
      timings.assignment_seconds += out.assignment_seconds;
      if (!out.feasible) {
        last_error = std::move(out.error);
        continue;
      }
      ++candidates_feasible;
      if (out.est_full < best.estimated_full_seconds) {
        best.plan = std::move(out.plan);
        best.estimated_seconds = out.est_simplified;
        best.estimated_full_seconds = out.est_full;
        best.chosen_tp = candidates[i].tp;
        found = true;
      }
    }
  }

  PlannerCache::Stats cache_after = cache_before;
  if (solve_cache != nullptr) cache_after = solve_cache->stats();
  auto& registry = obs::MetricsRegistry::Current();
  registry.GetCounter("planner.candidates_explored")
      ->Increment(static_cast<double>(candidates.size()));
  registry.GetCounter("planner.candidates_feasible")
      ->Increment(static_cast<double>(candidates_feasible));
  registry.GetGauge("planner.threads")->Set(workers);
  registry.GetCounter("planner.cache_hits")
      ->Increment(static_cast<double>(cache_after.hits - cache_before.hits));
  registry.GetCounter("planner.cache_misses")
      ->Increment(
          static_cast<double>(cache_after.misses - cache_before.misses));
  registry.GetHistogram("planner.grouping_seconds")
      ->Observe(timings.grouping_seconds);
  registry.GetHistogram("planner.division_seconds")
      ->Observe(timings.division_seconds);

  if (!found) return last_error;
  best.timings = timings;
  return best;
}

Result<PlanResult> Planner::Plan(const straggler::Situation& situation,
                                 int64_t global_batch,
                                 const PlannerOptions& options) const {
  const auto t_total = std::chrono::steady_clock::now();
  if (global_batch <= 0) {
    return Status::InvalidArgument("global batch must be positive");
  }
  if (situation.num_gpus() != cluster_.num_gpus()) {
    return Status::InvalidArgument("situation does not match cluster");
  }
  if (options.forced_tp != 0 && options.forced_tp != 1 &&
      options.forced_tp != 2 && options.forced_tp != 4 &&
      options.forced_tp != 8) {
    return Status::InvalidArgument("forced_tp must be one of 0, 1, 2, 4, 8");
  }
  if (options.forced_tp > cluster_.gpus_per_node()) {
    return Status::Infeasible(
        StrFormat("forced_tp %d exceeds gpus_per_node %d", options.forced_tp,
                  cluster_.gpus_per_node()));
  }
  if (options.island_nodes > 0 &&
      cluster_.num_nodes() % options.island_nodes != 0) {
    return Status::InvalidArgument(
        StrFormat("island_nodes %d must divide the node count %d",
                  options.island_nodes, cluster_.num_nodes()));
  }

  std::vector<int> micro_batches;
  for (int b = 1; b <= kMaxMicroBatch; ++b) {
    if (global_batch % b == 0) micro_batches.push_back(b);
  }
  PlannerCache* solve_cache =
      options.enable_solve_cache ? &solve_cache_ : nullptr;
  auto& registry = obs::MetricsRegistry::Current();

  // Pod-scale clusters decompose hierarchically (core/hier.h): islands are
  // planned independently and stitched. A pinned DP degree below the
  // island count cannot be distributed one-per-island, and a hierarchical
  // infeasibility (e.g. the model does not fit inside one island) is not
  // final — both fall through to the flat sweep.
  const int island_nodes = ResolveIslandNodes(cluster_, options);
  Result<PlanResult> result = Status::Infeasible("not decomposed into islands");
  if (island_nodes > 0 &&
      (options.dp_degree == 0 ||
       options.dp_degree >= cluster_.num_nodes() / island_nodes)) {
    result = PlanHierarchical(cluster_, cost_, situation, global_batch,
                              options, micro_batches, island_nodes,
                              solve_cache);
    if (!result.ok()) {
      registry.GetCounter("planner.hier_fallbacks")->Increment();
    }
  }
  if (!result.ok()) {
    const int num_threads = options.num_threads > 0
                                ? options.num_threads
                                : exec::DefaultPlannerThreads();
    result = SweepCandidates(cluster_, cost_, situation, global_batch,
                             options, micro_batches, num_threads,
                             solve_cache);
  }

  const double total_seconds = Elapsed(t_total);
  registry.GetCounter("planner.solves")->Increment();
  registry.GetHistogram("planner.solve_seconds")->Observe(total_seconds);
  if (!result.ok()) {
    registry.GetCounter("planner.infeasible_solves")->Increment();
    return result;
  }
  result->timings.total_seconds = total_seconds;
  registry.GetGauge("planner.last_estimate_seconds")
      ->Set(result->estimated_full_seconds);

  // Lint the winner: structural + quality passes under the planning
  // situation, plus a topological audit of its 1F1B schedules. Findings
  // ride along in the result; the engine decides what to do with them.
  lint::LintPlan(result->plan, cluster_, cost_, &situation,
                 &result->diagnostics);
  lint::LintEventGraph(result->plan, &result->diagnostics);
  lint::RecordDiagnosticMetrics(result->diagnostics);

  return result;
}

Result<PlanResult> Planner::Replan(const straggler::Situation& situation,
                                   int64_t global_batch,
                                   const PlannerOptions& options) const {
  const auto t_lookup = std::chrono::steady_clock::now();
  auto& registry = obs::MetricsRegistry::Current();
  // The memo key covers every input that can change the answer. The
  // thread count cannot (the sweep is bit-identical at any count), and
  // neither can the cost model or cluster, which this planner fixes.
  std::string key;
  if (options.enable_solve_cache) {
    key = solver::CacheKey()
              .Tag('R')
              .Int(global_batch)
              .Int(options.dp_degree)
              .Int(options.forced_tp)
              .Bool(options.nonuniform_devices)
              .Bool(options.nonuniform_layers)
              .Bool(options.nonuniform_data)
              .Int(options.island_nodes)
              .Doubles(situation.rates())
              .str();
    if (std::shared_ptr<const Result<PlanResult>> memo =
            solve_cache_.FindPlan(key)) {
      registry.GetCounter("planner.replan_memo_hits")->Increment();
      Result<PlanResult> replay = *memo;
      if (replay.ok()) {
        replay->timings = PlannerTimings();
        replay->timings.total_seconds = Elapsed(t_lookup);
      }
      return replay;
    }
  }

  Result<PlanResult> planned = Plan(situation, global_batch, options);
  if (!planned.ok() && options.dp_degree > 0 &&
      planned.status().IsInfeasible()) {
    // Capacity loss can leave too few groups for the pinned degree; the
    // planner's own DP search picks the new one. Argument errors are
    // returned as they are: unpinning cannot fix them.
    registry.GetCounter("planner.replan_fallbacks")->Increment();
    PlannerOptions unpinned = options;
    unpinned.dp_degree = 0;
    planned = Plan(situation, global_batch, unpinned);
  }
  if (options.enable_solve_cache) {
    solve_cache_.Insert(key,
                        std::make_shared<const Result<PlanResult>>(planned));
  }
  return planned;
}

}  // namespace core
}  // namespace malleus
