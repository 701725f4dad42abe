// The what-if attribution engine: replay a recorded run under
// counterfactual edits and rank how much of the step each cause costs.
//
// A recorded-run bundle (obs/bundle.h) pins the scenario; the planner and
// simulator are deterministic, so the engine re-derives the exact baseline
// plan and noise-free step timeline from the scenario alone, then — for
// every counterfactual in a grid (scenario/counterfactual.h) — builds the
// edited world (healed straggler, scaled fabric, constrained planner,
// grown cluster, swapped net model), re-plans and re-simulates it, and
// diffs the simulated step against the baseline. The output is a ranked
// obs::AttributionReport: "removing the level-3 straggler on GPU 0 saves
// 3.1 s/step (41% of the step)".
//
// Attribution semantics: every row carries up to two step times.
//   replay  — the RECORDED plan executed unchanged in the edited world;
//             answers "what would this step have cost with the same
//             decisions".
//   replan  — the planner re-run in the edited world; answers "what would
//             Malleus have done about it".
// attributed_seconds = baseline_step - best(computed step times): the
// counterfactual is credited with the best step the system could reach in
// its world. For planner edits (force_tp, add_standby_node) replay is
// definitionally the identity, so replan is the only candidate; for
// net-model swaps the planner cannot see network pricing, so replay is;
// straggler and bandwidth edits take the better of the two. The last case
// matters because Malleus is MALLEABLE: the recorded plan often routes
// around a severe straggler (it sits on the standby list), so fixed-plan
// replay attributes ~0 to healing it — the replan candidate is what
// reveals the capacity that straggler costs. attributed_seconds is
// positive when the counterfactual would have saved time.
//
// Determinism: variants are planned with one planner thread and simulated
// with timing noise 0; the sweep itself runs on an exec::ThreadPool with
// every worker writing only its own row slot, and the final ranking sorts
// by (attributed seconds desc, grid index). Reports therefore render
// byte-identically across repeat runs at any --threads value. Variants
// that share a world (same cluster + cost model) share one planner and
// its core::PlannerCache, so a 250-counterfactual sweep mostly replays
// memoized division/layer solves; cache traffic is reported but excluded
// from the JSON/CSV bytes (see obs/report.h).

#ifndef MALLEUS_WHATIF_WHATIF_H_
#define MALLEUS_WHATIF_WHATIF_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "model/cost_model.h"
#include "net/fabric.h"
#include "obs/bundle.h"
#include "obs/report.h"
#include "plan/plan.h"
#include "scenario/counterfactual.h"
#include "scenario/scenario.h"
#include "straggler/situation.h"
#include "topology/cluster.h"

namespace malleus {
namespace whatif {

/// A recorded run loaded from a bundle (or built from a spec in tests):
/// the scenario plus the recorded snapshot text used to cross-check that
/// this build re-derives the plan the bundle was recorded with.
struct RecordedRun {
  scenario::ScenarioSpec spec;
  scenario::ResolvedScenario resolved;
  /// testkit::RenderGoldenSnapshot text from the bundle; empty when the
  /// run was built from a bare spec. When non-empty, RunWhatIf requires
  /// the re-derived baseline plan signature to appear in it.
  std::string snapshot_text;
  /// Where the run came from (bundle directory or spec source), for the
  /// report's provenance fields.
  std::string source;
};

/// Extracts the scenario (and snapshot text, when present) from a loaded
/// bundle. Fails with a Status when the scenario member is missing or does
/// not parse/resolve.
Result<RecordedRun> LoadRecordedRun(const obs::RunBundle& bundle,
                                    const std::string& source = "");

/// Builds a RecordedRun straight from a spec (no bundle), for tests and
/// benches that sweep in-process.
Result<RecordedRun> RecordedRunFromSpec(const scenario::ScenarioSpec& spec);

/// The situation the sweep attributes: the implied situation labeled
/// `phase`, or — when `phase` is empty — the implied situation with the
/// most stragglers (ties to the first in order), i.e. the phase with
/// something to attribute. Shared by RunWhatIf and the tool's --auto-grid
/// builder so both see the same world.
Result<scenario::LabeledSituation> AnalyzedSituation(
    const RecordedRun& run, const std::string& phase = "");

/// One replayed step: the simulated wall time plus the aggregate span
/// seconds per trace category, diffable against another replay.
struct ReplayResult {
  double step_seconds = 0.0;
  double compute_span_seconds = 0.0;  ///< 1F1B stage tasks.
  double comm_span_seconds = 0.0;     ///< P2P activation transfers.
  double sync_span_seconds = 0.0;     ///< Grad-sync phases.
};

/// Simulates one noise-free step of `plan` under `situation` on `cluster`
/// priced by `net_model`, aggregating the trace spans per category.
/// Deterministic for deterministic inputs. Exposed for the testkit oracle
/// (fixed-plan replay is monotone in straggling rates under the analytic
/// model) and for tests.
Result<ReplayResult> ReplayPlanStep(const topo::ClusterSpec& cluster,
                                    const model::CostModel& cost,
                                    const plan::ParallelPlan& plan,
                                    const straggler::Situation& situation,
                                    net::NetModel net_model, uint64_t seed);

struct WhatIfOptions {
  /// Sweep workers. 0 picks exec::DefaultPlannerThreads(); 1 sweeps
  /// inline. The report bytes are identical at every value.
  int num_threads = 0;
  /// Also re-plan straggler and bandwidth edits, letting their rows take
  /// the better of replay and replan (see the attribution semantics
  /// above). Off attributes those rows by fixed-plan replay alone —
  /// cheaper, but blind to stragglers the recorded plan already routed
  /// around. force_tp / add_standby_node re-plan regardless.
  bool replan = true;
  /// Situation label to analyze ("overlay", "Normal", "S3", ...). Empty
  /// picks the implied situation with the most stragglers (ties to the
  /// first), i.e. the phase with something to attribute.
  std::string phase;
};

/// Runs the counterfactual sweep and returns the ranked report. Rows that
/// cannot be evaluated (GPU id outside the cluster, infeasible re-plan)
/// carry their error text, attribute 0 seconds and rank last — one bad
/// grid line never sinks the sweep.
Result<obs::AttributionReport> RunWhatIf(
    const RecordedRun& run,
    const std::vector<scenario::Counterfactual>& grid,
    const WhatIfOptions& options = {});

}  // namespace whatif
}  // namespace malleus

#endif  // MALLEUS_WHATIF_WHATIF_H_
