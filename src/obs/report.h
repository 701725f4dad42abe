// Ranked attribution reports: the output side of the what-if engine.
//
// A report attributes a baseline quantity (one simulated training step's
// wall time) to causes, one row per counterfactual: "removing the level-3
// straggler on GPU 0 saves 3.1 s/step (41% of the step)". The obs layer
// owns the rendering only — rows are plain strings and doubles — so the
// renderers stay reusable for any future attribution surface (per-link
// contention reports, policy comparisons) without dragging planner types
// into obs.
//
// Determinism contract: the renderers are pure functions of the report
// struct; callers that order rows deterministically and exclude wall-clock
// quantities get byte-identical JSON, CSV and text at any sweep thread
// count. Floats render through the JsonNumber rule (JSON, `null` for
// non-finite) and with fixed significant digits in the CSV.

#ifndef MALLEUS_OBS_REPORT_H_
#define MALLEUS_OBS_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

namespace malleus {
namespace obs {

/// One ranked cause.
struct AttributionRow {
  std::string cause;  ///< Human-readable label, e.g. "remove_straggler gpu=0".
  std::string kind;   ///< Machine-stable category, e.g. "remove_straggler".
  /// The primary ranking value: seconds of baseline step time attributed
  /// to this cause (what applying the counterfactual saves per step).
  double attributed_seconds = 0.0;
  /// attributed_seconds as a fraction of the baseline step [0, 1]; may be
  /// negative when the counterfactual makes the step slower.
  double attributed_fraction = 0.0;
  /// Step seconds under the counterfactual with the recorded plan replayed
  /// unchanged, and with the planner re-run (NaN renders as null when a
  /// mode does not apply to the counterfactual).
  double replay_step_seconds = 0.0;
  double replan_step_seconds = 0.0;
  /// Span-diff decomposition vs the baseline timeline: positive values are
  /// seconds of aggregate span time the counterfactual removed from each
  /// category ("compute" 1F1B stage tasks, "comm" P2P transfers, "sync"
  /// grad-sync phases).
  double compute_delta_seconds = 0.0;
  double comm_delta_seconds = 0.0;
  double sync_delta_seconds = 0.0;
  /// Signature of the re-planned plan; empty when re-planning was off or
  /// failed. `plan_changed` says whether it differs from the baseline plan.
  std::string plan_signature;
  bool plan_changed = false;
  /// Empty for evaluated rows; the failure text for rows that could not be
  /// evaluated (these rank last and attribute 0 seconds).
  std::string error;
};

/// \brief A ranked attribution report plus its provenance.
struct AttributionReport {
  std::string title;       ///< e.g. "what-if attribution".
  std::string scenario;    ///< Scenario source (file name or description).
  std::string phase;       ///< Situation label the analysis ran under.
  std::string net_model;   ///< "analytic" / "flow".
  double baseline_step_seconds = 0.0;
  /// Baseline aggregate span seconds per category (see AttributionRow).
  double baseline_compute_seconds = 0.0;
  double baseline_comm_seconds = 0.0;
  double baseline_sync_seconds = 0.0;
  /// Solver-cache traffic of the sweep that produced the report. Consumed
  /// by bench_whatif only — never rendered, since every report's bytes must
  /// not depend on sweep interleaving (racing workers can double-miss a
  /// key, so these counts are nondeterministic).
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  /// Rows, already ranked (most attributed seconds first).
  std::vector<AttributionRow> rows;
};

/// The full report as one JSON object:
/// {"title":...,"baseline":{...},"causes":[{...},...]}.
/// Keys appear in fixed order; floats use `digits` significant digits.
std::string RenderAttributionJson(const AttributionReport& report,
                                  int digits = 9);

/// RFC 4180 CSV, one row per cause, with a fixed header:
/// rank,cause,kind,attributed_seconds,attributed_pct,replay_step_seconds,
/// replan_step_seconds,compute_delta_seconds,comm_delta_seconds,
/// sync_delta_seconds,plan_changed,plan_signature,error
std::string RenderAttributionCsv(const AttributionReport& report,
                                 int digits = 9);

/// Human-readable ranked table of the top `top_n` rows (all when <= 0).
std::string RenderAttributionText(const AttributionReport& report,
                                  int top_n = 0);

}  // namespace obs
}  // namespace malleus

#endif  // MALLEUS_OBS_REPORT_H_
