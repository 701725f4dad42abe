// What-if sweep throughput bench: records a 64-GPU S3 run as a bundle,
// loads it back, and answers a 200+-counterfactual grid in one RunWhatIf
// call, reporting counterfactuals/s and the shared PlannerCache hit-rate of
// the sweep. The grid excludes capacity-adding counterfactuals
// (add_standby_node) so the ranking isolates causes of loss — the bench
// checks that the top-ranked cause is healing an injected S3 straggler
// and that a repeat sweep renders byte-identical JSON.
//
// Emits BENCH_whatif.json (see bench::WriteBenchJson) with the measured
// throughput, cache traffic, top cause and determinism verdicts, plus the
// planner.solve_seconds histogram quantiles from the global metrics
// registry (the sweep's dominant cost).

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/table.h"
#include "obs/bundle.h"
#include "obs/report.h"
#include "scenario/counterfactual.h"
#include "scenario/scenario.h"
#include "whatif/whatif.h"

namespace malleus {
namespace bench {
namespace {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The Table 4 S3 case study scaled to the 64-GPU evaluation cluster.
scenario::ScenarioSpec S3Spec64() {
  scenario::ScenarioSpec spec;
  spec.model = "32b";
  spec.nodes = 8;
  spec.gpus_per_node = 8;
  spec.batch = 64;
  spec.steps = 2;
  spec.phases = {"normal", "s3", "normal"};
  spec.source = "bench_whatif S3@64";
  return spec;
}

int Run() {
  // Record the run as a real on-disk bundle and load it back, so the
  // bench exercises the same path malleus_whatif does.
  const scenario::ScenarioSpec spec = S3Spec64();
  std::string bundle_dir = "bench_whatif_bundle";
  if (const char* dir = std::getenv("MALLEUS_BENCH_OUT_DIR");
      dir != nullptr && *dir != '\0') {
    bundle_dir = std::string(dir) + "/" + bundle_dir;
  }
  obs::RunBundle bundle;
  bundle.producer = "bench_whatif";
  bundle.files.push_back(
      {obs::kBundleScenarioName, scenario::SerializeScenario(spec)});
  if (Status s = obs::WriteRunBundle(bundle_dir, bundle); !s.ok()) {
    std::fprintf(stderr, "cannot write bundle: %s\n", s.ToString().c_str());
    return 1;
  }
  Result<obs::RunBundle> loaded = obs::LoadRunBundle(bundle_dir);
  if (!loaded.ok()) {
    std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
    return 1;
  }
  Result<whatif::RecordedRun> run =
      whatif::LoadRecordedRun(*loaded, bundle_dir);
  if (!run.ok()) {
    std::fprintf(stderr, "%s\n", run.status().ToString().c_str());
    return 1;
  }

  Result<scenario::LabeledSituation> analyzed =
      whatif::AnalyzedSituation(*run);
  if (!analyzed.ok()) {
    std::fprintf(stderr, "%s\n", analyzed.status().ToString().c_str());
    return 1;
  }
  const std::vector<topo::GpuId> injected =
      analyzed->situation.Stragglers();

  // The full grid: removals and dampenings over EVERY GPU plus bandwidth
  // and TP sweeps — 64 + 3*64 + 2 + 4 + 1 = 263 counterfactuals. Rows
  // that ADD capacity beyond the recorded hardware (standby nodes,
  // bandwidth upgrades) are excluded: they measure opportunities, not
  // losses, and would trivially outrank the stragglers the run suffered.
  scenario::DefaultGridOptions gopts;
  gopts.dampen_all_gpus = true;
  gopts.standby_nodes.clear();
  gopts.bandwidth_factors = {0.5};
  const std::vector<scenario::Counterfactual> grid =
      scenario::DefaultCounterfactualGrid(run->resolved.cluster,
                                          analyzed->situation,
                                          run->resolved.net_model, gopts);

  const double t0 = Now();
  Result<obs::AttributionReport> report =
      whatif::RunWhatIf(*run, grid, {});
  const double sweep_seconds = Now() - t0;
  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
    return 1;
  }

  // Repeat the sweep: the ranked JSON must come out byte-identical.
  Result<obs::AttributionReport> repeat =
      whatif::RunWhatIf(*run, grid, {});
  const bool byte_identical =
      repeat.ok() && obs::RenderAttributionJson(*report) ==
                         obs::RenderAttributionJson(*repeat);

  const int64_t lookups = report->cache_hits + report->cache_misses;
  const double hit_rate =
      lookups > 0 ? static_cast<double>(report->cache_hits) / lookups : 0.0;
  const double per_second = grid.size() / sweep_seconds;

  // The top-ranked cause must heal (or dampen) an injected S3 straggler.
  const obs::AttributionRow& top = report->rows.front();
  bool top_is_injected = false;
  for (topo::GpuId g : injected) {
    if (top.cause == StrFormat("remove_straggler gpu=%d", g) ||
        top.cause.rfind(StrFormat("dampen_straggler gpu=%d ", g), 0) == 0) {
      top_is_injected = true;
    }
  }

  std::printf("what-if sweep: %s / %s, %d GPUs\n",
              run->source.c_str(), report->phase.c_str(),
              run->resolved.cluster.num_gpus());
  std::printf("  counterfactuals      %zu\n", grid.size());
  std::printf("  sweep seconds        %.3f  (%.1f counterfactuals/s)\n",
              sweep_seconds, per_second);
  std::printf("  solve cache          %lld hits / %lld lookups (%.1f%%)\n",
              static_cast<long long>(report->cache_hits),
              static_cast<long long>(lookups), 100.0 * hit_rate);
  std::printf("  baseline step        %.4f s\n",
              report->baseline_step_seconds);
  std::printf("  top cause            %s (%.4f s saved)\n",
              top.cause.c_str(), top.attributed_seconds);
  std::printf("  injected straggler top: %s\n",
              top_is_injected ? "yes" : "NO");
  std::printf("  byte-identical repeat:  %s\n",
              byte_identical ? "yes" : "NO");
  std::printf("%s", obs::RenderAttributionText(*report, 8).c_str());

  // The sweep's dominant cost is planner solves; surface the histogram
  // quantiles the metrics registry collected.
  const obs::HistogramSnapshot solves =
      obs::MetricsRegistry::Global()
          .GetHistogram("planner.solve_seconds")
          ->Snapshot();

  std::string json = "{";
  json += StrFormat("\"bench\":\"whatif\",\"gpus\":%d,",
                    run->resolved.cluster.num_gpus());
  json += StrFormat("\"phase\":\"%s\",", JsonEscape(report->phase).c_str());
  json += StrFormat("\"counterfactuals\":%zu,", grid.size());
  json += StrFormat("\"sweep_seconds\":%.6f,", sweep_seconds);
  json += StrFormat("\"counterfactuals_per_second\":%.3f,", per_second);
  json += StrFormat("\"cache_hits\":%lld,\"cache_misses\":%lld,",
                    static_cast<long long>(report->cache_hits),
                    static_cast<long long>(report->cache_misses));
  json += StrFormat("\"cache_hit_rate\":%.4f,", hit_rate);
  json += StrFormat("\"baseline_step_seconds\":%.6f,",
                    report->baseline_step_seconds);
  json += StrFormat("\"top_cause\":\"%s\",", JsonEscape(top.cause).c_str());
  json += StrFormat("\"top_cause_seconds\":%.6f,", top.attributed_seconds);
  json += StrFormat("\"top_cause_is_injected_straggler\":%s,",
                    top_is_injected ? "true" : "false");
  json += StrFormat("\"byte_identical_repeat\":%s,",
                    byte_identical ? "true" : "false");
  json += StrFormat(
      "\"planner_solve_seconds\":{\"count\":%lld,\"p50\":%s,\"p95\":%s,"
      "\"p99\":%s}}",
      static_cast<long long>(solves.count), JsonNumber(solves.p50).c_str(),
      JsonNumber(solves.p95).c_str(), JsonNumber(solves.p99).c_str());
  WriteBenchJson("whatif", json);

  return (top_is_injected && byte_identical) ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace malleus

int main() {
  const int rc = malleus::bench::Run();
  malleus::bench::DumpBenchMetrics("whatif");
  return rc;
}
