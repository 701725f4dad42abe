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
#include <utility>
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

  JsonWriter json = BeginBenchJson();
  json.Key("bench").String("whatif");
  json.Key("gpus").Int(run->resolved.cluster.num_gpus());
  json.Key("phase").String(report->phase);
  json.Key("counterfactuals").Uint(grid.size());
  json.Key("sweep_seconds").Fixed(sweep_seconds, 6);
  json.Key("counterfactuals_per_second").Fixed(per_second, 3);
  json.Key("cache_hits").Int(report->cache_hits);
  json.Key("cache_misses").Int(report->cache_misses);
  json.Key("cache_hit_rate").Fixed(hit_rate, 4);
  json.Key("baseline_step_seconds").Fixed(report->baseline_step_seconds, 6);
  json.Key("top_cause").String(top.cause);
  json.Key("top_cause_seconds").Fixed(top.attributed_seconds, 6);
  json.Key("top_cause_is_injected_straggler").Bool(top_is_injected);
  json.Key("byte_identical_repeat").Bool(byte_identical);
  json.Key("planner_solve_seconds").BeginObject();
  json.Key("count").Int(solves.count).Key("p50").Number(solves.p50);
  json.Key("p95").Number(solves.p95).Key("p99").Number(solves.p99);
  json.EndObject();
  WriteBenchJson("whatif", std::move(json));

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
