// malleus_whatif: offline what-if attribution over a recorded-run bundle.
//
//   $ ./examples/scenario_cli --scenario=straggle_s3.scenario
//         --record-out=/tmp/run
//   $ ./tools/malleus_whatif /tmp/run --auto-grid --top=10
//         --report-out=report.json --csv-out=report.csv
//
// Loads the bundle (manifest-verified: a truncated or edited member fails
// cleanly), re-derives the recorded plan from its scenario, sweeps a
// counterfactual grid — heal/dampen each straggler, scale NIC/NVLink
// bandwidth, pin the planner's TP degree, add standby nodes, swap the
// network cost model — and prints the causes ranked by seconds of step
// time attributed to each. The JSON and CSV reports are byte-identical
// across repeat invocations at any --threads value.
//
// Exit status: 0 = sweep completed, 1 = bad bundle / failed sweep / failed
// output write, 2 = bad usage. `--help` lists the flags.

#include <cstdio>
#include <string>
#include <vector>

#include "common/file_util.h"
#include "common/flags.h"
#include "obs/bundle.h"
#include "obs/report.h"
#include "scenario/counterfactual.h"
#include "testkit/golden.h"
#include "whatif/whatif.h"

using namespace malleus;

namespace {

struct Args {
  std::string bundle_dir;
  std::string grid_file;
  std::string auto_grid;
  std::string phase;
  std::string report_out;
  std::string csv_out;
  int threads = 0;
  bool no_replan = false;
  int top = 10;
  bool verify_snapshot = false;
};

}  // namespace

int main(int argc, char** argv) {
  Args args;
  FlagTable flags("malleus_whatif");
  flags.Define("grid", &args.grid_file, "FILE",
               "counterfactual grid, one per line (see\n"
               "scenario/counterfactual.h for the grammar)");
  flags.DefineOptional(
      "auto-grid", &args.auto_grid, "standard", "full",
      "build the standard grid for the recorded situation;\n"
      "`full` additionally sweeps removals AND dampenings\n"
      "over every GPU. Default when --grid is absent.",
      OneOf({"full"}));
  flags.Define("phase", &args.phase, "LABEL",
               "situation to attribute (\"overlay\", \"Normal\", \"S3\",\n"
               "...); default: the implied situation with the most\n"
               "stragglers");
  flags.Define("report-out", &args.report_out, "FILE",
               "write the ranked report as JSON");
  flags.Define("csv-out", &args.csv_out, "FILE",
               "write the ranked report as RFC 4180 CSV");
  flags.Define("threads", &args.threads, "N",
               "sweep workers (0 = hardware default); report bytes\n"
               "are identical at every value",
               [](int n) { return n >= 0; });
  flags.DefineSwitch("no-replan", &args.no_replan,
                     "attribute straggler/bandwidth edits by fixed-plan\n"
                     "replay alone instead of the better of replay and\n"
                     "re-plan (force_tp / add_standby_node still re-plan)");
  flags.Define("top", &args.top, "N",
               "rows to print in the text table (0 = all)");
  flags.DefineSwitch("verify-snapshot", &args.verify_snapshot,
                     "re-render the scenario's golden snapshot and require\n"
                     "it to match the bundle's snapshot member byte for\n"
                     "byte (catches bundles recorded by a drifted build)");
  flags.DefinePositional("BUNDLE_DIR", &args.bundle_dir, /*required=*/true);
  if (!flags.ParseOrUsage(argc, argv)) return 2;

  Result<obs::RunBundle> bundle = obs::LoadRunBundle(args.bundle_dir);
  if (!bundle.ok()) {
    std::fprintf(stderr, "cannot load bundle %s: %s\n",
                 args.bundle_dir.c_str(),
                 bundle.status().ToString().c_str());
    return 1;
  }
  Result<whatif::RecordedRun> run =
      whatif::LoadRecordedRun(*bundle, args.bundle_dir);
  if (!run.ok()) {
    std::fprintf(stderr, "%s\n", run.status().ToString().c_str());
    return 1;
  }

  if (args.verify_snapshot) {
    const std::string* recorded = bundle->Find(obs::kBundleSnapshotName);
    if (recorded == nullptr) {
      std::fprintf(stderr, "bundle has no %s member to verify\n",
                   obs::kBundleSnapshotName);
      return 1;
    }
    Result<std::string> rendered = testkit::RenderGoldenSnapshot(run->spec);
    if (!rendered.ok()) {
      std::fprintf(stderr, "snapshot re-render failed: %s\n",
                   rendered.status().ToString().c_str());
      return 1;
    }
    if (*rendered != *recorded) {
      std::fprintf(stderr,
                   "snapshot drift: this build renders a different golden "
                   "snapshot than the bundle recorded\n");
      return 1;
    }
    std::printf("snapshot verified: %zu bytes identical\n",
                recorded->size());
  }

  std::vector<scenario::Counterfactual> grid;
  if (!args.grid_file.empty()) {
    const Result<std::string> text = ReadFileBytes(args.grid_file);
    if (!text.ok()) {
      std::fprintf(stderr, "cannot read grid file %s\n",
                   args.grid_file.c_str());
      return 1;
    }
    Result<std::vector<scenario::Counterfactual>> parsed =
        scenario::ParseCounterfactualGrid(*text);
    if (!parsed.ok()) {
      std::fprintf(stderr, "%s: %s\n", args.grid_file.c_str(),
                   parsed.status().ToString().c_str());
      return 1;
    }
    grid = std::move(*parsed);
  } else {
    Result<scenario::LabeledSituation> analyzed =
        whatif::AnalyzedSituation(*run, args.phase);
    if (!analyzed.ok()) {
      std::fprintf(stderr, "%s\n", analyzed.status().ToString().c_str());
      return 1;
    }
    scenario::DefaultGridOptions gopts;
    gopts.dampen_all_gpus = args.auto_grid == "full";
    grid = scenario::DefaultCounterfactualGrid(
        run->resolved.cluster, analyzed->situation, run->resolved.net_model,
        gopts);
  }
  if (grid.empty()) {
    std::fprintf(stderr, "the counterfactual grid is empty\n");
    return 1;
  }

  whatif::WhatIfOptions options;
  options.num_threads = args.threads;
  options.replan = !args.no_replan;
  options.phase = args.phase;
  Result<obs::AttributionReport> report =
      whatif::RunWhatIf(*run, grid, options);
  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
    return 1;
  }

  std::printf("%s", obs::RenderAttributionText(*report, args.top).c_str());

  int rc = 0;
  if (!args.report_out.empty()) {
    if (WriteFileBytes(args.report_out, obs::RenderAttributionJson(*report))
            .ok()) {
      std::printf("wrote JSON report (%zu causes) to %s\n",
                  report->rows.size(), args.report_out.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", args.report_out.c_str());
      rc = 1;
    }
  }
  if (!args.csv_out.empty()) {
    if (WriteFileBytes(args.csv_out, obs::RenderAttributionCsv(*report))
            .ok()) {
      std::printf("wrote CSV report to %s\n", args.csv_out.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", args.csv_out.c_str());
      rc = 1;
    }
  }
  return rc;
}
