// malleus_lint: lint scenario files standalone, without running training.
//
//   $ ./tools/malleus_lint examples/scenarios/straggle_s3.scenario
//   $ ./tools/malleus_lint --format=sarif run.scenario > lint.sarif
//   $ ./tools/malleus_lint --list
//
// Per file, the full analysis stack runs:
//   1. parse        — syntax errors abort the file (Status, line-numbered);
//   2. scenario     — semantic checks on the parsed spec
//                     (scenario::CheckScenario, the rules ResolveScenario
//                     enforces before any run);
//   3. cluster      — shape/interconnect sanity (lint::LintCluster);
//   4. situations   — the custom straggler overlay and every trace phase,
//                     against the fitted straggler model (lint::LintSituation);
//   5. plan         — the planner runs for the scenario's first situation and
//                     its chosen plan is linted (structure + quality + the
//                     1F1B event-graph audit), unless --no-plan;
//   6. flow         — the plan's grad-sync rings are played through the
//                     flow-level fabric simulator and the result audited for
//                     conservation (lint::LintFlowConservation).
//
// Exit status: 0 = no error-level diagnostics anywhere, 1 = at least one
// error (or a file failed to parse / plan), 2 = bad usage. `--help` lists
// the flags.
//
// With json/sarif and several files, all findings merge into one document
// (the first file is recorded as the SARIF artifact).

#include <cstdio>
#include <string>
#include <vector>

#include "common/flags.h"
#include "core/scenario_lint.h"
#include "lint/diagnostic.h"
#include "lint/lint.h"

using namespace malleus;

namespace {

struct Args {
  std::string format = "text";
  bool no_plan = false;
  bool list = false;
  std::vector<std::string> files;
};

// Runs the shared end-to-end lint. Returns false when the file could not
// even be analyzed (parse or planner failure), which counts as an error
// exit.
bool LintFile(const std::string& path, const Args& args,
              lint::DiagnosticSink* sink) {
  core::ScenarioLintOptions options;
  options.with_plan = !args.no_plan;
  const Status status = core::LintScenarioFile(path, options, sink);
  if (!status.ok()) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(),
                 status.ToString().c_str());
    return false;
  }
  return true;
}

void PrintPassList() {
  for (const lint::PassInfo& pass : lint::Passes()) {
    std::printf("%-7s %-28s %s\n", lint::SeverityName(pass.severity),
                pass.code, pass.summary);
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  FlagTable flags("malleus_lint");
  flags.Define("format", &args.format, "text|json|sarif",
               "output format (default text)",
               OneOf({"text", "json", "sarif"}));
  flags.DefineSwitch("no-plan", &args.no_plan,
                     "skip the planner-dependent passes (5-6)");
  flags.DefineSwitch("list", &args.list,
                     "print the diagnostic-code registry and exit");
  flags.DefinePositionals("FILE.scenario", &args.files);
  if (!flags.ParseOrUsage(argc, argv)) return 2;
  if (!args.list && args.files.empty()) {
    std::fprintf(stderr, "%s", flags.Usage().c_str());
    return 2;
  }
  if (args.list) {
    PrintPassList();
    return 0;
  }

  lint::DiagnosticSink merged;
  bool analyzable = true;
  for (const std::string& path : args.files) {
    lint::DiagnosticSink sink;
    if (!LintFile(path, args, &sink)) analyzable = false;
    if (args.format == "text" && !sink.empty()) {
      std::printf("%s:\n%s", path.c_str(), lint::RenderText(sink).c_str());
    }
    merged.Merge(sink);
  }
  lint::RecordDiagnosticMetrics(merged);

  if (args.format == "json") {
    std::printf("%s\n", lint::RenderJson(merged).c_str());
  } else if (args.format == "sarif") {
    std::printf("%s\n",
                lint::RenderSarif(merged, args.files.front()).c_str());
  } else if (merged.empty()) {
    std::printf("%zu file(s): no diagnostics\n", args.files.size());
  }
  return (merged.HasErrors() || !analyzable) ? 1 : 0;
}
