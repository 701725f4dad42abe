// Scenario runner: drive Malleus (and optionally the baselines) through an
// arbitrary straggler trace from the command line.
//
//   $ ./examples/scenario_cli --model=70b --nodes=8 --steps=6
//         --trace=normal,s1,s4,normal --baselines
//
// Flags apply in command-line order, so --scenario=FILE loads the file's
// fields and later flags override them; `--help` lists every flag. The
// observability outputs (--trace-out, --metrics-out, --events-out,
// --csv-out, --record-out) all come from the Malleus run only.

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/deepspeed.h"
#include "baselines/malleus_adapter.h"
#include "baselines/megatron.h"
#include "baselines/trace_runner.h"
#include "common/file_util.h"
#include "common/flags.h"
#include "common/string_util.h"
#include "common/table.h"
#include "core/planner_cache.h"
#include "core/run_log.h"
#include "core/scenario_lint.h"
#include "lint/lint.h"
#include "net/fabric.h"
#include "obs/bundle.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "policy/events.h"
#include "policy/policy.h"
#include "policy/runner.h"
#include "scenario/scenario.h"
#include "solver/cache_io.h"
#include "testkit/golden.h"

using namespace malleus;

namespace {

struct Args {
  std::string model = "32b";
  int nodes = 4;
  int64_t batch = 64;
  int steps = 6;
  std::vector<std::string> trace;
  uint64_t seed = 42;
  net::NetModel net_model = net::DefaultNetModel();
  int planner_threads = 0;
  bool baselines = false;
  std::string trace_out;
  std::string metrics_out;
  std::string events_out;
  std::string csv_out;
  std::string record_out;
  std::string scenario_file;
  /// Solver-cache persistence in the daemon's file format (solver/cache_io),
  /// so one-shot runs share malleus_served's --cache-save/--cache-load files.
  std::string cache_load;
  std::string cache_save;
  /// Custom straggler overlay carried over from --scenario, so a recorded
  /// bundle round-trips the whole file (the trace run itself only plays
  /// the phases; the overlay is what the what-if engine analyzes).
  std::vector<scenario::StragglerEntry> stragglers;
  /// --lint's output format; empty when not linting.
  std::string lint_format;
  /// Dynamic policy-engine mode: the scenario's `dynamic = {...}` block
  /// (or its defaults) replayed through policy::RunDynamic.
  bool dynamic = false;
  std::string policy = "adaptive";
  scenario::DynamicSpec dynamic_spec;
};

// Writes `content` to `path`; complains to stderr on failure.
bool WriteFileOrWarn(const std::string& path, const std::string& content) {
  if (WriteFileBytes(path, content).ok()) return true;
  std::fprintf(stderr, "cannot write %s\n", path.c_str());
  return false;
}

// Loads a scenario file into `out`; later flags override its fields.
Status ApplyScenarioFile(const std::string& path, Args* out) {
  MALLEUS_ASSIGN_OR_RETURN(const scenario::ScenarioSpec spec,
                           scenario::LoadScenarioFile(path));
  out->scenario_file = path;
  out->model = spec.model;
  out->nodes = spec.nodes;
  out->batch = spec.batch;
  out->steps = spec.steps;
  out->seed = spec.seed;
  out->trace = spec.phases;
  out->stragglers = spec.stragglers;
  out->dynamic_spec = spec.dynamic;
  if (spec.dynamic.enabled) out->dynamic = true;
  if (!spec.net_model.empty()) {
    MALLEUS_ASSIGN_OR_RETURN(out->net_model,
                             net::ParseNetModel(spec.net_model));
  }
  return Status::OK();
}

bool ParseArgs(int argc, char** argv, Args* out) {
  FlagTable flags("scenario_cli");
  flags.DefineCallback(
      "scenario", "FILE",
      "load model/cluster/trace/stragglers from a scenario\n"
      "file (see src/scenario/scenario.h); later flags\n"
      "override individual fields",
      [out](const std::string& path) { return ApplyScenarioFile(path, out); });
  flags.DefineOptional(
      "lint", &out->lint_format, "text", "text|json|sarif",
      "lint the --scenario file (malleus::lint's full pass\n"
      "stack, including the planner's plan and the flow-\n"
      "conservation audit) and exit: 0 clean, 1 error-level\n"
      "findings",
      OneOf({"text", "json", "sarif"}));
  flags.Define("model", &out->model, "32b|70b|110b|tiny",
               "model to train (default 32b)");
  flags.Define("nodes", &out->nodes, "N", "8-GPU nodes (default 4)");
  flags.Define("batch", &out->batch, "B", "global batch size (default 64)");
  flags.Define("steps", &out->steps, "K", "steps per trace phase (default 6)");
  flags.DefineCallback("trace", "p1,p2,...",
                       "phases: normal,s1..s6 (default full trace)",
                       [out](const std::string& phases) {
                         std::istringstream in(phases);
                         for (std::string p; std::getline(in, p, ',');) {
                           if (!p.empty()) out->trace.push_back(p);
                         }
                         return Status::OK();
                       });
  flags.Define("seed", &out->seed, "S", "simulator seed (default 42)");
  flags.DefineCallback(
      "net-model", "analytic|flow",
      "comm pricing: isolated closed forms, or the\n"
      "contention-aware flow-level fabric simulator\n"
      "(default: build/env default, see net/fabric.h)",
      [out](const std::string& name) -> Status {
        MALLEUS_ASSIGN_OR_RETURN(out->net_model, net::ParseNetModel(name));
        return Status::OK();
      });
  flags.Define("planner-threads", &out->planner_threads, "N",
               "worker threads for the planner's candidate sweep;\n"
               "0 = MALLEUS_PLANNER_THREADS env or hardware\n"
               "concurrency (default 0). The chosen plan is\n"
               "identical at every thread count.",
               [](int n) { return n >= 0; });
  flags.DefineSwitch("baselines", &out->baselines,
                     "also run Megatron/DeepSpeed for comparison");
  flags.DefineSwitch("dynamic", &out->dynamic,
                     "run the scenario's `dynamic = {...}` block through\n"
                     "the online fault-tolerance policy engine instead of\n"
                     "the phase trace (the block's defaults when the\n"
                     "scenario has none)");
  flags.Define("policy", &out->policy, "NAME",
               "selector for --dynamic: adaptive (default),\n"
               "tolerate, promote, delta, replan, restart");
  flags.Define("cache-load", &out->cache_load, "FILE",
               "warm-load the planner's solve cache (daemon format)");
  flags.Define("cache-save", &out->cache_save, "FILE",
               "save the planner's solve cache (daemon format)");
  flags.Define("trace-out", &out->trace_out, "FILE",
               "Chrome trace-event JSON of every 1F1B stage task,\n"
               "P2P transfer, grad-sync phase and engine transition");
  flags.Define("metrics-out", &out->metrics_out, "FILE",
               "metrics registry snapshot as JSON");
  flags.Define("events-out", &out->events_out, "FILE",
               "run telemetry as JSONL (steps + typed engine events)");
  flags.Define("csv-out", &out->csv_out, "FILE", "per-step run log as CSV");
  flags.Define("record-out", &out->record_out, "DIR",
               "write the run as a recorded-run bundle (obs/bundle.h)\n"
               "that tools/malleus_whatif can verify and replay");
  return flags.ParseOrUsage(argc, argv);
}

// The scenario the run actually executed, reconstructed from the effective
// flags (a loaded --scenario plus overrides). This is what --record-out
// persists, so a bundle replays the run as flagged, not as the file read.
scenario::ScenarioSpec EffectiveSpec(
    const Args& args, const std::vector<straggler::TracePhase>& trace) {
  scenario::ScenarioSpec spec;
  spec.model = args.model;
  spec.nodes = args.nodes;
  spec.gpus_per_node = 8;  // A800Cluster, the only shape the CLI runs.
  spec.batch = args.batch;
  spec.steps = args.steps;
  spec.seed = args.seed;
  spec.net_model = net::NetModelName(args.net_model);
  for (const straggler::TracePhase& p : trace) {
    std::string name = straggler::SituationName(p.id);
    for (char& c : name) {
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    spec.phases.push_back(std::move(name));
  }
  spec.stragglers = args.stragglers;
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;

  if (!args.lint_format.empty()) {
    if (args.scenario_file.empty()) {
      std::fprintf(stderr, "--lint requires --scenario=FILE\n");
      return 2;
    }
    lint::DiagnosticSink sink;
    const Status status = core::LintScenarioFile(
        args.scenario_file, core::ScenarioLintOptions(), &sink);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    if (args.lint_format == "json") {
      std::printf("%s\n", lint::RenderJson(sink).c_str());
    } else if (args.lint_format == "sarif") {
      std::printf("%s\n",
                  lint::RenderSarif(sink, args.scenario_file).c_str());
    } else {
      std::printf("%s", lint::RenderText(sink).c_str());
    }
    return sink.HasErrors() ? 1 : 0;
  }

  Result<model::ModelSpec> spec = scenario::ModelSpecByName(args.model);
  if (!spec.ok()) {
    std::fprintf(stderr, "%s\n", spec.status().ToString().c_str());
    return 2;
  }
  if (args.nodes < 1 || args.batch < 1 || args.steps < 1) {
    std::fprintf(stderr,
                 "--nodes, --batch and --steps must all be >= 1\n");
    return 2;
  }
  const topo::ClusterSpec cluster = topo::ClusterSpec::A800Cluster(args.nodes);
  const model::CostModel cost(*spec, cluster.gpu());

  if (args.dynamic) {
    scenario::DynamicSpec dyn = args.dynamic_spec;
    dyn.enabled = true;  // --dynamic without a block runs the defaults.
    const policy::EventTrace trace = policy::GenerateEventTrace(
        cluster, dyn, dyn.seed != 0 ? dyn.seed : args.seed);
    Result<std::unique_ptr<policy::PolicySelector>> selector =
        policy::MakeSelector(args.policy);
    if (!selector.ok()) {
      std::fprintf(stderr, "%s\n", selector.status().ToString().c_str());
      return 2;
    }
    straggler::Situation initial(cluster.num_gpus());
    for (const scenario::StragglerEntry& entry : args.stragglers) {
      if (entry.gpu < 0 || entry.gpu >= cluster.num_gpus()) {
        std::fprintf(stderr, "straggler GPU %d is outside the cluster\n",
                     entry.gpu);
        return 2;
      }
      if (entry.is_rate) {
        initial.SetRate(entry.gpu, entry.rate);
      } else {
        initial.SetLevel(entry.gpu, entry.level);
      }
    }
    core::RunLog dyn_log;
    policy::DynamicRunOptions dyn_options;
    dyn_options.planner.num_threads = args.planner_threads;
    dyn_options.sim.net_model = args.net_model;
    dyn_options.run_log = &dyn_log;
    std::printf("model   : %s\n", cost.spec().ToString().c_str());
    std::printf("cluster : %s\n", cluster.ToString().c_str());
    std::printf("dynamic : %lld iterations, %zu events, policy=%s\n\n",
                static_cast<long long>(trace.iterations),
                trace.events.size(), args.policy.c_str());
    const Result<policy::DynamicRunResult> run = policy::RunDynamic(
        cluster, cost, initial, trace, args.batch, **selector, dyn_options);
    if (!run.ok()) {
      std::fprintf(stderr, "dynamic run failed: %s\n",
                   run.status().ToString().c_str());
      return 1;
    }
    std::printf("iterations run   : %lld of %lld\n",
                static_cast<long long>(run->iterations_run),
                static_cast<long long>(run->trace_iterations));
    std::printf("events applied   : %d\n", run->events_applied);
    std::string actions;
    for (int a = 0; a < policy::kNumPolicyActions; ++a) {
      if (a > 0) actions += ", ";
      actions += StrFormat(
          "%s %d",
          policy::PolicyActionName(static_cast<policy::PolicyAction>(a)),
          run->action_counts[a]);
    }
    std::printf("actions          : %s\n", actions.c_str());
    std::printf("training         : %.3f s\n", run->training_seconds);
    std::printf("transition       : %.3f s\n", run->transition_seconds);
    std::printf("wall             : %.3f s\n", run->wall_seconds);
    std::printf("healthy step     : %.4f s/iter\n",
                run->healthy_step_seconds);
    std::printf("goodput          : %.4f\n", run->goodput);
    if (!run->stop_reason.empty()) {
      std::printf("stopped early    : %s\n", run->stop_reason.c_str());
    }
    int dyn_rc = run->stop_reason.empty() ? 0 : 1;
    if (!args.events_out.empty()) {
      if (WriteFileOrWarn(args.events_out, dyn_log.ToJsonl())) {
        std::printf("wrote %d steps + %zu events to %s\n",
                    dyn_log.num_steps(), dyn_log.events().size(),
                    args.events_out.c_str());
      } else {
        dyn_rc = 1;
      }
    }
    if (!args.csv_out.empty()) {
      if (WriteFileOrWarn(args.csv_out, dyn_log.ToCsv())) {
        std::printf("wrote run log CSV to %s\n", args.csv_out.c_str());
      } else {
        dyn_rc = 1;
      }
    }
    return dyn_rc;
  }

  std::vector<straggler::TracePhase> trace;
  if (args.trace.empty()) {
    trace = straggler::StandardTrace(args.steps);
  } else {
    for (const std::string& name : args.trace) {
      Result<straggler::SituationId> id = scenario::SituationIdByName(name);
      if (!id.ok()) {
        std::fprintf(stderr, "%s\n", id.status().ToString().c_str());
        return 2;
      }
      trace.push_back({*id, args.steps});
    }
  }

  std::printf("model   : %s\n", cost.spec().ToString().c_str());
  std::printf("cluster : %s\n", cluster.ToString().c_str());
  std::printf("batch   : %lld sequences/step\n\n",
               static_cast<long long>(args.batch));

  std::vector<std::unique_ptr<baselines::TrainingFramework>> frameworks;
  obs::TraceRecorder trace_recorder;
  core::RunLog run_log;
  core::EngineOptions eng;
  eng.seed = args.seed;
  eng.sim.net_model = args.net_model;
  eng.planner.num_threads = args.planner_threads;
  // Replace the planner's measured wall time by a representative constant
  // so every exported artifact is byte-reproducible for a fixed --seed.
  eng.planning_seconds_override = 0.02;
  if (!args.trace_out.empty() || !args.record_out.empty()) {
    eng.sim.trace = &trace_recorder;
  }
  auto malleus_fw =
      std::make_unique<baselines::MalleusFramework>(cluster, cost, eng);
  baselines::MalleusFramework* malleus = malleus_fw.get();
  frameworks.push_back(std::move(malleus_fw));
  if (args.baselines) {
    baselines::MegatronOptions mo;
    mo.seed = args.seed;
    frameworks.push_back(
        std::make_unique<baselines::MegatronBaseline>(cluster, cost, mo));
    baselines::DeepSpeedOptions dso;
    dso.seed = args.seed;
    frameworks.push_back(
        std::make_unique<baselines::DeepSpeedBaseline>(cluster, cost, dso));
  }

  // Warm-load the Malleus planner's solve cache from a daemon-format cache
  // file. Any failure (missing file, no matching section, corrupt bytes)
  // downgrades to a cold start — persistence must never fail a run.
  const uint64_t cache_fp = core::PlannerCacheFingerprint(cluster, cost);
  core::PlannerCache& cache = malleus->engine().planner().solve_cache();
  if (!args.cache_load.empty()) {
    Result<std::vector<solver::CacheFileSection>> sections =
        solver::ReadCacheFile(args.cache_load);
    Status status = sections.status();
    if (status.ok()) {
      auto match = std::find_if(sections->begin(), sections->end(),
                                [&](const solver::CacheFileSection& s) {
                                  return s.fingerprint == cache_fp;
                                });
      status = match != sections->end()
                   ? cache.Load(match->blob)
                   : Status::NotFound(args.cache_load +
                                      " has no section for this "
                                      "cluster/model");
    }
    if (status.ok()) {
      std::printf("warm solve cache: %zu entries from %s\n", cache.size(),
                  args.cache_load.c_str());
    } else {
      std::fprintf(stderr, "cache load: %s (cold start)\n",
                   status.ToString().c_str());
    }
  }

  TablePrinter table("per-phase mean step seconds");
  std::vector<std::string> header = {"Framework"};
  for (const auto& phase : trace) {
    header.push_back(straggler::SituationName(phase.id));
  }
  table.SetHeader(std::move(header));

  int rc = 0;
  for (auto& fw : frameworks) {
    baselines::TraceRunOptions run_opts;
    if (fw->name() == "Malleus") run_opts.run_log = &run_log;
    Result<std::vector<baselines::PhaseStats>> stats =
        baselines::RunTrace(fw.get(), cluster, trace, args.batch, run_opts);
    if (!stats.ok()) {
      // A framework that cannot plan or validate its plan is a failed run,
      // not a cosmetic gap in the table: exit non-zero after reporting.
      std::fprintf(stderr, "%s failed: %s\n", fw->name().c_str(),
                   stats.status().ToString().c_str());
      rc = 1;
      continue;
    }
    std::vector<std::string> row = {fw->name()};
    for (const baselines::PhaseStats& p : *stats) {
      std::string cell = StrFormat("%.1f", p.mean_step_seconds);
      if (p.restart_seconds > 0) {
        cell += StrFormat(" (+%.0fs restart)", p.restart_seconds);
      } else if (p.migration_seconds > 0) {
        cell += StrFormat(" (+%.1fs migr)", p.migration_seconds);
      }
      row.push_back(std::move(cell));
    }
    table.AddRow(std::move(row));
  }
  table.Print();

  if (!args.trace_out.empty()) {
    if (WriteFileOrWarn(args.trace_out, trace_recorder.ToChromeTraceJson())) {
      std::printf("\nwrote step trace (%zu events) to %s\n",
                  trace_recorder.num_events(), args.trace_out.c_str());
    } else {
      rc = 1;
    }
  }
  if (!args.metrics_out.empty()) {
    if (WriteFileOrWarn(args.metrics_out,
                        obs::MetricsRegistry::Global().ToJson() + "\n")) {
      std::printf("wrote metrics snapshot to %s\n", args.metrics_out.c_str());
    } else {
      rc = 1;
    }
  }
  if (!args.events_out.empty()) {
    if (WriteFileOrWarn(args.events_out, run_log.ToJsonl())) {
      std::printf("wrote %d steps + %zu events to %s\n", run_log.num_steps(),
                  run_log.events().size(), args.events_out.c_str());
    } else {
      rc = 1;
    }
  }
  if (!args.csv_out.empty()) {
    if (WriteFileOrWarn(args.csv_out, run_log.ToCsv())) {
      std::printf("wrote run log CSV to %s\n", args.csv_out.c_str());
    } else {
      rc = 1;
    }
  }
  if (!args.cache_save.empty()) {
    // Merge with an existing file: replace this cluster/model's section,
    // carry every other section forward.
    Result<std::vector<solver::CacheFileSection>> existing =
        solver::ReadCacheFile(args.cache_save);
    const std::vector<solver::CacheFileSection> sections =
        solver::MergeCacheSection(
            existing.ok() ? std::move(existing).ValueOrDie()
                          : std::vector<solver::CacheFileSection>(),
            {cache_fp,
             StrFormat("scenario_cli %s nodes=%d", args.model.c_str(),
                       args.nodes),
             cache.Serialize()});
    const Status status = solver::WriteCacheFile(args.cache_save, sections);
    if (!status.ok()) {
      std::fprintf(stderr, "cache save: %s\n", status.ToString().c_str());
      rc = 1;
    } else {
      std::printf("wrote solve cache (%zu sections) to %s\n",
                  sections.size(), args.cache_save.c_str());
    }
  }
  if (!args.record_out.empty()) {
    const scenario::ScenarioSpec effective = EffectiveSpec(args, trace);
    obs::RunBundle bundle;
    bundle.producer = "scenario_cli";
    bundle.files.push_back({obs::kBundleScenarioName,
                            scenario::SerializeScenario(effective)});
    // The snapshot is re-rendered from the effective scenario (the planner
    // is deterministic), pinning the plan the bundle's trace executed so
    // malleus_whatif can cross-check its own re-derivation.
    Result<std::string> snapshot = testkit::RenderGoldenSnapshot(effective);
    if (snapshot.ok()) {
      bundle.files.push_back({obs::kBundleSnapshotName, *snapshot});
    } else {
      std::fprintf(stderr, "snapshot render failed: %s\n",
                   snapshot.status().ToString().c_str());
      rc = 1;
    }
    bundle.files.push_back({obs::kBundleTraceName,
                            trace_recorder.ToChromeTraceJson()});
    bundle.files.push_back({obs::kBundleMetricsName,
                            obs::MetricsRegistry::Global().ToJson() + "\n"});
    bundle.files.push_back({obs::kBundleEventsName, run_log.ToJsonl()});
    bundle.files.push_back({obs::kBundleCsvName, run_log.ToCsv()});
    const Status written = obs::WriteRunBundle(args.record_out, bundle);
    if (written.ok()) {
      std::printf("recorded run bundle (%zu members) to %s\n",
                  bundle.files.size(), args.record_out.c_str());
    } else {
      std::fprintf(stderr, "%s\n", written.ToString().c_str());
      rc = 1;
    }
  }
  return rc;
}
