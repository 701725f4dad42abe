// malleus_fuzz: seeded scenario fuzzing against the property oracles.
//
//   $ ./tools/malleus_fuzz --seed=7 --runs=200
//   $ ./tools/malleus_fuzz --seed=7 --runs=200 --report=fuzz.json --out=/tmp
//   $ ./tools/malleus_fuzz --replay=repro-7-13.scenario
//
// Each run draws one boundary-biased scenario from the seeded generator
// (testkit::GenerateScenario over Rng(MixSeed(seed, run))) and evaluates
// every applicable oracle (testkit::RunOracles). A violation is minimized
// (testkit::MinimizeScenario) and written as a self-contained `.scenario`
// repro under --out, replayable with --replay.
//
// Determinism: the whole sweep is a pure function of the flags. The JSON
// report carries no timestamps or machine state, and its FNV-1a hash is
// printed so two invocations can be compared byte-for-byte:
//
//   $ ./tools/malleus_fuzz --seed=7 --runs=200 | grep report-hash
//
// Exit status: 0 = no violations, 1 = violations found (or a replay that
// still violates), 2 = bad usage / I/O failure. `--help` lists the flags.

#include <cinttypes>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/file_util.h"
#include "common/flags.h"
#include "common/hash.h"
#include "common/string_util.h"
#include "net/fabric.h"
#include "scenario/scenario.h"
#include "testkit/generator.h"
#include "testkit/oracle.h"
#include "testkit/repro.h"

using namespace malleus;

namespace {

struct Args {
  uint64_t seed = 1;
  int runs = 100;
  std::string net_model = "analytic";
  std::string out_dir = ".";
  std::string report_path;
  std::string replay_path;
  bool dynamic = false;
  /// "perturb-estimate" deliberately breaks an oracle (harness test).
  std::string inject;
};

testkit::OracleOptions ToOracleOptions(const Args& args) {
  testkit::OracleOptions options;
  options.sim_net_model = args.net_model == "flow" ? net::NetModel::kFlow
                                                   : net::NetModel::kAnalytic;
  options.inject_perturb_estimate = !args.inject.empty();
  return options;
}

int Replay(const Args& args) {
  Result<scenario::ScenarioSpec> spec =
      scenario::LoadScenarioFile(args.replay_path);
  if (!spec.ok()) {
    std::fprintf(stderr, "cannot load %s: %s\n", args.replay_path.c_str(),
                 spec.status().ToString().c_str());
    return 2;
  }
  const testkit::OracleOutcome outcome =
      testkit::RunOracles(*spec, ToOracleOptions(args));
  std::printf("replay %s: %zu oracles run, %zu violation(s)\n",
              args.replay_path.c_str(), outcome.oracles_run.size(),
              outcome.violations.size());
  if (!outcome.error.empty()) {
    std::printf("  note: %s\n", outcome.error.c_str());
  }
  for (const testkit::Violation& v : outcome.violations) {
    std::printf("  %s: %s\n", v.oracle.c_str(), v.message.c_str());
  }
  return outcome.violations.empty() ? 0 : 1;
}

struct ViolationRecord {
  int run = 0;
  uint64_t run_seed = 0;
  testkit::Violation violation;
  std::string repro_path;
};

std::string RenderReport(const Args& args, int resolved, int planned,
                         const std::map<std::string, int>& oracle_runs,
                         const std::map<std::string, int>& oracle_violations,
                         const std::vector<ViolationRecord>& records) {
  JsonWriter json;
  json.BeginObject().Key("seed").Uint(args.seed).Key("runs").Int(args.runs);
  json.Key("net_model").String(args.net_model);
  json.Key("dynamic").Bool(args.dynamic);
  json.Key("inject").Bool(!args.inject.empty());
  json.Key("resolved").Int(resolved).Key("planned").Int(planned);
  json.Key("oracles").BeginObject();
  for (const auto& [oracle, runs] : oracle_runs) {
    const auto it = oracle_violations.find(oracle);
    const int violations = it == oracle_violations.end() ? 0 : it->second;
    json.Key(oracle).BeginObject().Key("runs").Int(runs);
    json.Key("violations").Int(violations).EndObject();
  }
  json.EndObject().Key("violations").BeginArray();
  for (const ViolationRecord& record : records) {
    json.BeginObject().Key("run").Int(record.run);
    json.Key("seed").Uint(record.run_seed);
    json.Key("oracle").String(record.violation.oracle);
    json.Key("message").String(record.violation.message);
    json.Key("repro").String(record.repro_path).EndObject();
  }
  json.EndArray().EndObject();
  return json.str();
}

int Fuzz(const Args& args) {
  const testkit::OracleOptions options = ToOracleOptions(args);
  int resolved = 0;
  int planned = 0;
  std::map<std::string, int> oracle_runs;
  std::map<std::string, int> oracle_violations;
  std::vector<ViolationRecord> records;
  bool io_failed = false;

  testkit::GeneratorOptions generator_options;
  if (args.dynamic) generator_options.dynamic_prob = 1.0;

  for (int run = 0; run < args.runs; ++run) {
    const uint64_t run_seed = testkit::MixSeed(args.seed, run);
    Rng rng(run_seed);
    const scenario::ScenarioSpec spec =
        testkit::GenerateScenario(&rng, generator_options);
    const testkit::OracleOutcome outcome =
        testkit::RunOracles(spec, options);
    resolved += outcome.resolved ? 1 : 0;
    planned += outcome.planned ? 1 : 0;
    for (const std::string& oracle : outcome.oracles_run) {
      ++oracle_runs[oracle];
    }
    for (const testkit::Violation& v : outcome.violations) {
      ++oracle_violations[v.oracle];
    }
    if (outcome.violations.empty()) continue;

    // Minimize against the first violated oracle and write the repro.
    const testkit::Violation& v = outcome.violations.front();
    const scenario::ScenarioSpec minimized =
        testkit::MinimizeScenario(spec, v.oracle, options);
    ViolationRecord record;
    record.run = run;
    record.run_seed = run_seed;
    record.violation = v;
    record.repro_path = StrFormat("%s/repro-%" PRIu64 "-%d.scenario",
                                  args.out_dir.c_str(), args.seed, run);
    const std::string repro =
        testkit::RenderRepro(minimized, v, args.seed, run, options);
    if (!WriteFileBytes(record.repro_path, repro).ok()) {
      std::fprintf(stderr, "cannot write %s\n", record.repro_path.c_str());
      io_failed = true;
    }
    std::printf("run %d (seed %" PRIu64 "): VIOLATION %s\n", run, run_seed,
                v.oracle.c_str());
    std::printf("  %s\n", v.message.c_str());
    std::printf("  repro: %s\n", record.repro_path.c_str());
    records.push_back(std::move(record));
  }

  const std::string report = RenderReport(args, resolved, planned,
                                          oracle_runs, oracle_violations,
                                          records);
  if (!args.report_path.empty() &&
      !WriteFileBytes(args.report_path, report).ok()) {
    std::fprintf(stderr, "cannot write %s\n", args.report_path.c_str());
    io_failed = true;
  }
  std::printf("fuzzed %d scenario(s): %d resolved, %d planned, "
              "%zu violation(s)\n",
              args.runs, resolved, planned, records.size());
  for (const auto& [oracle, runs] : oracle_runs) {
    const auto it = oracle_violations.find(oracle);
    std::printf("  %-42s %5d run(s) %3d violation(s)\n", oracle.c_str(),
                runs, it == oracle_violations.end() ? 0 : it->second);
  }
  std::printf("report-hash: %016" PRIx64 "\n", Fnv1a64(report));
  if (io_failed) return 2;
  return records.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  FlagTable flags("malleus_fuzz");
  flags.Define("seed", &args.seed, "N", "base seed (default 1)");
  flags.Define("runs", &args.runs, "N", "scenarios to fuzz (default 100)");
  flags.Define("net-model", &args.net_model, "analytic|flow",
               "net model for the noisy-sim oracle pass",
               OneOf({"analytic", "flow"}));
  flags.Define("out", &args.out_dir, "DIR",
               "repro output directory (default .)");
  flags.Define("report", &args.report_path, "FILE",
               "write the JSON report to FILE");
  flags.Define("replay", &args.replay_path, "FILE",
               "re-run the oracles on one scenario file");
  flags.DefineSwitch("dynamic", &args.dynamic,
                     "attach a `dynamic = {...}` block to every generated\n"
                     "scenario, so each run exercises the policy engine's\n"
                     "oracles (dynamic.*)");
  flags.Define("inject", &args.inject, "perturb-estimate",
               "deliberately break an oracle (harness test)",
               OneOf({"perturb-estimate"}));
  if (!flags.ParseOrUsage(argc, argv)) return 2;
  if (args.runs <= 0 && args.replay_path.empty()) {
    std::fprintf(stderr, "%s", flags.Usage().c_str());
    return 2;
  }
  if (!args.replay_path.empty()) return Replay(args);
  return Fuzz(args);
}
