// Scenario files: a small key=value format describing one training
// scenario (model, cluster shape, batch, straggler trace, optional custom
// straggler overlay), shared by tools/malleus_lint and examples/
// scenario_cli so a scenario can be linted and executed from the same
// artifact.
//
//   # 32B run over 4 nodes with the S3 situation.
//   model = 32b
//   nodes = 4
//   batch = 64
//   steps = 6
//   phase = normal
//   phase = s3
//   straggler = 9:2        # GPU 9 runs at straggler level 2
//   straggler = 17:x2.5    # GPU 17 at an explicit rate of 2.5
//
// Hierarchical fabrics (the default is a flat non-blocking spine):
//
//   fabric = fat-tree       # or "rail", or the default "flat"
//   nodes_per_pod = 4       # fat-tree only; must divide nodes
//   oversubscription = 4    # spine taper ratio, >= 1 (1 = non-blocking)
//
// Dynamic fault-tolerance runs (malleus::policy) are declared with one
// `dynamic = { ... }` line whose braces hold space-separated key=value
// pairs describing the stochastic event processes:
//
//   dynamic = { iterations=2000 straggle_rate=0.02 fail_rate=0.004
//               recover_iters=80 flap_prob=0.3 flap_period=25
//               diurnal_amplitude=0.8 diurnal_period=200 max_level=3 }
//
// (shown wrapped; the file form is one physical line). Unknown or
// repeated inner keys are parse errors; CheckScenario checks the value
// ranges (scenario.dynamic-invalid-value / scenario.dynamic-saturated).
//
// Parsing is purely syntactic: unknown keys, malformed lines and
// unparsable numbers fail with a Status naming the line. Numbers follow
// ParseValue's rules (DESIGN.md §10, "Scenario files and other text
// inputs"): the whole value, fitting its field's type, doubles finite;
// `GPU:xinf` marks a failed GPU. Semantic validity (model names, phase
// names, GPU ranges, rate ranges) is CheckScenario's job: the lint tools
// run it to report every problem in one pass, and ResolveScenario runs it
// to refuse the first.

#ifndef MALLEUS_SCENARIO_SCENARIO_H_
#define MALLEUS_SCENARIO_SCENARIO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "lint/diagnostic.h"
#include "model/model_spec.h"
#include "net/fabric.h"
#include "straggler/situation.h"
#include "topology/cluster.h"

namespace malleus {
namespace scenario {

/// One custom straggler entry ("straggler = GPU:LEVEL" or "GPU:xRATE").
struct StragglerEntry {
  topo::GpuId gpu = 0;
  /// Exactly one of the two is meaningful, selected by `is_rate`.
  int level = 0;
  double rate = 1.0;
  bool is_rate = false;
  int line = 0;  ///< 1-based source line, for diagnostics.
};

/// The stochastic event processes of a `dynamic = { ... }` line. All
/// rates are per-GPU (or per-node for `node_fail_rate`) Poisson arrival
/// probabilities per simulated iteration; the trace generator in
/// malleus::policy consumes this verbatim. Ranges are CheckScenario's
/// job (scenario.dynamic-invalid-value), not the parser's.
struct DynamicSpec {
  bool enabled = false;
  /// Simulated iterations the dynamic run advances.
  int iterations = 2000;
  /// Per-GPU straggle arrival probability per iteration.
  double straggle_rate = 0.01;
  /// Per-GPU fail-stop arrival probability per iteration.
  double fail_rate = 0.0;
  /// Per-node correlated-failure probability per iteration (fails every
  /// GPU on the node at once).
  double node_fail_rate = 0.0;
  /// Mean iterations until a straggle/failure heals (0 = never heals).
  int recover_iters = 100;
  /// Probability a healed straggler flaps (re-straggles after roughly
  /// `flap_period` iterations).
  double flap_prob = 0.0;
  /// Mean iterations between flaps of a flapping GPU.
  int flap_period = 50;
  /// Diurnal contention: straggle arrivals are modulated by
  /// 1 + amplitude * sin(2*pi*t / period). 0 disables.
  double diurnal_amplitude = 0.0;
  int diurnal_period = 500;
  /// Straggler levels are drawn uniformly from [1, max_level].
  int max_level = 3;
  /// Trace seed; 0 means "derive from the scenario seed".
  uint64_t seed = 0;
  int line = 0;  ///< 1-based source line of the dynamic block.
};

/// A parsed scenario file. Its defaults are scenario_cli's flag defaults:
/// the CLI's flags edit one ScenarioSpec.
struct ScenarioSpec {
  std::string model = "32b";
  int nodes = 4;
  int gpus_per_node = 8;
  int64_t batch = 64;
  int steps = 6;
  uint64_t seed = 42;
  /// "analytic" / "flow"; empty picks net::DefaultNetModel().
  std::string net_model;
  /// "flat" / "fat-tree" / "rail"; empty means flat.
  std::string fabric;
  /// Fat-tree pod size in nodes; 0 = unset. Ignored for other fabrics.
  int nodes_per_pod = 0;
  /// Spine taper ratio; 0 = unset (non-blocking). Ignored for flat fabrics.
  double oversubscription = 0.0;
  /// Canonical situation names ("normal", "s1".."s6"), in trace order.
  std::vector<std::string> phases;
  std::vector<StragglerEntry> stragglers;
  /// Dynamic fault-tolerance run configuration; disabled by default.
  DynamicSpec dynamic;
  /// The file this spec came from ("" when parsed from a string).
  std::string source;
};

/// Parses the scenario text. Syntax errors name the 1-based line.
/// Tolerates editor artifacts that round-trip through other tools: a
/// UTF-8 BOM, CRLF line endings, trailing whitespace, and `#` comments
/// after a value.
Result<ScenarioSpec> ParseScenarioString(const std::string& text);

/// Reads and parses `path`.
Result<ScenarioSpec> LoadScenarioFile(const std::string& path);

/// Renders `spec` back into the scenario file syntax such that
/// ParseScenarioString(SerializeScenario(spec)) reproduces every field
/// (source and per-entry line numbers excepted). Straggler rates are
/// emitted with enough digits to round-trip exactly. This is what the
/// fuzzer uses to write self-contained `.scenario` repro files.
std::string SerializeScenario(const ScenarioSpec& spec);

// Diagnostic codes CheckScenario emits. The situation.* codes are shared
// with lint::LintSituation, which applies the same rate rules to a
// resolved Situation.
inline constexpr char kLintScenarioUnknownModel[] = "scenario.unknown-model";
inline constexpr char kLintScenarioUnknownPhase[] = "scenario.unknown-phase";
inline constexpr char kLintScenarioInvalidValue[] = "scenario.invalid-value";
inline constexpr char kLintScenarioGpuOutOfRange[] =
    "scenario.gpu-out-of-range";
inline constexpr char kLintScenarioDuplicateStraggler[] =
    "scenario.duplicate-straggler";
inline constexpr char kLintScenarioDynamicInvalidValue[] =
    "scenario.dynamic-invalid-value";
inline constexpr char kLintScenarioDynamicSaturated[] =
    "scenario.dynamic-saturated";
inline constexpr char kLintScenarioUnknownFabric[] =
    "scenario.unknown-fabric";
inline constexpr char kLintScenarioFabricFieldIgnored[] =
    "scenario.fabric-field-ignored";
inline constexpr char kLintSituationBadRate[] = "situation.bad-rate";
inline constexpr char kLintSituationRateAboveFit[] =
    "situation.rate-above-fit";
inline constexpr char kLintSituationFailedGpu[] = "situation.failed-gpu";

/// The one implementation of the scenario rules: model and phase names,
/// positive shape/batch/steps, the net model and fabric fields, straggler
/// GPU ids inside the cluster, duplicate straggler entries, straggler
/// rate/level ranges against the fitted x = 1 + 1.44k model, and every
/// `dynamic = { ... }` field. The lint pipeline runs it collect-all;
/// ResolveScenario runs it with `sink->fail_fast()` set, which stops after
/// the first error-level finding (the first error a collect-all run
/// reports).
void CheckScenario(const ScenarioSpec& spec, lint::DiagnosticSink* sink);

/// A ScenarioSpec resolved against the library types.
struct ResolvedScenario {
  model::ModelSpec spec;
  topo::ClusterSpec cluster;
  net::NetModel net_model = net::NetModel::kAnalytic;
  /// One TracePhase per `phases` entry, each `steps` iterations long.
  std::vector<straggler::TracePhase> trace;
  /// The custom straggler overlay applied to a healthy cluster. All-healthy
  /// when the spec lists no stragglers.
  straggler::Situation overlay;
  bool has_overlay = false;
  /// Seed of the dynamic block's event trace: `dynamic.seed` when
  /// non-zero, else the scenario `seed`.
  uint64_t event_seed = 0;
};

/// Resolves model/cluster/trace/overlay and the event-trace seed. Fails
/// with InvalidArgument, carrying the diagnostic's message, on the first
/// error CheckScenario reports, so a spec resolves exactly when it lints
/// without errors.
Result<ResolvedScenario> ResolveScenario(const ScenarioSpec& spec);

/// One labeled straggler situation the scenario implies.
struct LabeledSituation {
  std::string label;  ///< "overlay", "Normal", "S1", ...
  straggler::Situation situation;
};

/// The situations `resolved` implies, deduplicated in first-appearance
/// order: the custom overlay when present, else one per distinct trace
/// phase, else the all-healthy "Normal". Shared by the golden-snapshot
/// renderer and the what-if engine so both enumerate identically.
Result<std::vector<LabeledSituation>> ImpliedSituations(
    const ResolvedScenario& resolved);

/// Maps a model name ("32b"/"70b"/"110b"/"tiny") to its spec.
Result<model::ModelSpec> ModelSpecByName(const std::string& name);

/// Maps a canonical situation name ("normal", "s1".."s6") to its id.
Result<straggler::SituationId> SituationIdByName(const std::string& name);

/// The paper's standard trace (straggler::StandardTrace) as phase names:
/// "normal", "s1".."s6", "normal".
std::vector<std::string> StandardPhases();

}  // namespace scenario
}  // namespace malleus

#endif  // MALLEUS_SCENARIO_SCENARIO_H_
