// Tests for malleus::scenario: the key=value scenario-file parser (syntax
// only, line-numbered errors) and resolution against the library types.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "net/fabric.h"
#include "lint/diagnostic.h"
#include "scenario/scenario.h"
#include "straggler/situation.h"
#include "testkit/generator.h"

namespace malleus {
namespace scenario {
namespace {

TEST(ScenarioParseTest, DefaultsWhenEmpty) {
  Result<ScenarioSpec> spec = ParseScenarioString("");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->model, "32b");
  EXPECT_EQ(spec->nodes, 4);
  EXPECT_EQ(spec->gpus_per_node, 8);
  EXPECT_EQ(spec->batch, 64);
  EXPECT_EQ(spec->steps, 6);
  EXPECT_EQ(spec->seed, 42u);
  EXPECT_TRUE(spec->net_model.empty());
  EXPECT_TRUE(spec->phases.empty());
  EXPECT_TRUE(spec->stragglers.empty());
}

TEST(ScenarioParseTest, FullFile) {
  const char* text =
      "# A comment line.\n"
      "model = 70b\n"
      "nodes = 8\n"
      "gpus_per_node = 8\n"
      "batch = 128   # trailing comment\n"
      "steps = 3\n"
      "seed = 7\n"
      "net_model = flow\n"
      "phase = normal\n"
      "phase = s3\n"
      "straggler = 9:2\n"
      "straggler = 17:x2.5\n";
  Result<ScenarioSpec> spec = ParseScenarioString(text);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->model, "70b");
  EXPECT_EQ(spec->nodes, 8);
  EXPECT_EQ(spec->batch, 128);
  EXPECT_EQ(spec->steps, 3);
  EXPECT_EQ(spec->seed, 7u);
  EXPECT_EQ(spec->net_model, "flow");
  ASSERT_EQ(spec->phases.size(), 2u);
  EXPECT_EQ(spec->phases[0], "normal");
  EXPECT_EQ(spec->phases[1], "s3");
  ASSERT_EQ(spec->stragglers.size(), 2u);
  EXPECT_EQ(spec->stragglers[0].gpu, 9);
  EXPECT_FALSE(spec->stragglers[0].is_rate);
  EXPECT_EQ(spec->stragglers[0].level, 2);
  EXPECT_EQ(spec->stragglers[0].line, 11);
  EXPECT_EQ(spec->stragglers[1].gpu, 17);
  EXPECT_TRUE(spec->stragglers[1].is_rate);
  EXPECT_DOUBLE_EQ(spec->stragglers[1].rate, 2.5);
}

TEST(ScenarioParseTest, SyntaxErrorsNameTheLine) {
  // Line 2 has no '='.
  Result<ScenarioSpec> no_eq = ParseScenarioString("model = 32b\nbogus\n");
  ASSERT_FALSE(no_eq.ok());
  EXPECT_NE(no_eq.status().message().find("line 2"), std::string::npos)
      << no_eq.status().ToString();

  Result<ScenarioSpec> unknown = ParseScenarioString("\n\nwat = 3\n");
  ASSERT_FALSE(unknown.ok());
  EXPECT_NE(unknown.status().message().find("line 3"), std::string::npos);
  EXPECT_NE(unknown.status().message().find("unknown key: wat"),
            std::string::npos);

  Result<ScenarioSpec> empty_value = ParseScenarioString("model =\n");
  ASSERT_FALSE(empty_value.ok());
  EXPECT_NE(empty_value.status().message().find("empty value for model"),
            std::string::npos);

  Result<ScenarioSpec> bad_int = ParseScenarioString("nodes = four\n");
  ASSERT_FALSE(bad_int.ok());
  EXPECT_NE(bad_int.status().message().find("bad nodes"), std::string::npos);
}

TEST(ScenarioParseTest, StragglerSyntax) {
  EXPECT_FALSE(ParseScenarioString("straggler = 9\n").ok());       // No colon.
  EXPECT_FALSE(ParseScenarioString("straggler = a:2\n").ok());     // Bad GPU.
  EXPECT_FALSE(ParseScenarioString("straggler = 9:xfast\n").ok()); // Bad rate.
  EXPECT_FALSE(ParseScenarioString("straggler = 9:two\n").ok());   // Bad level.
  // Semantic problems (out-of-range GPU, level 99) parse fine; lint
  // catches them.
  Result<ScenarioSpec> semantic = ParseScenarioString("straggler = 999:99\n");
  ASSERT_TRUE(semantic.ok()) << semantic.status().ToString();
  EXPECT_EQ(semantic->stragglers[0].gpu, 999);
}

TEST(ScenarioParseTest, NumbersMustFitTheirField) {
  // Each of these read as some other value before: truncated to the
  // field, saturated, or the leading digits of the text.
  for (const char* text :
       {"nodes = 4294967297\n", "gpus_per_node = 2147483648\n",
        "batch = 9223372036854775808\n", "steps = 6x\n", "seed = -1\n",
        "seed = 18446744073709551616\n", "nodes_per_pod = 1.5\n",
        "straggler = 4294967296:2\n", "straggler = 3:4294967297\n",
        "dynamic = { iterations=4294967396 }\n",
        "dynamic = { seed=-1 }\n", "dynamic = { max_level=8abc }\n"}) {
    Result<ScenarioSpec> spec = ParseScenarioString(text);
    EXPECT_TRUE(spec.status().IsInvalidArgument()) << text;
  }
  Result<ScenarioSpec> nodes = ParseScenarioString("nodes = 4294967297\n");
  EXPECT_NE(nodes.status().message().find("line 1: bad nodes"),
            std::string::npos)
      << nodes.status().ToString();
  Result<ScenarioSpec> iterations =
      ParseScenarioString("\ndynamic = { iterations=4294967396 }\n");
  EXPECT_NE(iterations.status().message().find(
                "line 2: bad dynamic iterations"),
            std::string::npos)
      << iterations.status().ToString();
}

TEST(ScenarioParseTest, RatesMustBeFinite) {
  for (const char* text :
       {"oversubscription = nan\n", "oversubscription = inf\n",
        "straggler = 3:xnan\n", "straggler = 3:x1e400\n",
        "straggler = 3:x-inf\n", "straggler = 3:xinfinity\n",
        "dynamic = { straggle_rate=nan }\n",
        "dynamic = { diurnal_amplitude=1e999 }\n"}) {
    Result<ScenarioSpec> spec = ParseScenarioString(text);
    EXPECT_TRUE(spec.status().IsInvalidArgument()) << text;
  }
  // "xinf" is the failed-GPU marker the serializer writes, not a number.
  Result<ScenarioSpec> failed = ParseScenarioString("straggler = 3:xinf\n");
  ASSERT_TRUE(failed.ok()) << failed.status().ToString();
  EXPECT_TRUE(failed->stragglers[0].is_rate);
  EXPECT_EQ(failed->stragglers[0].rate, straggler::kFailedRate);
}

TEST(ScenarioParseTest, DuplicateDynamicKeyIsAnError) {
  Result<ScenarioSpec> spec = ParseScenarioString(
      "dynamic = { iterations=10 straggle_rate=0.1 iterations=20 }\n");
  ASSERT_FALSE(spec.ok());
  EXPECT_NE(spec.status().message().find("duplicate key 'iterations'"),
            std::string::npos)
      << spec.status().ToString();
}

TEST(ScenarioParseTest, LoadScenarioFileNotFound) {
  Result<ScenarioSpec> missing = LoadScenarioFile("/nonexistent.scenario");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST(ScenarioResolveTest, ResolvesModelClusterTraceOverlay) {
  ScenarioSpec spec;
  spec.model = "70b";
  spec.nodes = 8;
  spec.steps = 3;
  spec.net_model = "flow";
  spec.phases = {"normal", "s3"};
  StragglerEntry level_entry, rate_entry;
  level_entry.gpu = 9;
  level_entry.level = 2;
  rate_entry.gpu = 17;
  rate_entry.is_rate = true;
  rate_entry.rate = 2.5;
  spec.stragglers = {level_entry, rate_entry};

  Result<ResolvedScenario> resolved = ResolveScenario(spec);
  ASSERT_TRUE(resolved.ok()) << resolved.status().ToString();
  EXPECT_EQ(resolved->cluster.num_gpus(), 64);
  EXPECT_EQ(resolved->net_model, net::NetModel::kFlow);
  ASSERT_EQ(resolved->trace.size(), 2u);
  EXPECT_EQ(resolved->trace[0].id, straggler::SituationId::kNormal);
  EXPECT_EQ(resolved->trace[1].id, straggler::SituationId::kS3);
  EXPECT_EQ(resolved->trace[1].steps, 3);
  EXPECT_TRUE(resolved->has_overlay);
  EXPECT_DOUBLE_EQ(resolved->overlay.rate(9), straggler::RateForLevel(2));
  EXPECT_DOUBLE_EQ(resolved->overlay.rate(17), 2.5);
  EXPECT_DOUBLE_EQ(resolved->overlay.rate(0), 1.0);
}

TEST(ScenarioResolveTest, RejectsSemanticViolations) {
  ScenarioSpec unknown_model;
  unknown_model.model = "13b";
  EXPECT_FALSE(ResolveScenario(unknown_model).ok());

  ScenarioSpec bad_phase;
  bad_phase.phases = {"s9"};
  EXPECT_FALSE(ResolveScenario(bad_phase).ok());

  ScenarioSpec bad_gpu;
  StragglerEntry entry;
  entry.gpu = 99;  // 4 x 8 = 32 GPUs.
  bad_gpu.stragglers = {entry};
  EXPECT_FALSE(ResolveScenario(bad_gpu).ok());

  ScenarioSpec bad_shape;
  bad_shape.nodes = 0;
  EXPECT_FALSE(ResolveScenario(bad_shape).ok());

  ScenarioSpec bad_net;
  bad_net.net_model = "carrier-pigeon";
  EXPECT_FALSE(ResolveScenario(bad_net).ok());

  // Every error CheckScenario reports refuses resolution, with the first
  // error's message: dynamic fields out of range and straggler entries
  // the fitted model cannot express.
  std::vector<ScenarioSpec> rejected = {unknown_model, bad_phase, bad_gpu,
                                        bad_shape, bad_net};
  const auto dynamic = [&](void (*edit)(DynamicSpec*)) {
    ScenarioSpec spec;
    spec.dynamic.enabled = true;
    edit(&spec.dynamic);
    rejected.push_back(spec);
  };
  dynamic([](DynamicSpec* d) { d->max_level = 0; });
  dynamic([](DynamicSpec* d) { d->flap_period = 0; });
  dynamic([](DynamicSpec* d) { d->diurnal_period = 0; });
  dynamic([](DynamicSpec* d) { d->fail_rate = 3.0; });
  dynamic([](DynamicSpec* d) { d->recover_iters = -5; });
  StragglerEntry negative_level;
  negative_level.gpu = 3;
  negative_level.level = -2;
  StragglerEntry fast_rate;
  fast_rate.gpu = 4;
  fast_rate.is_rate = true;
  fast_rate.rate = 0.5;
  StragglerEntry again = negative_level;
  again.level = 2;
  for (const std::vector<StragglerEntry>& stragglers :
       {std::vector<StragglerEntry>{negative_level},
        std::vector<StragglerEntry>{fast_rate},
        std::vector<StragglerEntry>{again, again}}) {
    ScenarioSpec spec;
    spec.stragglers = stragglers;
    rejected.push_back(spec);
  }
  for (size_t i = 0; i < rejected.size(); ++i) {
    lint::DiagnosticSink sink;
    CheckScenario(rejected[i], &sink);
    ASSERT_TRUE(sink.HasErrors()) << i;
    std::string first_error;
    for (const lint::Diagnostic& d : sink.diagnostics()) {
      if (d.severity == lint::Severity::kError) {
        first_error = d.message;
        break;
      }
    }
    Result<ResolvedScenario> resolved = ResolveScenario(rejected[i]);
    ASSERT_FALSE(resolved.ok()) << i;
    EXPECT_EQ(resolved.status().code(), StatusCode::kInvalidArgument) << i;
    EXPECT_EQ(resolved.status().message(), first_error) << i;
  }
}

TEST(ScenarioResolveTest, NoOverlayWithoutStragglers) {
  Result<ResolvedScenario> resolved = ResolveScenario(ScenarioSpec());
  ASSERT_TRUE(resolved.ok()) << resolved.status().ToString();
  EXPECT_FALSE(resolved->has_overlay);
  EXPECT_TRUE(resolved->trace.empty());
}

TEST(ScenarioResolveTest, EventSeedPrefersTheDynamicSeed) {
  ScenarioSpec spec;
  spec.seed = 7;
  Result<ResolvedScenario> resolved = ResolveScenario(spec);
  ASSERT_TRUE(resolved.ok()) << resolved.status().ToString();
  EXPECT_EQ(resolved->event_seed, 7u);

  spec.dynamic.seed = 11;
  resolved = ResolveScenario(spec);
  ASSERT_TRUE(resolved.ok()) << resolved.status().ToString();
  EXPECT_EQ(resolved->event_seed, 11u);
}

TEST(ScenarioResolveTest, StandardPhasesResolveToTheStandardTrace) {
  ScenarioSpec spec;
  spec.steps = 3;
  spec.phases = StandardPhases();
  Result<ResolvedScenario> resolved = ResolveScenario(spec);
  ASSERT_TRUE(resolved.ok()) << resolved.status().ToString();
  const std::vector<straggler::TracePhase> standard =
      straggler::StandardTrace(3);
  ASSERT_EQ(resolved->trace.size(), standard.size());
  for (size_t i = 0; i < standard.size(); ++i) {
    EXPECT_EQ(resolved->trace[i].id, standard[i].id) << i;
    EXPECT_EQ(resolved->trace[i].steps, 3) << i;
  }
}

TEST(ScenarioParseTest, CrlfLineEndings) {
  Result<ScenarioSpec> spec = ParseScenarioString(
      "model = tiny\r\nnodes = 2\r\nstraggler = 3:2\r\n");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->model, "tiny");
  EXPECT_EQ(spec->nodes, 2);
  ASSERT_EQ(spec->stragglers.size(), 1u);
  EXPECT_EQ(spec->stragglers[0].gpu, 3);
  EXPECT_EQ(spec->stragglers[0].level, 2);
}

TEST(ScenarioParseTest, TrailingWhitespaceAndComments) {
  Result<ScenarioSpec> spec = ParseScenarioString(
      "model = tiny   \t\n"
      "nodes = 2 # two nodes\n"
      "batch = 8\t# tab then comment\r\n"
      "straggler = 1:x2.5   # rate comment\n"
      "   \t \n");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->model, "tiny");
  EXPECT_EQ(spec->nodes, 2);
  EXPECT_EQ(spec->batch, 8);
  ASSERT_EQ(spec->stragglers.size(), 1u);
  EXPECT_TRUE(spec->stragglers[0].is_rate);
  EXPECT_DOUBLE_EQ(spec->stragglers[0].rate, 2.5);
}

TEST(ScenarioParseTest, Utf8ByteOrderMark) {
  Result<ScenarioSpec> spec =
      ParseScenarioString("\xEF\xBB\xBFmodel = 70b\nnodes = 8\n");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->model, "70b");
  EXPECT_EQ(spec->nodes, 8);
}

TEST(ScenarioParseTest, BomOnlyInputIsEmpty) {
  Result<ScenarioSpec> spec = ParseScenarioString("\xEF\xBB\xBF");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->model, "32b");
}

// Fields that must survive Serialize -> Parse unchanged (everything except
// `source` and the per-entry line numbers, which describe provenance).
void ExpectRoundTrips(const ScenarioSpec& spec) {
  const std::string text = SerializeScenario(spec);
  Result<ScenarioSpec> back = ParseScenarioString(text);
  ASSERT_TRUE(back.ok()) << back.status().ToString() << "\n" << text;
  EXPECT_EQ(back->model, spec.model);
  EXPECT_EQ(back->nodes, spec.nodes);
  EXPECT_EQ(back->gpus_per_node, spec.gpus_per_node);
  EXPECT_EQ(back->batch, spec.batch);
  EXPECT_EQ(back->steps, spec.steps);
  EXPECT_EQ(back->seed, spec.seed);
  EXPECT_EQ(back->net_model, spec.net_model);
  EXPECT_EQ(back->phases, spec.phases);
  ASSERT_EQ(back->stragglers.size(), spec.stragglers.size());
  for (size_t i = 0; i < spec.stragglers.size(); ++i) {
    EXPECT_EQ(back->stragglers[i].gpu, spec.stragglers[i].gpu);
    EXPECT_EQ(back->stragglers[i].is_rate, spec.stragglers[i].is_rate);
    if (spec.stragglers[i].is_rate) {
      EXPECT_EQ(back->stragglers[i].rate, spec.stragglers[i].rate);
    } else {
      EXPECT_EQ(back->stragglers[i].level, spec.stragglers[i].level);
    }
  }
  EXPECT_EQ(back->dynamic.enabled, spec.dynamic.enabled);
  if (spec.dynamic.enabled) {
    EXPECT_EQ(back->dynamic.iterations, spec.dynamic.iterations);
    EXPECT_EQ(back->dynamic.straggle_rate, spec.dynamic.straggle_rate);
    EXPECT_EQ(back->dynamic.fail_rate, spec.dynamic.fail_rate);
    EXPECT_EQ(back->dynamic.node_fail_rate, spec.dynamic.node_fail_rate);
    EXPECT_EQ(back->dynamic.recover_iters, spec.dynamic.recover_iters);
    EXPECT_EQ(back->dynamic.flap_prob, spec.dynamic.flap_prob);
    EXPECT_EQ(back->dynamic.flap_period, spec.dynamic.flap_period);
    EXPECT_EQ(back->dynamic.diurnal_amplitude,
              spec.dynamic.diurnal_amplitude);
    EXPECT_EQ(back->dynamic.diurnal_period, spec.dynamic.diurnal_period);
    EXPECT_EQ(back->dynamic.max_level, spec.dynamic.max_level);
    EXPECT_EQ(back->dynamic.seed, spec.dynamic.seed);
  }
}

TEST(ScenarioSerializeTest, RoundTripsDefaults) {
  ExpectRoundTrips(ScenarioSpec());
}

TEST(ScenarioSerializeTest, RoundTripsEveryField) {
  ScenarioSpec spec;
  spec.model = "70b";
  spec.nodes = 8;
  spec.gpus_per_node = 4;
  spec.batch = 1024;
  spec.steps = 2;
  spec.seed = 123456789012345ULL;
  spec.net_model = "flow";
  spec.phases = {"normal", "s3", "normal"};
  StragglerEntry level;
  level.gpu = 9;
  level.level = 8;
  StragglerEntry rate;
  rate.gpu = 17;
  rate.rate = 2.5000000000000004;  // Needs all 17 significant digits.
  rate.is_rate = true;
  spec.stragglers = {level, rate};
  ExpectRoundTrips(spec);
}

TEST(ScenarioSerializeTest, RoundTripsFabricFields) {
  ScenarioSpec spec;
  spec.fabric = "fat-tree";
  spec.nodes = 8;
  spec.nodes_per_pod = 2;
  spec.oversubscription = 4.0;
  ExpectRoundTrips(spec);
  ScenarioSpec rail;
  rail.fabric = "rail";
  rail.oversubscription = 2.0;
  ExpectRoundTrips(rail);
}

// Every field of `spec` survives Serialize -> Parse with the same bits;
// only `source` and the per-entry line numbers describe provenance.
void ExpectRoundTripsFieldByField(const ScenarioSpec& spec) {
  const std::string text = SerializeScenario(spec);
  Result<ScenarioSpec> back = ParseScenarioString(text);
  ASSERT_TRUE(back.ok()) << back.status().ToString() << "\n" << text;
  EXPECT_EQ(back->model, spec.model) << text;
  EXPECT_EQ(back->nodes, spec.nodes) << text;
  EXPECT_EQ(back->gpus_per_node, spec.gpus_per_node) << text;
  EXPECT_EQ(back->batch, spec.batch) << text;
  EXPECT_EQ(back->steps, spec.steps) << text;
  EXPECT_EQ(back->seed, spec.seed) << text;
  EXPECT_EQ(back->net_model, spec.net_model) << text;
  EXPECT_EQ(back->fabric, spec.fabric) << text;
  EXPECT_EQ(back->nodes_per_pod, spec.nodes_per_pod) << text;
  EXPECT_EQ(back->oversubscription, spec.oversubscription) << text;
  EXPECT_EQ(back->phases, spec.phases) << text;
  ASSERT_EQ(back->stragglers.size(), spec.stragglers.size()) << text;
  for (size_t i = 0; i < spec.stragglers.size(); ++i) {
    const StragglerEntry& want = spec.stragglers[i];
    const StragglerEntry& got = back->stragglers[i];
    EXPECT_EQ(got.gpu, want.gpu) << text;
    EXPECT_EQ(got.is_rate, want.is_rate) << text;
    EXPECT_EQ(got.level, want.is_rate ? 0 : want.level) << text;
    EXPECT_EQ(got.rate, want.is_rate ? want.rate : 1.0) << text;
  }
  const DynamicSpec& want = spec.dynamic;
  const DynamicSpec& got = back->dynamic;
  EXPECT_EQ(got.enabled, want.enabled) << text;
  if (!want.enabled) return;
  EXPECT_EQ(got.iterations, want.iterations) << text;
  EXPECT_EQ(got.straggle_rate, want.straggle_rate) << text;
  EXPECT_EQ(got.fail_rate, want.fail_rate) << text;
  EXPECT_EQ(got.node_fail_rate, want.node_fail_rate) << text;
  EXPECT_EQ(got.recover_iters, want.recover_iters) << text;
  EXPECT_EQ(got.flap_prob, want.flap_prob) << text;
  EXPECT_EQ(got.flap_period, want.flap_period) << text;
  EXPECT_EQ(got.diurnal_amplitude, want.diurnal_amplitude) << text;
  EXPECT_EQ(got.diurnal_period, want.diurnal_period) << text;
  EXPECT_EQ(got.max_level, want.max_level) << text;
  EXPECT_EQ(got.seed, want.seed) << text;
}

TEST(ScenarioSerializeTest, RoundTripsEveryGeneratedScenario) {
  testkit::GeneratorOptions with_dynamic;
  with_dynamic.dynamic_prob = 1.0;
  for (uint64_t run = 0; run < 300; ++run) {
    Rng rng(testkit::MixSeed(7, run));
    ExpectRoundTripsFieldByField(testkit::GenerateScenario(
        &rng, run % 2 == 0 ? testkit::GeneratorOptions() : with_dynamic));
  }
}

TEST(ScenarioSerializeTest, RoundTripsTheLargestSeeds) {
  ScenarioSpec spec;
  spec.seed = std::numeric_limits<uint64_t>::max();
  spec.dynamic.enabled = true;
  spec.dynamic.seed = std::numeric_limits<uint64_t>::max();
  ExpectRoundTripsFieldByField(spec);
}

TEST(ScenarioSerializeTest, RoundTripsSeventeenDigitRates) {
  ScenarioSpec spec;
  spec.fabric = "rail";
  spec.oversubscription = 2.0000000000000004;
  StragglerEntry rate;
  rate.gpu = 5;
  rate.rate = 12.520000000000001;
  rate.is_rate = true;
  StragglerEntry failed;
  failed.gpu = 6;
  failed.rate = straggler::kFailedRate;
  failed.is_rate = true;
  spec.stragglers = {rate, failed};
  spec.dynamic.enabled = true;
  spec.dynamic.straggle_rate = 0.1 + 0.2;
  spec.dynamic.fail_rate = 1.0 / 3.0;
  spec.dynamic.node_fail_rate = 5e-324;  // The smallest subnormal.
  spec.dynamic.flap_prob = 0.30000000000000004;
  spec.dynamic.diurnal_amplitude = 0.79999999999999993;
  ExpectRoundTripsFieldByField(spec);
}

TEST(ScenarioResolveTest, ResolvesHierarchicalFabrics) {
  ScenarioSpec spec;
  spec.nodes = 8;
  spec.fabric = "fat-tree";
  spec.nodes_per_pod = 4;
  spec.oversubscription = 2.0;
  Result<ResolvedScenario> resolved = ResolveScenario(spec);
  ASSERT_TRUE(resolved.ok()) << resolved.status().ToString();
  EXPECT_EQ(resolved->cluster.fabric().kind,
            topo::FabricSpec::Kind::kFatTree);
  EXPECT_EQ(resolved->cluster.num_pods(), 2);
  EXPECT_DOUBLE_EQ(resolved->cluster.fabric().oversubscription, 2.0);

  ScenarioSpec bad_kind;
  bad_kind.fabric = "torus";
  EXPECT_FALSE(ResolveScenario(bad_kind).ok());

  ScenarioSpec bad_pod;
  bad_pod.nodes = 4;
  bad_pod.fabric = "fat-tree";
  bad_pod.nodes_per_pod = 3;  // Does not divide 4 nodes.
  EXPECT_FALSE(ResolveScenario(bad_pod).ok());

  ScenarioSpec bad_oversub;
  bad_oversub.fabric = "rail";
  bad_oversub.oversubscription = 0.5;
  EXPECT_FALSE(ResolveScenario(bad_oversub).ok());

  // On a flat fabric the extra fields are ignored, not fatal (the lint
  // pass warns about them).
  ScenarioSpec flat;
  flat.fabric = "flat";
  flat.nodes_per_pod = 2;
  flat.oversubscription = 4.0;
  Result<ResolvedScenario> flat_resolved = ResolveScenario(flat);
  ASSERT_TRUE(flat_resolved.ok()) << flat_resolved.status().ToString();
  EXPECT_EQ(flat_resolved->cluster.fabric().kind,
            topo::FabricSpec::Kind::kFlat);
}

TEST(ScenarioParseTest, DynamicBlockSyntax) {
  Result<ScenarioSpec> spec = ParseScenarioString(
      "dynamic = { iterations=500 straggle_rate=0.02 fail_rate=0.004 "
      "node_fail_rate=0.001 recover_iters=80 flap_prob=0.3 flap_period=25 "
      "diurnal_amplitude=0.8 diurnal_period=200 max_level=4 seed=7 }\n");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_TRUE(spec->dynamic.enabled);
  EXPECT_EQ(spec->dynamic.iterations, 500);
  EXPECT_DOUBLE_EQ(spec->dynamic.straggle_rate, 0.02);
  EXPECT_DOUBLE_EQ(spec->dynamic.fail_rate, 0.004);
  EXPECT_DOUBLE_EQ(spec->dynamic.node_fail_rate, 0.001);
  EXPECT_EQ(spec->dynamic.recover_iters, 80);
  EXPECT_DOUBLE_EQ(spec->dynamic.flap_prob, 0.3);
  EXPECT_EQ(spec->dynamic.flap_period, 25);
  EXPECT_DOUBLE_EQ(spec->dynamic.diurnal_amplitude, 0.8);
  EXPECT_EQ(spec->dynamic.diurnal_period, 200);
  EXPECT_EQ(spec->dynamic.max_level, 4);
  EXPECT_EQ(spec->dynamic.seed, 7u);
  EXPECT_EQ(spec->dynamic.line, 1);

  // A bare block takes every default and still enables the mode; a
  // trailing comment is stripped like on any other line.
  Result<ScenarioSpec> bare =
      ParseScenarioString("dynamic = { }  # defaults\n");
  ASSERT_TRUE(bare.ok()) << bare.status().ToString();
  EXPECT_TRUE(bare->dynamic.enabled);
  EXPECT_EQ(bare->dynamic.iterations, 2000);
  EXPECT_FALSE(ParseScenarioString("dynamic = { iterations }\n").ok());
  EXPECT_FALSE(ParseScenarioString("dynamic = { walrus=1 }\n").ok());
  EXPECT_FALSE(ParseScenarioString("dynamic = { iterations=x }\n").ok());
  EXPECT_FALSE(ParseScenarioString("dynamic = iterations=5\n").ok());
  // Errors name the line of the dynamic block.
  Result<ScenarioSpec> err =
      ParseScenarioString("model = 32b\ndynamic = { walrus=1 }\n");
  ASSERT_FALSE(err.ok());
  EXPECT_NE(err.status().message().find("line 2"), std::string::npos);
}

TEST(ScenarioSerializeTest, RoundTripsDynamicFields) {
  ScenarioSpec spec;
  spec.dynamic.enabled = true;
  spec.dynamic.iterations = 1234;
  spec.dynamic.straggle_rate = 0.012300000000000004;  // All 17 digits.
  spec.dynamic.fail_rate = 0.004;
  spec.dynamic.node_fail_rate = 0.0005;
  spec.dynamic.recover_iters = 77;
  spec.dynamic.flap_prob = 0.25;
  spec.dynamic.flap_period = 33;
  spec.dynamic.diurnal_amplitude = 0.9;
  spec.dynamic.diurnal_period = 444;
  spec.dynamic.max_level = 5;
  spec.dynamic.seed = 987654321ULL;
  ExpectRoundTrips(spec);
  // Disabled dynamic serializes to nothing.
  EXPECT_EQ(SerializeScenario(ScenarioSpec()).find("dynamic"),
            std::string::npos);
}

TEST(ScenarioSerializeTest, SerializedTextIsStable) {
  // The fuzzer hashes reports containing serialized scenarios; the
  // rendering must be canonical.
  ScenarioSpec spec;
  spec.stragglers.emplace_back();
  EXPECT_EQ(SerializeScenario(spec), SerializeScenario(spec));
  EXPECT_NE(SerializeScenario(spec).find("straggler = 0:0"),
            std::string::npos);
}

TEST(ScenarioNameTest, ModelAndPhaseLookups) {
  EXPECT_TRUE(ModelSpecByName("32b").ok());
  EXPECT_TRUE(ModelSpecByName("70b").ok());
  EXPECT_TRUE(ModelSpecByName("110b").ok());
  EXPECT_TRUE(ModelSpecByName("tiny").ok());
  EXPECT_FALSE(ModelSpecByName("13b").ok());
  EXPECT_TRUE(SituationIdByName("normal").ok());
  for (int k = 1; k <= 6; ++k) {
    EXPECT_TRUE(SituationIdByName("s" + std::to_string(k)).ok());
  }
  EXPECT_FALSE(SituationIdByName("s7").ok());
  EXPECT_FALSE(SituationIdByName("S3").ok());  // Names are lowercase.
}

}  // namespace
}  // namespace scenario
}  // namespace malleus
