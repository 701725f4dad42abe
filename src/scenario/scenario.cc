#include "scenario/scenario.h"

#include <cctype>
#include <cmath>
#include <set>
#include <string_view>
#include <utility>

#include "common/file_util.h"
#include "common/string_util.h"

namespace malleus {
namespace scenario {

namespace {

// Trims ASCII whitespace from both ends.
std::string Trim(const std::string& s) {
  size_t begin = 0;
  size_t end = s.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(s[begin]))) {
    ++begin;
  }
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1]))) {
    --end;
  }
  return s.substr(begin, end - begin);
}

Status LineError(int line, const std::string& what) {
  return Status::InvalidArgument(StrFormat("line %d: %s", line, what.c_str()));
}

// "GPU:LEVEL", "GPU:xRATE", or "GPU:xinf" for a failed GPU.
Status ParseStraggler(const std::string& value, int line,
                      StragglerEntry* out) {
  const size_t colon = value.find(':');
  if (colon == std::string::npos) {
    return LineError(line, "straggler must be GPU:LEVEL or GPU:xRATE");
  }
  if (!ParseValue(Trim(value.substr(0, colon)), &out->gpu).ok()) {
    return LineError(line, "straggler GPU id is not an integer");
  }
  out->line = line;
  const std::string rest = Trim(value.substr(colon + 1));
  out->is_rate = !rest.empty() && rest[0] == 'x';
  if (rest == "xinf") {
    out->rate = straggler::kFailedRate;
  } else if (out->is_rate) {
    if (!ParseValue(std::string_view(rest).substr(1), &out->rate).ok()) {
      return LineError(line, "straggler rate is not a number");
    }
  } else if (!ParseValue(rest, &out->level).ok()) {
    return LineError(line, "straggler level is not an integer");
  }
  return Status::OK();
}

// "{ key=value key=value ... }" — the braces hold whitespace-separated
// inner pairs, so the whole dynamic block stays one scenario line and the
// top-level first-'=' split keeps working.
Status ParseDynamic(const std::string& value, int line, DynamicSpec* out) {
  if (value.front() != '{' || value.back() != '}') {
    return LineError(line, "dynamic value must be { key=value ... }");
  }
  *out = DynamicSpec();
  out->enabled = true;
  out->line = line;
  const Result<KeyValues> kv =
      ParseKeyValues(SplitWords(value.substr(1, value.size() - 2)));
  if (!kv.ok()) return LineError(line, "dynamic block: " + kv.status().message());
  for (const auto& [key, val] : kv->pairs) {
    Status read;
    if (key == "iterations") {
      read = ParseValue(val, &out->iterations);
    } else if (key == "straggle_rate") {
      read = ParseValue(val, &out->straggle_rate);
    } else if (key == "fail_rate") {
      read = ParseValue(val, &out->fail_rate);
    } else if (key == "node_fail_rate") {
      read = ParseValue(val, &out->node_fail_rate);
    } else if (key == "recover_iters") {
      read = ParseValue(val, &out->recover_iters);
    } else if (key == "flap_prob") {
      read = ParseValue(val, &out->flap_prob);
    } else if (key == "flap_period") {
      read = ParseValue(val, &out->flap_period);
    } else if (key == "diurnal_amplitude") {
      read = ParseValue(val, &out->diurnal_amplitude);
    } else if (key == "diurnal_period") {
      read = ParseValue(val, &out->diurnal_period);
    } else if (key == "max_level") {
      read = ParseValue(val, &out->max_level);
    } else if (key == "seed") {
      read = ParseValue(val, &out->seed);
    } else {
      return LineError(line, "unknown dynamic key: " + key);
    }
    if (!read.ok()) return LineError(line, "bad dynamic " + key);
  }
  return Status::OK();
}

}  // namespace

Result<ScenarioSpec> ParseScenarioString(const std::string& text) {
  ScenarioSpec spec;
  int line_no = 0;
  size_t pos = 0;
  // Files that passed through Windows editors may lead with a UTF-8 BOM;
  // without this the first key would read as "\xEF\xBB\xBFmodel". CR and
  // trailing whitespace are handled by Trim (isspace covers '\r').
  if (text.compare(0, 3, "\xEF\xBB\xBF") == 0) pos = 3;
  while (pos <= text.size()) {
    const size_t eol = text.find('\n', pos);
    std::string line = text.substr(
        pos, eol == std::string::npos ? std::string::npos : eol - pos);
    pos = eol == std::string::npos ? text.size() + 1 : eol + 1;
    ++line_no;

    const size_t hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    line = Trim(line);
    if (line.empty()) continue;

    const size_t eq = line.find('=');
    if (eq == std::string::npos) {
      return LineError(line_no, "expected key = value");
    }
    const std::string key = Trim(line.substr(0, eq));
    const std::string value = Trim(line.substr(eq + 1));
    if (value.empty()) return LineError(line_no, "empty value for " + key);

    Status read;
    if (key == "model") {
      spec.model = value;
    } else if (key == "nodes") {
      read = ParseValue(value, &spec.nodes);
    } else if (key == "gpus_per_node") {
      read = ParseValue(value, &spec.gpus_per_node);
    } else if (key == "batch") {
      read = ParseValue(value, &spec.batch);
    } else if (key == "steps") {
      read = ParseValue(value, &spec.steps);
    } else if (key == "seed") {
      read = ParseValue(value, &spec.seed);
    } else if (key == "net_model") {
      spec.net_model = value;
    } else if (key == "fabric") {
      spec.fabric = value;
    } else if (key == "nodes_per_pod") {
      read = ParseValue(value, &spec.nodes_per_pod);
    } else if (key == "oversubscription") {
      read = ParseValue(value, &spec.oversubscription);
    } else if (key == "phase") {
      spec.phases.push_back(value);
    } else if (key == "straggler") {
      StragglerEntry entry;
      MALLEUS_RETURN_NOT_OK(ParseStraggler(value, line_no, &entry));
      spec.stragglers.push_back(entry);
    } else if (key == "dynamic") {
      MALLEUS_RETURN_NOT_OK(ParseDynamic(value, line_no, &spec.dynamic));
    } else {
      return LineError(line_no, "unknown key: " + key);
    }
    if (!read.ok()) return LineError(line_no, "bad " + key);
  }
  return spec;
}

std::string SerializeScenario(const ScenarioSpec& spec) {
  std::string out;
  out += "model = " + spec.model + "\n";
  out += StrFormat("nodes = %d\n", spec.nodes);
  out += StrFormat("gpus_per_node = %d\n", spec.gpus_per_node);
  out += StrFormat("batch = %lld\n", static_cast<long long>(spec.batch));
  out += StrFormat("steps = %d\n", spec.steps);
  out += StrFormat("seed = %llu\n",
                   static_cast<unsigned long long>(spec.seed));
  if (!spec.net_model.empty()) {
    out += "net_model = " + spec.net_model + "\n";
  }
  if (!spec.fabric.empty()) {
    out += "fabric = " + spec.fabric + "\n";
  }
  if (spec.nodes_per_pod != 0) {
    out += StrFormat("nodes_per_pod = %d\n", spec.nodes_per_pod);
  }
  if (spec.oversubscription != 0.0) {
    out += StrFormat("oversubscription = %.17g\n", spec.oversubscription);
  }
  for (const std::string& phase : spec.phases) {
    out += "phase = " + phase + "\n";
  }
  for (const StragglerEntry& s : spec.stragglers) {
    if (s.is_rate) {
      // %.17g round-trips every finite double exactly through ParseValue.
      out += StrFormat("straggler = %d:x%.17g\n", s.gpu, s.rate);
    } else {
      out += StrFormat("straggler = %d:%d\n", s.gpu, s.level);
    }
  }
  if (spec.dynamic.enabled) {
    const DynamicSpec& d = spec.dynamic;
    out += StrFormat(
        "dynamic = { iterations=%d straggle_rate=%.17g fail_rate=%.17g "
        "node_fail_rate=%.17g recover_iters=%d flap_prob=%.17g "
        "flap_period=%d diurnal_amplitude=%.17g diurnal_period=%d "
        "max_level=%d seed=%llu }\n",
        d.iterations, d.straggle_rate, d.fail_rate, d.node_fail_rate,
        d.recover_iters, d.flap_prob, d.flap_period, d.diurnal_amplitude,
        d.diurnal_period, d.max_level,
        static_cast<unsigned long long>(d.seed));
  }
  return out;
}

Result<ScenarioSpec> LoadScenarioFile(const std::string& path) {
  const Result<std::string> text = ReadFileBytes(path);
  if (!text.ok()) {
    return Status::NotFound("cannot open scenario file: " + path);
  }
  Result<ScenarioSpec> spec = ParseScenarioString(*text);
  if (!spec.ok()) {
    return Status(spec.status().code(),
                  path + ": " + spec.status().message());
  }
  spec->source = path;
  return spec;
}

Result<model::ModelSpec> ModelSpecByName(const std::string& name) {
  if (name == "32b") return model::ModelSpec::Llama32B();
  if (name == "70b") return model::ModelSpec::Llama70B();
  if (name == "110b") return model::ModelSpec::Llama110B();
  if (name == "tiny") return model::ModelSpec::Tiny();
  return Status::InvalidArgument("unknown model: " + name);
}

Result<straggler::SituationId> SituationIdByName(const std::string& name) {
  using straggler::SituationId;
  if (name == "normal") return SituationId::kNormal;
  if (name == "s1") return SituationId::kS1;
  if (name == "s2") return SituationId::kS2;
  if (name == "s3") return SituationId::kS3;
  if (name == "s4") return SituationId::kS4;
  if (name == "s5") return SituationId::kS5;
  if (name == "s6") return SituationId::kS6;
  return Status::InvalidArgument("unknown trace phase: " + name);
}

std::vector<std::string> StandardPhases() {
  std::vector<std::string> phases;
  for (const straggler::TracePhase& phase : straggler::StandardTrace()) {
    std::string name = straggler::SituationName(phase.id);
    for (char& c : name) {
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    phases.push_back(std::move(name));
  }
  return phases;
}

void CheckScenario(const ScenarioSpec& spec, lint::DiagnosticSink* sink) {
  using lint::Severity;
  if (!ModelSpecByName(spec.model).ok()) {
    sink->Report(Severity::kError, kLintScenarioUnknownModel,
                 "scenario.model",
                 StrFormat("unknown model: %s (expected 32b, 70b, 110b or "
                           "tiny)",
                           spec.model.c_str()));
  }
  const bool shape_ok = spec.nodes >= 1 && spec.gpus_per_node >= 1;
  if (!shape_ok) {
    sink->Report(Severity::kError, kLintScenarioInvalidValue,
                 "scenario.nodes",
                 StrFormat("cluster shape %dx%d is not positive", spec.nodes,
                           spec.gpus_per_node));
  }
  if (spec.batch < 1) {
    sink->Report(Severity::kError, kLintScenarioInvalidValue,
                 "scenario.batch",
                 StrFormat("batch %lld must be >= 1",
                           static_cast<long long>(spec.batch)));
  }
  if (spec.steps < 1) {
    sink->Report(Severity::kError, kLintScenarioInvalidValue,
                 "scenario.steps",
                 StrFormat("steps %d must be >= 1", spec.steps));
  }
  if (!spec.net_model.empty() &&
      !net::ParseNetModel(spec.net_model).ok()) {
    sink->Report(Severity::kError, kLintScenarioInvalidValue,
                 "scenario.net_model",
                 StrFormat("unknown net model \"%s\" (expected analytic or "
                           "flow)",
                           spec.net_model.c_str()));
  }
  topo::FabricSpec::Kind fabric_kind = topo::FabricSpec::Kind::kFlat;
  bool fabric_ok = true;
  if (!spec.fabric.empty()) {
    Result<topo::FabricSpec::Kind> parsed =
        topo::ParseFabricKind(spec.fabric);
    if (!parsed.ok()) {
      sink->Report(Severity::kError, kLintScenarioUnknownFabric,
                   "scenario.fabric",
                   StrFormat("unknown fabric \"%s\" (expected flat, "
                             "fat-tree or rail)",
                             spec.fabric.c_str()));
      fabric_ok = false;
    } else {
      fabric_kind = *parsed;
    }
  }
  if (fabric_ok) {
    if (fabric_kind == topo::FabricSpec::Kind::kFatTree) {
      if (spec.nodes_per_pod <= 0) {
        sink->Report(Severity::kError, kLintScenarioInvalidValue,
                     "scenario.nodes_per_pod",
                     StrFormat("fat-tree fabric requires nodes_per_pod >= 1 "
                               "(got %d)",
                               spec.nodes_per_pod));
      } else if (shape_ok && spec.nodes % spec.nodes_per_pod != 0) {
        sink->Report(Severity::kError, kLintScenarioInvalidValue,
                     "scenario.nodes_per_pod",
                     StrFormat("nodes_per_pod %d must divide nodes %d",
                               spec.nodes_per_pod, spec.nodes),
                     {{"nodes_per_pod", StrFormat("%d", spec.nodes_per_pod)},
                      {"nodes", StrFormat("%d", spec.nodes)}});
      }
    } else if (spec.nodes_per_pod != 0) {
      sink->Report(Severity::kWarn, kLintScenarioFabricFieldIgnored,
                   "scenario.nodes_per_pod",
                   StrFormat("nodes_per_pod only applies to fat-tree "
                             "fabrics (fabric is %s); the field is ignored",
                             topo::FabricKindName(fabric_kind)));
    }
    if (fabric_kind != topo::FabricSpec::Kind::kFlat) {
      if (spec.oversubscription != 0.0 && spec.oversubscription < 1.0) {
        sink->Report(Severity::kError, kLintScenarioInvalidValue,
                     "scenario.oversubscription",
                     StrFormat("oversubscription %.4f must be >= 1 "
                               "(1 = non-blocking)",
                               spec.oversubscription));
      }
    } else if (spec.oversubscription != 0.0) {
      sink->Report(Severity::kWarn, kLintScenarioFabricFieldIgnored,
                   "scenario.oversubscription",
                   "oversubscription only applies to hierarchical fabrics "
                   "(fabric is flat); the field is ignored");
    }
  }
  for (size_t i = 0; i < spec.phases.size(); ++i) {
    if (!SituationIdByName(spec.phases[i]).ok()) {
      sink->Report(Severity::kError, kLintScenarioUnknownPhase,
                   StrFormat("scenario.phase[%zu]", i),
                   StrFormat("unknown trace phase: %s (expected normal or "
                             "s1..s6)",
                             spec.phases[i].c_str()));
    }
  }
  if (sink->ShouldStop()) return;
  const int num_gpus = shape_ok ? spec.nodes * spec.gpus_per_node : 0;
  const double max_fit = straggler::RateForLevel(straggler::kMaxFittedLevel);
  std::set<topo::GpuId> seen;
  for (size_t i = 0; i < spec.stragglers.size(); ++i) {
    if (sink->ShouldStop()) return;
    const StragglerEntry& s = spec.stragglers[i];
    const std::string loc = StrFormat("scenario.straggler[%zu]", i);
    if (shape_ok && (s.gpu < 0 || s.gpu >= num_gpus)) {
      sink->Report(Severity::kError, kLintScenarioGpuOutOfRange, loc,
                   StrFormat("straggler GPU %d outside the cluster (%d "
                             "GPUs)",
                             s.gpu, num_gpus),
                   {{"gpu", StrFormat("%d", s.gpu)},
                    {"num_gpus", StrFormat("%d", num_gpus)}});
    }
    if (!seen.insert(s.gpu).second) {
      sink->Report(Severity::kError, kLintScenarioDuplicateStraggler, loc,
                   StrFormat("GPU %d already has a straggler entry", s.gpu),
                   {{"gpu", StrFormat("%d", s.gpu)}});
    }
    if (s.is_rate) {
      if (std::isinf(s.rate) && s.rate > 0) {
        sink->Report(Severity::kNote, kLintSituationFailedGpu, loc,
                     StrFormat("GPU %d is marked failed (infinite rate)",
                               s.gpu));
      } else if (std::isnan(s.rate) || s.rate < 1.0 - 1e-12) {
        sink->Report(Severity::kError, kLintSituationBadRate, loc,
                     StrFormat("straggling rate %.4f is below 1", s.rate),
                     {{"rate", StrFormat("%.6f", s.rate)}});
      } else if (s.rate > max_fit * (1.0 + 1e-9)) {
        sink->Report(Severity::kWarn, kLintSituationRateAboveFit, loc,
                     StrFormat("rate %.2f exceeds the fitted range (max "
                               "%.2f at level 8)",
                               s.rate, max_fit),
                     {{"rate", StrFormat("%.3f", s.rate)}});
      }
    } else {
      if (s.level < 0) {
        sink->Report(Severity::kError, kLintSituationBadRate, loc,
                     StrFormat("straggler level %d is negative", s.level));
      } else if (s.level > straggler::kMaxFittedLevel) {
        sink->Report(Severity::kWarn, kLintSituationRateAboveFit, loc,
                     StrFormat("level %d exceeds the fitted range k <= 8 "
                               "(rate %.2f)",
                               s.level, straggler::RateForLevel(s.level)),
                     {{"level", StrFormat("%d", s.level)}});
      }
    }
  }
  if (!spec.dynamic.enabled || sink->ShouldStop()) return;
  const DynamicSpec& d = spec.dynamic;
  const std::string loc = "scenario.dynamic";
  const auto bad = [&](const std::string& what) {
    sink->Report(Severity::kError, kLintScenarioDynamicInvalidValue, loc,
                 what);
  };
  if (d.iterations < 1 || d.iterations > 10 * 1000 * 1000) {
    bad(StrFormat("iterations %d must be in [1, 10000000]", d.iterations));
  }
  if (!(d.straggle_rate >= 0.0 && d.straggle_rate <= 1.0)) {
    bad(StrFormat("straggle_rate %.6g must be in [0, 1]", d.straggle_rate));
  }
  if (!(d.fail_rate >= 0.0 && d.fail_rate <= 1.0)) {
    bad(StrFormat("fail_rate %.6g must be in [0, 1]", d.fail_rate));
  }
  if (!(d.node_fail_rate >= 0.0 && d.node_fail_rate <= 1.0)) {
    bad(StrFormat("node_fail_rate %.6g must be in [0, 1]",
                  d.node_fail_rate));
  }
  if (d.recover_iters < 0) {
    bad(StrFormat("recover_iters %d must be >= 0", d.recover_iters));
  }
  if (!(d.flap_prob >= 0.0 && d.flap_prob <= 1.0)) {
    bad(StrFormat("flap_prob %.6g must be in [0, 1]", d.flap_prob));
  }
  if (d.flap_period < 1) {
    bad(StrFormat("flap_period %d must be >= 1", d.flap_period));
  }
  if (!(d.diurnal_amplitude >= 0.0 && d.diurnal_amplitude <= 1.0)) {
    bad(StrFormat("diurnal_amplitude %.6g must be in [0, 1]",
                  d.diurnal_amplitude));
  }
  if (d.diurnal_period < 1) {
    bad(StrFormat("diurnal_period %d must be >= 1", d.diurnal_period));
  }
  if (d.max_level < 1 || d.max_level > straggler::kMaxFittedLevel) {
    bad(StrFormat("max_level %d must be in [1, 8]", d.max_level));
  }
  // Saturation: with per-GPU arrival probability p and mean heal time r,
  // the expected number of concurrently-faulty GPUs in steady state is
  // about num_gpus * p * r. Past half the cluster the planner spends the
  // whole run in degraded plans and the comparison tells you nothing.
  if (shape_ok && d.straggle_rate >= 0.0 && d.fail_rate >= 0.0 &&
      d.node_fail_rate >= 0.0 && d.recover_iters >= 0) {
    const double arrival = d.straggle_rate + d.fail_rate +
                           d.node_fail_rate * spec.gpus_per_node;
    const double expected_faulty =
        static_cast<double>(num_gpus) * arrival *
        (d.recover_iters > 0 ? d.recover_iters : d.iterations);
    if (expected_faulty >= num_gpus / 2.0 && num_gpus > 0) {
      sink->Report(
          Severity::kWarn, kLintScenarioDynamicSaturated, loc,
          StrFormat("expected concurrent faulty GPUs %.1f is at least "
                    "half the %d-GPU cluster; the dynamic run will be "
                    "fault-dominated",
                    expected_faulty, num_gpus),
          {{"expected_faulty", StrFormat("%.2f", expected_faulty)},
           {"num_gpus", StrFormat("%d", num_gpus)}});
    }
  }
}

Result<ResolvedScenario> ResolveScenario(const ScenarioSpec& spec) {
  // The scenario rules live in CheckScenario alone: run it fail-fast and
  // return its first error, so a spec resolves exactly when it lints
  // without errors. The conversions below cannot fail after that.
  lint::DiagnosticSink sink;
  sink.set_fail_fast(true);
  CheckScenario(spec, &sink);
  for (const lint::Diagnostic& d : sink.diagnostics()) {
    if (d.severity == lint::Severity::kError) {
      return Status::InvalidArgument(d.message);
    }
  }
  ResolvedScenario out;
  MALLEUS_ASSIGN_OR_RETURN(out.spec, ModelSpecByName(spec.model));
  topo::FabricSpec fabric;
  if (!spec.fabric.empty()) {
    MALLEUS_ASSIGN_OR_RETURN(fabric.kind, topo::ParseFabricKind(spec.fabric));
  }
  if (fabric.kind == topo::FabricSpec::Kind::kFatTree) {
    fabric.nodes_per_pod = spec.nodes_per_pod;
  }
  if (fabric.kind != topo::FabricSpec::Kind::kFlat &&
      spec.oversubscription != 0.0) {
    fabric.oversubscription = spec.oversubscription;
  }
  out.cluster = topo::ClusterSpec(spec.nodes, spec.gpus_per_node,
                                  topo::GpuSpec(), topo::LinkSpec(), fabric);
  out.net_model = net::DefaultNetModel();
  if (!spec.net_model.empty()) {
    MALLEUS_ASSIGN_OR_RETURN(out.net_model,
                             net::ParseNetModel(spec.net_model));
  }
  for (const std::string& phase : spec.phases) {
    MALLEUS_ASSIGN_OR_RETURN(straggler::SituationId id,
                             SituationIdByName(phase));
    out.trace.push_back({id, spec.steps});
  }
  out.overlay = straggler::Situation(out.cluster.num_gpus());
  for (const StragglerEntry& s : spec.stragglers) {
    if (s.is_rate) {
      out.overlay.SetRate(s.gpu, s.rate);
    } else {
      out.overlay.SetLevel(s.gpu, s.level);
    }
    out.has_overlay = true;
  }
  out.event_seed = spec.dynamic.seed != 0 ? spec.dynamic.seed : spec.seed;
  return out;
}

Result<std::vector<LabeledSituation>> ImpliedSituations(
    const ResolvedScenario& resolved) {
  std::vector<LabeledSituation> situations;
  if (resolved.has_overlay) {
    situations.push_back({"overlay", resolved.overlay});
  } else if (!resolved.trace.empty()) {
    std::vector<straggler::SituationId> seen;
    for (const straggler::TracePhase& phase : resolved.trace) {
      bool duplicate = false;
      for (straggler::SituationId id : seen) {
        if (id == phase.id) duplicate = true;
      }
      if (duplicate) continue;
      seen.push_back(phase.id);
      Result<straggler::Situation> situation =
          straggler::Situation::Canonical(resolved.cluster, phase.id);
      if (!situation.ok()) return situation.status();
      situations.push_back({straggler::SituationName(phase.id),
                            std::move(*situation)});
    }
  } else {
    situations.push_back(
        {"Normal", straggler::Situation(resolved.cluster.num_gpus())});
  }
  return situations;
}

}  // namespace scenario
}  // namespace malleus
