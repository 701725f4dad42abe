#include "scenario/scenario.h"

#include <cctype>
#include <cstdlib>

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

// Parses a whole-string integer; false on trailing garbage or empty input.
bool ParseInt64(const std::string& s, int64_t* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

bool ParseDouble(const std::string& s, double* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

// "GPU:LEVEL" or "GPU:xRATE".
Status ParseStraggler(const std::string& value, int line,
                      StragglerEntry* out) {
  const size_t colon = value.find(':');
  if (colon == std::string::npos) {
    return LineError(line, "straggler must be GPU:LEVEL or GPU:xRATE");
  }
  int64_t gpu = 0;
  if (!ParseInt64(Trim(value.substr(0, colon)), &gpu)) {
    return LineError(line, "straggler GPU id is not an integer");
  }
  out->gpu = static_cast<topo::GpuId>(gpu);
  out->line = line;
  const std::string rest = Trim(value.substr(colon + 1));
  if (!rest.empty() && rest[0] == 'x') {
    double rate = 0.0;
    if (!ParseDouble(rest.substr(1), &rate)) {
      return LineError(line, "straggler rate is not a number");
    }
    out->rate = rate;
    out->is_rate = true;
    return Status::OK();
  }
  int64_t level = 0;
  if (!ParseInt64(rest, &level)) {
    return LineError(line, "straggler level is not an integer");
  }
  out->level = static_cast<int>(level);
  out->is_rate = false;
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
  const std::string inner = value.substr(1, value.size() - 2);
  size_t pos = 0;
  while (pos < inner.size()) {
    while (pos < inner.size() &&
           std::isspace(static_cast<unsigned char>(inner[pos]))) {
      ++pos;
    }
    if (pos >= inner.size()) break;
    size_t end = pos;
    while (end < inner.size() &&
           !std::isspace(static_cast<unsigned char>(inner[end]))) {
      ++end;
    }
    const std::string pair = inner.substr(pos, end - pos);
    pos = end;
    const size_t eq = pair.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= pair.size()) {
      return LineError(line, "dynamic entry must be key=value: " + pair);
    }
    const std::string key = pair.substr(0, eq);
    const std::string val = pair.substr(eq + 1);
    int64_t n = 0;
    double d = 0.0;
    if (key == "iterations") {
      if (!ParseInt64(val, &n)) return LineError(line, "bad dynamic iterations");
      out->iterations = static_cast<int>(n);
    } else if (key == "straggle_rate") {
      if (!ParseDouble(val, &d)) {
        return LineError(line, "bad dynamic straggle_rate");
      }
      out->straggle_rate = d;
    } else if (key == "fail_rate") {
      if (!ParseDouble(val, &d)) return LineError(line, "bad dynamic fail_rate");
      out->fail_rate = d;
    } else if (key == "node_fail_rate") {
      if (!ParseDouble(val, &d)) {
        return LineError(line, "bad dynamic node_fail_rate");
      }
      out->node_fail_rate = d;
    } else if (key == "recover_iters") {
      if (!ParseInt64(val, &n)) {
        return LineError(line, "bad dynamic recover_iters");
      }
      out->recover_iters = static_cast<int>(n);
    } else if (key == "flap_prob") {
      if (!ParseDouble(val, &d)) return LineError(line, "bad dynamic flap_prob");
      out->flap_prob = d;
    } else if (key == "flap_period") {
      if (!ParseInt64(val, &n)) {
        return LineError(line, "bad dynamic flap_period");
      }
      out->flap_period = static_cast<int>(n);
    } else if (key == "diurnal_amplitude") {
      if (!ParseDouble(val, &d)) {
        return LineError(line, "bad dynamic diurnal_amplitude");
      }
      out->diurnal_amplitude = d;
    } else if (key == "diurnal_period") {
      if (!ParseInt64(val, &n)) {
        return LineError(line, "bad dynamic diurnal_period");
      }
      out->diurnal_period = static_cast<int>(n);
    } else if (key == "max_level") {
      if (!ParseInt64(val, &n)) return LineError(line, "bad dynamic max_level");
      out->max_level = static_cast<int>(n);
    } else if (key == "seed") {
      if (!ParseInt64(val, &n)) return LineError(line, "bad dynamic seed");
      out->seed = static_cast<uint64_t>(n);
    } else {
      return LineError(line, "unknown dynamic key: " + key);
    }
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

    int64_t n = 0;
    if (key == "model") {
      spec.model = value;
    } else if (key == "nodes") {
      if (!ParseInt64(value, &n)) return LineError(line_no, "bad nodes");
      spec.nodes = static_cast<int>(n);
    } else if (key == "gpus_per_node") {
      if (!ParseInt64(value, &n)) {
        return LineError(line_no, "bad gpus_per_node");
      }
      spec.gpus_per_node = static_cast<int>(n);
    } else if (key == "batch") {
      if (!ParseInt64(value, &n)) return LineError(line_no, "bad batch");
      spec.batch = n;
    } else if (key == "steps") {
      if (!ParseInt64(value, &n)) return LineError(line_no, "bad steps");
      spec.steps = static_cast<int>(n);
    } else if (key == "seed") {
      if (!ParseInt64(value, &n)) return LineError(line_no, "bad seed");
      spec.seed = static_cast<uint64_t>(n);
    } else if (key == "net_model") {
      spec.net_model = value;
    } else if (key == "fabric") {
      spec.fabric = value;
    } else if (key == "nodes_per_pod") {
      if (!ParseInt64(value, &n)) {
        return LineError(line_no, "bad nodes_per_pod");
      }
      spec.nodes_per_pod = static_cast<int>(n);
    } else if (key == "oversubscription") {
      double d = 0.0;
      if (!ParseDouble(value, &d)) {
        return LineError(line_no, "bad oversubscription");
      }
      spec.oversubscription = d;
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
  // The parser reads seeds through strtoll, so only seeds below 2^63
  // round-trip; everything in the tree (flag defaults, the fuzzer's
  // generator) stays in that range.
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
      // %.17g round-trips every finite double exactly through strtod.
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

Result<ResolvedScenario> ResolveScenario(const ScenarioSpec& spec) {
  ResolvedScenario out;
  MALLEUS_ASSIGN_OR_RETURN(out.spec, ModelSpecByName(spec.model));
  if (spec.nodes < 1 || spec.gpus_per_node < 1) {
    return Status::InvalidArgument("cluster shape must be positive");
  }
  if (spec.batch < 1 || spec.steps < 1) {
    return Status::InvalidArgument("batch and steps must be >= 1");
  }
  topo::FabricSpec fabric;
  if (!spec.fabric.empty()) {
    MALLEUS_ASSIGN_OR_RETURN(fabric.kind, topo::ParseFabricKind(spec.fabric));
  }
  if (fabric.kind == topo::FabricSpec::Kind::kFatTree) {
    if (spec.nodes_per_pod <= 0) {
      return Status::InvalidArgument(
          "fat-tree fabric requires nodes_per_pod > 0");
    }
    if (spec.nodes % spec.nodes_per_pod != 0) {
      return Status::InvalidArgument(
          StrFormat("nodes_per_pod=%d must divide nodes=%d",
                    spec.nodes_per_pod, spec.nodes));
    }
    fabric.nodes_per_pod = spec.nodes_per_pod;
  }
  if (fabric.kind != topo::FabricSpec::Kind::kFlat &&
      spec.oversubscription != 0.0) {
    if (spec.oversubscription < 1.0) {
      return Status::InvalidArgument(
          "oversubscription must be >= 1 (1 = non-blocking)");
    }
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
    if (!out.cluster.ValidGpu(s.gpu)) {
      return Status::InvalidArgument(
          StrFormat("straggler GPU %d outside the cluster", s.gpu));
    }
    if (s.is_rate) {
      out.overlay.SetRate(s.gpu, s.rate);
    } else {
      out.overlay.SetLevel(s.gpu, s.level);
    }
    out.has_overlay = true;
  }
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
