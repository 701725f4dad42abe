#include "lint/diagnostic.h"

#include <algorithm>
#include <map>

#include "common/string_util.h"
#include "obs/metrics.h"

namespace malleus {
namespace lint {

const char* SeverityName(Severity severity) {
  switch (severity) {
    case Severity::kError:
      return "error";
    case Severity::kWarn:
      return "warn";
    case Severity::kNote:
      return "note";
  }
  return "unknown";
}

std::string Diagnostic::ToString() const {
  std::string out = StrFormat("%s[%s]", SeverityName(severity), code.c_str());
  if (!location.empty()) out += " " + location;
  out += ": " + message;
  return out;
}

void DiagnosticSink::Report(Diagnostic d) {
  switch (d.severity) {
    case Severity::kError:
      ++num_errors_;
      break;
    case Severity::kWarn:
      ++num_warnings_;
      break;
    case Severity::kNote:
      ++num_notes_;
      break;
  }
  diagnostics_.push_back(std::move(d));
}

void DiagnosticSink::Report(Severity severity, std::string code,
                            std::string location, std::string message,
                            std::vector<DiagParam> params) {
  Diagnostic d;
  d.severity = severity;
  d.code = std::move(code);
  d.location = std::move(location);
  d.message = std::move(message);
  d.params = std::move(params);
  Report(std::move(d));
}

bool DiagnosticSink::HasCode(const std::string& code) const {
  return std::any_of(diagnostics_.begin(), diagnostics_.end(),
                     [&](const Diagnostic& d) { return d.code == code; });
}

void DiagnosticSink::Merge(const DiagnosticSink& other) {
  for (const Diagnostic& d : other.diagnostics_) Report(d);
}

std::string RenderText(const DiagnosticSink& sink) {
  if (sink.empty()) return "no diagnostics\n";
  std::string out;
  for (const Diagnostic& d : sink.diagnostics()) {
    out += d.ToString();
    out += "\n";
  }
  out += StrFormat("%d error%s, %d warning%s, %d note%s\n",
                   sink.num_errors(), sink.num_errors() == 1 ? "" : "s",
                   sink.num_warnings(), sink.num_warnings() == 1 ? "" : "s",
                   sink.num_notes(), sink.num_notes() == 1 ? "" : "s");
  return out;
}

namespace {

void WriteParams(const std::vector<DiagParam>& params, JsonWriter* w) {
  w->BeginObject();
  for (const DiagParam& p : params) w->Key(p.key).String(p.value);
  w->EndObject();
}

}  // namespace

std::string RenderJson(const DiagnosticSink& sink) {
  JsonWriter w;
  w.BeginObject().Key("diagnostics").BeginArray();
  for (const Diagnostic& d : sink.diagnostics()) {
    w.BeginObject().Key("code").String(d.code);
    w.Key("severity").String(SeverityName(d.severity));
    w.Key("location").String(d.location).Key("message").String(d.message);
    WriteParams(d.params, &w.Key("params"));
    w.EndObject();
  }
  w.EndArray().Key("errors").Int(sink.num_errors());
  w.Key("warnings").Int(sink.num_warnings()).Key("notes").Int(sink.num_notes());
  w.EndObject();
  return w.str();
}

namespace {

// Splits a "path:line" location (line all-digits, non-empty path) into its
// parts; false for logical locations like "pipeline[2].stage[0]".
bool SplitFileLine(const std::string& location, std::string* path,
                   int* line) {
  const size_t colon = location.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 >= location.size()) {
    return false;
  }
  long long n = 0;
  for (size_t i = colon + 1; i < location.size(); ++i) {
    if (location[i] < '0' || location[i] > '9') return false;
    n = n * 10 + (location[i] - '0');
  }
  if (n <= 0) return false;
  *path = location.substr(0, colon);
  *line = static_cast<int>(n);
  return true;
}

}  // namespace

std::string RenderSarif(const DiagnosticSink& sink,
                        const std::string& artifact,
                        const std::string& tool) {
  // SARIF maps severities onto its fixed "level" vocabulary.
  const auto sarif_level = [](Severity s) {
    switch (s) {
      case Severity::kError:
        return "error";
      case Severity::kWarn:
        return "warning";
      case Severity::kNote:
        return "note";
    }
    return "none";
  };

  // One reportingDescriptor per distinct code, in first-seen order.
  std::vector<std::string> rule_ids;
  std::map<std::string, int> rule_index;
  for (const Diagnostic& d : sink.diagnostics()) {
    const int next = static_cast<int>(rule_ids.size());
    if (rule_index.emplace(d.code, next).second) rule_ids.push_back(d.code);
  }

  JsonWriter w;
  w.BeginObject();
  w.Key("$schema").String("https://json.schemastore.org/sarif-2.1.0.json");
  w.Key("version").String("2.1.0").Key("runs").BeginArray().BeginObject();
  w.Key("tool").BeginObject().Key("driver").BeginObject();
  w.Key("name").String(tool).Key("rules").BeginArray();
  for (const std::string& id : rule_ids) {
    w.BeginObject().Key("id").String(id).EndObject();
  }
  w.EndArray().EndObject().EndObject();
  if (!artifact.empty()) {
    w.Key("artifacts").BeginArray().BeginObject().Key("location");
    w.BeginObject().Key("uri").String(artifact).EndObject();
    w.EndObject().EndArray();
  }
  w.Key("results").BeginArray();
  for (const Diagnostic& d : sink.diagnostics()) {
    w.BeginObject().Key("ruleId").String(d.code);
    w.Key("ruleIndex").Int(rule_index.at(d.code));
    w.Key("level").String(sarif_level(d.severity));
    w.Key("message").BeginObject().Key("text").String(d.message).EndObject();
    if (!d.location.empty()) {
      w.Key("locations").BeginArray().BeginObject();
      std::string file;
      int line = 0;
      if (SplitFileLine(d.location, &file, &line)) {
        w.Key("physicalLocation").BeginObject().Key("artifactLocation");
        w.BeginObject().Key("uri").String(file).EndObject();
        w.Key("region").BeginObject().Key("startLine").Int(line).EndObject();
        w.EndObject();
      }
      w.Key("logicalLocations").BeginArray().BeginObject();
      w.Key("fullyQualifiedName").String(d.location).EndObject().EndArray();
      w.EndObject().EndArray();
    }
    if (!d.params.empty()) WriteParams(d.params, &w.Key("properties"));
    w.EndObject();
  }
  w.EndArray().EndObject().EndArray().EndObject();
  return w.str();
}

void RecordDiagnosticMetrics(const DiagnosticSink& sink) {
  if (sink.empty()) return;
  auto& registry = obs::MetricsRegistry::Current();
  for (const Diagnostic& d : sink.diagnostics()) {
    registry.GetCounter("lint.diagnostics." + d.code)->Increment();
  }
  if (sink.num_errors() > 0) {
    registry.GetCounter("lint.errors")
        ->Increment(static_cast<double>(sink.num_errors()));
  }
  if (sink.num_warnings() > 0) {
    registry.GetCounter("lint.warnings")
        ->Increment(static_cast<double>(sink.num_warnings()));
  }
  if (sink.num_notes() > 0) {
    registry.GetCounter("lint.notes")
        ->Increment(static_cast<double>(sink.num_notes()));
  }
}

}  // namespace lint
}  // namespace malleus
