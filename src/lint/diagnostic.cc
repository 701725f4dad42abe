#include "lint/diagnostic.h"

#include <algorithm>
#include <map>
#include <set>

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

std::string ParamsJson(const std::vector<DiagParam>& params) {
  std::vector<std::string> parts;
  parts.reserve(params.size());
  for (const DiagParam& p : params) {
    parts.push_back(JsonQuote(p.key) + ":" + JsonQuote(p.value));
  }
  return "{" + Join(parts, ",") + "}";
}

}  // namespace

std::string RenderJson(const DiagnosticSink& sink) {
  std::vector<std::string> items;
  items.reserve(sink.size());
  for (const Diagnostic& d : sink.diagnostics()) {
    items.push_back(StrFormat(
        "{\"code\":%s,\"severity\":%s,\"location\":%s,\"message\":%s,"
        "\"params\":%s}",
        JsonQuote(d.code).c_str(), JsonQuote(SeverityName(d.severity)).c_str(),
        JsonQuote(d.location).c_str(), JsonQuote(d.message).c_str(),
        ParamsJson(d.params).c_str()));
  }
  return StrFormat(
      "{\"diagnostics\":[%s],\"errors\":%d,\"warnings\":%d,\"notes\":%d}",
      Join(items, ",").c_str(), sink.num_errors(), sink.num_warnings(),
      sink.num_notes());
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
  std::set<std::string> seen;
  for (const Diagnostic& d : sink.diagnostics()) {
    if (seen.insert(d.code).second) rule_ids.push_back(d.code);
  }
  std::map<std::string, int> rule_index;
  std::vector<std::string> rules;
  for (size_t i = 0; i < rule_ids.size(); ++i) {
    rule_index[rule_ids[i]] = static_cast<int>(i);
    rules.push_back(StrFormat("{\"id\":%s}", JsonQuote(rule_ids[i]).c_str()));
  }

  std::vector<std::string> results;
  results.reserve(sink.size());
  for (const Diagnostic& d : sink.diagnostics()) {
    std::string location;
    if (!d.location.empty()) {
      std::string file;
      int line = 0;
      std::string physical;
      if (SplitFileLine(d.location, &file, &line)) {
        physical = StrFormat(
            "\"physicalLocation\":{\"artifactLocation\":{\"uri\":%s},"
            "\"region\":{\"startLine\":%d}},",
            JsonQuote(file).c_str(), line);
      }
      location = StrFormat(
          ",\"locations\":[{%s\"logicalLocations\":[{\"fullyQualifiedName\":"
          "%s}]}]",
          physical.c_str(), JsonQuote(d.location).c_str());
    }
    std::string properties;
    if (!d.params.empty()) {
      properties = ",\"properties\":" + ParamsJson(d.params);
    }
    results.push_back(StrFormat(
        "{\"ruleId\":%s,\"ruleIndex\":%d,\"level\":\"%s\","
        "\"message\":{\"text\":%s}%s%s}",
        JsonQuote(d.code).c_str(), rule_index[d.code],
        sarif_level(d.severity), JsonQuote(d.message).c_str(),
        location.c_str(), properties.c_str()));
  }

  std::string artifacts;
  if (!artifact.empty()) {
    artifacts = StrFormat(
        ",\"artifacts\":[{\"location\":{\"uri\":%s}}]",
        JsonQuote(artifact).c_str());
  }
  return StrFormat(
      "{\"$schema\":"
      "\"https://json.schemastore.org/sarif-2.1.0.json\","
      "\"version\":\"2.1.0\",\"runs\":[{\"tool\":{\"driver\":"
      "{\"name\":%s,\"rules\":[%s]}}%s,\"results\":[%s]}]}",
      JsonQuote(tool).c_str(), Join(rules, ",").c_str(), artifacts.c_str(),
      Join(results, ",").c_str());
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
