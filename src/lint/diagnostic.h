// malleus::lint — the diagnostics engine.
//
// A Diagnostic is one finding of a static-analysis pass: a stable code
// (e.g. "plan.gpu-reused"), a severity, a human message, a path-like
// location into the analyzed artifact (e.g. "pipeline[2].stage[0]") and
// structured key/value params for machine consumers. Diagnostics are
// collected by a DiagnosticSink and rendered as human text, JSON, or
// SARIF 2.1.0 (the OASIS static-analysis interchange format, so CI
// systems can annotate findings natively).
//
// The sink is deliberately a plain value type: passes append, callers
// copy/move it around (e.g. attached to a PlanResult). It is not
// thread-safe; concurrent passes collect into their own sinks and merge.

#ifndef MALLEUS_LINT_DIAGNOSTIC_H_
#define MALLEUS_LINT_DIAGNOSTIC_H_

#include <string>
#include <utility>
#include <vector>

namespace malleus {
namespace lint {

/// Severity policy: kError findings make the artifact unusable (the
/// executor refuses such plans; CLIs exit non-zero); kWarn findings are
/// legal but likely pathological (imbalance, razor-edge memory); kNote is
/// informational context attached to other findings.
enum class Severity {
  kError,
  kWarn,
  kNote,
};

/// "error" / "warn" / "note".
const char* SeverityName(Severity severity);

/// One structured parameter of a diagnostic, e.g. {"headroom_pct", "4.2"}.
struct DiagParam {
  std::string key;
  std::string value;
};

/// One finding of an analysis pass.
struct Diagnostic {
  std::string code;      ///< Stable dotted identifier, e.g. "plan.gpu-reused".
  Severity severity = Severity::kError;
  std::string message;   ///< Human-readable, one line.
  /// Path into the analyzed artifact, e.g. "pipeline[2].stage[0]" or
  /// "scenario.straggler[1]". Empty for artifact-wide findings.
  std::string location;
  std::vector<DiagParam> params;

  /// "error[plan.gpu-reused] pipeline[0].stage[1]: GPU 3 used more than
  /// once" (location omitted when empty).
  std::string ToString() const;
};

/// \brief Collects diagnostics emitted by analysis passes.
class DiagnosticSink {
 public:
  /// Appends a diagnostic.
  void Report(Diagnostic d);

  /// Convenience: builds and appends in one call.
  void Report(Severity severity, std::string code, std::string location,
              std::string message, std::vector<DiagParam> params = {});

  const std::vector<Diagnostic>& diagnostics() const { return diagnostics_; }
  bool empty() const { return diagnostics_.empty(); }
  size_t size() const { return diagnostics_.size(); }

  int num_errors() const { return num_errors_; }
  int num_warnings() const { return num_warnings_; }
  int num_notes() const { return num_notes_; }
  bool HasErrors() const { return num_errors_ > 0; }

  /// Appends every diagnostic of `other`.
  void Merge(const DiagnosticSink& other);

  /// When set, passes stop analyzing after the first error-level finding
  /// (ParallelPlan::Validate uses this to preserve its first-error-wins
  /// contract). Cooperative: passes consult ShouldStop() between checks.
  void set_fail_fast(bool fail_fast) { fail_fast_ = fail_fast; }
  bool fail_fast() const { return fail_fast_; }
  bool ShouldStop() const { return fail_fast_ && num_errors_ > 0; }

 private:
  std::vector<Diagnostic> diagnostics_;
  int num_errors_ = 0;
  int num_warnings_ = 0;
  int num_notes_ = 0;
  bool fail_fast_ = false;
};

// ----- Renderers -------------------------------------------------------

/// One line per diagnostic (Diagnostic::ToString) plus a trailing summary
/// line ("2 errors, 1 warning"). Empty sinks render "no diagnostics\n".
std::string RenderText(const DiagnosticSink& sink);

/// {"diagnostics":[{"code":...,"severity":...,"location":...,
///  "message":...,"params":{...}}],"errors":N,"warnings":N,"notes":N}
std::string RenderJson(const DiagnosticSink& sink);

/// SARIF 2.1.0 (the OASIS standard CI annotators consume): one run with
/// tool.driver.name `tool` (default "malleus-lint"), one reporting rule
/// per distinct code, one result per diagnostic with the location mapped
/// to a SARIF logicalLocation and the params to result.properties.
/// Locations of the form "path:line" (as emitted by malleus::analyze)
/// additionally get a physicalLocation with artifactLocation.uri = path
/// and region.startLine = line, so CI annotators can pin the finding to
/// the source line. `artifact` names the analyzed input (e.g. a scenario
/// file path); empty omits it.
std::string RenderSarif(const DiagnosticSink& sink,
                        const std::string& artifact = "",
                        const std::string& tool = "malleus-lint");

/// Increments the `lint.diagnostics.<code>` counter of the global metrics
/// registry for every collected diagnostic, plus the `lint.errors` /
/// `lint.warnings` / `lint.notes` totals.
void RecordDiagnosticMetrics(const DiagnosticSink& sink);

}  // namespace lint
}  // namespace malleus

#endif  // MALLEUS_LINT_DIAGNOSTIC_H_
