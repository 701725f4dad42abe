// malleus::analyze — detlint, the repo's determinism & concurrency static
// analyzer (DESIGN.md §15).
//
// Malleus's core contract is bitwise determinism: plans, estimates,
// FlowSim traces and serve responses must be byte-identical at any thread
// count, cache state or worker clamp. That contract is enforced
// dynamically by the differential oracles (DESIGN.md §11) — detlint
// enforces it *statically*, before any test runs, by matching the source
// itself against the handful of C++ patterns that historically break it.
//
// The analyzer is libclang-free: a lexer (token.h) plus lightweight
// declaration/statement matchers tuned to this repo's idiom. Findings are
// heuristic — each rule documents its known blind spots in `explanation`
// — but the rules are tuned so a clean tree stays clean without
// annotation noise. Three rule families:
//
//   D (determinism)
//     det.unordered-iteration     range-for over unordered containers
//     det.parallel-fp-accumulation  FP accumulation across pool workers
//     det.banned-function         rand/random_device/hi-res clock/time(0)
//     det.pointer-ordering        ordered containers keyed by pointers
//   C (concurrency)
//     conc.shared-mutable-capture  unsynchronized writes to captures in
//                                  ParallelFor / pool Submit bodies
//     conc.missing-metrics-scope   pool bodies hitting the metrics
//                                  registry without a MetricsScope
//   S (status hygiene)
//     status.discarded            dropped Status / Result<T> returns
//   plus detlint.bad-allow        malformed suppression annotations
//
// Findings report through lint::Diagnostic / DiagnosticSink, so they
// render in text/JSON/SARIF alongside the scenario-lint codes; locations
// are "path:line" (RenderSarif maps those to SARIF physicalLocations).
// Suppression: an inline detlint:allow comment naming the code and a
// mandatory reason on the finding's line or the line above, or a
// checked-in baseline file (tools/detlint_baseline.txt, see
// ParseBaseline).

#ifndef MALLEUS_ANALYZE_ANALYZE_H_
#define MALLEUS_ANALYZE_ANALYZE_H_

#include <set>
#include <string>
#include <vector>

#include "analyze/token.h"
#include "common/result.h"
#include "common/status.h"
#include "lint/diagnostic.h"

namespace malleus {
namespace analyze {

// ----- Rule registry ---------------------------------------------------

inline constexpr char kRuleUnorderedIteration[] = "det.unordered-iteration";
inline constexpr char kRuleParallelFpAccumulation[] =
    "det.parallel-fp-accumulation";
inline constexpr char kRuleBannedFunction[] = "det.banned-function";
inline constexpr char kRulePointerOrdering[] = "det.pointer-ordering";
inline constexpr char kRuleSharedMutableCapture[] =
    "conc.shared-mutable-capture";
inline constexpr char kRuleMissingMetricsScope[] =
    "conc.missing-metrics-scope";
inline constexpr char kRuleStatusDiscarded[] = "status.discarded";
inline constexpr char kRuleBadAllow[] = "detlint.bad-allow";

struct RuleInfo {
  const char* code;
  lint::Severity severity;
  const char* summary;      ///< One line, for --list.
  const char* explanation;  ///< Multi-line rationale + blind spots, for
                            ///< --explain=CODE.
};

/// Every detlint rule, sorted by code. Kept in sync with DESIGN.md §15 by
/// tests/analyze_test.cc.
const std::vector<RuleInfo>& Rules();

/// Registry lookup; null for unknown codes.
const RuleInfo* FindRule(const std::string& code);

// ----- Cross-file symbol index -----------------------------------------

/// Cross-file declaration knowledge built in a first pass over every
/// analyzed file:
///   - names of functions declared to return Status / Result<T>, so
///     status.discarded can recognize call statements that drop the
///     result;
///   - names of variables/members declared with unordered container
///     types, so det.unordered-iteration sees members iterated in a .cc
///     but declared in the companion header.
/// Both sets are ambiguity-safe: a name also seen with a non-Status
/// return type (or an ordered container type) anywhere in the scanned set
/// is dropped — a lexical matcher cannot overload-resolve, so it must not
/// guess.
class SymbolIndex {
 public:
  /// Accumulates declarations from one lexed file.
  void AddFile(const LexedFile& file);

  /// True iff `name` is unambiguously Status/Result-returning.
  bool IsStatusReturning(const std::string& name) const {
    return status_names_.count(name) != 0 && other_names_.count(name) == 0;
  }

  /// True iff `name` is unambiguously an unordered container.
  bool IsUnordered(const std::string& name) const {
    return unordered_names_.count(name) != 0 &&
           ordered_names_.count(name) == 0;
  }

 private:
  std::set<std::string> status_names_;
  std::set<std::string> other_names_;
  std::set<std::string> unordered_names_;
  std::set<std::string> ordered_names_;
};

// ----- Analysis --------------------------------------------------------

/// Runs every rule over one already-lexed file, appending findings (with
/// locations "path:line") to `sink`. `index` may cover just this file or a
/// whole tree; passing a default-constructed index disables
/// status.discarded. det.banned-function does not fire under bench/
/// (benchmarks legitimately read wall clocks), matched after stripping any
/// leading "./" from `path`.
void AnalyzeFile(const std::string& path, const LexedFile& file,
                 const SymbolIndex& index, lint::DiagnosticSink* sink);

// ----- Baseline --------------------------------------------------------

/// One accepted pre-existing finding. Baseline files are line-oriented:
///   CODE PATH:LINE reason text...
/// with '#' comments and blank lines skipped. The reason is mandatory —
/// a baseline is a list of *justified* exceptions, not a mute button.
struct BaselineEntry {
  std::string code;
  std::string file;
  int line = 0;
  std::string reason;
};

/// Parses baseline text; malformed lines (missing fields or reason) fail
/// with InvalidArgument naming the offending line.
Result<std::vector<BaselineEntry>> ParseBaseline(const std::string& text);

/// Copies `in` to `out` minus findings matched by the baseline
/// (code + file + line must all agree). Stale entries — baseline lines no
/// current finding matches — are appended to `out` as note-level
/// "detlint.stale-baseline" diagnostics so the file shrinks as the tree
/// heals.
void ApplyBaseline(const std::vector<BaselineEntry>& baseline,
                   const lint::DiagnosticSink& in, lint::DiagnosticSink* out);

}  // namespace analyze
}  // namespace malleus

#endif  // MALLEUS_ANALYZE_ANALYZE_H_
