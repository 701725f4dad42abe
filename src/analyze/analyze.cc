#include "analyze/analyze.h"

#include <algorithm>
#include <cstdlib>

#include "common/string_util.h"

namespace malleus {
namespace analyze {
namespace {

using lint::Severity;

// ----- Registry --------------------------------------------------------

const RuleInfo kRules[] = {
    {kRuleSharedMutableCapture, Severity::kError,
     "unsynchronized write to a captured variable in a parallel body",
     "A lambda run by exec::ParallelFor or a pool Submit writes to a\n"
     "variable captured from the enclosing scope without a mutex, an\n"
     "atomic type, or per-worker indexing. Concurrent workers race on the\n"
     "write (undefined behavior) and the winner depends on scheduling, so\n"
     "results differ run to run. Fix: give every worker its own slot\n"
     "(write results[i] where i is the loop index), or guard the write\n"
     "with a std::lock_guard, or make the variable std::atomic.\n"
     "Blind spots: writes through dereferenced pointers (*out = x) and\n"
     "mutation via functions called from the body are not seen; a\n"
     "lock_guard anywhere in the body suppresses the rule for the whole\n"
     "body."},
    {kRuleMissingMetricsScope, Severity::kError,
     "parallel body uses the metrics registry without a MetricsScope",
     "Pool workers start with no thread-local MetricsScope, so\n"
     "obs::MetricsRegistry::Current() inside a ParallelFor / Submit body\n"
     "resolves to the process-global registry instead of the caller's\n"
     "per-request registry — serve request metrics silently leak into the\n"
     "global aggregate (DESIGN.md §13). Fix: capture\n"
     "&MetricsRegistry::Current() outside the lambda and re-install it\n"
     "with obs::MetricsScope scope(metrics); as the body's first\n"
     "statement. Blind spot: registry use inside functions called from\n"
     "the body is not seen."},
    {kRuleBannedFunction, Severity::kError,
     "nondeterministic time/randomness source outside bench/",
     "rand(), srand(), std::random_device, high_resolution_clock and\n"
     "time(nullptr) draw from process-external state, so two runs of the\n"
     "same scenario diverge. Every random draw in this repo must come\n"
     "from a seeded common/rng.h generator and every duration from\n"
     "steady_clock (and only into wall-time fields excluded from\n"
     "byte-compared output). Benchmarks under bench/ are exempt — they\n"
     "measure real time by design. Annotate deliberate sites with\n"
     "// detlint:allow(det.banned-function reason)."},
    {kRuleParallelFpAccumulation, Severity::kError,
     "floating-point accumulation across parallel workers",
     "A ParallelFor / Submit body accumulates (+=, -=, *=, fetch_add)\n"
     "into a float/double captured from the enclosing scope. Even when\n"
     "the variable is atomic or mutex-guarded, the accumulation order\n"
     "depends on worker interleaving, and floating-point addition is not\n"
     "associative — the sum's low bits differ run to run, which the\n"
     "byte-identity gates (golden traces, serve responses, what-if\n"
     "reports) will catch only on an unlucky schedule. Fix: accumulate\n"
     "into per-worker slots and reduce in index order after the join\n"
     "(see core::Planner::Plan phase 4)."},
    {kRulePointerOrdering, Severity::kError,
     "ordered container keyed by pointer value",
     "std::map/std::set keyed on a raw pointer (or std::less<T*>) orders\n"
     "elements by address. Addresses change run to run under ASLR and\n"
     "with allocation order, so any iteration that reaches output,\n"
     "hashing, or accumulation is nondeterministic even though each\n"
     "individual lookup works. Fix: key on a stable id (GPU index, name,\n"
     "enumeration index) instead of the object's address."},
    {kRuleUnorderedIteration, Severity::kError,
     "iteration over an unordered container",
     "Range-for over a std::unordered_map/unordered_set visits elements\n"
     "in hash-table order, which varies with libstdc++ version, insertion\n"
     "history, and rehash points. If the loop feeds serialized output,\n"
     "hashing, accumulation, or diagnostics, the bytes differ across\n"
     "runs — the exact bug class the planner-cache serializer fixes by\n"
     "snapshotting and sorting (core/planner_cache.cc). Fix: copy to a\n"
     "vector and sort by key before consuming, or, when the loop is\n"
     "genuinely order-insensitive (pure lookup, counting), annotate it:\n"
     "// detlint:allow(det.unordered-iteration why order cannot leak).\n"
     "Containers declared (or aliased) in the same file are always\n"
     "recognized; members declared in another scanned file are matched by\n"
     "name through the symbol index, skipping names also declared with an\n"
     "ordered container type anywhere (a lexical matcher cannot resolve\n"
     "which declaration an identifier refers to)."},
    {kRuleBadAllow, Severity::kError,
     "malformed detlint:allow annotation",
     "A detlint:allow comment is missing its reason or names an unknown\n"
     "rule code. Suppressions are part of the determinism audit trail:\n"
     "every one must name a real rule and say why the site is safe, e.g.\n"
     "// detlint:allow(det.unordered-iteration snapshot sorted below)."},
    {"detlint.stale-baseline", Severity::kNote,
     "baseline entry matches no current finding",
     "An entry in the baseline file no longer corresponds to any finding\n"
     "— the code was fixed or moved. Delete the entry so the baseline\n"
     "keeps shrinking toward empty."},
    {kRuleStatusDiscarded, Severity::kError,
     "discarded Status / Result return value",
     "A statement calls a function declared to return Status or\n"
     "Result<T> and drops the result, silently swallowing the error path\n"
     "(a failed cache load, an infeasible solve). Handle it, propagate it\n"
     "with MALLEUS_RETURN_NOT_OK, or assert it with MALLEUS_CHECK_OK.\n"
     "[[nodiscard]] on Status/Result makes the compiler enforce the same\n"
     "rule; detlint catches it before a build and in code the compiler\n"
     "never instantiates. Blind spot: the matcher resolves callees by\n"
     "name across the scanned set, so names used with both Status and\n"
     "non-Status return types are skipped as ambiguous."},
};

bool IsTypeKeyword(const std::string& s) {
  static const std::set<std::string> kw = {
      "return",   "else",     "new",      "delete",   "throw",  "case",
      "goto",     "if",       "while",    "do",       "for",    "switch",
      "sizeof",   "co_await", "co_return", "co_yield", "not",   "and",
      "or",       "using",    "namespace", "template", "typename",
      "operator", "break",    "continue", "default",  "public", "private",
      "protected"};
  return kw.count(s) != 0;
}

bool IsIdent(const Tok& t, const char* text) {
  return t.kind == TokKind::kIdent && t.text == text;
}

std::string Location(const std::string& path, int line) {
  return StrFormat("%s:%d", path.c_str(), line);
}

// ----- Per-file analysis context ---------------------------------------

class FileAnalyzer {
 public:
  FileAnalyzer(const std::string& path, const LexedFile& file,
               const SymbolIndex& index, const AnalyzeOptions& options,
               lint::DiagnosticSink* sink)
      : path_(path),
        file_(file),
        toks_(file.toks),
        index_(index),
        options_(options),
        sink_(sink) {}

  void Run() {
    CheckAllowAnnotations();
    CollectUnorderedDecls();
    CheckUnorderedIteration();
    CheckPointerOrdering();
    if (!PathRelaxed()) CheckBannedFunctions();
    CheckParallelBodies();
    CheckDiscardedStatus();
  }

 private:
  const std::string& text(size_t i) const { return toks_[i].text; }
  bool Is(size_t i, const char* t) const {
    return i < toks_.size() && toks_[i].text == t;
  }
  bool IsId(size_t i) const {
    return i < toks_.size() && toks_[i].kind == TokKind::kIdent;
  }

  void Report(const char* code, int line, std::string message,
              std::vector<lint::DiagParam> params = {}) {
    if (file_.IsAllowed(code, line)) return;
    const RuleInfo* rule = FindRule(code);
    sink_->Report(rule ? rule->severity : Severity::kError, code,
                  Location(path_, line), std::move(message),
                  std::move(params));
  }

  bool PathRelaxed() const {
    std::string p = path_;
    if (p.rfind("./", 0) == 0) p = p.substr(2);
    for (const std::string& prefix : options_.relaxed_prefixes) {
      if (p.rfind(prefix, 0) == 0) return true;
    }
    return false;
  }

  // --- detlint.bad-allow -----------------------------------------------

  void CheckAllowAnnotations() {
    for (const AllowAnnotation& a : file_.allows) {
      if (a.code.empty() || a.reason.empty()) {
        Report(kRuleBadAllow, a.line,
               "detlint:allow needs a code and a reason: "
               "detlint:allow(CODE why this site is safe)");
      } else if (FindRule(a.code) == nullptr) {
        Report(kRuleBadAllow, a.line,
               StrFormat("detlint:allow names unknown rule '%s'",
                         a.code.c_str()),
               {{"code", a.code}});
      }
    }
  }

  // --- det.unordered-iteration -----------------------------------------

  void CollectUnorderedDecls() {
    static const std::set<std::string> kUnordered = {
        "unordered_map", "unordered_set", "unordered_multimap",
        "unordered_multiset"};
    // Aliases: `using Foo = ...unordered_map<...>;`.
    for (size_t i = 0; i + 3 < toks_.size(); ++i) {
      if (!IsIdent(toks_[i], "using") || !IsId(i + 1) || !Is(i + 2, "="))
        continue;
      for (size_t j = i + 3; j < toks_.size() && !Is(j, ";"); ++j) {
        if (IsId(j) && kUnordered.count(text(j)) != 0) {
          unordered_types_.insert(text(i + 1));
          break;
        }
      }
    }
    // Declarations: `std::unordered_map<K,V> name` (members, locals,
    // parameters) and `AliasType name`.
    for (size_t i = 0; i < toks_.size(); ++i) {
      if (!IsId(i)) continue;
      size_t after = 0;
      if (kUnordered.count(text(i)) != 0 && Is(i + 1, "<")) {
        after = SkipTemplateArgs(toks_, i + 1);
      } else if (unordered_types_.count(text(i)) != 0) {
        // Alias use in type position: previous token must not be a member
        // or call context.
        if (i > 0 && (Is(i - 1, ".") || Is(i - 1, "->"))) continue;
        after = i + 1;
      } else {
        continue;
      }
      while (after < toks_.size() &&
             (Is(after, "&") || Is(after, "*") || Is(after, "const"))) {
        ++after;
      }
      if (after < toks_.size() && IsId(after) &&
          !IsTypeKeyword(text(after))) {
        unordered_vars_.insert(text(after));
      }
    }
  }

  void CheckUnorderedIteration() {
    for (size_t i = 0; i + 2 < toks_.size(); ++i) {
      if (!IsIdent(toks_[i], "for") || !Is(i + 1, "(")) continue;
      const size_t close = MatchingClose(toks_, i + 1);
      if (close >= toks_.size()) continue;
      // Find the range-for `:` at paren depth 1.
      size_t colon = 0;
      int depth = 0;
      for (size_t j = i + 1; j < close; ++j) {
        if (toks_[j].kind != TokKind::kPunct) continue;
        const std::string& t = text(j);
        if (t == "(" || t == "[" || t == "{") ++depth;
        if (t == ")" || t == "]" || t == "}") --depth;
        if (t == ":" && depth == 1) {
          colon = j;
          break;
        }
      }
      if (colon == 0 || colon + 1 >= close) continue;
      // Calls and parenthesized expressions are skipped: `for (x :
      // Sorted(m))` is exactly the fix this rule asks for.
      if (Is(close - 1, ")")) continue;
      size_t base = 0;
      for (size_t j = colon + 1; j < close; ++j) {
        if (IsId(j)) base = j;
      }
      if (base == 0) continue;
      if (unordered_vars_.count(text(base)) == 0 &&
          !index_.IsUnordered(text(base))) {
        continue;
      }
      Report(kRuleUnorderedIteration, toks_[i].line,
             StrFormat("iteration over unordered container '%s' is "
                       "order-nondeterministic; sort into a vector first "
                       "or annotate why order cannot leak",
                       text(base).c_str()),
             {{"identifier", text(base)}});
    }
  }

  // --- det.pointer-ordering --------------------------------------------

  void CheckPointerOrdering() {
    static const std::set<std::string> kOrdered = {"map", "set", "multimap",
                                                   "multiset", "less"};
    for (size_t i = 2; i + 1 < toks_.size(); ++i) {
      if (!IsId(i) || kOrdered.count(text(i)) == 0) continue;
      if (!Is(i - 1, "::") || !IsIdent(toks_[i - 2], "std")) continue;
      if (!Is(i + 1, "<")) continue;
      // Walk the first template argument; flag when it ends in '*'.
      size_t last = 0;
      int angle = 1;
      bool ended = false;
      for (size_t j = i + 2; j < toks_.size() && !ended; ++j) {
        const std::string& t = text(j);
        if (toks_[j].kind == TokKind::kPunct) {
          if (t == "<") ++angle;
          else if (t == ">") { if (--angle == 0) ended = true; }
          else if (t == ">>") { angle -= 2; ended = angle <= 0; }
          else if (t == "," && angle == 1) ended = true;
          else if (t == "(") { j = MatchingClose(toks_, j); continue; }
          else if (t == ";") break;  // Not a template argument list.
        }
        if (!ended) last = j;
      }
      if (ended && last != 0 && Is(last, "*")) {
        Report(kRulePointerOrdering, toks_[i].line,
               StrFormat("std::%s keyed by pointer value orders elements "
                         "by address (nondeterministic under ASLR); key "
                         "on a stable id instead",
                         text(i).c_str()));
      }
    }
  }

  // --- det.banned-function ---------------------------------------------

  void CheckBannedFunctions() {
    for (size_t i = 0; i < toks_.size(); ++i) {
      if (!IsId(i)) continue;
      const std::string& t = text(i);
      const bool member = i > 0 && (Is(i - 1, ".") || Is(i - 1, "->"));
      if (t == "random_device" || t == "high_resolution_clock") {
        Report(kRuleBannedFunction, toks_[i].line,
               StrFormat("'%s' is a nondeterministic source; use a seeded "
                         "common/rng.h generator or steady_clock",
                         t.c_str()),
               {{"function", t}});
      } else if ((t == "rand" || t == "srand") && Is(i + 1, "(") &&
                 !member) {
        Report(kRuleBannedFunction, toks_[i].line,
               StrFormat("'%s()' draws from hidden global state; use a "
                         "seeded common/rng.h generator",
                         t.c_str()),
               {{"function", t}});
      } else if (t == "time" && Is(i + 1, "(") && !member &&
                 (Is(i + 2, "nullptr") || Is(i + 2, "NULL") ||
                  Is(i + 2, "0")) &&
                 Is(i + 3, ")")) {
        Report(kRuleBannedFunction, toks_[i].line,
               "'time(nullptr)' reads the wall clock; thread a seed or "
               "timestamp in explicitly",
               {{"function", "time"}});
      }
    }
  }

  // --- Parallel-body rules ---------------------------------------------

  struct Lambda {
    size_t capture_open = 0;   ///< Index of '['.
    size_t body_open = 0;      ///< Index of '{'.
    size_t body_close = 0;     ///< Index of '}'.
    std::set<std::string> params;
  };

  // Parses the lambda whose capture list starts at `lb`; false when the
  // token shape is not a lambda literal.
  bool ParseLambda(size_t lb, Lambda* out) {
    if (!Is(lb, "[")) return false;
    const size_t cap_close = MatchingClose(toks_, lb);
    if (cap_close >= toks_.size()) return false;
    out->capture_open = lb;
    size_t cur = cap_close + 1;
    if (Is(cur, "(")) {
      const size_t pclose = MatchingClose(toks_, cur);
      if (pclose >= toks_.size()) return false;
      // Parameter names: last identifier of each comma-separated segment
      // (before any default-argument '=').
      size_t seg_last = 0;
      int depth = 0;
      bool in_default = false;
      for (size_t j = cur + 1; j <= pclose; ++j) {
        const std::string& t = text(j);
        if (t == "(" || t == "[" || t == "{" || t == "<") ++depth;
        if (t == ")" || t == "]" || t == "}" || t == ">") --depth;
        if ((t == "," && depth == 0) || j == pclose) {
          if (seg_last != 0) out->params.insert(text(seg_last));
          seg_last = 0;
          in_default = false;
          continue;
        }
        if (t == "=" && depth == 0) in_default = true;
        if (!in_default && IsId(j)) seg_last = j;
      }
      cur = pclose + 1;
    }
    // Skip mutable/noexcept/attributes/trailing return type up to '{'.
    for (int guard = 0; guard < 16 && cur < toks_.size(); ++guard) {
      if (Is(cur, "{")) break;
      if (Is(cur, "(")) {
        cur = MatchingClose(toks_, cur) + 1;
        continue;
      }
      ++cur;
    }
    if (!Is(cur, "{")) return false;
    out->body_open = cur;
    out->body_close = MatchingClose(toks_, cur);
    return out->body_close < toks_.size();
  }

  // Locates the lambda run by the parallel call at `call` (index of the
  // ParallelFor/Submit identifier): either a lambda literal among the
  // arguments, or a named lambda (`const auto f = [...]...`) declared
  // earlier in the file and passed by name as the last argument.
  bool FindParallelLambda(size_t call, Lambda* out) {
    const size_t open = call + 1;
    const size_t close = MatchingClose(toks_, open);
    if (close >= toks_.size()) return false;
    int depth = 0;
    for (size_t j = open; j < close; ++j) {
      const std::string& t = text(j);
      if (t == "(" || t == "{") ++depth;
      if (t == ")" || t == "}") --depth;
      if (Is(j, "[") && depth == 1 && ParseLambda(j, out)) return true;
    }
    // Named argument: resolve `name = [` backward from the call site.
    if (IsId(close - 1)) {
      const std::string& name = text(close - 1);
      for (size_t j = call; j-- > 2;) {
        if (IsId(j) && text(j) == name && Is(j + 1, "=") && Is(j + 2, "[")) {
          return ParseLambda(j + 2, out);
        }
      }
    }
    return false;
  }

  // Identifiers declared inside [begin, end): `Type name ...`,
  // `Type& name`, `auto name =`, structured bindings, loop variables.
  std::set<std::string> LocalDecls(size_t begin, size_t end) {
    std::set<std::string> locals;
    for (size_t q = begin; q < end; ++q) {
      // Structured bindings: auto [&] [a, b] = ...
      if (IsIdent(toks_[q], "auto")) {
        size_t j = q + 1;
        while (Is(j, "&") || Is(j, "*")) ++j;
        if (Is(j, "[")) {
          const size_t bclose = MatchingClose(toks_, j);
          for (size_t k = j + 1; k < bclose && k < end; ++k) {
            if (IsId(k)) locals.insert(text(k));
          }
          q = bclose;
          continue;
        }
      }
      if (!IsId(q) || q == 0) continue;
      const Tok& next = toks_[std::min(q + 1, toks_.size() - 1)];
      if (next.text != "=" && next.text != ";" && next.text != "(" &&
          next.text != "{" && next.text != ":") {
        continue;
      }
      const Tok& prev = toks_[q - 1];
      const bool prev_type_ident = prev.kind == TokKind::kIdent &&
                                   !IsTypeKeyword(prev.text);
      const bool prev_declarator =
          (prev.text == "&" || prev.text == "*" || prev.text == ">") &&
          q >= 2 &&
          (toks_[q - 2].kind == TokKind::kIdent || Is(q - 2, ">"));
      if (prev_type_ident || prev_declarator) locals.insert(text(q));
    }
    return locals;
  }

  // True when the statement-list [begin, end) contains a lock guard.
  bool HasLock(size_t begin, size_t end) const {
    for (size_t j = begin; j < end; ++j) {
      if (!IsId(j)) continue;
      const std::string& t = toks_[j].text;
      if (t == "lock_guard" || t == "unique_lock" || t == "scoped_lock") {
        return true;
      }
    }
    return false;
  }

  // True when `name`'s declaration (anywhere in the file) mentions one of
  // `type_words` within the same statement, e.g. IsDeclaredAs("sum",
  // {"double","float"}).
  bool IsDeclaredAs(const std::string& name,
                    const std::set<std::string>& type_words) const {
    for (size_t q = 1; q < toks_.size(); ++q) {
      if (!IsId(q) || toks_[q].text != name) continue;
      // Walk back to the statement start, collecting candidate type words.
      for (size_t b = q; b-- > 0;) {
        const std::string& t = toks_[b].text;
        if (t == ";" || t == "{" || t == "}" || t == "(" || t == "," ||
            t == "=") {
          break;  // '=' bounds the walk to the declaration's own type.
        }
        if (toks_[b].kind == TokKind::kIdent && type_words.count(t) != 0) {
          return true;
        }
        if (q - b > 10) break;
      }
    }
    return false;
  }

  void CheckParallelBodies() {
    for (size_t i = 0; i + 1 < toks_.size(); ++i) {
      if (!IsId(i) || !Is(i + 1, "(")) continue;
      const std::string& t = text(i);
      bool parallel = false;
      if (t == "ParallelFor") {
        parallel = true;
      } else if (t == "Submit" && i >= 2 &&
                 (Is(i - 1, ".") || Is(i - 1, "->")) && IsId(i - 2) &&
                 text(i - 2).find("pool") != std::string::npos) {
        // Only pool submissions: Server::Submit and FlowSim::Submit share
        // the name but run inline.
        parallel = true;
      }
      if (!parallel) continue;
      Lambda lambda;
      if (!FindParallelLambda(i, &lambda)) continue;
      AnalyzeParallelBody(lambda);
    }
  }

  void AnalyzeParallelBody(const Lambda& lambda) {
    const size_t begin = lambda.body_open + 1;
    const size_t end = lambda.body_close;
    std::set<std::string> locals = LocalDecls(begin, end);
    for (const std::string& p : lambda.params) locals.insert(p);
    const bool has_lock = HasLock(begin, end);

    bool saw_metrics_use = false;
    int metrics_line = 0;
    bool saw_metrics_scope = false;

    static const std::set<std::string> kAssignOps = {
        "=",  "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="};
    static const std::set<std::string> kAccumOps = {"+=", "-=", "*=", "/="};
    static const std::set<std::string> kMutators = {
        "push_back", "emplace_back", "pop_back", "insert",   "emplace",
        "erase",     "clear",        "resize",   "assign",   "append",
        "push",      "pop",          "store"};
    static const std::set<std::string> kFetchOps = {"fetch_add",
                                                    "fetch_sub"};
    static const std::set<std::string> kFpTypes = {"double", "float"};

    for (size_t q = begin; q < end; ++q) {
      if (!IsId(q)) continue;
      const std::string& name = text(q);
      if (name == "MetricsScope") saw_metrics_scope = true;
      if ((name == "Current" && q >= 2 && Is(q - 1, "::") &&
           IsIdent(toks_[q - 2], "MetricsRegistry")) ||
          name == "RecordDiagnosticMetrics") {
        if (!saw_metrics_use) metrics_line = toks_[q].line;
        saw_metrics_use = true;
      }

      // Write-site detection: statement-initial identifier followed by a
      // member/subscript chain ending at an assignment or mutating call.
      const std::string& prev = toks_[q - 1].text;
      bool stmt_begin = prev == ";" || prev == "{" || prev == "}" ||
                        prev == ")" || prev == "else";
      bool prefix_incr = false;
      if ((prev == "++" || prev == "--") && q >= 2) {
        const std::string& p2 = toks_[q - 2].text;
        if (p2 == ";" || p2 == "{" || p2 == "}" || p2 == ")") {
          stmt_begin = true;
          prefix_incr = true;
        }
      }
      if (!stmt_begin) continue;
      size_t cur = q + 1;
      bool slot_indexed = false;
      std::string last_member;
      while (cur < end) {
        if (Is(cur, ".") || Is(cur, "->")) {
          if (!IsId(cur + 1)) break;
          last_member = text(cur + 1);
          cur += 2;
          continue;
        }
        if (Is(cur, "[")) {
          const size_t sclose = MatchingClose(toks_, cur);
          for (size_t k = cur + 1; k < sclose; ++k) {
            if (IsId(k) && lambda.params.count(text(k)) != 0) {
              slot_indexed = true;
            }
          }
          cur = sclose + 1;
          continue;
        }
        break;
      }
      if (cur >= end) continue;
      std::string op;
      if (toks_[cur].kind == TokKind::kPunct &&
          kAssignOps.count(text(cur)) != 0) {
        op = text(cur);
      } else if (Is(cur, "++") || Is(cur, "--")) {
        op = text(cur);
      } else if (Is(cur, "(") && !last_member.empty() &&
                 (kMutators.count(last_member) != 0 ||
                  kFetchOps.count(last_member) != 0)) {
        op = last_member;
      } else if (prefix_incr) {
        op = prev;
      } else {
        continue;
      }
      if (locals.count(name) != 0 || slot_indexed) continue;

      const bool accumulates =
          kAccumOps.count(op) != 0 || kFetchOps.count(op) != 0;
      if (accumulates && IsDeclaredAs(name, kFpTypes)) {
        Report(kRuleParallelFpAccumulation, toks_[q].line,
               StrFormat("floating-point accumulation into captured '%s' "
                         "across parallel workers is order-"
                         "nondeterministic; reduce per-worker slots in "
                         "index order instead",
                         name.c_str()),
               {{"identifier", name}, {"op", op}});
        continue;
      }
      if (has_lock || IsDeclaredAs(name, {"atomic"})) continue;
      Report(kRuleSharedMutableCapture, toks_[q].line,
             StrFormat("unsynchronized write to captured '%s' in a "
                       "parallel body; use per-worker slots, a mutex, or "
                       "an atomic",
                       name.c_str()),
             {{"identifier", name}, {"op", op}});
    }

    if (saw_metrics_use && !saw_metrics_scope) {
      Report(kRuleMissingMetricsScope, metrics_line,
             "parallel body resolves MetricsRegistry::Current() without "
             "re-installing the caller's registry; add obs::MetricsScope "
             "scope(metrics) as the first statement");
    }
  }

  // --- status.discarded ------------------------------------------------

  void CheckDiscardedStatus() {
    for (size_t i = 0; i < toks_.size(); ++i) {
      if (!IsId(i)) continue;
      bool stmt_begin = i == 0;
      if (i > 0) {
        const std::string& prev = text(i - 1);
        if (prev == ";" || prev == "{" || prev == "}" || prev == "else") {
          stmt_begin = true;
        } else if (prev == ")") {
          // `if (...) Foo();` discards; `(void)Foo();` suppresses.
          size_t open = i - 1;
          int depth = 0;
          while (open-- > 0) {
            if (Is(open, ")")) ++depth;
            if (Is(open, "(") && depth-- == 0) break;
          }
          stmt_begin = open < toks_.size() && open > 0 && IsId(open - 1) &&
                       (text(open - 1) == "if" || text(open - 1) == "while" ||
                        text(open - 1) == "for" ||
                        text(open - 1) == "switch");
        }
      }
      if (!stmt_begin) continue;
      // Walk `a::b::c` / `obj.method` / `ptr->method` up to a call '('.
      size_t cur = i;
      std::string callee = text(i);
      while (cur + 1 < toks_.size()) {
        const std::string& nxt = text(cur + 1);
        if ((nxt == "::" || nxt == "." || nxt == "->") && IsId(cur + 2)) {
          callee = text(cur + 2);
          cur += 2;
          continue;
        }
        break;
      }
      if (!Is(cur + 1, "(")) continue;
      const size_t close = MatchingClose(toks_, cur + 1);
      if (close >= toks_.size() || !Is(close + 1, ";")) continue;
      if (!index_.IsStatusReturning(callee)) continue;
      Report(kRuleStatusDiscarded, toks_[i].line,
             StrFormat("result of Status/Result-returning '%s' is "
                       "discarded; handle it, MALLEUS_RETURN_NOT_OK it, "
                       "or MALLEUS_CHECK_OK it",
                       callee.c_str()),
             {{"callee", callee}});
    }
  }

  const std::string& path_;
  const LexedFile& file_;
  const std::vector<Tok>& toks_;
  const SymbolIndex& index_;
  const AnalyzeOptions& options_;
  lint::DiagnosticSink* sink_;

  std::set<std::string> unordered_types_;
  std::set<std::string> unordered_vars_;
};

}  // namespace

const std::vector<RuleInfo>& Rules() {
  static const std::vector<RuleInfo>* rules = [] {
    auto* v = new std::vector<RuleInfo>(std::begin(kRules), std::end(kRules));
    std::sort(v->begin(), v->end(), [](const RuleInfo& a, const RuleInfo& b) {
      return std::string(a.code) < b.code;
    });
    return v;
  }();
  return *rules;
}

const RuleInfo* FindRule(const std::string& code) {
  for (const RuleInfo& r : Rules()) {
    if (code == r.code) return &r;
  }
  return nullptr;
}

void SymbolIndex::AddFile(const LexedFile& file) {
  const std::vector<Tok>& toks = file.toks;
  const auto is = [&](size_t i, const char* t) {
    return i < toks.size() && toks[i].text == t;
  };
  const auto is_id = [&](size_t i) {
    return i < toks.size() && toks[i].kind == TokKind::kIdent;
  };
  // Container declarations, for cross-file det.unordered-iteration: a
  // name declared `unordered_map<...> name` anywhere becomes flaggable in
  // every file unless the same name is also declared with an ordered
  // container type somewhere (then it is ambiguous and skipped).
  static const std::set<std::string> kUnorderedTypes = {
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset"};
  static const std::set<std::string> kOrderedTypes = {
      "map",  "set",   "multimap", "multiset", "vector",
      "list", "deque", "array",    "string",   "basic_string"};
  const auto record_container = [&](size_t i, std::set<std::string>* dst) {
    size_t after = SkipTemplateArgs(toks, i + 1);
    while (is(after, "&") || is(after, "*") || is(after, "const")) ++after;
    if (is_id(after) && !IsTypeKeyword(toks[after].text)) {
      dst->insert(toks[after].text);
    }
  };
  // Records the declarator name following a Status / Result<T> return
  // type that starts at token `j` (after any '&' and namespace
  // qualification).
  const auto record_declarator = [&](size_t j) {
    if (is(j, "&")) ++j;
    while (is_id(j) && is(j + 1, "::")) j += 2;
    if (is_id(j) && toks[j].text != "operator" && is(j + 1, "(")) {
      status_names_.insert(toks[j].text);
    }
  };
  for (size_t i = 0; i < toks.size(); ++i) {
    if (!is_id(i)) continue;
    const std::string& t = toks[i].text;
    const bool member_ctx = i > 0 && (is(i - 1, ".") || is(i - 1, "->"));
    if (!member_ctx && is(i + 1, "<")) {
      if (kUnorderedTypes.count(t) != 0) {
        record_container(i, &unordered_names_);
      } else if (kOrderedTypes.count(t) != 0) {
        record_container(i, &ordered_names_);
      }
    }
    if (t == "Status" && !member_ctx) {
      record_declarator(i + 1);
    } else if (t == "Result" && !member_ctx && is(i + 1, "<")) {
      const size_t after = SkipTemplateArgs(toks, i + 1);
      if (after < toks.size()) record_declarator(after);
    } else if (!member_ctx && !IsTypeKeyword(t) && t != "Status" &&
               t != "Result" && is_id(i + 1) && is(i + 2, "(") &&
               (i == 0 || (!is(i - 1, ".") && !is(i - 1, "->") &&
                           !is(i - 1, ",") && !is(i - 1, "(") &&
                           !is(i - 1, "<")))) {
      // `T name(` with T != Status/Result: `name` returns something else
      // somewhere, so treat it as ambiguous.
      other_names_.insert(toks[i + 1].text);
    }
  }
}

void AnalyzeFile(const std::string& path, const LexedFile& file,
                 const SymbolIndex& index, const AnalyzeOptions& options,
                 lint::DiagnosticSink* sink) {
  FileAnalyzer(path, file, index, options, sink).Run();
}

void AnalyzeSource(const std::string& path, const std::string& source,
                   const SymbolIndex& index, const AnalyzeOptions& options,
                   lint::DiagnosticSink* sink) {
  const LexedFile file = Lex(source);
  AnalyzeFile(path, file, index, options, sink);
}

Result<std::vector<BaselineEntry>> ParseBaseline(const std::string& text) {
  std::vector<BaselineEntry> entries;
  size_t pos = 0;
  int line_no = 0;
  while (pos <= text.size()) {
    const size_t eol = text.find('\n', pos);
    std::string line = text.substr(
        pos, (eol == std::string::npos ? text.size() : eol) - pos);
    pos = (eol == std::string::npos) ? text.size() + 1 : eol + 1;
    ++line_no;
    const size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    line = line.substr(first);

    BaselineEntry e;
    const size_t sp1 = line.find_first_of(" \t");
    if (sp1 == std::string::npos) {
      return Status::InvalidArgument(StrFormat(
          "baseline line %d: expected 'CODE PATH:LINE reason'", line_no));
    }
    e.code = line.substr(0, sp1);
    const size_t loc_start = line.find_first_not_of(" \t", sp1);
    const size_t sp2 = line.find_first_of(" \t", loc_start);
    if (loc_start == std::string::npos || sp2 == std::string::npos) {
      return Status::InvalidArgument(StrFormat(
          "baseline line %d: missing location or reason", line_no));
    }
    const std::string loc = line.substr(loc_start, sp2 - loc_start);
    const size_t colon = loc.rfind(':');
    if (colon == std::string::npos || colon + 1 >= loc.size()) {
      return Status::InvalidArgument(StrFormat(
          "baseline line %d: location must be PATH:LINE, got '%s'", line_no,
          loc.c_str()));
    }
    e.file = loc.substr(0, colon);
    e.line = std::atoi(loc.c_str() + colon + 1);
    if (e.line <= 0) {
      return Status::InvalidArgument(
          StrFormat("baseline line %d: bad line number in '%s'", line_no,
                    loc.c_str()));
    }
    const size_t reason = line.find_first_not_of(" \t", sp2);
    if (reason == std::string::npos) {
      return Status::InvalidArgument(StrFormat(
          "baseline line %d: a reason is mandatory", line_no));
    }
    e.reason = line.substr(reason);
    entries.push_back(std::move(e));
  }
  return entries;
}

void ApplyBaseline(const std::vector<BaselineEntry>& baseline,
                   const lint::DiagnosticSink& in,
                   lint::DiagnosticSink* out) {
  std::vector<bool> used(baseline.size(), false);
  for (const lint::Diagnostic& d : in.diagnostics()) {
    bool matched = false;
    for (size_t i = 0; i < baseline.size(); ++i) {
      const BaselineEntry& e = baseline[i];
      if (d.code == e.code &&
          d.location == Location(e.file, e.line)) {
        used[i] = true;
        matched = true;
      }
    }
    if (!matched) out->Report(d);
  }
  for (size_t i = 0; i < baseline.size(); ++i) {
    if (used[i]) continue;
    out->Report(Severity::kNote, "detlint.stale-baseline",
                Location(baseline[i].file, baseline[i].line),
                StrFormat("baseline entry for %s matches no current "
                          "finding; delete it",
                          baseline[i].code.c_str()));
  }
}

}  // namespace analyze
}  // namespace malleus
