// Tests for malleus::analyze — detlint's lexer, rule matchers, symbol
// index, baseline, and the self-test corpus under tests/detlint_corpus/
// (every bad_<rule>.cc yields exactly its rule at the marked line, every
// good_<rule>.cc is clean). The CLI surface (exit codes, SARIF-on-stdout,
// directory walk) is pinned separately by tests/detlint_exit_codes.cmake.

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analyze/analyze.h"
#include "lint/diagnostic.h"

namespace malleus {
namespace analyze {
namespace {

// ----- Helpers ---------------------------------------------------------

// Analyzes `source` as `path` with an index built from that source alone
// (plus any extra sources, e.g. a companion header).
lint::DiagnosticSink Analyze(const std::string& path,
                             const std::string& source,
                             const std::vector<std::string>& extra = {}) {
  SymbolIndex index;
  const LexedFile file = Lex(source);
  index.AddFile(file);
  std::vector<LexedFile> others;
  for (const std::string& s : extra) {
    others.push_back(Lex(s));
    index.AddFile(others.back());
  }
  lint::DiagnosticSink sink;
  AnalyzeFile(path, file, index, &sink);
  return sink;
}

std::vector<std::string> Codes(const lint::DiagnosticSink& sink) {
  std::vector<std::string> out;
  for (const lint::Diagnostic& d : sink.diagnostics()) out.push_back(d.code);
  return out;
}

// ----- Lexer -----------------------------------------------------------

TEST(LexTest, StripsCommentsAndPreprocessorKeepsLineNumbers) {
  const LexedFile f = Lex(
      "#include <map>\n"
      "// a comment\n"
      "int x = 1;  /* trailing */\n"
      "int y;\n");
  ASSERT_EQ(f.toks.size(), 8u);  // int x = 1 ; int y ;
  EXPECT_EQ(f.toks[0].text, "int");
  EXPECT_EQ(f.toks[0].line, 3);
  EXPECT_EQ(f.toks[4].text, ";");
  EXPECT_EQ(f.toks[5].text, "int");
  EXPECT_EQ(f.toks[5].line, 4);
}

TEST(LexTest, LiteralsAreSingleTokens) {
  const LexedFile f = Lex(
      "const char* s = \"rand() inside a string\";\n"
      "const char* r = R\"x(raw rand())x\";\n"
      "char c = '\\'';\n");
  for (const Tok& t : f.toks) {
    if (t.kind == TokKind::kIdent) {
      EXPECT_NE(t.text, "rand");
    }
  }
}

TEST(LexTest, ParsesAllowAnnotations) {
  const LexedFile f = Lex(
      "int a;  // detlint:allow(det.banned-function reason text here)\n"
      "int b;  // detlint:allow(det.pointer-ordering)\n");
  ASSERT_EQ(f.allows.size(), 2u);
  EXPECT_EQ(f.allows[0].line, 1);
  EXPECT_EQ(f.allows[0].code, "det.banned-function");
  EXPECT_EQ(f.allows[0].reason, "reason text here");
  EXPECT_EQ(f.allows[1].code, "det.pointer-ordering");
  EXPECT_TRUE(f.allows[1].reason.empty());  // Malformed: no reason.

  EXPECT_TRUE(f.IsAllowed("det.banned-function", 1));
  EXPECT_TRUE(f.IsAllowed("det.banned-function", 2));  // Line below too.
  EXPECT_FALSE(f.IsAllowed("det.banned-function", 3));
  EXPECT_FALSE(f.IsAllowed("det.pointer-ordering", 2));  // No reason.
}

TEST(LexTest, MatchingCloseAndTemplateArgs) {
  const LexedFile f = Lex("std::map<int, std::pair<int, int>> m;");
  // Tokens: std :: map < int , std :: pair < int , int >> m ;
  size_t lt = 0;
  for (size_t i = 0; i < f.toks.size(); ++i) {
    if (f.toks[i].text == "<") {
      lt = i;
      break;
    }
  }
  const size_t after = SkipTemplateArgs(f.toks, lt);
  ASSERT_LT(after, f.toks.size());
  EXPECT_EQ(f.toks[after].text, "m");
}

// ----- Registry --------------------------------------------------------

TEST(RulesTest, SortedUniqueAndDocumented) {
  const std::vector<RuleInfo>& rules = Rules();
  ASSERT_GE(rules.size(), 9u);
  std::set<std::string> codes;
  std::string prev;
  for (const RuleInfo& r : rules) {
    EXPECT_LT(prev, std::string(r.code));
    prev = r.code;
    codes.insert(r.code);
    EXPECT_NE(std::string(r.summary), "");
    EXPECT_NE(std::string(r.explanation), "");
  }
  for (const char* c :
       {kRuleUnorderedIteration, kRuleParallelFpAccumulation,
        kRuleBannedFunction, kRulePointerOrdering, kRuleSharedMutableCapture,
        kRuleMissingMetricsScope, kRuleStatusDiscarded, kRuleBadAllow}) {
    EXPECT_EQ(codes.count(c), 1u) << c;
    EXPECT_NE(FindRule(c), nullptr) << c;
  }
  EXPECT_EQ(FindRule("no.such.rule"), nullptr);
}

// ----- Corpus: every rule has a positive and a negative case -----------

struct CorpusCase {
  const char* rule;
  const char* base;  ///< tests/detlint_corpus/{bad,good}_<base>.cc
};

const CorpusCase kCorpus[] = {
    {kRuleUnorderedIteration, "unordered_iteration"},
    {kRuleParallelFpAccumulation, "parallel_fp_accumulation"},
    {kRuleBannedFunction, "banned_function"},
    {kRulePointerOrdering, "pointer_ordering"},
    {kRuleSharedMutableCapture, "shared_mutable_capture"},
    {kRuleMissingMetricsScope, "missing_metrics_scope"},
    {kRuleStatusDiscarded, "status_discarded"},
    {kRuleBadAllow, "bad_allow"},
};

std::string ReadCorpus(const std::string& name) {
  const std::string path =
      std::string(MALLEUS_DETLINT_CORPUS_DIR) + "/" + name;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing corpus file " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// 1-based line of the `<-- finding` marker in a bad corpus file.
int MarkerLine(const std::string& source) {
  int line = 1;
  size_t pos = 0;
  while (pos < source.size()) {
    const size_t eol = source.find('\n', pos);
    const std::string text = source.substr(
        pos, (eol == std::string::npos ? source.size() : eol) - pos);
    if (text.find("<-- finding") != std::string::npos) return line;
    if (eol == std::string::npos) break;
    pos = eol + 1;
    ++line;
  }
  return 0;
}

TEST(CorpusTest, BadFilesYieldExactlyTheirRuleAtTheMarkedLine) {
  for (const CorpusCase& c : kCorpus) {
    const std::string name = std::string("bad_") + c.base + ".cc";
    const std::string source = ReadCorpus(name);
    const int marker = MarkerLine(source);
    ASSERT_GT(marker, 0) << name << " lacks a <-- finding marker";
    const lint::DiagnosticSink sink = Analyze(name, source);
    ASSERT_EQ(sink.size(), 1u)
        << name << " diagnostics: " << lint::RenderText(sink);
    const lint::Diagnostic& d = sink.diagnostics()[0];
    EXPECT_EQ(d.code, c.rule) << name;
    EXPECT_EQ(d.location, name + ":" + std::to_string(marker)) << name;
    EXPECT_EQ(d.severity, lint::Severity::kError) << name;
  }
}

TEST(CorpusTest, GoodFilesAreClean) {
  for (const CorpusCase& c : kCorpus) {
    const std::string name = std::string("good_") + c.base + ".cc";
    const lint::DiagnosticSink sink = Analyze(name, ReadCorpus(name));
    EXPECT_TRUE(sink.empty())
        << name << " diagnostics: " << lint::RenderText(sink);
  }
}

// ----- Targeted matcher behavior ---------------------------------------

TEST(AnalyzeTest, CrossFileUnorderedMemberIsFlagged) {
  const std::string header =
      "struct Memo { std::unordered_map<std::string, int> table_; };\n";
  const std::string cc =
      "int Dump(const Memo& m) {\n"
      "  int n = 0;\n"
      "  for (const auto& kv : m.table_) n += kv.second;\n"
      "  return n;\n"
      "}\n";
  const lint::DiagnosticSink sink = Analyze("memo.cc", cc, {header});
  ASSERT_EQ(sink.size(), 1u) << lint::RenderText(sink);
  EXPECT_EQ(sink.diagnostics()[0].code, kRuleUnorderedIteration);
  EXPECT_EQ(sink.diagnostics()[0].location, "memo.cc:3");
}

TEST(AnalyzeTest, CrossFileAmbiguousNameIsSkipped) {
  // `table_` is unordered in one class and ordered in another: a lexical
  // matcher cannot tell which one `m.table_` is, so it must stay silent.
  const std::string h1 =
      "struct A { std::unordered_map<std::string, int> table_; };\n";
  const std::string h2 = "struct B { std::map<std::string, int> table_; };\n";
  const std::string cc =
      "int Dump(const B& m) {\n"
      "  int n = 0;\n"
      "  for (const auto& kv : m.table_) n += kv.second;\n"
      "  return n;\n"
      "}\n";
  EXPECT_TRUE(Analyze("memo.cc", cc, {h1, h2}).empty());
}

TEST(AnalyzeTest, SortedRangeCallIsTheSanctionedFix) {
  const std::string cc =
      "void F(const std::unordered_map<int, int>& m) {\n"
      "  for (const auto& kv : Sorted(m)) Use(kv);\n"
      "}\n";
  EXPECT_TRUE(Analyze("f.cc", cc).empty());
}

TEST(AnalyzeTest, BannedFunctionsRelaxedUnderBench) {
  const std::string cc = "int Jitter() { return rand(); }\n";
  const lint::DiagnosticSink src = Analyze("src/net/jitter.cc", cc);
  ASSERT_EQ(src.size(), 1u);
  EXPECT_EQ(src.diagnostics()[0].code, kRuleBannedFunction);
  EXPECT_TRUE(Analyze("bench/jitter.cc", cc).empty());
}

TEST(AnalyzeTest, AllowOnSameLineSuppresses) {
  const std::string cc =
      "int Jitter() { return rand(); }  "
      "// detlint:allow(det.banned-function seeded upstream, test shim)\n";
  EXPECT_TRUE(Analyze("src/shim.cc", cc).empty());
}

TEST(AnalyzeTest, AllowNamingUnknownRuleIsAFinding) {
  const std::string cc =
      "int x = 1;  // detlint:allow(det.no-such-rule some reason)\n";
  const lint::DiagnosticSink sink = Analyze("x.cc", cc);
  ASSERT_EQ(sink.size(), 1u);
  EXPECT_EQ(sink.diagnostics()[0].code, kRuleBadAllow);
}

TEST(AnalyzeTest, StatusDiscardAmbiguousCalleeIsSkipped) {
  // `Reset` returns Status in one declaration and void in another, so a
  // bare `Reset();` statement must not be flagged.
  const std::string decls = "Status Reset();\nvoid Reset();\n";
  const std::string cc = "void F() { Reset(); }\n";
  EXPECT_TRUE(Analyze("f.cc", cc, {decls}).empty());
}

TEST(AnalyzeTest, StatusDiscardInsideIfBodyIsFlagged) {
  const std::string cc =
      "Status Save();\n"
      "void F(bool dirty) {\n"
      "  if (dirty) Save();\n"
      "}\n";
  const lint::DiagnosticSink sink = Analyze("f.cc", cc);
  ASSERT_EQ(sink.size(), 1u) << lint::RenderText(sink);
  EXPECT_EQ(sink.diagnostics()[0].code, kRuleStatusDiscarded);
  EXPECT_EQ(sink.diagnostics()[0].location, "f.cc:3");
}

// ----- Baseline --------------------------------------------------------

TEST(BaselineTest, ParsesEntriesAndRejectsMissingReason) {
  const Result<std::vector<BaselineEntry>> ok = ParseBaseline(
      "# comment\n"
      "\n"
      "det.banned-function src/a.cc:12 migrating to seeded rng\n");
  ASSERT_TRUE(ok.ok());
  ASSERT_EQ(ok.ValueOrDie().size(), 1u);
  EXPECT_EQ(ok.ValueOrDie()[0].code, "det.banned-function");
  EXPECT_EQ(ok.ValueOrDie()[0].file, "src/a.cc");
  EXPECT_EQ(ok.ValueOrDie()[0].line, 12);
  EXPECT_EQ(ok.ValueOrDie()[0].reason, "migrating to seeded rng");

  EXPECT_FALSE(ParseBaseline("det.banned-function src/a.cc:12\n").ok());
  EXPECT_FALSE(ParseBaseline("det.banned-function src/a.cc why\n").ok());
  EXPECT_FALSE(ParseBaseline("just-a-code\n").ok());
}

TEST(BaselineTest, SuppressesMatchesAndReportsStaleEntries) {
  lint::DiagnosticSink raw;
  raw.Report(lint::Severity::kError, kRuleBannedFunction, "src/a.cc:12",
             "rand() used");
  raw.Report(lint::Severity::kError, kRuleBannedFunction, "src/b.cc:3",
             "rand() used");

  std::vector<BaselineEntry> baseline;
  baseline.push_back({kRuleBannedFunction, "src/a.cc", 12, "accepted"});
  baseline.push_back({kRuleBannedFunction, "src/gone.cc", 9, "was fixed"});

  lint::DiagnosticSink out;
  ApplyBaseline(baseline, raw, &out);
  const std::vector<std::string> codes = Codes(out);
  ASSERT_EQ(codes.size(), 2u) << lint::RenderText(out);
  EXPECT_EQ(codes[0], kRuleBannedFunction);  // b.cc survives.
  EXPECT_EQ(out.diagnostics()[0].location, "src/b.cc:3");
  EXPECT_EQ(codes[1], "detlint.stale-baseline");
  EXPECT_EQ(out.diagnostics()[1].severity, lint::Severity::kNote);
  EXPECT_TRUE(out.HasErrors());  // The unbaselined finding still fails.
}

// ----- SARIF shape -----------------------------------------------------

TEST(SarifTest, FindingsCarryPhysicalLocations) {
  const lint::DiagnosticSink sink =
      Analyze("src/pick.cc", "int Pick() { return rand(); }\n");
  ASSERT_EQ(sink.size(), 1u);
  const std::string sarif = lint::RenderSarif(sink, "src", "malleus-detlint");
  EXPECT_NE(sarif.find("\"name\":\"malleus-detlint\""), std::string::npos);
  EXPECT_NE(sarif.find("\"physicalLocation\":{\"artifactLocation\":"
                       "{\"uri\":\"src/pick.cc\"},"
                       "\"region\":{\"startLine\":1}}"),
            std::string::npos)
      << sarif;
  EXPECT_NE(sarif.find("sarif-2.1.0"), std::string::npos);
}

}  // namespace
}  // namespace analyze
}  // namespace malleus
