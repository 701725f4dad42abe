// malleus_detlint: the repo's determinism & concurrency static analyzer
// (malleus::analyze, DESIGN.md §15), run over C++ sources.
//
//   $ ./tools/malleus_detlint src tools tests bench
//   $ ./tools/malleus_detlint --format=sarif src > detlint.sarif
//   $ ./tools/malleus_detlint --baseline=tools/detlint_baseline.txt src
//   $ ./tools/malleus_detlint --explain=det.unordered-iteration
//   $ ./tools/malleus_detlint --list
//
// Arguments are files or directories; directories are walked recursively
// for *.h / *.cc, skipping build trees (build*), hidden directories, and
// tests/detlint_corpus (whose snippets are deliberately bad — pass a
// corpus file explicitly to analyze it, as the contract test does).
//
// Two passes: first every file is lexed and indexed (so status.discarded
// knows which names return Status/Result across the whole set), then each
// file is analyzed in sorted path order — output is byte-deterministic
// for a given tree.
//
// Exit status, matching malleus_lint: 0 = no error-level findings
// (stale-baseline notes don't fail), 1 = at least one error-level finding
// or an unreadable file, 2 = bad usage. `--help` lists the flags.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "analyze/analyze.h"
#include "common/file_util.h"
#include "common/flags.h"
#include "lint/diagnostic.h"

using namespace malleus;

namespace {

struct Args {
  std::string format = "text";
  std::string baseline_path;
  std::string explain_code;
  bool list = false;
  std::vector<std::string> paths;
};

bool IsCppSource(const std::filesystem::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".cc";
}

// True for directories the walker must not descend into: build trees,
// hidden directories, and the deliberately-bad rule corpus.
bool SkippedDir(const std::string& name) {
  if (name.rfind("build", 0) == 0) return true;
  if (!name.empty() && name[0] == '.') return true;
  return name == "detlint_corpus";
}

// Expands files/directories into the sorted list of sources to analyze.
// Explicitly named files are always included, corpus or not.
bool CollectSources(const std::vector<std::string>& paths,
                    std::vector<std::string>* out) {
  namespace fs = std::filesystem;
  for (const std::string& p : paths) {
    std::error_code ec;
    if (fs::is_directory(p, ec)) {
      fs::recursive_directory_iterator it(p, ec), end;
      if (ec) {
        std::fprintf(stderr, "%s: %s\n", p.c_str(), ec.message().c_str());
        return false;
      }
      for (; it != end; it.increment(ec)) {
        if (ec) {
          std::fprintf(stderr, "%s: %s\n", p.c_str(), ec.message().c_str());
          return false;
        }
        if (it->is_directory() &&
            SkippedDir(it->path().filename().string())) {
          it.disable_recursion_pending();
          continue;
        }
        if (it->is_regular_file() && IsCppSource(it->path())) {
          out->push_back(it->path().generic_string());
        }
      }
    } else if (fs::is_regular_file(p, ec)) {
      out->push_back(fs::path(p).generic_string());
    } else {
      std::fprintf(stderr, "%s: not a file or directory\n", p.c_str());
      return false;
    }
  }
  std::sort(out->begin(), out->end());
  out->erase(std::unique(out->begin(), out->end()), out->end());
  return true;
}

void PrintRuleList() {
  for (const analyze::RuleInfo& rule : analyze::Rules()) {
    std::printf("%-7s %-30s %s\n", lint::SeverityName(rule.severity),
                rule.code, rule.summary);
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  FlagTable flags("malleus_detlint");
  flags.Define("format", &args.format, "text|json|sarif",
               "output format (default text)",
               OneOf({"text", "json", "sarif"}));
  flags.Define("baseline", &args.baseline_path, "FILE",
               "suppress the findings listed in FILE\n"
               "(format: CODE PATH:LINE reason)");
  flags.Define("explain", &args.explain_code, "CODE",
               "print the rule's rationale and exit");
  flags.DefineSwitch("list", &args.list, "print the rule registry and exit");
  flags.DefinePositionals("PATH", &args.paths);
  if (!flags.ParseOrUsage(argc, argv)) return 2;
  if (!args.list && args.explain_code.empty() && args.paths.empty()) {
    std::fprintf(stderr, "%s", flags.Usage().c_str());
    return 2;
  }
  if (args.list) {
    PrintRuleList();
    return 0;
  }
  if (!args.explain_code.empty()) {
    const analyze::RuleInfo* rule = analyze::FindRule(args.explain_code);
    if (rule == nullptr) {
      std::fprintf(stderr, "unknown rule: %s (see --list)\n",
                   args.explain_code.c_str());
      return 2;
    }
    std::printf("%s (%s)\n%s\n\n%s\n", rule->code,
                lint::SeverityName(rule->severity), rule->summary,
                rule->explanation);
    return 0;
  }

  std::vector<analyze::BaselineEntry> baseline;
  if (!args.baseline_path.empty()) {
    const Result<std::string> text = ReadFileBytes(args.baseline_path);
    if (!text.ok()) {
      std::fprintf(stderr, "cannot read baseline %s\n",
                   args.baseline_path.c_str());
      return 2;
    }
    Result<std::vector<analyze::BaselineEntry>> parsed =
        analyze::ParseBaseline(*text);
    if (!parsed.ok()) {
      std::fprintf(stderr, "%s: %s\n", args.baseline_path.c_str(),
                   parsed.status().ToString().c_str());
      return 2;
    }
    baseline = std::move(parsed).ValueOrDie();
  }

  std::vector<std::string> sources;
  if (!CollectSources(args.paths, &sources)) return 2;

  // Pass 1: lex + index every file; pass 2: run the rules.
  bool readable = true;
  std::vector<std::pair<std::string, analyze::LexedFile>> lexed;
  lexed.reserve(sources.size());
  analyze::SymbolIndex index;
  for (const std::string& path : sources) {
    const Result<std::string> source = ReadFileBytes(path);
    if (!source.ok()) {
      std::fprintf(stderr, "%s: cannot read\n", path.c_str());
      readable = false;
      continue;
    }
    lexed.emplace_back(path, analyze::Lex(*source));
    index.AddFile(lexed.back().second);
  }
  lint::DiagnosticSink raw;
  for (const auto& [path, file] : lexed) {
    analyze::AnalyzeFile(path, file, index, &raw);
  }
  lint::DiagnosticSink sink;
  analyze::ApplyBaseline(baseline, raw, &sink);

  if (args.format == "json") {
    std::printf("%s\n", lint::RenderJson(sink).c_str());
  } else if (args.format == "sarif") {
    std::printf("%s\n",
                lint::RenderSarif(sink, args.paths.front(), "malleus-detlint")
                    .c_str());
  } else if (sink.empty()) {
    std::printf("%zu file(s): no findings\n", lexed.size());
  } else {
    std::printf("%s", lint::RenderText(sink).c_str());
  }
  return (sink.HasErrors() || !readable) ? 1 : 0;
}
