// malleus_golden: golden-trace regression for the shipped example
// scenarios.
//
//   $ ./tools/malleus_golden                       # check against goldens
//   $ ./tools/malleus_golden --update-golden       # refresh the goldens
//
// For every *.scenario under --scenario-dir (sorted by name), the planner
// runs for each situation the scenario implies and the resulting plan,
// closed-form estimates and noise-free simulated step times are rendered
// into one deterministic snapshot (testkit::RenderGoldenSnapshot). In
// check mode the snapshot must match tests/golden/<name>.golden byte for
// byte; any drift — a different plan, a shifted estimate, a new failure —
// fails with the first differing line. --update-golden rewrites the
// goldens instead (review the diff before committing).
//
// Exit status: 0 = all snapshots match (or were written), 1 = drift or a
// scenario that no longer renders, 2 = bad usage / I/O failure. `--help`
// lists the flags.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "common/file_util.h"
#include "common/flags.h"
#include "scenario/scenario.h"
#include "testkit/golden.h"

using namespace malleus;

namespace {

struct Args {
  std::string scenario_dir = "examples/scenarios";
  std::string golden_dir = "tests/golden";
  bool update = false;
};

// The 1-based line number and text of the first line where a and b differ.
void FirstDiff(const std::string& a, const std::string& b, int* line,
               std::string* a_line, std::string* b_line) {
  std::istringstream sa(a);
  std::istringstream sb(b);
  std::string la;
  std::string lb;
  *line = 0;
  for (;;) {
    const bool ga = static_cast<bool>(std::getline(sa, la));
    const bool gb = static_cast<bool>(std::getline(sb, lb));
    ++*line;
    if (!ga && !gb) return;  // Equal (differ only past EOF — impossible).
    if (!ga || !gb || la != lb) {
      *a_line = ga ? la : "<eof>";
      *b_line = gb ? lb : "<eof>";
      return;
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  FlagTable flags("malleus_golden");
  flags.Define("scenario-dir", &args.scenario_dir, "DIR",
               "scenarios to snapshot (default examples/scenarios)");
  flags.Define("golden-dir", &args.golden_dir, "DIR",
               "goldens location (default tests/golden)");
  flags.DefineSwitch("update-golden", &args.update,
                     "write snapshots instead of comparing");
  if (!flags.ParseOrUsage(argc, argv)) return 2;

  std::error_code ec;
  std::vector<std::filesystem::path> scenarios;
  for (const auto& entry :
       std::filesystem::directory_iterator(args.scenario_dir, ec)) {
    if (entry.path().extension() == ".scenario") {
      scenarios.push_back(entry.path());
    }
  }
  if (ec) {
    std::fprintf(stderr, "cannot list %s: %s\n", args.scenario_dir.c_str(),
                 ec.message().c_str());
    return 2;
  }
  if (scenarios.empty()) {
    std::fprintf(stderr, "no *.scenario files under %s\n",
                 args.scenario_dir.c_str());
    return 2;
  }
  std::sort(scenarios.begin(), scenarios.end());

  if (args.update) {
    std::filesystem::create_directories(args.golden_dir, ec);
    if (ec) {
      std::fprintf(stderr, "cannot create %s: %s\n", args.golden_dir.c_str(),
                   ec.message().c_str());
      return 2;
    }
  }

  bool drifted = false;
  for (const std::filesystem::path& path : scenarios) {
    const std::string name = path.stem().string();
    const std::string golden_path =
        args.golden_dir + "/" + name + ".golden";
    Result<scenario::ScenarioSpec> spec =
        scenario::LoadScenarioFile(path.string());
    if (!spec.ok()) {
      std::fprintf(stderr, "%s: %s\n", path.string().c_str(),
                   spec.status().ToString().c_str());
      drifted = true;
      continue;
    }
    Result<std::string> snapshot = testkit::RenderGoldenSnapshot(*spec);
    if (!snapshot.ok()) {
      std::fprintf(stderr, "%s: %s\n", path.string().c_str(),
                   snapshot.status().ToString().c_str());
      drifted = true;
      continue;
    }
    if (args.update) {
      if (!WriteFileBytes(golden_path, *snapshot).ok()) {
        std::fprintf(stderr, "cannot write %s\n", golden_path.c_str());
        return 2;
      }
      std::printf("wrote %s\n", golden_path.c_str());
      continue;
    }
    const Result<std::string> golden = ReadFileBytes(golden_path);
    if (!golden.ok()) {
      std::fprintf(stderr,
                   "%s: missing golden %s (run malleus_golden "
                   "--update-golden)\n",
                   name.c_str(), golden_path.c_str());
      drifted = true;
      continue;
    }
    if (*golden == *snapshot) {
      std::printf("%s: ok\n", name.c_str());
      continue;
    }
    int line = 0;
    std::string golden_line;
    std::string current_line;
    FirstDiff(*golden, *snapshot, &line, &golden_line, &current_line);
    std::fprintf(stderr,
                 "%s: DRIFT at line %d\n  golden : %s\n  current: %s\n"
                 "  (refresh with malleus_golden --update-golden if "
                 "intended)\n",
                 name.c_str(), line, golden_line.c_str(),
                 current_line.c_str());
    drifted = true;
  }
  return drifted ? 1 : 0;
}
