// Reproduces Figure 8: Malleus vs the Oobleck-like fault-tolerant baseline
// on the 32B model across the straggler trace. Oobleck treats stragglers as
// faults: it live-migrates only when an applicable pipeline template
// exists, restarts otherwise, and pays a constant template overhead even
// with no stragglers.

#include <cstdio>

#include "baselines/trace_runner.h"
#include "bench_util.h"
#include "common/table.h"

namespace malleus {
namespace bench {
namespace {

void Run() {
  const Workload w = Workload32B();
  const model::CostModel cost(w.spec, w.cluster.gpu());
  const auto trace = straggler::StandardTrace(/*steps_per_phase=*/8);

  baselines::OobleckBaseline oobleck(w.cluster, cost);
  baselines::MalleusFramework malleus_fw(w.cluster, cost);

  Result<std::vector<baselines::PhaseStats>> ob =
      baselines::RunTrace(&oobleck, w.cluster, trace, w.global_batch);
  MALLEUS_CHECK_OK(ob.status());
  Result<std::vector<baselines::PhaseStats>> ml =
      baselines::RunTrace(&malleus_fw, w.cluster, trace, w.global_batch);
  MALLEUS_CHECK_OK(ml.status());

  TablePrinter table("Figure 8 (32B): Oobleck vs Malleus along the trace");
  table.SetHeader({"Phase", "Oobleck s/step", "transition",
                   "Malleus s/step", "transition", "improvement"});
  for (size_t i = 0; i < ob->size(); ++i) {
    const baselines::PhaseStats& o = (*ob)[i];
    const baselines::PhaseStats& m = (*ml)[i];
    auto transition = [](const baselines::PhaseStats& p) -> std::string {
      if (p.restart_seconds > 0) {
        return StrFormat("RESTART %.0fs", p.restart_seconds);
      }
      if (p.migration_seconds > 0) {
        return StrFormat("migrate %.1fs", p.migration_seconds);
      }
      return "-";
    };
    table.AddRow({straggler::SituationName(o.situation),
                  StrFormat("%.1f", o.mean_step_seconds), transition(o),
                  StrFormat("%.1f", m.mean_step_seconds), transition(m),
                  StrFormat("%.2fx",
                            o.mean_step_seconds / m.mean_step_seconds)});
  }
  table.Print();
  std::printf(
      "\nExpected shape (paper): Oobleck is 1.8-2.5x slower per step even\n"
      "when healthy (fault-tolerance templates), migrates on early\n"
      "straggler transitions, but must RESTART when nodes recover or no\n"
      "template fits (S3->S4, S4->S5, S5->S6, S6->Normal).\n");
}

}  // namespace
}  // namespace bench
}  // namespace malleus

int main() {
  std::printf("Malleus reproduction: Figure 8 Oobleck comparison\n\n");
  malleus::bench::Run();
  malleus::bench::DumpBenchMetrics("fig8_oobleck");
  return 0;
}
