// Shared helpers for the paper-reproduction benchmark harnesses.

#ifndef MALLEUS_BENCH_BENCH_UTIL_H_
#define MALLEUS_BENCH_BENCH_UTIL_H_

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baselines/baseline.h"
#include "baselines/deepspeed.h"
#include "baselines/malleus_adapter.h"
#include "baselines/megatron.h"
#include "baselines/oobleck.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "model/cost_model.h"
#include "net/fabric.h"
#include "obs/metrics.h"
#include "topology/cluster.h"

namespace malleus {
namespace bench {

/// One evaluation workload of S7.1: a model plus the cluster that trains it
/// (32B on 32 GPUs; 70B and 110B on 64 GPUs).
struct Workload {
  std::string label;
  model::ModelSpec spec;
  topo::ClusterSpec cluster;
  int64_t global_batch = 64;
};

inline Workload Workload32B() {
  return {"32B", model::ModelSpec::Llama32B(),
          topo::ClusterSpec::A800Cluster(4), 64};
}
inline Workload Workload70B() {
  return {"70B", model::ModelSpec::Llama70B(),
          topo::ClusterSpec::A800Cluster(8), 64};
}
inline Workload Workload110B() {
  return {"110B", model::ModelSpec::Llama110B(),
          topo::ClusterSpec::A800Cluster(8), 64};
}

inline std::vector<Workload> AllWorkloads() {
  return {Workload32B(), Workload70B(), Workload110B()};
}

/// The competitor set of Table 2, in the paper's row order.
inline std::vector<std::unique_ptr<baselines::TrainingFramework>>
MakeCompetitors(const topo::ClusterSpec& cluster,
                const model::CostModel& cost) {
  std::vector<std::unique_ptr<baselines::TrainingFramework>> out;
  {
    baselines::DeepSpeedOptions o;
    out.push_back(
        std::make_unique<baselines::DeepSpeedBaseline>(cluster, cost, o));
  }
  {
    baselines::MegatronOptions o;
    out.push_back(
        std::make_unique<baselines::MegatronBaseline>(cluster, cost, o));
  }
  {
    baselines::DeepSpeedOptions o;
    o.with_restart = true;
    out.push_back(
        std::make_unique<baselines::DeepSpeedBaseline>(cluster, cost, o));
  }
  {
    baselines::MegatronOptions o;
    o.with_restart = true;
    out.push_back(
        std::make_unique<baselines::MegatronBaseline>(cluster, cost, o));
  }
  out.push_back(std::make_unique<baselines::MalleusFramework>(cluster, cost));
  return out;
}

/// "2.63x"-style improvement formatting.
inline std::string Improvement(double baseline_seconds,
                               double malleus_seconds) {
  return StrFormat("%.2fx", baseline_seconds / malleus_seconds);
}

/// Geometric mean.
inline double GeoMean(const std::vector<double>& values) {
  MALLEUS_CHECK(!values.empty());
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / values.size());
}

/// Starts a bench's machine-readable result: an open JSON object whose
/// first members are the host's core count ("host_nproc") and the build's
/// git commit ("commit", MALLEUS_BENCH_COMMIT, set by bench/CMakeLists.txt).
inline JsonWriter BeginBenchJson() {
  JsonWriter json;
  json.BeginObject();
  json.Key("host_nproc").Uint(std::thread::hardware_concurrency());
  json.Key("commit").String(MALLEUS_BENCH_COMMIT);
  return json;
}

/// Closes the object `json` (from BeginBenchJson) and writes it, with a
/// trailing newline, to BENCH_<name>.json in the working directory (or
/// under $MALLEUS_BENCH_OUT_DIR when set), so harness runs leave a stable
/// artifact next to the binary output.
inline void WriteBenchJson(const char* bench_name, JsonWriter json) {
  json.EndObject();
  std::string path;
  if (const char* dir = std::getenv("MALLEUS_BENCH_OUT_DIR");
      dir != nullptr && *dir != '\0') {
    path = std::string(dir) + "/";
  }
  path += StrFormat("BENCH_%s.json", bench_name);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write bench result to %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "%s\n", json.str().c_str());
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());
}

/// Attaches the global metrics snapshot to the bench's machine-readable
/// output. Call at the end of main():
///   - MALLEUS_BENCH_METRICS_OUT=FILE writes
///     {"bench":"<name>","net_model":"...","metrics":{...}} JSON to FILE
///     (planner solve-time histograms, solver node counts, engine
///     replan/migration counters; under the flow net model additionally
///     "net.*" fabric metrics — per-link total bytes and peak utilization
///     plus flow-completion-time histograms);
///   - MALLEUS_BENCH_METRICS=1 prints the text dump to stderr.
inline void DumpBenchMetrics(const char* bench_name) {
  const auto& registry = obs::MetricsRegistry::Global();
  if (const char* path = std::getenv("MALLEUS_BENCH_METRICS_OUT");
      path != nullptr && *path != '\0') {
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write bench metrics to %s\n", path);
    } else {
      JsonWriter json;
      json.BeginObject().Key("bench").String(bench_name);
      json.Key("net_model").String(net::NetModelName(net::DefaultNetModel()));
      json.Key("metrics").Raw(registry.ToJson()).EndObject();
      std::fprintf(f, "%s\n", json.str().c_str());
      std::fclose(f);
    }
  }
  if (const char* flag = std::getenv("MALLEUS_BENCH_METRICS");
      flag != nullptr && std::strcmp(flag, "1") == 0) {
    std::fprintf(stderr, "-- %s metrics --\n%s", bench_name,
                 registry.ToText().c_str());
  }
}

}  // namespace bench
}  // namespace malleus

#endif  // MALLEUS_BENCH_BENCH_UTIL_H_
