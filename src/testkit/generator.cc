#include "testkit/generator.h"

#include <algorithm>
#include <vector>

namespace malleus {
namespace testkit {

namespace {

// Picks an element with the weight distribution `weights` (parallel to
// `values`); weights need not sum to 1.
template <typename T>
T Weighted(Rng* rng, const std::vector<T>& values,
           const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) total += w;
  double x = rng->Uniform() * total;
  for (size_t i = 0; i < values.size(); ++i) {
    x -= weights[i];
    if (x < 0.0) return values[i];
  }
  return values.back();
}

}  // namespace

uint64_t MixSeed(uint64_t seed, uint64_t run) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (run + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

scenario::ScenarioSpec GenerateScenario(Rng* rng,
                                        const GeneratorOptions& options) {
  scenario::ScenarioSpec spec;

  // Model: mostly tiny (fast solver sweeps); occasionally a paper model,
  // which on a small cluster probes the infeasible/memory-bound boundary.
  if (rng->Uniform() < options.big_model_prob) {
    spec.model = Weighted<std::string>(rng, {"32b", "70b", "110b"},
                                       {0.6, 0.3, 0.1});
  } else {
    spec.model = "tiny";
  }

  // Cluster shape, biased to the degenerate corners: single-node clusters,
  // single-GPU nodes, and non-power-of-two nodes whose grouping must fall
  // back to mixed power-of-two compositions (7 -> 4+2+1).
  spec.nodes = std::min<int>(
      options.max_nodes,
      Weighted<int>(rng, {1, 2, 3, 4, 8}, {0.3, 0.25, 0.1, 0.25, 0.1}));
  spec.gpus_per_node = std::min<int>(
      options.max_gpus_per_node,
      Weighted<int>(rng, {1, 2, 3, 4, 5, 7, 8},
                    {0.25, 0.1, 0.07, 0.15, 0.04, 0.04, 0.35}));

  // Batch: 1 (degenerate 1F1B), around the paper's 64, or huge (more
  // micro-batches than the division search normally sees).
  spec.batch = std::min<int64_t>(
      options.max_batch,
      Weighted<int64_t>(rng, {1, 2, 4, 8, 16, 64, 256, 1024},
                        {0.18, 0.08, 0.08, 0.12, 0.12, 0.22, 0.1, 0.1}));
  spec.steps = static_cast<int>(rng->UniformInt(1, 2));
  spec.seed = rng->Next() >> 1;  // Keep below 2^63 so it round-trips.

  spec.net_model = Weighted<std::string>(rng, {"", "analytic", "flow"},
                                         {0.5, 0.25, 0.25});

  // Hierarchical fabrics: mostly flat (the seed shape), with fat-tree and
  // rail draws so route construction, spine contention, and the fabric
  // lint/resolve agreement get fuzzed. Pod sizes that do not divide
  // `nodes` are drawn on purpose — lint must flag them and resolve must
  // refuse them, never crash.
  spec.fabric = Weighted<std::string>(rng, {"", "flat", "fat-tree", "rail"},
                                      {0.55, 0.05, 0.25, 0.15});
  if (spec.fabric == "fat-tree") {
    spec.nodes_per_pod =
        Weighted<int>(rng, {1, 2, 3, 4}, {0.3, 0.35, 0.1, 0.25});
  }
  if (!spec.fabric.empty() && spec.fabric != "flat" &&
      rng->Uniform() < 0.6) {
    spec.oversubscription =
        Weighted<double>(rng, {1.0, 2.0, 4.0, 8.0}, {0.3, 0.3, 0.3, 0.1});
  }

  // Trace phases: empty (overlay-only), or a few canonical situations with
  // extra weight on the multi-straggler ones (s5/s6 stress whole nodes).
  const int num_phases = static_cast<int>(rng->UniformInt(0, 3));
  for (int i = 0; i < num_phases; ++i) {
    spec.phases.push_back(Weighted<std::string>(
        rng, {"normal", "s1", "s2", "s3", "s4", "s5", "s6"},
        {0.2, 0.12, 0.12, 0.12, 0.12, 0.16, 0.16}));
  }

  // Custom straggler overlay. Already-straggling GPUs are allowed on
  // purpose; a draw that repeats a listed GPU is dropped after its values
  // are drawn, because resolution refuses duplicate entries
  // (scenario.duplicate-straggler). Levels are biased to the extremes (1
  // and the paper's max 8).
  const int num_gpus = spec.nodes * spec.gpus_per_node;
  const int num_stragglers = static_cast<int>(rng->UniformInt(0, 5));
  for (int i = 0; i < num_stragglers; ++i) {
    scenario::StragglerEntry entry;
    entry.gpu =
        static_cast<topo::GpuId>(rng->UniformInt(0, num_gpus - 1));
    if (rng->Uniform() < options.failed_gpu_prob) {
      entry.is_rate = true;
      entry.rate = straggler::kFailedRate;  // Serializes as "inf".
    } else if (rng->Uniform() < options.rate_entry_prob) {
      entry.is_rate = true;
      // The fitted model tops out at x = 1 + 1.44 * 8 = 12.52; sample a
      // bit past it so the rate-above-fit lint boundary is exercised.
      entry.rate = rng->Uniform(1.0, 14.0);
    } else {
      entry.level =
          static_cast<int>(Weighted<int>(rng, {0, 1, 2, 3, 8},
                                         {0.1, 0.3, 0.15, 0.15, 0.3}));
    }
    if (std::none_of(spec.stragglers.begin(), spec.stragglers.end(),
                     [&](const scenario::StragglerEntry& listed) {
                       return listed.gpu == entry.gpu;
                     })) {
      spec.stragglers.push_back(entry);
    }
  }

  // Dynamic fault-tolerance runs: short traces (the policy runner replans
  // on events, so event count — roughly gpus * rate * horizon — is what
  // costs time), with occasional draws at the saturation and never-heal
  // boundaries the lint pass warns about.
  if (rng->Uniform() < options.dynamic_prob) {
    spec.dynamic.enabled = true;
    spec.dynamic.iterations = Weighted<int>(rng, {10, 50, 150},
                                            {0.4, 0.4, 0.2});
    spec.dynamic.straggle_rate = Weighted<double>(
        rng, {0.0, 0.002, 0.01, 0.05}, {0.1, 0.4, 0.35, 0.15});
    spec.dynamic.fail_rate = Weighted<double>(rng, {0.0, 0.0005, 0.005},
                                              {0.5, 0.35, 0.15});
    spec.dynamic.node_fail_rate =
        Weighted<double>(rng, {0.0, 0.001}, {0.7, 0.3});
    spec.dynamic.recover_iters =
        Weighted<int>(rng, {0, 10, 40}, {0.15, 0.45, 0.4});
    spec.dynamic.flap_prob =
        Weighted<double>(rng, {0.0, 0.3, 0.9}, {0.5, 0.3, 0.2});
    spec.dynamic.flap_period = Weighted<int>(rng, {5, 25}, {0.5, 0.5});
    spec.dynamic.diurnal_amplitude =
        Weighted<double>(rng, {0.0, 0.5, 1.0}, {0.5, 0.3, 0.2});
    spec.dynamic.diurnal_period = Weighted<int>(rng, {20, 100}, {0.5, 0.5});
    spec.dynamic.max_level = static_cast<int>(rng->UniformInt(1, 8));
    spec.dynamic.seed = rng->Next() >> 1;
  }
  return spec;
}

}  // namespace testkit
}  // namespace malleus
