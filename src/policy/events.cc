#include "policy/events.h"

#include <cmath>
#include <map>

#include "common/logging.h"
#include "common/rng.h"
#include "common/string_util.h"

namespace malleus {
namespace policy {

namespace {

// Per-GPU generator state. Pending heals are epoch-guarded: any state
// change bumps the epoch, so a heal scheduled for an earlier incarnation
// of the GPU silently expires instead of mis-firing.
enum class GpuState { kHealthy, kStraggling, kFailed };

struct Pending {
  enum class Kind { kHealGpu, kHealNode, kFlapStraggle } kind;
  topo::GpuId gpu = -1;
  topo::NodeId node = -1;
  uint64_t epoch = 0;
  int level = 0;
};

// Mean-`mean` integer delay, uniform over [1, 2*mean + 1]. One draw.
int64_t HealDelay(Rng* rng, int mean) {
  return 1 + rng->UniformInt(static_cast<uint64_t>(2 * mean + 1));
}

}  // namespace

const char* EventKindName(EventKind kind) {
  switch (kind) {
    case EventKind::kStraggle:
      return "straggle";
    case EventKind::kFail:
      return "fail";
    case EventKind::kNodeFail:
      return "node-fail";
    case EventKind::kRecover:
      return "recover";
    case EventKind::kNodeRecover:
      return "node-recover";
  }
  return "unknown";
}

std::string ClusterEvent::ToString() const {
  switch (kind) {
    case EventKind::kStraggle:
      return StrFormat("@%lld straggle gpu=%d level=%d%s",
                       static_cast<long long>(iteration), gpu, level,
                       flap ? " flap" : "");
    case EventKind::kFail:
      return StrFormat("@%lld fail gpu=%d",
                       static_cast<long long>(iteration), gpu);
    case EventKind::kNodeFail:
      return StrFormat("@%lld node-fail node=%d",
                       static_cast<long long>(iteration), node);
    case EventKind::kRecover:
      return StrFormat("@%lld recover gpu=%d",
                       static_cast<long long>(iteration), gpu);
    case EventKind::kNodeRecover:
      return StrFormat("@%lld node-recover node=%d",
                       static_cast<long long>(iteration), node);
  }
  return "@? unknown";
}

EventTrace GenerateEventTrace(const topo::ClusterSpec& cluster,
                              const scenario::DynamicSpec& dynamic,
                              uint64_t seed) {
  EventTrace trace;
  trace.iterations = dynamic.iterations;
  if (!dynamic.enabled || dynamic.iterations < 1) return trace;

  const int num_gpus = cluster.num_gpus();
  const int gpn = cluster.gpus_per_node();
  Rng rng(seed);
  std::vector<GpuState> state(num_gpus, GpuState::kHealthy);
  std::vector<uint64_t> epoch(num_gpus, 0);
  // Sorted by fire iteration; std::multimap preserves insertion order for
  // equal keys, so same-iteration heals replay deterministically.
  std::multimap<int64_t, Pending> pending;
  int alive = num_gpus;
  const int min_alive = num_gpus / 2 > 2 ? num_gpus / 2 : 2;

  const auto schedule_heal = [&](int64_t now, const Pending& p) {
    if (dynamic.recover_iters <= 0) return;  // Faults never heal.
    pending.insert({now + HealDelay(&rng, dynamic.recover_iters), p});
  };

  for (int64_t t = 0; t < dynamic.iterations; ++t) {
    // 1. Fire heals (and flap re-arrivals) scheduled for this iteration.
    const auto range = pending.equal_range(t);
    for (auto it = range.first; it != range.second; ++it) {
      const Pending& p = it->second;
      switch (p.kind) {
        case Pending::Kind::kHealGpu: {
          if (epoch[p.gpu] != p.epoch) break;  // Superseded (e.g. node fail).
          const bool was_straggling = state[p.gpu] == GpuState::kStraggling;
          state[p.gpu] = GpuState::kHealthy;
          ++epoch[p.gpu];
          if (was_straggling) {
            trace.events.push_back(
                {t, EventKind::kRecover, p.gpu, -1, 0, 1.0, false});
            if (dynamic.flap_prob > 0.0 &&
                rng.Uniform() < dynamic.flap_prob) {
              Pending flap;
              flap.kind = Pending::Kind::kFlapStraggle;
              flap.gpu = p.gpu;
              flap.epoch = epoch[p.gpu];
              flap.level = p.level;
              pending.insert(
                  {t + 1 +
                       static_cast<int64_t>(rng.UniformInt(
                           static_cast<uint64_t>(2 * dynamic.flap_period + 1))),
                   flap});
            }
          } else {
            ++alive;
            trace.events.push_back(
                {t, EventKind::kRecover, p.gpu, -1, 0, 1.0, false});
          }
          break;
        }
        case Pending::Kind::kHealNode: {
          const topo::GpuId first = p.node * gpn;
          if (epoch[first] != p.epoch) break;
          for (topo::GpuId g = first; g < first + gpn; ++g) {
            state[g] = GpuState::kHealthy;
            ++epoch[g];
          }
          alive += gpn;
          trace.events.push_back(
              {t, EventKind::kNodeRecover, -1, p.node, 0, 1.0, false});
          break;
        }
        case Pending::Kind::kFlapStraggle: {
          if (epoch[p.gpu] != p.epoch) break;
          state[p.gpu] = GpuState::kStraggling;
          ++epoch[p.gpu];
          trace.events.push_back({t, EventKind::kStraggle, p.gpu, -1,
                                  p.level, straggler::RateForLevel(p.level),
                                  true});
          Pending heal;
          heal.kind = Pending::Kind::kHealGpu;
          heal.gpu = p.gpu;
          heal.epoch = epoch[p.gpu];
          heal.level = p.level;
          schedule_heal(t, heal);
          break;
        }
      }
    }
    pending.erase(range.first, range.second);

    // 2. Diurnal modulation of the straggle arrival rate.
    double diurnal = 1.0;
    if (dynamic.diurnal_amplitude > 0.0 && dynamic.diurnal_period > 0) {
      diurnal = 1.0 + dynamic.diurnal_amplitude *
                          std::sin(6.283185307179586 *
                                   static_cast<double>(t) /
                                   static_cast<double>(dynamic.diurnal_period));
      if (diurnal < 0.0) diurnal = 0.0;
    }

    // 3. Correlated node failures (only from an all-healthy node, and only
    // while the feasibility guard leaves enough live GPUs).
    if (dynamic.node_fail_rate > 0.0) {
      for (topo::NodeId n = 0; n < cluster.num_nodes(); ++n) {
        bool all_healthy = true;
        for (topo::GpuId g = n * gpn; g < (n + 1) * gpn; ++g) {
          if (state[g] != GpuState::kHealthy) all_healthy = false;
        }
        if (!all_healthy) continue;
        if (rng.Uniform() >= dynamic.node_fail_rate) continue;
        if (alive - gpn < min_alive) continue;
        for (topo::GpuId g = n * gpn; g < (n + 1) * gpn; ++g) {
          state[g] = GpuState::kFailed;
          ++epoch[g];
        }
        alive -= gpn;
        trace.events.push_back(
            {t, EventKind::kNodeFail, -1, n, 0, 1.0, false});
        Pending heal;
        heal.kind = Pending::Kind::kHealNode;
        heal.node = n;
        heal.epoch = epoch[n * gpn];
        schedule_heal(t, heal);
      }
    }

    // 4. Per-GPU straggle arrivals.
    if (dynamic.straggle_rate > 0.0) {
      for (topo::GpuId g = 0; g < num_gpus; ++g) {
        if (state[g] != GpuState::kHealthy) continue;
        if (rng.Uniform() >= dynamic.straggle_rate * diurnal) continue;
        const int level =
            1 + static_cast<int>(rng.UniformInt(
                    static_cast<uint64_t>(dynamic.max_level)));
        state[g] = GpuState::kStraggling;
        ++epoch[g];
        trace.events.push_back({t, EventKind::kStraggle, g, -1, level,
                                straggler::RateForLevel(level), false});
        Pending heal;
        heal.kind = Pending::Kind::kHealGpu;
        heal.gpu = g;
        heal.epoch = epoch[g];
        heal.level = level;
        schedule_heal(t, heal);
      }
    }

    // 5. Per-GPU fail-stop arrivals.
    if (dynamic.fail_rate > 0.0) {
      for (topo::GpuId g = 0; g < num_gpus; ++g) {
        if (state[g] != GpuState::kHealthy) continue;
        if (rng.Uniform() >= dynamic.fail_rate) continue;
        if (alive - 1 < min_alive) continue;
        state[g] = GpuState::kFailed;
        ++epoch[g];
        --alive;
        trace.events.push_back({t, EventKind::kFail, g, -1, 0, 1.0, false});
        Pending heal;
        heal.kind = Pending::Kind::kHealGpu;
        heal.gpu = g;
        heal.epoch = epoch[g];
        schedule_heal(t, heal);
      }
    }
  }
  return trace;
}

void ApplyEvent(const topo::ClusterSpec& cluster, const ClusterEvent& event,
                straggler::Situation* situation) {
  switch (event.kind) {
    case EventKind::kStraggle:
      situation->SetLevel(event.gpu, event.level);
      break;
    case EventKind::kFail:
      situation->Fail(event.gpu);
      break;
    case EventKind::kNodeFail:
      for (topo::GpuId g : cluster.GpusOnNode(event.node)) {
        situation->Fail(g);
      }
      break;
    case EventKind::kRecover:
      situation->SetRate(event.gpu, 1.0);
      break;
    case EventKind::kNodeRecover:
      for (topo::GpuId g : cluster.GpusOnNode(event.node)) {
        situation->SetRate(g, 1.0);
      }
      break;
  }
}

}  // namespace policy
}  // namespace malleus
