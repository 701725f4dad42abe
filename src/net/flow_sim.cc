#include "net/flow_sim.h"

#include <algorithm>
#include <cstdlib>
#include <limits>

#include "common/logging.h"
#include "net/event_queue.h"
#include "obs/metrics.h"

namespace malleus {
namespace net {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// A flow counts as drained once its residue is below one millionth of a
// byte (or a relative 1e-12 for huge transfers), absorbing the float error
// accumulated by rate * dt updates.
bool Drained(double remaining, double original) {
  return remaining <= std::max(1e-6, 1e-12 * original);
}

}  // namespace

FlowSim::FlowSim(const Fabric& fabric)
    : fabric_(&fabric), link_usage_(fabric.num_links()) {}

int64_t FlowSim::Submit(const Flow& flow) {
  MALLEUS_CHECK(!ran_) << "Submit after Run";
  MALLEUS_CHECK(fabric_->cluster().ValidGpu(flow.src));
  MALLEUS_CHECK(fabric_->cluster().ValidGpu(flow.dst));
  MALLEUS_CHECK_GE(flow.bytes, 0.0);
  flows_.push_back(flow);
  return static_cast<int64_t>(flows_.size()) - 1;
}

// Incremental engine. Identical arithmetic to the seed's from-scratch
// engine (testkit::RunReferenceFlowSim), restructured so the per-event cost
// scales with what actually changed:
//
//  - Arrivals sit in an indexed 4-ary min-heap (their ready times are fixed
//    at submit), replacing the O(n) next-arrival scans.
//  - Water-filling is recomputed only over the connected component (in the
//    flow/link bipartite graph) of links whose active-flow set changed.
//    Progressive filling decomposes across components: freezing a link in
//    one component never touches another component's cap/cnt state, and the
//    strict `<` + lowest-link-id tie-break restricted to a component picks
//    the same freeze order the global scan would, so per-flow rates — and
//    the peak-utilization accounting — stay bitwise identical.
//  - Untouched links keep their rate_sum, so their peak-utilization
//    max-update would be a no-op; only component links are re-checked.
//
// What deliberately does NOT change: the per-event advance of every active
// flow (`remaining -= rate * dt`, `finish = now + remaining / rate`). The
// reference engine performs that arithmetic for every active flow at every
// event, and lazy/stale variants differ in ulps, so the O(active) fused
// finish/advance scan is the price of bit-identity. The win is removing the
// O(links x flows) from-scratch refill, which dominates at scale.
void FlowSim::Run() {
  MALLEUS_CHECK(!ran_) << "Run called twice";
  ran_ = true;
  const int n = static_cast<int>(flows_.size());
  const int num_links = fabric_->num_links();
  outcomes_.resize(n);

  std::vector<std::vector<LinkId>> routes(n);
  std::vector<double> ready(n, 0.0), remaining(n, 0.0), rate(n, 0.0);
  EventQueue pending;
  pending.Reserve(flows_.size());
  int not_done = 0;
  for (int i = 0; i < n; ++i) {
    const Flow& f = flows_[i];
    outcomes_[i].flow = f;
    if (f.src == f.dst) {
      outcomes_[i].end_seconds = f.start_seconds;
      continue;
    }
    const double latency =
        f.latency_seconds >= 0.0
            ? f.latency_seconds
            : fabric_->cluster().LatencySec(f.src, f.dst);
    ready[i] = f.start_seconds + latency;
    if (f.bytes <= 0.0) {
      outcomes_[i].end_seconds = ready[i];
      continue;
    }
    routes[i] = fabric_->Route(f.src, f.dst);
    remaining[i] = f.bytes;
    total_bytes_ += f.bytes;
    for (LinkId l : routes[i]) link_usage_[l].bytes += f.bytes;
    pending.Push(ready[i], i);
    ++not_done;
  }
  for (int i = 0; i < n; ++i) {
    makespan_seconds_ = std::max(makespan_seconds_, outcomes_[i].end_seconds);
  }

  // Active flows, compactly (swap-removal; order never affects results —
  // every consumer either sorts or reduces with min/max). Per-link active
  // flow lists with per-flow back-pointers give O(route length) membership
  // updates. `dirty` collects the links whose flow set changed this event.
  std::vector<int> active;
  active.reserve(flows_.size());
  std::vector<int> active_pos(n, -1);  // index into `active`, -1 = not active
  std::vector<std::vector<int>> link_flows(num_links);
  std::vector<std::vector<int>> link_pos(n);  // position within link_flows
  std::vector<LinkId> dirty;

  const auto activate = [&](int i) {
    active_pos[i] = static_cast<int>(active.size());
    active.push_back(i);
    link_pos[i].resize(routes[i].size());
    for (size_t k = 0; k < routes[i].size(); ++k) {
      const LinkId l = routes[i][k];
      link_pos[i][k] = static_cast<int>(link_flows[l].size());
      link_flows[l].push_back(i);
      dirty.push_back(l);
    }
  };

  const auto retire = [&](int i) {
    for (size_t k = 0; k < routes[i].size(); ++k) {
      const LinkId l = routes[i][k];
      const int p = link_pos[i][k];
      const int moved = link_flows[l].back();
      link_flows[l][p] = moved;
      link_flows[l].pop_back();
      if (moved != i) {
        for (size_t km = 0; km < routes[moved].size(); ++km) {
          if (routes[moved][km] == l) {
            link_pos[moved][km] = p;
            break;
          }
        }
      }
      dirty.push_back(l);
    }
    const int p = active_pos[i];
    const int moved = active.back();
    active[p] = moved;
    active.pop_back();
    active_pos[moved] = p;
    active_pos[i] = -1;
  };

  // Component-restricted water-filling. Epoch stamps avoid clearing the
  // visited arrays; cap/cnt/rate_sum persist across events and are
  // re-initialised only for the component's links.
  std::vector<double> cap(num_links);
  std::vector<int> cnt(num_links, 0);
  std::vector<double> rate_sum(num_links, 0.0);
  std::vector<int> link_epoch(num_links, 0), flow_epoch(n, 0);
  int epoch = 0;
  std::vector<LinkId> comp_links, bfs;
  std::vector<int> comp_flows, unfrozen, keep;

  const auto recompute_dirty = [&] {
    if (dirty.empty()) return;
    ++epoch;
    comp_links.clear();
    comp_flows.clear();
    bfs.clear();
    for (LinkId l : dirty) {
      if (link_epoch[l] == epoch) continue;
      link_epoch[l] = epoch;
      comp_links.push_back(l);
      bfs.push_back(l);
    }
    dirty.clear();
    while (!bfs.empty()) {
      const LinkId l = bfs.back();
      bfs.pop_back();
      for (int i : link_flows[l]) {
        if (flow_epoch[i] == epoch) continue;
        flow_epoch[i] = epoch;
        comp_flows.push_back(i);
        for (LinkId l2 : routes[i]) {
          if (link_epoch[l2] == epoch) continue;
          link_epoch[l2] = epoch;
          comp_links.push_back(l2);
          bfs.push_back(l2);
        }
      }
    }
    // Ascending order reproduces the reference scan order within the
    // component: flows by id when seeding `unfrozen`, links by id in the
    // best-share argmin (ties go to the lowest link id).
    std::sort(comp_links.begin(), comp_links.end());
    std::sort(comp_flows.begin(), comp_flows.end());
    for (LinkId l : comp_links) {
      cap[l] = fabric_->link(l).capacity_bps;
      cnt[l] = 0;
      rate_sum[l] = 0.0;
    }
    unfrozen.clear();
    for (int i : comp_flows) {
      unfrozen.push_back(i);
      for (LinkId l : routes[i]) ++cnt[l];
    }
    while (!unfrozen.empty()) {
      double best_share = kInf;
      LinkId best_link = -1;
      for (LinkId l : comp_links) {
        if (cnt[l] == 0) continue;
        const double floor = fabric_->link(l).capacity_bps * 1e-9;
        const double share = std::max(cap[l], floor) / cnt[l];
        if (share < best_share) {
          best_share = share;
          best_link = l;
        }
      }
      MALLEUS_CHECK(best_link >= 0);
      keep.clear();
      for (int i : unfrozen) {
        const bool crosses =
            std::find(routes[i].begin(), routes[i].end(), best_link) !=
            routes[i].end();
        if (!crosses) {
          keep.push_back(i);
          continue;
        }
        rate[i] = best_share;
        for (LinkId l : routes[i]) {
          cap[l] -= best_share;
          --cnt[l];
          rate_sum[l] += best_share;
        }
      }
      unfrozen.swap(keep);
    }
    for (LinkId l : comp_links) {
      if (rate_sum[l] <= 0.0) continue;
      link_usage_[l].peak_utilization =
          std::max(link_usage_[l].peak_utilization,
                   rate_sum[l] / fabric_->link(l).capacity_bps);
    }
  };

  std::vector<double> finish(n, kInf);
  double now = 0.0;
  while (not_done > 0) {
    if (active.empty()) {
      // Idle fabric: jump to the earliest pending arrival.
      MALLEUS_CHECK(!pending.empty()) << "flow sim stalled";
      now = pending.top_key();
    }

    // Activate arrivals due now, then re-share their components.
    while (!pending.empty() && pending.top_key() <= now) {
      activate(pending.PopMin());
    }
    recompute_dirty();

    // Time of the next event: first pending arrival or first drain.
    const double next_ready = pending.empty() ? kInf : pending.top_key();
    double next_drain = kInf;
    for (int i : active) {
      MALLEUS_CHECK(rate[i] > 0.0);
      finish[i] = now + remaining[i] / rate[i];
      next_drain = std::min(next_drain, finish[i]);
    }
    const double t_next = std::min(next_ready, next_drain);
    MALLEUS_CHECK(t_next < kInf) << "flow sim stalled";

    // Advance active flows to t_next and retire the drained ones. A flow
    // whose residue drains within a relative whisker of t_next completes
    // *at* t_next: this guarantees forward progress even when a tiny
    // residue's drain interval underflows against `now`.
    const double horizon = t_next + 1e-9 * std::max(1.0, std::abs(t_next));
    for (size_t a = 0; a < active.size();) {
      const int i = active[a];
      if (finish[i] <= horizon || Drained(remaining[i] - rate[i] * (t_next - now),
                                          flows_[i].bytes)) {
        outcomes_[i].end_seconds = t_next;
        makespan_seconds_ = std::max(makespan_seconds_, t_next);
        --not_done;
        retire(i);  // swap-removes active[a]; re-examine the moved entry
      } else {
        remaining[i] -= rate[i] * (t_next - now);
        ++a;
      }
    }
    now = t_next;
  }
  for (int i = 0; i < n; ++i) {
    outcomes_[i].seconds =
        outcomes_[i].end_seconds - outcomes_[i].flow.start_seconds;
  }
}

std::vector<int64_t> SubmitRing(FlowSim* sim,
                                const std::vector<topo::GpuId>& gpus,
                                double bytes_per_hop, double start_seconds,
                                double latency_seconds) {
  std::vector<int64_t> ids;
  if (gpus.size() < 2) return ids;
  ids.reserve(gpus.size());
  for (size_t i = 0; i < gpus.size(); ++i) {
    Flow f;
    f.src = gpus[i];
    f.dst = gpus[(i + 1) % gpus.size()];
    f.bytes = bytes_per_hop;
    f.start_seconds = start_seconds;
    f.latency_seconds = latency_seconds;
    ids.push_back(sim->Submit(f));
  }
  return ids;
}

void RecordFlowSimMetrics(const FlowSim& sim, const char* prefix) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Current();
  const std::string p(prefix);
  registry.GetCounter(p + ".flows")
      ->Increment(static_cast<double>(sim.outcomes().size()));
  registry.GetCounter(p + ".bytes_total")->Increment(sim.TotalBytes());
  obs::Histogram* fct = registry.GetHistogram(p + ".flow_seconds");
  for (const FlowOutcome& o : sim.outcomes()) fct->Observe(o.seconds);
  double peak = 0.0;
  for (int l = 0; l < sim.fabric().num_links(); ++l) {
    const LinkUsage& usage = sim.link_usage()[l];
    if (usage.bytes <= 0.0) continue;
    peak = std::max(peak, usage.peak_utilization);
    const std::string& name = sim.fabric().link(l).name;
    registry.GetCounter(p + ".link." + name + ".bytes")
        ->Increment(usage.bytes);
    obs::Gauge* g = registry.GetGauge(p + ".link." + name +
                                      ".peak_utilization");
    g->Set(std::max(g->Value(), usage.peak_utilization));
  }
  obs::Gauge* g = registry.GetGauge(p + ".peak_link_utilization");
  g->Set(std::max(g->Value(), peak));
}

}  // namespace net
}  // namespace malleus
