#include "testkit/flow_sim_reference.h"

#include <algorithm>
#include <cstdlib>
#include <limits>

#include "common/logging.h"

namespace malleus {
namespace testkit {

using net::Flow;
using net::LinkId;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// The drain rule of net::FlowSim: a residue below one millionth of a byte
// (or a relative 1e-12 for huge transfers) counts as drained.
bool Drained(double remaining, double original) {
  return remaining <= std::max(1e-6, 1e-12 * original);
}

}  // namespace

// The only change from the seed is that the per-event scratch vectors
// (`finish`, `unfrozen`, `keep`) are hoisted out of the loop; `finish`
// needs no re-initialisation because only entries of flows active in the
// current event are ever written or read.
ReferenceFlowSimResult RunReferenceFlowSim(const net::Fabric& fabric,
                                           const std::vector<Flow>& flows) {
  ReferenceFlowSimResult out;
  const int n = static_cast<int>(flows.size());
  out.outcomes.resize(n);
  out.link_usage.resize(fabric.num_links());

  // Per-flow playback state. `ready` is when bytes may start moving;
  // degenerate flows (loopback or zero bytes) complete immediately.
  std::vector<std::vector<LinkId>> routes(n);
  std::vector<double> ready(n, 0.0), remaining(n, 0.0), rate(n, 0.0);
  enum class Phase { kPending, kActive, kDone };
  std::vector<Phase> phase(n, Phase::kPending);
  int not_done = 0;
  for (int i = 0; i < n; ++i) {
    const Flow& f = flows[i];
    out.outcomes[i].flow = f;
    if (f.src == f.dst) {
      out.outcomes[i].end_seconds = f.start_seconds;
      phase[i] = Phase::kDone;
      continue;
    }
    const double latency =
        f.latency_seconds >= 0.0
            ? f.latency_seconds
            : fabric.cluster().LatencySec(f.src, f.dst);
    ready[i] = f.start_seconds + latency;
    if (f.bytes <= 0.0) {
      out.outcomes[i].end_seconds = ready[i];
      phase[i] = Phase::kDone;
      continue;
    }
    routes[i] = fabric.Route(f.src, f.dst);
    remaining[i] = f.bytes;
    out.total_bytes += f.bytes;
    for (LinkId l : routes[i]) out.link_usage[l].bytes += f.bytes;
    ++not_done;
  }
  for (int i = 0; i < n; ++i) {
    out.makespan_seconds =
        std::max(out.makespan_seconds, out.outcomes[i].end_seconds);
  }

  // Water-filling max–min rate allocation over the active set. Rates are
  // recomputed from scratch at every flow arrival/completion (progressive
  // filling); iteration order is by link id then flow id, so the result is
  // deterministic.
  std::vector<double> cap(fabric.num_links());
  std::vector<int> cnt(fabric.num_links());
  std::vector<double> rate_sum(fabric.num_links());
  std::vector<int> unfrozen, keep;
  const auto recompute_rates = [&] {
    for (int l = 0; l < fabric.num_links(); ++l) {
      cap[l] = fabric.link(l).capacity_bps;
      cnt[l] = 0;
      rate_sum[l] = 0.0;
    }
    unfrozen.clear();
    for (int i = 0; i < n; ++i) {
      if (phase[i] != Phase::kActive) continue;
      unfrozen.push_back(i);
      for (LinkId l : routes[i]) ++cnt[l];
    }
    while (!unfrozen.empty()) {
      double best_share = kInf;
      LinkId best_link = -1;
      for (int l = 0; l < fabric.num_links(); ++l) {
        if (cnt[l] == 0) continue;
        // Exact arithmetic keeps cap >= 0; clamp to a sliver of the link's
        // capacity so float cancellation can never hand out a zero rate.
        const double floor = fabric.link(l).capacity_bps * 1e-9;
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
    for (int l = 0; l < fabric.num_links(); ++l) {
      if (rate_sum[l] <= 0.0) continue;
      out.link_usage[l].peak_utilization =
          std::max(out.link_usage[l].peak_utilization,
                   rate_sum[l] / fabric.link(l).capacity_bps);
    }
  };

  std::vector<double> finish(n, kInf);
  double now = 0.0;
  while (not_done > 0) {
    bool have_active = false;
    for (int i = 0; i < n; ++i) have_active |= phase[i] == Phase::kActive;
    if (!have_active) {
      // Idle fabric: jump to the earliest pending arrival.
      double next_ready = kInf;
      for (int i = 0; i < n; ++i) {
        if (phase[i] == Phase::kPending) {
          next_ready = std::min(next_ready, ready[i]);
        }
      }
      MALLEUS_CHECK(next_ready < kInf) << "flow sim stalled";
      now = next_ready;
    }

    // Activate arrivals due now, then (re)fill rates.
    for (int i = 0; i < n; ++i) {
      if (phase[i] == Phase::kPending && ready[i] <= now) {
        phase[i] = Phase::kActive;
      }
    }
    recompute_rates();

    // Time of the next event: first pending arrival or first drain.
    double next_ready = kInf;
    for (int i = 0; i < n; ++i) {
      if (phase[i] == Phase::kPending) {
        next_ready = std::min(next_ready, ready[i]);
      }
    }
    double next_drain = kInf;
    for (int i = 0; i < n; ++i) {
      if (phase[i] == Phase::kActive) {
        MALLEUS_CHECK(rate[i] > 0.0);
        finish[i] = now + remaining[i] / rate[i];
        next_drain = std::min(next_drain, finish[i]);
      }
    }
    const double t_next = std::min(next_ready, next_drain);
    MALLEUS_CHECK(t_next < kInf) << "flow sim stalled";

    // Advance active flows to t_next and retire the drained ones. A flow
    // whose residue drains within a relative whisker of t_next completes
    // *at* t_next: this is what guarantees forward progress even when a
    // tiny residue's drain interval underflows against `now`.
    const double horizon = t_next + 1e-9 * std::max(1.0, std::abs(t_next));
    for (int i = 0; i < n; ++i) {
      if (phase[i] != Phase::kActive) continue;
      if (finish[i] <= horizon ||
          Drained(remaining[i] - rate[i] * (t_next - now), flows[i].bytes)) {
        phase[i] = Phase::kDone;
        out.outcomes[i].end_seconds = t_next;
        out.makespan_seconds = std::max(out.makespan_seconds, t_next);
        --not_done;
      } else {
        remaining[i] -= rate[i] * (t_next - now);
      }
    }
    now = t_next;
  }
  for (net::FlowOutcome& o : out.outcomes) {
    o.seconds = o.end_seconds - o.flow.start_seconds;
  }
  return out;
}

}  // namespace testkit
}  // namespace malleus
