// Flow-level event simulator over a Fabric with progressive max–min
// fair-share bandwidth allocation.
//
// A flow is a (src GPU, dst GPU, bytes) transfer that becomes eligible at
// `start_seconds`, waits one path latency, then streams its bytes along
// Fabric::Route(src, dst). Whenever the active-flow set changes (a flow
// arrives or drains), the per-flow rates are recomputed by water-filling:
// repeatedly find the most-contended link, freeze every flow crossing it
// at the link's equal share, subtract, and continue until all flows are
// rated. Between consecutive events rates are constant, so completion
// times follow in closed form — there is no time-stepping, no randomness,
// and the result is bit-deterministic for a given submission sequence.
// Only the links whose active-flow set changed (and their connected
// component) are re-shared at each event; the result is bitwise identical
// to the from-scratch engine kept in testkit::RunReferenceFlowSim.
//
// An isolated flow therefore finishes in exactly
//   start + latency + bytes / min-capacity-on-path,
// matching the analytic model, while k flows crossing one saturated link
// each observe capacity/k — the contention the analytic model cannot see.

#ifndef MALLEUS_NET_FLOW_SIM_H_
#define MALLEUS_NET_FLOW_SIM_H_

#include <cstdint>
#include <vector>

#include "net/fabric.h"
#include "topology/cluster.h"

namespace malleus {
namespace net {

/// One transfer submitted to the simulator.
struct Flow {
  topo::GpuId src = 0;
  topo::GpuId dst = 0;
  double bytes = 0.0;
  /// Simulated time at which the flow becomes eligible to start.
  double start_seconds = 0.0;
  /// Fixed serialization delay before bytes move. Negative (the default)
  /// means "use the cluster's src->dst path latency"; collective lowerings
  /// override it with their ring latency so an uncontended lowering
  /// reproduces the analytic closed form exactly.
  double latency_seconds = -1.0;
  /// Caller-owned label, carried through to the result (e.g. the index of
  /// the pipeline transfer this flow models).
  int64_t tag = 0;
};

/// Completion record of one flow, in submission order.
struct FlowOutcome {
  Flow flow;
  double end_seconds = 0.0;
  /// end_seconds - flow.start_seconds (latency + transfer time + any time
  /// spent throttled by contention).
  double seconds = 0.0;
};

/// Aggregate per-link accounting over one Run().
struct LinkUsage {
  double bytes = 0.0;             ///< Total bytes carried.
  double peak_utilization = 0.0;  ///< Max over time of rate-sum/capacity.
};

/// \brief Runs a set of concurrent flows to completion under progressive
/// max–min fair sharing. Submit all flows, call Run() once, then read the
/// outcomes. The Fabric must outlive the simulator.
class FlowSim {
 public:
  explicit FlowSim(const Fabric& fabric);

  /// Registers a flow; returns its index (also the index into outcomes()).
  /// Must not be called after Run().
  int64_t Submit(const Flow& flow);

  /// Plays every submitted flow to completion. Call exactly once.
  void Run();

  const std::vector<FlowOutcome>& outcomes() const { return outcomes_; }
  const FlowOutcome& outcome(int64_t id) const { return outcomes_[id]; }

  /// Time the last flow drained (0 when nothing was submitted).
  double MakespanSeconds() const { return makespan_seconds_; }

  /// Total bytes moved across all flows.
  double TotalBytes() const { return total_bytes_; }

  /// Per-link usage, indexed by LinkId (size == fabric.num_links()).
  const std::vector<LinkUsage>& link_usage() const { return link_usage_; }

  const Fabric& fabric() const { return *fabric_; }

 private:
  const Fabric* fabric_;
  std::vector<Flow> flows_;
  std::vector<FlowOutcome> outcomes_;
  std::vector<LinkUsage> link_usage_;
  double makespan_seconds_ = 0.0;
  double total_bytes_ = 0.0;
  bool ran_ = false;
};

/// Lowers one ring pass over `gpus` onto `sim`: each GPU streams
/// `bytes_per_hop` to its ring successor, all starting at `start_seconds`
/// with the given fixed `latency_seconds` (pass the collective's aggregate
/// ring latency so an uncontended ring reproduces the analytic closed
/// form). Returns the submitted flow ids. Rings of fewer than two distinct
/// GPUs submit nothing.
std::vector<int64_t> SubmitRing(FlowSim* sim,
                                const std::vector<topo::GpuId>& gpus,
                                double bytes_per_hop, double start_seconds,
                                double latency_seconds);

/// Records a completed FlowSim run into the global metrics registry:
///   <prefix>.flows / <prefix>.bytes_total        counters
///   <prefix>.flow_seconds                        histogram of FCTs
///   <prefix>.peak_link_utilization               gauge (max so far)
///   <prefix>.link.<name>.bytes                   counter per used link
///   <prefix>.link.<name>.peak_utilization        gauge (max so far)
/// Links that carried no bytes are skipped so the registry stays bounded
/// by the links actually exercised. `prefix` is typically "net".
void RecordFlowSimMetrics(const FlowSim& sim, const char* prefix = "net");

}  // namespace net
}  // namespace malleus

#endif  // MALLEUS_NET_FLOW_SIM_H_
