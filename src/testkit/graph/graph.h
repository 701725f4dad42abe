// The execution graph container: op storage, validation, and statistics.

#ifndef MALLEUS_TESTKIT_GRAPH_GRAPH_H_
#define MALLEUS_TESTKIT_GRAPH_GRAPH_H_

#include <map>
#include <vector>

#include "common/result.h"
#include "testkit/graph/op.h"

namespace malleus {
namespace testkit {
namespace graph {

/// Aggregate statistics of a graph (used by tests and reporting).
struct GraphStats {
  int num_ops = 0;
  int num_compute = 0;
  int num_p2p = 0;
  int num_collectives = 0;
  double total_flops_seconds = 0.0;  ///< Sum of compute base_seconds.
  double total_comm_bytes = 0.0;
};

/// \brief An append-only operator DAG.
///
/// Ops are identified by dense ids in insertion order; dependencies must
/// point backwards (the builder constructs in a valid order; Validate
/// enforces it), which keeps every traversal trivially topological.
class Graph {
 public:
  /// Appends an op; assigns and returns its id. Dependencies must already
  /// exist.
  OpId Add(Op op);

  int size() const { return static_cast<int>(ops_.size()); }
  const Op& op(OpId id) const { return ops_[id]; }
  const std::vector<Op>& ops() const { return ops_; }

  /// Per-device op sequences, in issue order (insertion order restricted
  /// to ops that occupy the device).
  const std::vector<OpId>& DeviceQueue(topo::GpuId gpu) const;

  /// Checks structural sanity: backward deps, devices present, payloads
  /// consistent with the op kind.
  Status Validate() const;

  GraphStats Stats() const;

 private:
  std::vector<Op> ops_;
  std::map<topo::GpuId, std::vector<OpId>> device_queues_;
  static const std::vector<OpId> kEmptyQueue;
};

}  // namespace graph
}  // namespace testkit
}  // namespace malleus

#endif  // MALLEUS_TESTKIT_GRAPH_GRAPH_H_
