// Operator definitions for the execution graph.
//
// The paper's runtime (built on the Hetu system) manages non-uniform data,
// layer, stage, and device partitioning through a computation graph. Here
// that graph is a test oracle: graph_test cross-checks sim's 1F1B playout
// and its collective-order deadlock check against it. A Graph materializes
// one training step of a ParallelPlan as a per-GPU operator DAG: fused
// per-stage forward/backward compute, point-to-point activation transfers,
// the per-slice ZeRO-1 collectives in their deadlock-free order, and
// optimizer updates.

#ifndef MALLEUS_TESTKIT_GRAPH_OP_H_
#define MALLEUS_TESTKIT_GRAPH_OP_H_

#include <cstdint>
#include <string>
#include <vector>

#include "topology/cluster.h"

namespace malleus {
namespace testkit {
namespace graph {

using OpId = int;

enum class OpKind {
  kForward,        ///< Fused forward of one stage for one micro-batch.
  kBackward,       ///< Fused backward of one stage for one micro-batch.
  kP2pTransfer,    ///< Activation/gradient hand-off between stages.
  kReduceScatter,  ///< Per-slice gradient reduce-scatter across DP peers.
  kAllGather,      ///< Per-slice parameter all-gather after the update.
  kOptimizerStep,  ///< Per-GPU sharded optimizer update.
};

const char* OpKindName(OpKind kind);

/// \brief One node of the execution graph.
///
/// Compute ops (`kForward`/`kBackward`/`kOptimizerStep`) occupy every GPU
/// in `devices` for their duration. Collectives occupy all participants
/// and require the globally consistent issue order (S5.1). P2P transfers
/// are asynchronous copies: they delay their consumers but do not occupy
/// the GPU compute stream.
struct Op {
  OpId id = -1;
  OpKind kind = OpKind::kForward;
  /// Ops that must finish before this one starts.
  std::vector<OpId> deps;
  /// GPUs participating (compute: the TP group; collective: ring members;
  /// P2P: {src, dst}).
  std::vector<topo::GpuId> devices;

  /// Healthy-duration of compute ops (already includes the TP-degree
  /// efficiency); the executor scales it by the slowest member's live rate.
  double base_seconds = 0.0;
  /// Payload of communication ops.
  double bytes = 0.0;

  // Provenance (for debugging and tests).
  int pipeline = -1;
  int stage = -1;
  int64_t micro = -1;
  int layer = -1;
  int slice = -1;

  bool IsCompute() const {
    return kind == OpKind::kForward || kind == OpKind::kBackward ||
           kind == OpKind::kOptimizerStep;
  }
  bool IsCollective() const {
    return kind == OpKind::kReduceScatter || kind == OpKind::kAllGather;
  }
  bool OccupiesDevices() const { return kind != OpKind::kP2pTransfer; }

  std::string ToString() const;
};

}  // namespace graph
}  // namespace testkit
}  // namespace malleus

#endif  // MALLEUS_TESTKIT_GRAPH_OP_H_
