#include "sim/restart.h"

#include "common/logging.h"

namespace malleus {
namespace sim {

namespace {
double IoSeconds(double bytes, int num_io_nodes) {
  MALLEUS_CHECK_GT(num_io_nodes, 0);
  const double bw = kPerNodeIoGbps * 1e9 * num_io_nodes;
  return bytes / bw;
}
}  // namespace

double RestartSeconds(double checkpoint_bytes, int num_io_nodes,
                      const RestartCostConfig& config) {
  // Save + init + load.
  return 2.0 * IoSeconds(checkpoint_bytes, num_io_nodes) +
         config.framework_init_seconds;
}

double RestartAfterFailureSeconds(double checkpoint_bytes, int num_io_nodes,
                                  const RestartCostConfig& config) {
  // Init + load only: there is nothing left to save after a failure.
  return IoSeconds(checkpoint_bytes, num_io_nodes) +
         config.framework_init_seconds;
}

}  // namespace sim
}  // namespace malleus
