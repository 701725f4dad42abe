// Branch-and-bound integer linear programming on top of the simplex solver.

#ifndef MALLEUS_TESTKIT_ILP_H_
#define MALLEUS_TESTKIT_ILP_H_

#include <vector>

#include "common/result.h"
#include "testkit/lp.h"

namespace malleus {
namespace testkit {

/// \brief An ILP: a LinearProgram plus per-variable integrality flags.
struct IntegerProgram {
  LinearProgram lp;
  /// integral[j] == true requires x[j] to be an integer.
  std::vector<bool> integral;

  /// Creates a pure ILP (all variables integral) with n variables.
  static IntegerProgram Create(int num_vars);
};

/// Solution of an ILP; x holds integral values for integral variables.
struct IlpSolution {
  std::vector<double> x;
  double objective = 0.0;
  /// Number of branch-and-bound nodes explored (for benchmarking).
  int nodes_explored = 0;
};

/// Options controlling the branch-and-bound search.
struct IlpOptions {
  int max_nodes = 200000;
  double integrality_tol = 1e-6;
};

/// Solves the ILP exactly by LP-relaxation branch-and-bound.
/// Returns Status::Infeasible if no integral feasible point exists.
Result<IlpSolution> SolveIlp(const IntegerProgram& ip,
                             const IlpOptions& options = IlpOptions());

}  // namespace testkit
}  // namespace malleus

#endif  // MALLEUS_TESTKIT_ILP_H_
