// Dense two-phase simplex solver for small linear programs.
//
// The paper solves its planning sub-problems with PuLP/Pyomo. The planner
// uses specialized solvers instead (solver/minmax, solver/division); this
// generic LP, with the branch-and-bound ILP on top (ilp.h), is the reference
// that solver_test cross-checks them against. Problems are tiny (tens of
// variables), so a dense tableau simplex with Bland's anti-cycling rule is
// plenty.

#ifndef MALLEUS_TESTKIT_LP_H_
#define MALLEUS_TESTKIT_LP_H_

#include <string>
#include <vector>

#include "common/result.h"

namespace malleus {
namespace testkit {

/// A linear constraint sum_j coeffs[j] * x[j] (op) rhs.
struct LinearConstraint {
  enum class Op { kLessEqual, kGreaterEqual, kEqual };
  std::vector<double> coeffs;
  Op op = Op::kLessEqual;
  double rhs = 0.0;
};

/// \brief minimize c^T x subject to linear constraints and variable bounds.
///
/// Variables are continuous here; integrality is layered on by the ILP
/// branch-and-bound (see ilp.h).
struct LinearProgram {
  /// Objective coefficients; the problem is a minimization.
  std::vector<double> objective;
  std::vector<LinearConstraint> constraints;
  /// Per-variable lower bounds (default 0) and upper bounds (default +inf).
  std::vector<double> lower_bounds;
  std::vector<double> upper_bounds;

  int num_vars() const { return static_cast<int>(objective.size()); }

  /// Creates a program with n variables, zero objective, bounds [0, +inf).
  static LinearProgram Create(int num_vars);

  /// Adds sum coeffs*x <= rhs.
  void AddLessEqual(std::vector<double> coeffs, double rhs);
  /// Adds sum coeffs*x >= rhs.
  void AddGreaterEqual(std::vector<double> coeffs, double rhs);
  /// Adds sum coeffs*x == rhs.
  void AddEqual(std::vector<double> coeffs, double rhs);
};

/// Solution of an LP.
struct LpSolution {
  std::vector<double> x;
  double objective = 0.0;
};

/// Solves the LP. Returns Status::Infeasible if no feasible point exists and
/// Status::OutOfRange if the objective is unbounded below.
Result<LpSolution> SolveLp(const LinearProgram& lp);

}  // namespace testkit
}  // namespace malleus

#endif  // MALLEUS_TESTKIT_LP_H_
