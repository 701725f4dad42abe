#include "testkit/lp.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"
#include "obs/metrics.h"

namespace malleus {
namespace testkit {

namespace {

constexpr double kEps = 1e-9;
constexpr double kInf = std::numeric_limits<double>::infinity();

// Standard-form tableau simplex. We convert the problem to
//   minimize c^T z   s.t.  A z = b, z >= 0
// by (1) shifting variables by their finite lower bounds, (2) adding upper
// bounds as explicit <= rows, (3) adding slack/surplus variables, and
// (4) running phase 1 with artificial variables.
class Simplex {
 public:
  explicit Simplex(const LinearProgram& lp) : lp_(lp) {}

  Result<LpSolution> Solve() {
    MALLEUS_RETURN_NOT_OK(Prepare());
    MALLEUS_RETURN_NOT_OK(Phase1());
    MALLEUS_RETURN_NOT_OK(Phase2());
    return Extract();
  }

 private:
  Status Prepare() {
    const int n = lp_.num_vars();
    if (n == 0) return Status::InvalidArgument("LP has no variables");
    shift_ = lp_.lower_bounds;
    shift_.resize(n, 0.0);
    for (double lb : shift_) {
      if (!std::isfinite(lb)) {
        return Status::InvalidArgument("lower bounds must be finite");
      }
    }

    // Build rows: user constraints with shifted rhs, then upper bounds.
    struct Row {
      std::vector<double> a;
      LinearConstraint::Op op;
      double rhs;
    };
    std::vector<Row> rows;
    for (const auto& c : lp_.constraints) {
      if (static_cast<int>(c.coeffs.size()) != n) {
        return Status::InvalidArgument("constraint arity mismatch");
      }
      double rhs = c.rhs;
      for (int j = 0; j < n; ++j) rhs -= c.coeffs[j] * shift_[j];
      rows.push_back(Row{c.coeffs, c.op, rhs});
    }
    for (int j = 0; j < n; ++j) {
      double ub = j < static_cast<int>(lp_.upper_bounds.size())
                      ? lp_.upper_bounds[j]
                      : kInf;
      if (std::isfinite(ub)) {
        std::vector<double> a(n, 0.0);
        a[j] = 1.0;
        rows.push_back(
            Row{std::move(a), LinearConstraint::Op::kLessEqual,
                ub - shift_[j]});
      }
    }

    const int m = static_cast<int>(rows.size());
    // Count slacks: one per inequality row.
    int num_slack = 0;
    for (const auto& r : rows) {
      if (r.op != LinearConstraint::Op::kEqual) ++num_slack;
    }
    num_struct_ = n;
    num_cols_ = n + num_slack + m;  // structural + slack + artificial
    art_offset_ = n + num_slack;
    num_rows_ = m;

    tab_.assign(m, std::vector<double>(num_cols_ + 1, 0.0));
    basis_.assign(m, -1);

    int slack = n;
    for (int i = 0; i < m; ++i) {
      Row& r = rows[i];
      double sign = 1.0;
      if (r.rhs < 0) sign = -1.0;  // Make rhs nonnegative.
      for (int j = 0; j < n; ++j) tab_[i][j] = sign * r.a[j];
      tab_[i][num_cols_] = sign * r.rhs;
      if (r.op != LinearConstraint::Op::kEqual) {
        double s = (r.op == LinearConstraint::Op::kLessEqual) ? 1.0 : -1.0;
        tab_[i][slack] = sign * s;
        ++slack;
      }
      // Artificial variable for this row.
      tab_[i][art_offset_ + i] = 1.0;
      basis_[i] = art_offset_ + i;
    }
    return Status::OK();
  }

  // Minimizes the sum of artificial variables.
  Status Phase1() {
    std::vector<double> cost(num_cols_, 0.0);
    for (int i = 0; i < num_rows_; ++i) cost[art_offset_ + i] = 1.0;
    MALLEUS_RETURN_NOT_OK(RunSimplex(cost, /*forbid_artificial=*/false));
    double art_sum = 0.0;
    for (int i = 0; i < num_rows_; ++i) {
      if (basis_[i] >= art_offset_) art_sum += tab_[i][num_cols_];
    }
    if (art_sum > 1e-7) {
      return Status::Infeasible("LP is infeasible");
    }
    // Drive remaining (degenerate) artificials out of the basis.
    for (int i = 0; i < num_rows_; ++i) {
      if (basis_[i] < art_offset_) continue;
      int pivot_col = -1;
      for (int j = 0; j < art_offset_; ++j) {
        if (std::fabs(tab_[i][j]) > kEps) {
          pivot_col = j;
          break;
        }
      }
      if (pivot_col >= 0) Pivot(i, pivot_col);
      // Else the row is all-zero and redundant; leave the artificial basic
      // at value ~0.
    }
    return Status::OK();
  }

  Status Phase2() {
    std::vector<double> cost(num_cols_, 0.0);
    for (int j = 0; j < num_struct_; ++j) cost[j] = lp_.objective[j];
    return RunSimplex(cost, /*forbid_artificial=*/true);
  }

  // Runs the simplex method on the current tableau with reduced costs
  // derived from `cost`. Uses Bland's rule to avoid cycling.
  Status RunSimplex(const std::vector<double>& cost, bool forbid_artificial) {
    const int col_limit = forbid_artificial ? art_offset_ : num_cols_;
    const int max_iters = 50000;
    for (int iter = 0; iter < max_iters; ++iter) {
      // Reduced costs: r_j = c_j - c_B^T B^-1 A_j, computed directly from
      // the tableau (columns are already B^-1 A).
      int enter = -1;
      for (int j = 0; j < col_limit; ++j) {
        double r = cost[j];
        for (int i = 0; i < num_rows_; ++i) {
          r -= cost[basis_[i]] * tab_[i][j];
        }
        if (r < -1e-8) {
          enter = j;  // Bland: smallest index.
          break;
        }
      }
      if (enter < 0) return Status::OK();  // Optimal.

      int leave = -1;
      double best_ratio = kInf;
      for (int i = 0; i < num_rows_; ++i) {
        if (tab_[i][enter] > kEps) {
          const double ratio = tab_[i][num_cols_] / tab_[i][enter];
          if (ratio < best_ratio - kEps) {
            best_ratio = ratio;
            leave = i;
          } else if (ratio < best_ratio + kEps &&
                     (leave < 0 || basis_[i] < basis_[leave])) {
            // Tie within tolerance: Bland's rule picks the smallest basis
            // index, but the recorded minimum must not drift upward.
            best_ratio = std::min(best_ratio, ratio);
            leave = i;
          }
        }
      }
      if (leave < 0) {
        return Status::OutOfRange("LP objective is unbounded");
      }
      Pivot(leave, enter);
    }
    return Status::Internal("simplex iteration limit exceeded");
  }

  void Pivot(int row, int col) {
    ++pivots_;
    const double p = tab_[row][col];
    for (int j = 0; j <= num_cols_; ++j) tab_[row][j] /= p;
    for (int i = 0; i < num_rows_; ++i) {
      if (i == row) continue;
      const double f = tab_[i][col];
      if (std::fabs(f) < kEps) continue;
      for (int j = 0; j <= num_cols_; ++j) {
        tab_[i][j] -= f * tab_[row][j];
      }
    }
    basis_[row] = col;
  }

  Result<LpSolution> Extract() const {
    LpSolution sol;
    sol.x.assign(num_struct_, 0.0);
    for (int i = 0; i < num_rows_; ++i) {
      if (basis_[i] < num_struct_) {
        sol.x[basis_[i]] = tab_[i][num_cols_];
      }
    }
    sol.objective = 0.0;
    for (int j = 0; j < num_struct_; ++j) {
      sol.x[j] += shift_[j];
      sol.objective += lp_.objective[j] * sol.x[j];
    }
    return sol;
  }

 public:
  int pivots() const { return pivots_; }

 private:
  const LinearProgram& lp_;
  int pivots_ = 0;
  std::vector<std::vector<double>> tab_;
  std::vector<int> basis_;
  std::vector<double> shift_;
  int num_struct_ = 0;
  int num_cols_ = 0;
  int num_rows_ = 0;
  int art_offset_ = 0;
};

}  // namespace

LinearProgram LinearProgram::Create(int num_vars) {
  LinearProgram lp;
  lp.objective.assign(num_vars, 0.0);
  lp.lower_bounds.assign(num_vars, 0.0);
  lp.upper_bounds.assign(num_vars, kInf);
  return lp;
}

void LinearProgram::AddLessEqual(std::vector<double> coeffs, double rhs) {
  constraints.push_back(
      {std::move(coeffs), LinearConstraint::Op::kLessEqual, rhs});
}

void LinearProgram::AddGreaterEqual(std::vector<double> coeffs, double rhs) {
  constraints.push_back(
      {std::move(coeffs), LinearConstraint::Op::kGreaterEqual, rhs});
}

void LinearProgram::AddEqual(std::vector<double> coeffs, double rhs) {
  constraints.push_back({std::move(coeffs), LinearConstraint::Op::kEqual, rhs});
}

Result<LpSolution> SolveLp(const LinearProgram& lp) {
  Simplex simplex(lp);
  Result<LpSolution> result = simplex.Solve();
  auto& registry = obs::MetricsRegistry::Current();
  registry.GetCounter("solver.lp.solves")->Increment();
  registry.GetCounter("solver.lp.pivots")->Increment(simplex.pivots());
  return result;
}

}  // namespace testkit
}  // namespace malleus
