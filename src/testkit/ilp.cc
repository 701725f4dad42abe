#include "testkit/ilp.h"

#include <cmath>
#include <limits>
#include <memory>
#include <queue>

#include "obs/metrics.h"

namespace malleus {
namespace testkit {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// An open node of the branch-and-bound tree: a bound box plus the LP
// objective of its parent's relaxation (a valid lower bound on every
// integral solution inside the box, since child boxes only shrink).
struct Node {
  std::vector<double> lower;
  std::vector<double> upper;
  double bound = -kInf;
  int64_t id = 0;  // Creation sequence number; tie-break for determinism.
};

// Best-first order: lowest bound pops first so the search hits strong
// incumbents early and the `bound >= best` prune fires as often as
// possible; equal bounds pop in creation order, making the exploration
// (and the node accounting) fully deterministic.
struct NodeOrder {
  bool operator()(const Node& a, const Node& b) const {
    if (a.bound != b.bound) return a.bound > b.bound;
    return a.id > b.id;
  }
};

// LP-relaxation branch-and-bound over an explicit best-first node queue.
// The explicit frontier (instead of recursion) keeps deep branchings off
// the call stack and makes the node-limit accounting exact: every node
// counted was popped and had its relaxation solved, and the search stops
// the moment the budget is exceeded.
class BranchAndBound {
 public:
  BranchAndBound(const IntegerProgram& ip, const IlpOptions& opts)
      : ip_(ip), opts_(opts) {}

  Result<IlpSolution> Solve() {
    best_obj_ = kInf;
    nodes_ = 0;

    Node root;
    root.lower = ip_.lp.lower_bounds;
    root.upper = ip_.lp.upper_bounds;
    root.lower.resize(ip_.lp.num_vars(), 0.0);
    root.upper.resize(ip_.lp.num_vars(), kInf);
    root.bound = -kInf;
    root.id = next_id_++;

    std::priority_queue<Node, std::vector<Node>, NodeOrder> open;
    open.push(std::move(root));

    while (!open.empty()) {
      Node node = open.top();
      open.pop();
      // A node queued before the incumbent improved may be prunable now.
      if (node.bound >= best_obj_ - 1e-9) continue;
      if (++nodes_ > opts_.max_nodes) {
        return Status::ResourceExhausted("branch-and-bound node limit hit");
      }
      MALLEUS_RETURN_NOT_OK(Expand(node, &open));
    }

    if (!std::isfinite(best_obj_)) {
      return Status::Infeasible("no integral feasible solution");
    }
    IlpSolution sol;
    sol.x = best_x_;
    sol.objective = best_obj_;
    sol.nodes_explored = static_cast<int>(nodes_);
    return sol;
  }

  int nodes() const { return static_cast<int>(nodes_); }

 private:
  // Solves the node's relaxation and either records an integral incumbent
  // or pushes the two child boxes of the most fractional variable.
  Status Expand(const Node& node,
                std::priority_queue<Node, std::vector<Node>, NodeOrder>* open) {
    LinearProgram relax = ip_.lp;
    relax.lower_bounds = node.lower;
    relax.upper_bounds = node.upper;
    // Infeasible bound boxes can arise from branching.
    for (int j = 0; j < relax.num_vars(); ++j) {
      if (relax.lower_bounds[j] > relax.upper_bounds[j]) {
        return Status::OK();  // Prune.
      }
    }

    Result<LpSolution> relaxed = SolveLp(relax);
    if (!relaxed.ok()) {
      if (relaxed.status().IsInfeasible()) return Status::OK();  // Prune.
      return relaxed.status();
    }
    const LpSolution& lp_sol = *relaxed;
    if (lp_sol.objective >= best_obj_ - 1e-9) return Status::OK();  // Bound.

    // Find the most fractional integral variable.
    int branch_var = -1;
    double branch_frac = 0.0;
    for (int j = 0; j < ip_.lp.num_vars(); ++j) {
      if (j >= static_cast<int>(ip_.integral.size()) || !ip_.integral[j]) {
        continue;
      }
      const double v = lp_sol.x[j];
      const double frac = std::fabs(v - std::round(v));
      if (frac > opts_.integrality_tol && frac > branch_frac) {
        branch_frac = frac;
        branch_var = j;
      }
    }

    if (branch_var < 0) {
      // Integral (round off numeric noise on integral vars) and recompute
      // the objective from the rounded vector so the reported value equals
      // c^T x of the returned solution.
      std::vector<double> x = lp_sol.x;
      double obj = 0.0;
      for (int j = 0; j < ip_.lp.num_vars(); ++j) {
        if (j < static_cast<int>(ip_.integral.size()) && ip_.integral[j]) {
          x[j] = std::round(x[j]);
        }
        obj += ip_.lp.objective[j] * x[j];
      }
      if (obj < best_obj_) {
        best_obj_ = obj;
        best_x_ = std::move(x);
      }
      return Status::OK();
    }

    const double v = lp_sol.x[branch_var];
    // Down branch: x <= floor(v).
    Node down;
    down.lower = node.lower;
    down.upper = node.upper;
    down.upper[branch_var] = std::floor(v);
    down.bound = lp_sol.objective;
    down.id = next_id_++;
    open->push(std::move(down));
    // Up branch: x >= ceil(v).
    Node up;
    up.lower = node.lower;
    up.upper = node.upper;
    up.lower[branch_var] = std::ceil(v);
    up.bound = lp_sol.objective;
    up.id = next_id_++;
    open->push(std::move(up));
    return Status::OK();
  }

  const IntegerProgram& ip_;
  const IlpOptions& opts_;
  double best_obj_ = kInf;
  std::vector<double> best_x_;
  int64_t nodes_ = 0;
  int64_t next_id_ = 0;
};

}  // namespace

IntegerProgram IntegerProgram::Create(int num_vars) {
  IntegerProgram ip;
  ip.lp = LinearProgram::Create(num_vars);
  ip.integral.assign(num_vars, true);
  return ip;
}

Result<IlpSolution> SolveIlp(const IntegerProgram& ip,
                             const IlpOptions& options) {
  BranchAndBound bnb(ip, options);
  Result<IlpSolution> result = bnb.Solve();
  auto& registry = obs::MetricsRegistry::Current();
  registry.GetCounter("solver.ilp.solves")->Increment();
  registry.GetCounter("solver.ilp.nodes_explored")->Increment(bnb.nodes());
  return result;
}

}  // namespace testkit
}  // namespace malleus
