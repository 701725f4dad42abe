// Tests for src/solver: the exact bottleneck-allocation solvers and the
// pipeline-division MINLP, plus testkit's reference simplex LP and
// branch-and-bound ILP. Property tests cross-check the specialized solvers
// against the generic ILP on random instances.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "solver/cache_io.h"
#include "solver/cache_key.h"
#include "solver/division.h"
#include "solver/minmax.h"
#include "testkit/ilp.h"
#include "testkit/lp.h"

namespace malleus {
namespace solver {
namespace {

using testkit::IlpOptions;
using testkit::IlpSolution;
using testkit::IntegerProgram;
using testkit::LinearProgram;
using testkit::LpSolution;
using testkit::SolveIlp;
using testkit::SolveLp;

constexpr double kInf = std::numeric_limits<double>::infinity();

// ---------- LP ----------

TEST(LpTest, SimpleTwoVariableOptimum) {
  // min -x - 2y  s.t. x + y <= 4, x <= 3, y <= 2  -> x=2..? optimum x=2,y=2.
  LinearProgram lp = LinearProgram::Create(2);
  lp.objective = {-1.0, -2.0};
  lp.AddLessEqual({1.0, 1.0}, 4.0);
  lp.upper_bounds = {3.0, 2.0};
  Result<LpSolution> sol = SolveLp(lp);
  ASSERT_TRUE(sol.ok()) << sol.status();
  EXPECT_NEAR(sol->objective, -6.0, 1e-8);
  EXPECT_NEAR(sol->x[0], 2.0, 1e-8);
  EXPECT_NEAR(sol->x[1], 2.0, 1e-8);
}

TEST(LpTest, EqualityConstraint) {
  // min x + y  s.t. x + 2y = 3, x, y >= 0  -> y = 1.5, x = 0.
  LinearProgram lp = LinearProgram::Create(2);
  lp.objective = {1.0, 1.0};
  lp.AddEqual({1.0, 2.0}, 3.0);
  Result<LpSolution> sol = SolveLp(lp);
  ASSERT_TRUE(sol.ok()) << sol.status();
  EXPECT_NEAR(sol->objective, 1.5, 1e-8);
}

TEST(LpTest, GreaterEqualConstraint) {
  // min x  s.t. x >= 5.
  LinearProgram lp = LinearProgram::Create(1);
  lp.objective = {1.0};
  lp.AddGreaterEqual({1.0}, 5.0);
  Result<LpSolution> sol = SolveLp(lp);
  ASSERT_TRUE(sol.ok()) << sol.status();
  EXPECT_NEAR(sol->objective, 5.0, 1e-8);
}

TEST(LpTest, InfeasibleDetected) {
  LinearProgram lp = LinearProgram::Create(1);
  lp.objective = {1.0};
  lp.AddLessEqual({1.0}, 1.0);
  lp.AddGreaterEqual({1.0}, 2.0);
  Result<LpSolution> sol = SolveLp(lp);
  ASSERT_FALSE(sol.ok());
  EXPECT_TRUE(sol.status().IsInfeasible());
}

TEST(LpTest, UnboundedDetected) {
  LinearProgram lp = LinearProgram::Create(1);
  lp.objective = {-1.0};  // min -x with x unbounded above.
  Result<LpSolution> sol = SolveLp(lp);
  ASSERT_FALSE(sol.ok());
  EXPECT_EQ(sol.status().code(), StatusCode::kOutOfRange);
}

TEST(LpTest, NonZeroLowerBounds) {
  // min x + y  s.t. x >= 2, y >= 3 via bounds.
  LinearProgram lp = LinearProgram::Create(2);
  lp.objective = {1.0, 1.0};
  lp.lower_bounds = {2.0, 3.0};
  Result<LpSolution> sol = SolveLp(lp);
  ASSERT_TRUE(sol.ok()) << sol.status();
  EXPECT_NEAR(sol->objective, 5.0, 1e-8);
}

TEST(LpTest, DegenerateRedundantConstraints) {
  LinearProgram lp = LinearProgram::Create(2);
  lp.objective = {1.0, 0.0};
  lp.AddEqual({1.0, 1.0}, 2.0);
  lp.AddEqual({2.0, 2.0}, 4.0);  // Redundant.
  Result<LpSolution> sol = SolveLp(lp);
  ASSERT_TRUE(sol.ok()) << sol.status();
  EXPECT_NEAR(sol->objective, 0.0, 1e-8);
}

// ---------- ILP ----------

TEST(IlpTest, RoundsAwayFractionalRelaxation) {
  // min -x - y  s.t. 2x + 3y <= 12, 3x + 2y <= 12, integers.
  // LP optimum (2.4, 2.4); ILP optimum is x=2,y=2 (or better along edges).
  IntegerProgram ip = IntegerProgram::Create(2);
  ip.lp.objective = {-1.0, -1.0};
  ip.lp.AddLessEqual({2.0, 3.0}, 12.0);
  ip.lp.AddLessEqual({3.0, 2.0}, 12.0);
  Result<IlpSolution> sol = SolveIlp(ip);
  ASSERT_TRUE(sol.ok()) << sol.status();
  EXPECT_NEAR(sol->objective, -4.0, 1e-6);
}

TEST(IlpTest, Knapsack) {
  // max 10a + 13b + 7c with 3a + 4b + 2c <= 6, binary -> a=0? Enumerate:
  // best is a + c = 17? a(3)+c(2)=5 -> 17; b(4)+c(2)=6 -> 20.
  IntegerProgram ip = IntegerProgram::Create(3);
  ip.lp.objective = {-10.0, -13.0, -7.0};
  ip.lp.AddLessEqual({3.0, 4.0, 2.0}, 6.0);
  ip.lp.upper_bounds = {1.0, 1.0, 1.0};
  Result<IlpSolution> sol = SolveIlp(ip);
  ASSERT_TRUE(sol.ok()) << sol.status();
  EXPECT_NEAR(sol->objective, -20.0, 1e-6);
  EXPECT_NEAR(sol->x[1], 1.0, 1e-6);
  EXPECT_NEAR(sol->x[2], 1.0, 1e-6);
}

TEST(IlpTest, InfeasibleIntegerBox) {
  // 0.4 <= x <= 0.6 has no integer point.
  IntegerProgram ip = IntegerProgram::Create(1);
  ip.lp.objective = {1.0};
  ip.lp.lower_bounds = {0.4};
  ip.lp.upper_bounds = {0.6};
  Result<IlpSolution> sol = SolveIlp(ip);
  ASSERT_FALSE(sol.ok());
  EXPECT_TRUE(sol.status().IsInfeasible());
}

TEST(IlpTest, MixedIntegerKeepsContinuousVars) {
  // min x + y, x integer >= 1.5 -> 2; y continuous >= 0.5.
  IntegerProgram ip = IntegerProgram::Create(2);
  ip.integral = {true, false};
  ip.lp.objective = {1.0, 1.0};
  ip.lp.lower_bounds = {1.5, 0.5};
  Result<IlpSolution> sol = SolveIlp(ip);
  ASSERT_TRUE(sol.ok()) << sol.status();
  EXPECT_NEAR(sol->x[0], 2.0, 1e-6);
  EXPECT_NEAR(sol->x[1], 0.5, 1e-6);
}

// ---------- Bottleneck allocation (Eq. 2 / Eq. 3) ----------

TEST(MinMaxTest, EvenRatesSplitEvenly) {
  Result<BottleneckSolution> sol =
      SolveBottleneckAllocation({1.0, 1.0, 1.0, 1.0}, 32);
  ASSERT_TRUE(sol.ok()) << sol.status();
  EXPECT_DOUBLE_EQ(sol->bottleneck, 8.0);
  for (int64_t a : sol->amounts) EXPECT_EQ(a, 8);
}

TEST(MinMaxTest, SlowEntityGetsLess) {
  // Rates 1 and 3: 12 units -> 9 and 3 balances products at 9.
  Result<BottleneckSolution> sol = SolveBottleneckAllocation({1.0, 3.0}, 12);
  ASSERT_TRUE(sol.ok()) << sol.status();
  EXPECT_EQ(sol->amounts[0], 9);
  EXPECT_EQ(sol->amounts[1], 3);
  EXPECT_DOUBLE_EQ(sol->bottleneck, 9.0);
}

TEST(MinMaxTest, CapacitiesRespected) {
  Result<BottleneckSolution> sol =
      SolveBottleneckAllocation({1.0, 1.0}, {3, -1}, 10);
  ASSERT_TRUE(sol.ok()) << sol.status();
  EXPECT_LE(sol->amounts[0], 3);
  EXPECT_EQ(sol->amounts[0] + sol->amounts[1], 10);
  EXPECT_DOUBLE_EQ(sol->bottleneck, 7.0);
}

TEST(MinMaxTest, InfiniteRateGetsZero) {
  Result<BottleneckSolution> sol =
      SolveBottleneckAllocation({1.0, kInf}, 5);
  ASSERT_TRUE(sol.ok()) << sol.status();
  EXPECT_EQ(sol->amounts[0], 5);
  EXPECT_EQ(sol->amounts[1], 0);
}

TEST(MinMaxTest, InfeasibleWhenCapsTooSmall) {
  Result<BottleneckSolution> sol =
      SolveBottleneckAllocation({1.0, 1.0}, {2, 2}, 5);
  ASSERT_FALSE(sol.ok());
  EXPECT_TRUE(sol.status().IsInfeasible());
}

TEST(MinMaxTest, ZeroTotalIsAllZero) {
  Result<BottleneckSolution> sol = SolveBottleneckAllocation({2.0, 5.0}, 0);
  ASSERT_TRUE(sol.ok()) << sol.status();
  EXPECT_DOUBLE_EQ(sol->bottleneck, 0.0);
}

// Cross-check the specialized solver against the generic ILP, which solves
//   min t  s.t.  rate_j * n_j <= t, sum n_j = total, 0 <= n_j <= cap_j.
double IlpBottleneck(const std::vector<double>& rates,
                     const std::vector<int64_t>& caps, int64_t total) {
  const int n = static_cast<int>(rates.size());
  IntegerProgram ip = IntegerProgram::Create(n + 1);
  ip.integral[n] = false;  // t is continuous.
  ip.lp.objective.assign(n + 1, 0.0);
  ip.lp.objective[n] = 1.0;
  std::vector<double> sum_row(n + 1, 1.0);
  sum_row[n] = 0.0;
  ip.lp.AddEqual(sum_row, static_cast<double>(total));
  for (int j = 0; j < n; ++j) {
    std::vector<double> row(n + 1, 0.0);
    row[j] = rates[j];
    row[n] = -1.0;
    ip.lp.AddLessEqual(row, 0.0);
    if (caps[j] >= 0) {
      ip.lp.upper_bounds[j] = static_cast<double>(caps[j]);
    }
  }
  Result<IlpSolution> sol = SolveIlp(ip);
  if (!sol.ok()) return -1.0;
  return sol->objective;
}

TEST(MinMaxPropertyTest, MatchesGenericIlpOnRandomInstances) {
  Rng rng(2024);
  for (int trial = 0; trial < 60; ++trial) {
    const int n = static_cast<int>(rng.UniformInt(2, 5));
    std::vector<double> rates;
    std::vector<int64_t> caps;
    for (int j = 0; j < n; ++j) {
      rates.push_back(rng.Uniform(0.2, 5.0));
      caps.push_back(rng.Uniform() < 0.3 ? rng.UniformInt(1, 20) : -1);
    }
    const int64_t total = rng.UniformInt(1, 25);
    Result<BottleneckSolution> fast =
        SolveBottleneckAllocation(rates, caps, total);
    const double ilp = IlpBottleneck(rates, caps, total);
    if (!fast.ok()) {
      EXPECT_LT(ilp, 0) << "specialized infeasible but ILP solved, trial "
                        << trial;
      continue;
    }
    ASSERT_GE(ilp, 0) << "ILP infeasible but specialized solved, trial "
                      << trial;
    EXPECT_NEAR(fast->bottleneck, ilp, 1e-5 * std::max(1.0, ilp))
        << "trial " << trial;
    // The assignment itself must be consistent.
    int64_t sum = 0;
    for (int j = 0; j < n; ++j) {
      sum += fast->amounts[j];
      if (caps[j] >= 0) {
        EXPECT_LE(fast->amounts[j], caps[j]);
      }
      EXPECT_LE(rates[j] * fast->amounts[j], fast->bottleneck + 1e-9);
    }
    EXPECT_EQ(sum, total);
  }
}

// ---------- Pipeline division (Eq. 4) ----------

TEST(DivisionTest, AllFastGroupsBalance) {
  DivisionProblem problem;
  problem.num_pipelines = 2;
  problem.num_fast_groups = 4;
  problem.fast_rate = 0.5;
  problem.total_microbatches = 32;
  Result<DivisionResult> sol = SolveDivision(problem);
  ASSERT_TRUE(sol.ok()) << sol.status();
  EXPECT_TRUE(sol->exact);
  EXPECT_EQ(sol->pipelines[0].num_fast, 2);
  EXPECT_EQ(sol->pipelines[1].num_fast, 2);
  EXPECT_EQ(sol->pipelines[0].microbatches, 16);
  EXPECT_EQ(sol->pipelines[1].microbatches, 16);
}

TEST(DivisionTest, SlowGroupPipelineGetsLessData) {
  DivisionProblem problem;
  problem.num_pipelines = 2;
  problem.num_fast_groups = 3;
  problem.fast_rate = 1.0;
  problem.slow_rates = {4.0};  // One heavy group.
  problem.total_microbatches = 30;
  Result<DivisionResult> sol = SolveDivision(problem);
  ASSERT_TRUE(sol.ok()) << sol.status();
  // Total capacity is 3 + 0.25 = 3.25; the slow group joins one pipeline.
  int slow_pipe = sol->pipelines[0].slow_indices.empty() ? 1 : 0;
  const auto& slow = sol->pipelines[slow_pipe];
  const auto& fast = sol->pipelines[1 - slow_pipe];
  EXPECT_EQ(slow.slow_indices.size(), 1u);
  // Data split should track capacities.
  EXPECT_EQ(slow.microbatches + fast.microbatches, 30);
  EXPECT_LT(std::fabs(slow.microbatches / slow.capacity -
                      fast.microbatches / fast.capacity),
            1.0 / slow.capacity + 1.0 / fast.capacity);
}

TEST(DivisionTest, FeasibilityCallbackExcludesPlacements) {
  DivisionProblem problem;
  problem.num_pipelines = 2;
  problem.num_fast_groups = 2;
  problem.fast_rate = 1.0;
  problem.slow_rates = {2.0, 2.0};
  problem.total_microbatches = 16;
  // Require every pipeline to contain at least two groups.
  problem.pipeline_feasible = [](int num_fast,
                                 const std::vector<int>& slow) {
    return num_fast + static_cast<int>(slow.size()) >= 2;
  };
  Result<DivisionResult> sol = SolveDivision(problem);
  ASSERT_TRUE(sol.ok()) << sol.status();
  for (const auto& p : sol->pipelines) {
    EXPECT_GE(p.num_fast + static_cast<int>(p.slow_indices.size()), 2);
  }
}

TEST(DivisionTest, InfeasibleWhenTooFewGroups) {
  DivisionProblem problem;
  problem.num_pipelines = 3;
  problem.num_fast_groups = 2;
  problem.fast_rate = 1.0;
  problem.total_microbatches = 8;
  Result<DivisionResult> sol = SolveDivision(problem);
  ASSERT_FALSE(sol.ok());
  EXPECT_TRUE(sol.status().IsInfeasible());
}

TEST(DivisionTest, SinglePipelineTakesEverything) {
  DivisionProblem problem;
  problem.num_pipelines = 1;
  problem.num_fast_groups = 3;
  problem.fast_rate = 1.0;
  problem.slow_rates = {2.5};
  problem.total_microbatches = 10;
  Result<DivisionResult> sol = SolveDivision(problem);
  ASSERT_TRUE(sol.ok()) << sol.status();
  EXPECT_EQ(sol->pipelines[0].num_fast, 3);
  EXPECT_EQ(sol->pipelines[0].slow_indices.size(), 1u);
  EXPECT_EQ(sol->pipelines[0].microbatches, 10);
}

TEST(DivisionTest, LocalSearchFallbackStaysFeasible) {
  // Enough slow groups to overflow a tiny node budget.
  DivisionProblem problem;
  problem.num_pipelines = 4;
  problem.num_fast_groups = 8;
  problem.fast_rate = 0.5;
  for (int i = 0; i < 12; ++i) {
    problem.slow_rates.push_back(1.0 + 0.3 * i);
  }
  problem.total_microbatches = 64;
  problem.max_nodes = 50;  // Force the fallback.
  Result<DivisionResult> sol = SolveDivision(problem);
  ASSERT_TRUE(sol.ok()) << sol.status();
  EXPECT_FALSE(sol->exact);
  int fast_total = 0;
  size_t slow_total = 0;
  int64_t micro_total = 0;
  for (const auto& p : sol->pipelines) {
    fast_total += p.num_fast;
    slow_total += p.slow_indices.size();
    micro_total += p.microbatches;
    EXPECT_GT(p.capacity, 0.0);
  }
  EXPECT_EQ(fast_total, 8);
  EXPECT_EQ(slow_total, 12u);
  EXPECT_EQ(micro_total, 64);
}

TEST(DivisionPropertyTest, ObjectiveMatchesReportedAssignment) {
  Rng rng(7);
  for (int trial = 0; trial < 30; ++trial) {
    DivisionProblem problem;
    problem.num_pipelines = static_cast<int>(rng.UniformInt(1, 3));
    problem.num_fast_groups = static_cast<int>(rng.UniformInt(
        problem.num_pipelines, problem.num_pipelines + 4));
    problem.fast_rate = rng.Uniform(0.2, 1.0);
    const int ms = static_cast<int>(rng.UniformInt(0, 4));
    for (int k = 0; k < ms; ++k) {
      problem.slow_rates.push_back(rng.Uniform(1.0, 6.0));
    }
    problem.total_microbatches = rng.UniformInt(
        problem.num_pipelines, 40);
    Result<DivisionResult> sol = SolveDivision(problem);
    ASSERT_TRUE(sol.ok()) << sol.status() << " trial " << trial;
    double max_load = 0.0;
    for (const auto& p : sol->pipelines) {
      max_load = std::max(max_load, p.microbatches / p.capacity);
    }
    EXPECT_NEAR(sol->objective, max_load, 1e-9) << "trial " << trial;
  }
}

// ---------- Branch-and-bound node accounting ----------

// A knapsack that forces branching: LP relaxation is fractional, so the
// search must expand children before finding the integral optimum.
IntegerProgram BranchyKnapsack() {
  // max 5a + 4b + 3c  s.t. 2a + 3b + c <= 5, vars in {0,1}.
  IntegerProgram ip = IntegerProgram::Create(3);
  ip.lp.objective = {-5.0, -4.0, -3.0};
  ip.lp.AddLessEqual({2.0, 3.0, 1.0}, 5.0);
  ip.lp.upper_bounds = {1.0, 1.0, 1.0};
  return ip;
}

TEST(IlpTest, NodeLimitReturnsResourceExhausted) {
  IlpOptions opts;
  opts.max_nodes = 1;
  Result<IlpSolution> sol = SolveIlp(BranchyKnapsack(), opts);
  ASSERT_FALSE(sol.ok());
  EXPECT_TRUE(sol.status().IsResourceExhausted()) << sol.status();
}

TEST(IlpTest, NodeCountIsExactAndDeterministic) {
  Result<IlpSolution> first = SolveIlp(BranchyKnapsack());
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_NEAR(first->objective, -9.0, 1e-8);  // a=b=1, c=0.
  EXPECT_GT(first->nodes_explored, 1);  // Relaxation alone is fractional.

  // Re-solving explores the identical tree (best-first order is total:
  // bound, then node creation id), so the node count is reproducible.
  Result<IlpSolution> second = SolveIlp(BranchyKnapsack());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->nodes_explored, second->nodes_explored);

  // A budget exactly at the observed count succeeds; one less fails —
  // i.e. nodes are counted exactly, not approximately.
  IlpOptions at;
  at.max_nodes = first->nodes_explored;
  EXPECT_TRUE(SolveIlp(BranchyKnapsack(), at).ok());
  IlpOptions under;
  under.max_nodes = first->nodes_explored - 1;
  Result<IlpSolution> capped = SolveIlp(BranchyKnapsack(), under);
  ASSERT_FALSE(capped.ok());
  EXPECT_TRUE(capped.status().IsResourceExhausted());
}

// ---------- CacheKey / cache files ----------

TEST(CacheKeyTest, EqualInputsEncodeEqually) {
  CacheKey a, b;
  a.Tag('O').Doubles({1.0, 2.0}).Ints({4, 8}).Int(3).Bool(true);
  b.Tag('O').Doubles({1.0, 2.0}).Ints({4, 8}).Int(3).Bool(true);
  EXPECT_EQ(a.str(), b.str());
}

TEST(CacheKeyTest, VectorBoundariesDoNotCollide) {
  // ([1,2],[3]) vs ([1],[2,3]): same flattened values, different shape.
  CacheKey a, b;
  a.Doubles({1.0, 2.0}).Doubles({3.0});
  b.Doubles({1.0}).Doubles({2.0, 3.0});
  EXPECT_NE(a.str(), b.str());
}

TEST(CacheKeyTest, FieldTypesDoNotCollide) {
  CacheKey as_int, as_bool, as_double;
  as_int.Int(1);
  as_bool.Bool(true);
  as_double.Doubles({1.0});
  EXPECT_NE(as_int.str(), as_bool.str());
  EXPECT_NE(as_int.str(), as_double.str());
  EXPECT_NE(as_bool.str(), as_double.str());

  CacheKey tag_a, tag_b;
  tag_a.Tag('O').Int(7);
  tag_b.Tag('L').Int(7);
  EXPECT_NE(tag_a.str(), tag_b.str());
}

TEST(CacheKeyTest, DoubleKeysUseBitPatterns) {
  CacheKey pos, neg;
  pos.Doubles({0.0});
  neg.Doubles({-0.0});
  EXPECT_NE(pos.str(), neg.str());  // Conservative: distinct representations.
}

TEST(CacheIoTest, FileRoundTripPreservesSections) {
  std::vector<CacheFileSection> sections(2);
  sections[0].fingerprint = 0x1111;
  sections[0].label = "alpha";
  sections[0].blob = "payload-a";
  sections[1].fingerprint = 0x2222;
  sections[1].label = "beta";
  sections[1].blob = std::string("\x00\x01\x02", 3);  // Binary-safe.
  const std::string bytes = EncodeCacheFile(sections);

  Result<std::vector<CacheFileSection>> decoded = DecodeCacheFile(bytes);
  MALLEUS_CHECK_OK(decoded.status());
  ASSERT_EQ(decoded->size(), 2u);
  EXPECT_EQ((*decoded)[0].fingerprint, 0x1111u);
  EXPECT_EQ((*decoded)[0].label, "alpha");
  EXPECT_EQ((*decoded)[1].blob, sections[1].blob);
}

TEST(CacheIoTest, TruncationAndBitFlipsRejected) {
  std::vector<CacheFileSection> sections(1);
  sections[0].fingerprint = 0xabcd;
  sections[0].label = "x";
  sections[0].blob = "0123456789";
  const std::string bytes = EncodeCacheFile(sections);

  // Any truncation point fails: either a bounds check or the hash.
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    Result<std::vector<CacheFileSection>> r =
        DecodeCacheFile(bytes.substr(0, cut));
    EXPECT_FALSE(r.ok()) << "cut at " << cut;
  }
  // Any single bit flip past the version field trips the footer hash.
  for (size_t i = 12; i < bytes.size(); ++i) {
    std::string flipped = bytes;
    flipped[i] = static_cast<char>(flipped[i] ^ 0x01);
    Result<std::vector<CacheFileSection>> r = DecodeCacheFile(flipped);
    EXPECT_FALSE(r.ok()) << "flip at " << i;
  }
}

TEST(CacheIoTest, VersionBumpRejectedWithFailedPrecondition) {
  std::vector<CacheFileSection> sections(1);
  sections[0].fingerprint = 1;
  sections[0].label = "v";
  sections[0].blob = "b";
  std::string bytes = EncodeCacheFile(sections);
  // The u32 version sits right after the 8-byte magic (little-endian).
  ASSERT_EQ(static_cast<unsigned char>(bytes[8]), kCacheFileVersion);
  bytes[8] = static_cast<char>(kCacheFileVersion + 1);
  Result<std::vector<CacheFileSection>> r = DecodeCacheFile(bytes);
  ASSERT_FALSE(r.ok());
  // Version mismatch is reported as such, checked BEFORE the hash, so a
  // future format upgrade fails with a version message, not "corrupt".
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

TEST(CacheIoTest, MergeCacheSectionReplacesItsFingerprintOnly) {
  std::vector<CacheFileSection> sections(2);
  sections[0] = {3, "three", "c"};
  sections[1] = {1, "one", "a"};
  sections = MergeCacheSection(sections, {1, "one again", "a2"});
  ASSERT_EQ(sections.size(), 2u);
  EXPECT_EQ(sections[0].fingerprint, 1u);
  EXPECT_EQ(sections[0].blob, "a2");  // Replaced.
  EXPECT_EQ(sections[1].blob, "c");   // Kept.
  sections = MergeCacheSection(sections, {2, "two", "b"});
  ASSERT_EQ(sections.size(), 3u);
  EXPECT_EQ(sections[1].fingerprint, 2u);  // Ordered by fingerprint.
  EXPECT_EQ(sections[2].fingerprint, 3u);
}

TEST(CacheIoTest, MissingFileIsNotFound) {
  Result<std::vector<CacheFileSection>> r =
      ReadCacheFile("/nonexistent/malleus-cache-io-test");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace solver
}  // namespace malleus
