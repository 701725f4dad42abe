#include "core/grouping.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"

namespace malleus {
namespace core {

namespace {

/// A straggler qualifies for a splitting attempt when its rate exceeds this
/// threshold (non-stragglers never do).
constexpr double kSplitRateThreshold = 1.05;

// A node's GPUs sorted by straggling rate descending (Theorem 1 order).
struct NodeState {
  std::vector<topo::GpuId> gpus;   // Sorted by rate descending.
  std::vector<double> rates;       // Parallel to gpus.
  std::vector<int> sizes;          // Current contiguous block sizes.
};

// Capacity (sum 1/y) of placing `sizes` as contiguous blocks over the
// sorted rates; the block's first element carries its maximum rate.
double ArrangementCapacity(const model::CostModel& cost,
                           const std::vector<double>& rates,
                           const std::vector<int>& sizes) {
  double capacity = 0.0;
  size_t pos = 0;
  for (int size : sizes) {
    const double y = cost.Rho(size) * rates[pos];
    capacity += 1.0 / y;
    pos += size;
  }
  MALLEUS_CHECK_EQ(pos, rates.size());
  return capacity;
}

// Memo of BestArrangement results for one node's (fixed) rate vector,
// keyed by the sorted size multiset. The splitting loop proposes the same
// multiset repeatedly (isolating different stragglers often produces
// identical block compositions), so grouping pays for each one only once.
using ArrangementCache = std::map<std::vector<int>, std::pair<std::vector<int>, double>>;

// DFS state of the arrangement search below.
struct ArrangementSearch {
  const model::CostModel& cost;
  const std::vector<double>& rates;
  std::vector<int> distinct;    // Distinct block sizes, ascending.
  std::vector<int> remaining;   // Count left of each distinct size.
  std::vector<double> inv_rho;  // 1 / rho(size), parallel to distinct.
  double min_rate = 1.0;        // Smallest (last) rate of the node.
  std::vector<int> prefix;      // Current partial arrangement.
  std::vector<int> best;
  double best_cap = -1.0;
};

// Extends `prefix` (capacity so far `cap`, next block starts at `pos`) by
// every remaining size in ascending order — lexicographic enumeration,
// matching the std::next_permutation sweep this replaces, so the first
// strict maximum found is the same arrangement the full sweep would pick.
// Branches are pruned when even placing every remaining block on the
// node's cheapest rate cannot strictly beat the incumbent.
void ExtendArrangement(ArrangementSearch& s, size_t pos, double cap) {
  if (pos == s.rates.size()) {
    if (cap > s.best_cap) {
      s.best_cap = cap;
      s.best = s.prefix;
    }
    return;
  }
  // Upper bound on the remaining capacity: every leftover block placed at
  // the node's minimum rate (rates are sorted descending, so no position
  // can price a block cheaper than rates.back()).
  double bound = 0.0;
  for (size_t d = 0; d < s.distinct.size(); ++d) {
    bound += s.remaining[d] * s.inv_rho[d] / s.min_rate;
  }
  if (cap + bound <= s.best_cap) return;  // Cannot strictly improve.
  for (size_t d = 0; d < s.distinct.size(); ++d) {
    if (s.remaining[d] == 0) continue;
    const int size = s.distinct[d];
    --s.remaining[d];
    s.prefix.push_back(size);
    ExtendArrangement(s, pos + size,
                      cap + s.inv_rho[d] / s.rates[pos]);
    s.prefix.pop_back();
    ++s.remaining[d];
  }
}

// Best contiguous arrangement of the multiset `sizes`: searches the unique
// permutations (Proposition 4 reduces the search to these) in lexicographic
// order with branch-and-bound pruning, and returns the capacity-maximizing
// order. Results are memoized per size multiset in `cache` (pass nullptr
// to skip memoization); the cache is only valid for one `rates` vector.
std::pair<std::vector<int>, double> BestArrangement(
    const model::CostModel& cost, const std::vector<double>& rates,
    std::vector<int> sizes, ArrangementCache* cache = nullptr) {
  std::sort(sizes.begin(), sizes.end());
  if (cache != nullptr) {
    auto it = cache->find(sizes);
    if (it != cache->end()) return it->second;
  }
  ArrangementSearch s{cost, rates, {}, {}, {}, 1.0, {}, {}, -1.0};
  for (int size : sizes) {
    if (s.distinct.empty() || s.distinct.back() != size) {
      s.distinct.push_back(size);
      s.remaining.push_back(1);
      s.inv_rho.push_back(1.0 / cost.Rho(size));
    } else {
      ++s.remaining.back();
    }
  }
  s.min_rate = rates.back();
  s.prefix.reserve(sizes.size());
  ExtendArrangement(s, 0, 0.0);
  MALLEUS_CHECK_GE(s.best_cap, 0.0);
  auto result = std::make_pair(std::move(s.best), s.best_cap);
  if (cache != nullptr) (*cache)[sizes] = result;
  return result;
}

}  // namespace

std::vector<int> PowerOfTwoComposition(int n, int max_size) {
  MALLEUS_CHECK_GE(n, 0);
  MALLEUS_CHECK(model::IsValidTpDegree(max_size));
  std::vector<int> sizes;
  int remaining = n;
  int size = max_size;
  while (remaining > 0) {
    while (size > remaining) size /= 2;
    sizes.push_back(size);
    remaining -= size;
  }
  return sizes;
}

double GroupingResult::Capacity() const {
  double capacity = 0.0;
  for (double y : rates) capacity += 1.0 / y;
  return capacity;
}

Result<GroupingResult> GroupGpus(const topo::ClusterSpec& cluster,
                                 const model::CostModel& cost,
                                 const straggler::Situation& situation,
                                 const GroupingOptions& options) {
  if (!model::IsValidTpDegree(options.max_tp_degree)) {
    return Status::InvalidArgument(
        StrFormat("invalid max TP degree %d", options.max_tp_degree));
  }
  if (options.max_tp_degree > cluster.gpus_per_node()) {
    return Status::InvalidArgument("TP degree exceeds node size");
  }
  if (situation.num_gpus() != cluster.num_gpus()) {
    return Status::InvalidArgument("situation does not match cluster");
  }
  const int k = options.max_tp_degree;

  GroupingResult result;
  for (topo::NodeId node = 0; node < cluster.num_nodes(); ++node) {
    NodeState st;
    for (topo::GpuId g : cluster.GpusOnNode(node)) {
      if (situation.IsFailed(g)) {
        result.excluded.push_back(g);
      } else {
        st.gpus.push_back(g);
      }
    }
    if (st.gpus.empty()) continue;

    // Theorem 1: descending-rate order; ties broken by id for determinism.
    std::sort(st.gpus.begin(), st.gpus.end(),
              [&](topo::GpuId a, topo::GpuId b) {
                const double ra = situation.rate(a), rb = situation.rate(b);
                if (ra != rb) return ra > rb;
                return a < b;
              });
    st.rates.reserve(st.gpus.size());
    for (topo::GpuId g : st.gpus) st.rates.push_back(situation.rate(g));

    // Initial partition: blocks of k if the live count divides, otherwise
    // the best placement of the power-of-two composition (needed after
    // failures leave a ragged count).
    const int live = static_cast<int>(st.gpus.size());
    ArrangementCache arrangement_cache;
    std::vector<int> sizes;
    if (live % k == 0) {
      sizes.assign(live / k, k);
    } else {
      sizes = PowerOfTwoComposition(live, k);
      sizes =
          BestArrangement(cost, st.rates, sizes, &arrangement_cache).first;
    }
    double capacity = ArrangementCapacity(cost, st.rates, sizes);

    // Group splitting: consider isolating stragglers, heaviest first.
    if (options.enable_splitting && k > 1) {
      for (int idx = 0; idx < live; ++idx) {
        if (st.rates[idx] <= kSplitRateThreshold) break;
        // Find the block currently containing position idx.
        int block = 0, pos = 0;
        while (pos + sizes[block] <= idx) {
          pos += sizes[block];
          ++block;
        }
        if (sizes[block] == 1) continue;  // Already isolated.
        // New multiset: replace the block by {1} + composition(size - 1).
        std::vector<int> candidate_sizes;
        for (int b2 = 0; b2 < static_cast<int>(sizes.size()); ++b2) {
          if (b2 == block) continue;
          candidate_sizes.push_back(sizes[b2]);
        }
        candidate_sizes.push_back(1);
        const std::vector<int> rest =
            PowerOfTwoComposition(sizes[block] - 1, k);
        candidate_sizes.insert(candidate_sizes.end(), rest.begin(),
                               rest.end());
        auto [arranged, cap] = BestArrangement(cost, st.rates,
                                               candidate_sizes,
                                               &arrangement_cache);
        // Theorem 2: adopt the split only if it strictly improves the
        // estimated capacity (i.e. lowers the relaxed optimal time).
        if (cap > capacity * (1.0 + 1e-12)) {
          sizes = arranged;
          capacity = cap;
        }
      }
    }

    // Materialize the blocks as TP groups.
    size_t pos = 0;
    for (int size : sizes) {
      plan::TpGroup group;
      std::vector<double> xs;
      for (int i = 0; i < size; ++i) {
        group.gpus.push_back(st.gpus[pos + i]);
        xs.push_back(st.rates[pos + i]);
      }
      pos += size;
      result.rates.push_back(cost.GroupRate(xs));
      result.groups.push_back(std::move(group));
    }
  }

  if (result.groups.empty()) {
    return Status::Unavailable("no live GPUs to group");
  }
  return result;
}

}  // namespace core
}  // namespace malleus
