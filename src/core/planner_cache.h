// The planner's memo of solved subproblems, and its persisted form.
//
// The planner re-solves structurally identical subproblems dozens of times
// per Plan() call (the same stage composition appears in many pipelines and
// bundle permutations) and re-solves the exact same problems on every
// re-planning event when the straggler situation has not changed.
// PlannerCache keeps those results under solver::CacheKey byte strings
// (see solver/cache_key.h for the keying contract), one typed map per
// entry kind, named by the key's tag:
//
//   'L'  CachedLayers          one Eq. (2) layer solve (orchestration.cc)
//   'O'  CachedOrchestration   one whole-Orchestrate outcome (same file)
//   'H'  Result<PlanResult>    one island sweep (hier.cc)
//
// Every kind shares one mutex, one hit/miss count and one entry bound.
//
// A cache is only meaningful for one cost model, which the keys leave out
// (core::Planner keeps one cache per instance). Serialize()/Load() persist
// the 'L' and 'O' entries so a daemon or CLI can warm-load a planner across
// process restarts (solver/cache_io.h is the file format); 'H' entries are
// never written. Persisted caches carry PlannerCacheFingerprint — a hash of
// the cluster and model-spec descriptions — and loaders match it before
// calling Load().
//
// Thread-safety: every operation takes the one internal mutex. Two threads
// racing on the same missing key both solve and both insert; the solvers
// are deterministic, so both compute identical values and the cache
// contents are well-defined regardless of interleaving (only the hit/miss
// statistics can vary run to run).

#ifndef MALLEUS_CORE_PLANNER_CACHE_H_
#define MALLEUS_CORE_PLANNER_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/result.h"
#include "core/orchestration.h"
#include "core/work_assignment.h"
#include "model/cost_model.h"
#include "topology/cluster.h"

namespace malleus {
namespace core {

struct PlanResult;  // core/planner.h

/// Cache value of one Eq. (2) layer solve (tag 'L'). Stores the full
/// Result: infeasible subproblems recur across the b x dp sweep just like
/// feasible ones, and replaying the original Status keeps cached and
/// uncached runs byte-identical.
struct CachedLayers {
  Status status;
  LayerAssignment assignment;
};

/// Cache value of one whole-Orchestrate outcome (tag 'O').
struct CachedOrchestration {
  Status status;
  OrchestrationResult result;
};

/// \brief Thread-safe key -> solved-result store, one map per entry kind.
class PlannerCache {
 public:
  struct Stats {
    int64_t hits = 0;
    int64_t misses = 0;
  };

  /// `max_entries` bounds memory over every kind: when an insert would
  /// exceed it, the whole cache is dropped (simple and good enough for
  /// sweep workloads whose working set is far below the bound).
  explicit PlannerCache(size_t max_entries = 1 << 20)
      : max_entries_(max_entries) {}

  PlannerCache(const PlannerCache&) = delete;
  PlannerCache& operator=(const PlannerCache&) = delete;

  /// The entry stored under `key`, or nullptr. Each counts a hit or miss.
  std::shared_ptr<const CachedLayers> FindLayers(const std::string& key) {
    return Find(layers_, key);
  }
  std::shared_ptr<const CachedOrchestration> FindOrchestration(
      const std::string& key) {
    return Find(orchestrations_, key);
  }
  /// Island lookups and inserts are defined in planner_cache.cc, where
  /// PlanResult is complete.
  std::shared_ptr<const Result<PlanResult>> FindIsland(
      const std::string& key);

  /// Stores `value` under `key`. An existing entry is kept (first insert
  /// wins on a race; both racers computed the same value).
  void Insert(const std::string& key,
              std::shared_ptr<const CachedLayers> value) {
    Put(&layers_, key, std::move(value));
  }
  void Insert(const std::string& key,
              std::shared_ptr<const CachedOrchestration> value) {
    Put(&orchestrations_, key, std::move(value));
  }
  void Insert(const std::string& key,
              std::shared_ptr<const Result<PlanResult>> value);

  Stats stats() const;
  /// Entries of every kind.
  size_t size() const;

  /// The 'L' and 'O' entries, sorted by key, so caches with equal contents
  /// serialize byte-identically regardless of insertion order.
  std::string Serialize() const;

  /// Inserts the entries of a Serialize() blob (existing entries under the
  /// same keys are kept, as with Insert). The blob is validated in full
  /// before anything is inserted, so a malformed blob returns
  /// InvalidArgument and leaves the cache untouched. Entries of other tags
  /// are skipped; an untagged key, an undecodable value or trailing bytes
  /// fail the whole load (the blob is corrupt, not merely newer).
  Status Load(const std::string& blob);

 private:
  template <typename T>
  using Map = std::unordered_map<std::string, std::shared_ptr<const T>>;

  template <typename T>
  std::shared_ptr<const T> Find(const Map<T>& map, const std::string& key) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map.find(key);
    if (it == map.end()) {
      ++misses_;
      return nullptr;
    }
    ++hits_;
    return it->second;
  }

  template <typename T>
  void Put(Map<T>* map, const std::string& key,
           std::shared_ptr<const T> value) {
    std::lock_guard<std::mutex> lock(mu_);
    if (SizeLocked() >= max_entries_ && map->count(key) == 0) {
      layers_.clear();
      orchestrations_.clear();
      islands_.clear();
    }
    map->emplace(key, std::move(value));
  }

  size_t SizeLocked() const {
    return layers_.size() + orchestrations_.size() + islands_.size();
  }

  const size_t max_entries_;
  mutable std::mutex mu_;
  Map<CachedLayers> layers_;
  Map<CachedOrchestration> orchestrations_;
  Map<Result<PlanResult>> islands_;
  int64_t hits_ = 0;
  int64_t misses_ = 0;
};

/// Hash binding a cache to the planner context that filled it: the cluster
/// and cost-model descriptions. Matching fingerprints mean a persisted
/// cache can be loaded safely; anything else must cold-start.
uint64_t PlannerCacheFingerprint(const topo::ClusterSpec& cluster,
                                 const model::CostModel& cost);

}  // namespace core
}  // namespace malleus

#endif  // MALLEUS_CORE_PLANNER_CACHE_H_
