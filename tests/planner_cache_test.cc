// Tests for core::PlannerCache: typed lookups sharing one hit/miss count
// and one entry bound, and the persisted form (Serialize/Load) over real
// 'L' layer solves, 'O' orchestration outcomes and a planner-filled cache.
// Load parses bytes from disk, so every malformed-blob path is covered.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>

#include "core/planner.h"
#include "core/planner_cache.h"
#include "model/cost_model.h"
#include "solver/cache_key.h"
#include "straggler/situation.h"
#include "topology/cluster.h"

namespace malleus {
namespace core {
namespace {

std::string LayersKey(int i) {
  return solver::CacheKey().Tag('L').Int(i).str();
}
std::string OrchestrationKey(int i) {
  return solver::CacheKey().Tag('O').Int(i).str();
}

std::shared_ptr<const CachedLayers> Layers(std::vector<int> layers,
                                           double bottleneck) {
  auto entry = std::make_shared<CachedLayers>();
  entry->assignment.layers = std::move(layers);
  entry->assignment.bottleneck = bottleneck;
  return entry;
}

std::shared_ptr<const CachedOrchestration> Orchestration(int pipelines) {
  auto entry = std::make_shared<CachedOrchestration>();
  for (int i = 0; i < pipelines; ++i) {
    OrchestratedPipeline p;
    p.group_indices = {2 * i, 2 * i + 1};
    p.layers = {10 + i, 6};
    p.bottleneck = 1.5 * (i + 1);
    entry->result.pipelines.push_back(std::move(p));
  }
  entry->result.removed_groups = {7};
  entry->result.division_exact = false;
  entry->result.division_nodes = 1234;
  return entry;
}

std::shared_ptr<const CachedOrchestration> InfeasibleOrchestration() {
  auto entry = std::make_shared<CachedOrchestration>();
  entry->status = Status::Infeasible("no division fits");
  return entry;
}

TEST(PlannerCacheTest, TypedRoundTripAndStats) {
  PlannerCache cache;
  EXPECT_EQ(cache.FindLayers(LayersKey(1)), nullptr);
  cache.Insert(LayersKey(1), Layers({3, 5}, 2.5));
  std::shared_ptr<const CachedLayers> hit = cache.FindLayers(LayersKey(1));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->assignment.layers, (std::vector<int>{3, 5}));
  EXPECT_EQ(hit->assignment.bottleneck, 2.5);

  // Every kind counts in the one Stats and in size().
  EXPECT_EQ(cache.FindOrchestration(OrchestrationKey(1)), nullptr);
  cache.Insert(OrchestrationKey(1), Orchestration(2));
  EXPECT_NE(cache.FindOrchestration(OrchestrationKey(1)), nullptr);
  const std::string island = solver::CacheKey().Tag('H').Int(1).str();
  EXPECT_EQ(cache.FindIsland(island), nullptr);
  cache.Insert(island, std::make_shared<const Result<PlanResult>>(
                           Status::Infeasible("island too small")));
  std::shared_ptr<const Result<PlanResult>> island_hit =
      cache.FindIsland(island);
  ASSERT_NE(island_hit, nullptr);
  EXPECT_FALSE(island_hit->ok());

  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.stats().misses, 3);
  EXPECT_EQ(cache.stats().hits, 3);
}

TEST(PlannerCacheTest, FirstInsertWinsOnDuplicateKey) {
  PlannerCache cache;
  cache.Insert(LayersKey(1), Layers({10}, 1.0));
  cache.Insert(LayersKey(1), Layers({20}, 2.0));  // Racing duplicate.
  std::shared_ptr<const CachedLayers> hit = cache.FindLayers(LayersKey(1));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->assignment.layers, (std::vector<int>{10}));
  EXPECT_EQ(cache.size(), 1u);
}

TEST(PlannerCacheTest, CapacityBoundDropsCache) {
  PlannerCache cache(/*max_entries=*/2);
  cache.Insert(LayersKey(1), Layers({1}, 1.0));
  cache.Insert(OrchestrationKey(2), Orchestration(1));
  EXPECT_EQ(cache.size(), 2u);
  cache.Insert(LayersKey(3), Layers({3}, 3.0));
  // The bound spans every kind: the overflowing insert dropped the old
  // entries of both kinds and kept the new one.
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.FindOrchestration(OrchestrationKey(2)), nullptr);
  EXPECT_NE(cache.FindLayers(LayersKey(3)), nullptr);
}

TEST(PlannerCacheLoadTest, RoundTripRestoresEntries) {
  PlannerCache cache;
  auto infeasible = std::make_shared<CachedLayers>();
  infeasible->status = Status::Infeasible("stage memory");
  cache.Insert(LayersKey(1), infeasible);
  cache.Insert(LayersKey(2), Layers({4, 4, 8}, 3.25));
  cache.Insert(OrchestrationKey(1), Orchestration(3));
  cache.Insert(OrchestrationKey(2), InfeasibleOrchestration());
  const std::string blob = cache.Serialize();

  PlannerCache restored;
  ASSERT_TRUE(restored.Load(blob).ok());
  EXPECT_EQ(restored.size(), 4u);
  EXPECT_EQ(restored.Serialize(), blob);

  std::shared_ptr<const CachedLayers> layers =
      restored.FindLayers(LayersKey(1));
  ASSERT_NE(layers, nullptr);
  EXPECT_EQ(layers->status.code(), StatusCode::kInfeasible);
  EXPECT_EQ(layers->status.message(), "stage memory");
  layers = restored.FindLayers(LayersKey(2));
  ASSERT_NE(layers, nullptr);
  EXPECT_EQ(layers->assignment.layers, (std::vector<int>{4, 4, 8}));
  EXPECT_EQ(layers->assignment.bottleneck, 3.25);

  std::shared_ptr<const CachedOrchestration> orch =
      restored.FindOrchestration(OrchestrationKey(1));
  ASSERT_NE(orch, nullptr);
  ASSERT_TRUE(orch->status.ok());
  ASSERT_EQ(orch->result.pipelines.size(), 3u);
  EXPECT_EQ(orch->result.pipelines[2].group_indices,
            (std::vector<int>{4, 5}));
  EXPECT_EQ(orch->result.pipelines[2].layers, (std::vector<int>{12, 6}));
  EXPECT_EQ(orch->result.pipelines[2].bottleneck, 4.5);
  EXPECT_EQ(orch->result.removed_groups, (std::vector<int>{7}));
  EXPECT_FALSE(orch->result.division_exact);
  EXPECT_EQ(orch->result.division_nodes, 1234);
  orch = restored.FindOrchestration(OrchestrationKey(2));
  ASSERT_NE(orch, nullptr);
  EXPECT_EQ(orch->status.code(), StatusCode::kInfeasible);
}

TEST(PlannerCacheLoadTest, WarmLoadedPlannerReplaysTheSamePlan) {
  const topo::ClusterSpec cluster = topo::ClusterSpec::A800Cluster(1);
  const model::CostModel cost(model::ModelSpec::Tiny(), topo::GpuSpec());
  straggler::Situation situation(cluster.num_gpus());
  situation.SetLevel(3, 2);
  PlannerOptions opts;
  opts.num_threads = 1;

  const Planner cold(cluster, cost);
  Result<PlanResult> first = cold.Plan(situation, 16, opts);
  ASSERT_TRUE(first.ok()) << first.status();
  const std::string blob = cold.solve_cache().Serialize();

  const Planner warm(cluster, cost);
  ASSERT_TRUE(warm.solve_cache().Load(blob).ok());
  EXPECT_EQ(warm.solve_cache().size(), cold.solve_cache().size());
  Result<PlanResult> replayed = warm.Plan(situation, 16, opts);
  ASSERT_TRUE(replayed.ok()) << replayed.status();
  EXPECT_EQ(replayed->plan.Signature(), first->plan.Signature());
  EXPECT_EQ(replayed->estimated_seconds, first->estimated_seconds);
  // Every orchestration the sweep needed was already there.
  EXPECT_EQ(warm.solve_cache().stats().misses, 0);
  EXPECT_GT(warm.solve_cache().stats().hits, 0);
  EXPECT_EQ(warm.solve_cache().Serialize(), blob);
}

TEST(PlannerCacheLoadTest, SerializeIsInsertionOrderIndependent) {
  PlannerCache forward, backward;
  for (int i = 0; i < 8; ++i) {
    forward.Insert(LayersKey(i), Layers({i}, i));
    forward.Insert(OrchestrationKey(i), Orchestration(i % 3));
    backward.Insert(OrchestrationKey(7 - i), Orchestration((7 - i) % 3));
    backward.Insert(LayersKey(7 - i), Layers({7 - i}, 7 - i));
  }
  EXPECT_EQ(forward.Serialize(), backward.Serialize());
}

TEST(PlannerCacheLoadTest, UnknownTagsAreSkippedNotFatal) {
  PlannerCache cache;
  cache.Insert(LayersKey(1), Layers({1}, 1.0));
  // Island answers ('H') are never written.
  cache.Insert(solver::CacheKey().Tag('H').Int(1).str(),
               std::make_shared<const Result<PlanResult>>(
                   Status::Infeasible("island")));
  std::string blob = cache.Serialize();
  PlannerCache one;
  ASSERT_TRUE(one.Load(blob).ok());
  EXPECT_EQ(one.size(), 1u);

  // A newer producer's 'Z' entry, appended by hand: skipped, not fatal.
  blob[0] = 2;  // Entry count (little-endian u64).
  solver::wire::PutString(&blob, solver::CacheKey().Tag('Z').Int(1).str());
  solver::wire::PutString(&blob, "opaque bytes");
  PlannerCache restored;
  ASSERT_TRUE(restored.Load(blob).ok());
  EXPECT_EQ(restored.size(), 1u);
  EXPECT_NE(restored.FindLayers(LayersKey(1)), nullptr);
}

TEST(PlannerCacheLoadTest, TruncatedBlobRejectedAndCacheUntouched) {
  PlannerCache cache;
  cache.Insert(LayersKey(1), Layers({1, 2}, 1.0));
  cache.Insert(OrchestrationKey(2), Orchestration(2));
  const std::string blob = cache.Serialize();

  for (size_t cut : {blob.size() - 1, blob.size() / 2, size_t{1}}) {
    PlannerCache restored;
    const Status status = restored.Load(blob.substr(0, cut));
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << "cut at " << cut;
    // All-or-nothing: a bad blob must not leave partial entries behind.
    EXPECT_EQ(restored.size(), 0u) << "cut at " << cut;
  }
}

TEST(PlannerCacheLoadTest, CorruptLengthPrefixRejected) {
  PlannerCache cache;
  cache.Insert(OrchestrationKey(1), Orchestration(1));
  std::string blob = cache.Serialize();
  // Layout: u64 count, u32 key size, key, u32 value size, value. Flip the
  // value size's most significant byte so it points past the end of the
  // blob; the bounds-checked reader must reject it.
  const size_t value_size_msb = 8 + 4 + OrchestrationKey(1).size() + 3;
  blob[value_size_msb] = static_cast<char>(blob[value_size_msb] ^ 0x7f);
  PlannerCache restored;
  const Status status = restored.Load(blob);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "cache blob truncated at entry 0 of 1");
  EXPECT_EQ(restored.size(), 0u);
}

TEST(PlannerCacheLoadTest, MalformedEntriesFailTheWholeLoad) {
  PlannerCache good;
  good.Insert(LayersKey(1), Layers({1}, 1.0));
  const std::string valid = good.Serialize();

  // Untagged key.
  std::string untagged;
  solver::wire::PutU64(&untagged, 2);
  untagged += valid.substr(8);
  solver::wire::PutString(&untagged, solver::CacheKey().Int(1).str());
  solver::wire::PutString(&untagged, "x");
  // A tagged value whose bytes do not decode.
  std::string undecodable;
  solver::wire::PutU64(&undecodable, 2);
  undecodable += valid.substr(8);
  solver::wire::PutString(&undecodable, OrchestrationKey(9));
  solver::wire::PutString(&undecodable, "not an orchestration");

  const std::pair<std::string, std::string> cases[] = {
      {untagged, "cache blob entry 1 has an untagged key"},
      {undecodable, "cache blob entry 1 ('O') failed to decode"},
      {valid + "!", "cache blob has trailing bytes"},
      {std::string(), "cache blob truncated: no entry count"},
  };
  for (const auto& [blob, message] : cases) {
    PlannerCache restored;
    const Status status = restored.Load(blob);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << message;
    EXPECT_EQ(status.message(), message);
    EXPECT_EQ(restored.size(), 0u) << message;
  }
}

TEST(PlannerCacheLoadTest, LoadKeepsExistingEntries) {
  PlannerCache saved;
  saved.Insert(LayersKey(1), Layers({20}, 2.0));
  saved.Insert(LayersKey(2), Layers({30}, 3.0));
  PlannerCache cache;
  cache.Insert(LayersKey(1), Layers({10}, 1.0));
  ASSERT_TRUE(cache.Load(saved.Serialize()).ok());
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.FindLayers(LayersKey(1))->assignment.layers,
            (std::vector<int>{10}));  // First insert wins.
  EXPECT_EQ(cache.FindLayers(LayersKey(2))->assignment.layers,
            (std::vector<int>{30}));
}

}  // namespace
}  // namespace core
}  // namespace malleus
