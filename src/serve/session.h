// Serving sessions: one registered cluster (scenario) with its own
// CostModel, Planner and solve cache, plus the registry that keys sessions
// by name and by cluster signature.
//
// Two registrations whose (cluster, cost-model) fingerprints match share
// one Session — and therefore one solver cache — under both names; the
// fingerprint is core::PlannerCacheFingerprint, the same key the cache
// persistence format uses, so a warm-load section matches exactly the
// sessions it is valid for. Sessions are handed out as shared_ptr and are
// internally synchronized: many in-flight requests may plan against one
// session concurrently (the planner is const and the solve cache is
// thread-safe; only the "last plan" slot needs the session mutex).

#ifndef MALLEUS_SERVE_SESSION_H_
#define MALLEUS_SERVE_SESSION_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/planner.h"
#include "model/cost_model.h"
#include "plan/plan.h"
#include "scenario/scenario.h"
#include "solver/cache_io.h"

namespace malleus {
namespace serve {

/// \brief One registered cluster and its planning state.
class Session {
 public:
  /// Builds the session from a resolved scenario. `resolved` must come
  /// from ResolveScenario(spec).
  Session(std::string name, scenario::ScenarioSpec spec,
          scenario::ResolvedScenario resolved);

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// The name this session was first registered under.
  const std::string& name() const { return name_; }
  const scenario::ScenarioSpec& spec() const { return spec_; }
  const scenario::ResolvedScenario& resolved() const { return resolved_; }
  const topo::ClusterSpec& cluster() const { return resolved_.cluster; }
  const model::CostModel& cost() const { return cost_; }
  const core::Planner& planner() const { return planner_; }
  uint64_t fingerprint() const { return fingerprint_; }

  /// The plan most recently produced by `plan`/`replan` for this session
  /// (re-plans pin its DP degree, per the paper's footnote 2), with its
  /// Signature(). Readers share the immutable snapshot; a set replaces it.
  struct LastPlan {
    plan::ParallelPlan plan;
    std::string signature;
  };
  /// nullptr until the first plan.
  std::shared_ptr<const LastPlan> last_plan() const;
  void set_last_plan(plan::ParallelPlan plan, std::string signature);

  /// Plans served (plan + replan) against this session, for `status`.
  int64_t plans_served() const;
  void IncrementPlansServed();

 private:
  const std::string name_;
  const scenario::ScenarioSpec spec_;
  const scenario::ResolvedScenario resolved_;
  const model::CostModel cost_;       // Owns spec/gpu copies.
  const core::Planner planner_;       // References resolved_.cluster, cost_.
  const uint64_t fingerprint_;

  mutable std::mutex mu_;
  std::shared_ptr<const LastPlan> last_plan_;
  int64_t plans_served_ = 0;
};

/// \brief Name- and fingerprint-keyed session registry with warm-load
/// support.
///
/// Thread-safe. Pending cache sections (from a --cache-load file) are held
/// until a session with a matching fingerprint registers; unmatched
/// sections ride through SnapshotSections() so a save never drops cache
/// state the server merely hasn't re-registered yet.
class SessionRegistry {
 public:
  struct RegisterOutcome {
    std::shared_ptr<Session> session;
    /// True when the name was attached to a pre-existing session (same
    /// fingerprint registered before, possibly under another name).
    bool shared = false;
    /// True when the session's solve cache was warm-loaded from a pending
    /// cache section.
    bool warm = false;
    /// Solve-cache entries loaded when `warm`.
    int64_t warm_entries = 0;
  };

  /// Registers `name` for the scenario. Re-registering an existing name
  /// with an equal fingerprint is idempotent; with a different fingerprint
  /// it is AlreadyExists.
  Result<RegisterOutcome> Register(const std::string& name,
                                   scenario::ScenarioSpec spec);

  /// The session registered under `name`, or NotFound.
  Result<std::shared_ptr<Session>> Find(const std::string& name) const;

  /// Sessions in name order (aliases appear once per name).
  std::vector<std::pair<std::string, std::shared_ptr<Session>>> List() const;

  /// Parks cache-file sections for future registrations.
  void AddPendingSections(std::vector<solver::CacheFileSection> sections);

  /// Every live session's cache serialized as a section (label = first
  /// name, fingerprint = session fingerprint) plus all still-unmatched
  /// pending sections, in fingerprint order.
  std::vector<solver::CacheFileSection> SnapshotSections() const;

  int64_t num_pending_sections() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<Session>> by_name_;
  std::map<uint64_t, std::shared_ptr<Session>> by_fingerprint_;
  std::map<uint64_t, solver::CacheFileSection> pending_;
};

}  // namespace serve
}  // namespace malleus

#endif  // MALLEUS_SERVE_SESSION_H_
