#include "serve/session.h"

#include <utility>

#include "common/logging.h"
#include "common/string_util.h"
#include "core/planner_cache.h"

namespace malleus {
namespace serve {

Session::Session(std::string name, scenario::ScenarioSpec spec,
                 scenario::ResolvedScenario resolved)
    : name_(std::move(name)),
      spec_(std::move(spec)),
      resolved_(std::move(resolved)),
      cost_(resolved_.spec, resolved_.cluster.gpu()),
      planner_(resolved_.cluster, cost_),
      fingerprint_(core::PlannerCacheFingerprint(resolved_.cluster, cost_)) {}

std::shared_ptr<const Session::LastPlan> Session::last_plan() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_plan_;
}

void Session::set_last_plan(plan::ParallelPlan plan, std::string signature) {
  auto next = std::make_shared<const LastPlan>(
      LastPlan{std::move(plan), std::move(signature)});
  std::lock_guard<std::mutex> lock(mu_);
  last_plan_.swap(next);  // The old snapshot is released after the lock.
}

int64_t Session::plans_served() const {
  std::lock_guard<std::mutex> lock(mu_);
  return plans_served_;
}

void Session::IncrementPlansServed() {
  std::lock_guard<std::mutex> lock(mu_);
  ++plans_served_;
}

Result<SessionRegistry::RegisterOutcome> SessionRegistry::Register(
    const std::string& name, scenario::ScenarioSpec spec) {
  if (name.empty()) {
    return Status::InvalidArgument("cluster name must not be empty");
  }
  // Resolve outside the lock: it validates against the library types and
  // can fail without touching registry state.
  MALLEUS_ASSIGN_OR_RETURN(scenario::ResolvedScenario resolved,
                           scenario::ResolveScenario(spec));
  // Build a candidate session up-front so the fingerprint is available for
  // the aliasing decision; discarded when an equal fingerprint exists.
  auto candidate = std::make_shared<Session>(name, std::move(spec),
                                             std::move(resolved));

  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t fingerprint = candidate->fingerprint();
  auto named = by_name_.find(name);
  if (named != by_name_.end()) {
    if (named->second->fingerprint() != fingerprint) {
      return Status::AlreadyExists(StrFormat(
          "cluster '%s' already registered with a different signature",
          name.c_str()));
    }
    RegisterOutcome outcome;
    outcome.session = named->second;
    outcome.shared = true;
    return outcome;
  }

  RegisterOutcome outcome;
  auto existing = by_fingerprint_.find(fingerprint);
  if (existing != by_fingerprint_.end()) {
    outcome.session = existing->second;
    outcome.shared = true;
  } else {
    outcome.session = candidate;
    by_fingerprint_[fingerprint] = candidate;
    // Warm the fresh session from a parked cache section, if one matches.
    auto pending = pending_.find(fingerprint);
    if (pending != pending_.end()) {
      const Status loaded =
          candidate->planner().solve_cache().Load(pending->second.blob);
      if (loaded.ok()) {
        outcome.warm = true;
        outcome.warm_entries =
            static_cast<int64_t>(candidate->planner().solve_cache().size());
      } else {
        // Corrupt section: cold start is the contract; the section is
        // dropped so the next save replaces it with healthy bytes.
        MALLEUS_LOG(Warning)
            << "discarding cache section for cluster '" << name
            << "': " << loaded.ToString();
      }
      pending_.erase(pending);
    }
  }
  by_name_[name] = outcome.session;
  return outcome;
}

Result<std::shared_ptr<Session>> SessionRegistry::Find(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    return Status::NotFound(
        StrFormat("cluster '%s' is not registered", name.c_str()));
  }
  return it->second;
}

std::vector<std::pair<std::string, std::shared_ptr<Session>>>
SessionRegistry::List() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, std::shared_ptr<Session>>> out;
  out.reserve(by_name_.size());
  for (const auto& [name, session] : by_name_) {
    out.emplace_back(name, session);
  }
  return out;
}

void SessionRegistry::AddPendingSections(
    std::vector<solver::CacheFileSection> sections) {
  std::lock_guard<std::mutex> lock(mu_);
  for (solver::CacheFileSection& section : sections) {
    pending_[section.fingerprint] = std::move(section);
  }
}

std::vector<solver::CacheFileSection> SessionRegistry::SnapshotSections()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  // Parked sections are carried forward; a live session replaces its own.
  std::vector<solver::CacheFileSection> sections;
  for (const auto& [fingerprint, section] : pending_) {
    sections.push_back(section);
  }
  for (const auto& [fingerprint, session] : by_fingerprint_) {
    sections = solver::MergeCacheSection(
        std::move(sections),
        {fingerprint, session->name(),
         session->planner().solve_cache().Serialize()});
  }
  return sections;
}

int64_t SessionRegistry::num_pending_sections() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(pending_.size());
}

}  // namespace serve
}  // namespace malleus
