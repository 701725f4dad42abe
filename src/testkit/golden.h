// Golden-trace snapshots: a deterministic text rendering of what the
// planner decides — and what the closed forms and simulator predict — for
// a shipped example scenario, suitable for checking into tests/golden/.
//
// A snapshot covers every situation the scenario implies (the custom
// straggler overlay, or each distinct trace phase in order) with one
// core::PlanResultSnapshot block each. Scenarios with a `dynamic = {...}`
// block additionally pin the generated event trace and one policy-engine
// run per registered selector (malleus::policy), each starting from the
// straggler overlay as scenario_cli's dynamic mode does, so the trace
// generator, the action pricing and every selector's decisions are
// golden-tested too. Wall-clock timings are excluded by
// construction and the net model is recorded explicitly for both analytic
// and flow, so the bytes are identical across machines, thread counts and
// MALLEUS_NET_MODEL settings; any diff against the checked-in golden is a
// real behavior change (or a deliberate one, refreshed via
// `malleus_golden --update-golden`).

#ifndef MALLEUS_TESTKIT_GOLDEN_H_
#define MALLEUS_TESTKIT_GOLDEN_H_

#include <string>

#include "common/result.h"
#include "scenario/scenario.h"

namespace malleus {
namespace testkit {

/// Renders the golden snapshot of `spec`. Fails only when the scenario
/// does not resolve (unknown model/phase, bad GPU ids); an infeasible
/// planning problem renders as a "plan failed:" block instead, so golden
/// files also pin failure behavior.
Result<std::string> RenderGoldenSnapshot(const scenario::ScenarioSpec& spec);

}  // namespace testkit
}  // namespace malleus

#endif  // MALLEUS_TESTKIT_GOLDEN_H_
