// The executor's staged mode, internal to core/plan: the seam between
// the one plan executor (plan_exec.cc), which owns the stage loop, the
// query clock and the per-query accounting, and adaptive execution
// (adapt.cc), which supplies the re-plan step and the feedback.

#ifndef TRIAL_CORE_PLAN_STAGED_H_
#define TRIAL_CORE_PLAN_STAGED_H_

#include <cstdint>
#include <vector>

#include "core/plan/adapt.h"
#include "core/plan/plan.h"

namespace trial {
namespace plan {

/// What the staged executor calls at every stage boundary.
class StageReplanner {
 public:
  /// A stage materialized `rows` rows for the join-region subset
  /// `mask` (0: the whole query, which has no root join region).
  virtual void Observe(uint32_t mask, size_t rows) = 0;
  /// A new plan of the whole root region that prices the `sunk`
  /// subsets as free, or null to keep the current plan.
  virtual PlanPtr Replan(const std::vector<DoneSubset>& sunk) = 0;

 protected:
  ~StageReplanner() = default;
};

/// Runs `plan` as one query on one executor.  The root join region, if
/// any, executes one subtree at a time: every stage's observation goes
/// to `replanner`, and a q-error above limits.q_error_threshold asks it
/// for a new plan around the materialized subsets.  `out` receives the
/// assembled tree and the re-plan counts; see ExecuteAdaptive.
Result<TripleSet> ExecuteStaged(PlanPtr plan, const TripleStore& store,
                                const ExecLimits& limits, bool profile,
                                StageReplanner& replanner,
                                AdaptiveResult* out);

}  // namespace plan
}  // namespace trial

#endif  // TRIAL_CORE_PLAN_STAGED_H_
