// Adaptive mid-query re-optimization + learned cardinality cache.
//
// The DP join reorderer (reorder.cc) can pick a ~190x-better order, but
// only when its estimates are right — and on correlated data the
// aggregated projections still misestimate by orders of magnitude.  The
// standard cure (RDF-3X, and most of the RDF-store literature) is
// cardinality feedback: run the plan in pipeline stages, compare every
// materialized intermediate's observed rows against the estimate, and
// when the q-error crosses a threshold, re-cost the not-yet-executed
// suffix with the observation substituted for the estimate.
//
// Two pieces live here:
//
//   FeedbackCache   observed cardinalities keyed by normalized
//                   (sub)expression, persisted across queries of one
//                   process; the planner consults it before statistics,
//                   so every misestimate is a one-time cost.
//
//   ExecuteAdaptive stage-wise execution of a planned query: leaves and
//                   joins of the root join region are materialized one
//                   at a time, each observation is recorded into the
//                   cache, and when an observation's q-error vs the
//                   plan's estimate exceeds limits.q_error_threshold
//                   the remaining region is re-planned around the
//                   already-materialized subsets (priced as sunk).
//
// Contract: adaptivity changes join ORDER, never semantics — the result
// is byte-identical to the static plan's at any thread count (all join
// orders produce the same normalized TripleSet).  Feedback only moves
// cost estimates, so a stale or aliased cache entry can at worst pick a
// slower order, never a wrong answer.

#ifndef TRIAL_CORE_PLAN_ADAPT_H_
#define TRIAL_CORE_PLAN_ADAPT_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

#include "core/plan/plan.h"

namespace trial {
namespace plan {

// ---- learned cardinality cache -----------------------------------------

/// Observed cardinalities keyed by normalized (sub)expression text, with
/// join-region subsets further qualified by their DP leaf mask (see
/// RegionSubsetKey).  Entries are scoped to one (store address, store
/// epoch) pair: any store mutation invalidates its entries, and an
/// address reused by a different store can only misprice, never corrupt
/// (feedback moves estimates, not semantics).  Thread-safe.
class FeedbackCache {
 public:
  /// The process-wide cache used by default (one engine, many queries).
  static FeedbackCache& Global();

  /// Records that `key` produced `rows` rows against `store` at its
  /// current epoch.  Overwrites an existing entry.
  void Record(const TripleStore& store, const std::string& key, double rows);

  /// The recorded cardinality, or a negative value when absent / stale.
  /// Bumps feedback.hits / feedback.misses when metrics are on.
  double Lookup(const TripleStore& store, const std::string& key) const;

  /// Drops every entry (tests; store teardown is NOT tracked).
  void Clear();

  size_t size() const;

 private:
  struct Entry {
    double rows = 0;
    uint64_t epoch = 0;
    const void* store = nullptr;
  };

  mutable std::mutex mu_;
  std::unordered_map<std::string, Entry> entries_;
};

/// Cache key of a join-region DP subset: the region root's normalized
/// expression text plus the subset's leaf bitmask (over the region's
/// flattened left-to-right leaf order).  Subset row counts are
/// schema-invariant — the live variable-class set of a mask is fixed by
/// the region — so the mask alone qualifies the subexpression.
std::string RegionSubsetKey(const std::string& region_sig, uint32_t mask);

// ---- adaptive execution ------------------------------------------------

/// What ExecuteAdaptive did, for EXPLAIN / metrics / benchmarks.
struct AdaptiveResult {
  /// The assembled physical tree that was actually executed (re-planned
  /// subtrees spliced in, runtimes filled) — render with Explain /
  /// ExplainAnalyze.  Always set on success.
  PlanPtr plan;
  size_t replans = 0;     ///< mid-query re-plans triggered
  uint64_t replan_ns = 0; ///< total wall time spent re-planning
};

/// Plans `e` (consulting `fb` before statistics), executes it in
/// pipeline stages, records every materialized cardinality into `fb`,
/// and re-plans the remaining join region whenever an observation's
/// q-error vs the estimate exceeds limits.q_error_threshold.  Results
/// are byte-identical to ExecutePlan(PlanExpr(e, store)) at any thread
/// count.  `out` may be null; `fb` null means FeedbackCache::Global().
/// Every stage runs on one executor: with `profile` the assembled
/// tree's spans share one clock origin and nest like a static plan's,
/// the root spanning the whole query, re-plans included.  Accounts
/// exec.queries / exec.query_ns once per call, plus exec.replans /
/// exec.replan_ns per re-plan, when metrics are on.
Result<TripleSet> ExecuteAdaptive(const ExprPtr& e, const TripleStore& store,
                                  const ExecLimits& limits = {},
                                  bool profile = false,
                                  AdaptiveResult* out = nullptr,
                                  FeedbackCache* fb = nullptr);

}  // namespace plan
}  // namespace trial

#endif  // TRIAL_CORE_PLAN_ADAPT_H_
