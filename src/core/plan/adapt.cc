// Adaptive mid-query re-optimization (see adapt.h for the model).
//
// The stage loop is a mode of the one plan executor (ExecuteStaged,
// plan_exec.cc): every stage of the root join region runs on the same
// executor, under one clock origin and one per-query accounting.  This
// file supplies what is adaptive about it: the re-plan step, which
// re-runs the DP reorderer over the region with observed cardinalities
// substituted and every materialized subset priced as sunk
// (DoneSubset), and the FeedbackCache the observations are recorded
// into under the region signature + DP leaf mask.

#include "core/plan/adapt.h"

#include <string>
#include <vector>

#include "core/plan/reorder.h"
#include "core/plan/staged.h"
#include "util/metrics.h"

namespace trial {
namespace plan {
namespace {

// Feedback entries beyond this are evicted arbitrarily; the cache holds
// cardinalities, not results, so eviction only costs re-learning.
constexpr size_t kMaxFeedbackEntries = 4096;

bool SingleBit(uint32_t mask) { return mask != 0 && (mask & (mask - 1)) == 0; }

int BitIndex(uint32_t mask) {
  int i = 0;
  while ((mask & (1u << i)) == 0) ++i;
  return i;
}

// The region's non-join leaves in DFS left-to-right order — exactly the
// leaf numbering Reorderer::Flatten assigns, so leaf index i maps to DP
// mask bit 1<<i across the initial plan and every re-plan.
void FlattenLeaves(const Expr& e, std::vector<const Expr*>* out) {
  if (e.kind() != ExprKind::kJoin) {
    out->push_back(&e);
    return;
  }
  FlattenLeaves(*e.left(), out);
  FlattenLeaves(*e.right(), out);
}

// The re-plan step and the feedback of one adaptive query.  `full_mask`
// is the planned root's region mask: 0 when the query has no root join
// region, and then only the whole query's cardinality is learned.
class Replanner final : public StageReplanner {
 public:
  Replanner(const Expr& e, const TripleStore& store, FeedbackCache& fb,
            uint32_t full_mask)
      : expr_(e),
        store_(store),
        fb_(fb),
        region_sig_(e.ToString()),
        full_mask_(full_mask) {
    hints_.feedback = &fb_;
    if (full_mask_ != 0) FlattenLeaves(expr_, &leaf_exprs_);
  }

  void Observe(uint32_t mask, size_t observed) override {
    double rows = static_cast<double>(observed);
    if (mask != 0) fb_.Record(store_, RegionSubsetKey(region_sig_, mask), rows);
    if (SingleBit(mask)) {
      fb_.Record(store_, leaf_exprs_[BitIndex(mask)]->ToString(), rows);
    } else if (mask == full_mask_) {
      fb_.Record(store_, region_sig_, rows);
    }
  }

  PlanPtr Replan(const std::vector<DoneSubset>& sunk) override {
    PlanningHints hints = hints_;
    hints.done_subsets = &sunk;
    return ReorderJoinRegion(
        expr_, store_,
        [this](const Expr& sub) { return PlanExpr(sub, store_, hints_); },
        hints);
  }

 private:
  const Expr& expr_;
  const TripleStore& store_;
  FeedbackCache& fb_;
  PlanningHints hints_;  // feedback only; done_subsets is per-replan
  const std::string region_sig_;
  const uint32_t full_mask_;
  std::vector<const Expr*> leaf_exprs_;
};

}  // namespace

// ---- FeedbackCache -----------------------------------------------------

FeedbackCache& FeedbackCache::Global() {
  static FeedbackCache* cache = new FeedbackCache();
  return *cache;
}

void FeedbackCache::Record(const TripleStore& store, const std::string& key,
                           double rows) {
  std::lock_guard<std::mutex> lock(mu_);
  if (entries_.size() >= kMaxFeedbackEntries &&
      entries_.find(key) == entries_.end()) {
    entries_.erase(entries_.begin());  // arbitrary victim; see kMax comment
  }
  Entry& e = entries_[key];
  e.rows = rows;
  e.epoch = store.Epoch();
  e.store = &store;
}

double FeedbackCache::Lookup(const TripleStore& store,
                             const std::string& key) const {
  bool hit = false;
  double rows = -1.0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it != entries_.end() && it->second.store == &store &&
        it->second.epoch == store.Epoch()) {
      hit = true;
      rows = it->second.rows;
    }
  }
  if (MetricsEnabled()) {
    MetricsRegistry::Global()
        .GetCounter(hit ? "feedback.hits" : "feedback.misses")
        ->Increment();
  }
  return rows;
}

void FeedbackCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
}

size_t FeedbackCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

std::string RegionSubsetKey(const std::string& region_sig, uint32_t mask) {
  return region_sig + "|m=" + std::to_string(mask);
}

// ---- ExecuteAdaptive ---------------------------------------------------

Result<TripleSet> ExecuteAdaptive(const ExprPtr& e, const TripleStore& store,
                                  const ExecLimits& limits, bool profile,
                                  AdaptiveResult* out, FeedbackCache* fb) {
  if (fb == nullptr) fb = &FeedbackCache::Global();
  PlanningHints hints;
  hints.feedback = fb;
  PlanPtr plan = PlanExpr(e, store, hints);
  Replanner replanner(*e, store, *fb, plan->region_mask);
  return ExecuteStaged(std::move(plan), store, limits, profile, replanner,
                       out);
}

}  // namespace plan
}  // namespace trial
