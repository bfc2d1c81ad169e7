// FERRARI-style interval reachability index over a relation's projected
// graph (Seufert et al., ICDE 2013; the standard reachability-index
// design in modern RDF engines — see the survey in PAPERS.md).
//
// Construction: Tarjan SCC contraction, then per-SCC interval sets over
// a postorder numbering of the condensation DAG.  Tarjan identifies
// SCCs in reverse topological order, so its component ids *are* a
// postorder: every condensation edge goes from a higher pid to a lower
// one.  The interval set of pid p is then
//
//   I(p) = coalesce({[p,p]} ∪ ⋃ { I(q) : p -> q })
//
// computable in one ascending-pid sweep (successors first), and
// membership `t ∈ I(s)` decides reach(s, t) by binary search.  With an
// unlimited interval budget every interval is exact and the index
// answers any pair in O(log k).  A finite budget (FERRARI's
// approximate sets) merges the closest interval pairs, marking the
// result approximate: an approximate hit falls back to a DFS over the
// condensation pruned by the (sound, over-approximating) interval sets.
//
// Construction is one serial sweep over flat arrays.  Built indexes are
// cached on the TripleSet's shared index-cache cell (GetOrBuild), giving
// them the permutation indexes' lifecycle: shared between copies,
// dropped when a mutation detaches the mutated set onto a fresh cell.
//
// EmitStar materializes the full arbitrary-path star
// (R JOIN[1,2,3'; 3=1'])* — byte-identical to Procedure 3
// (core/fast_reach.h, kept as the test and bench oracle) and the naive
// fixpoint at any thread count — by expanding memoized sorted closures
// of the base's object SCCs instead of running a DFS per source: for an
// exact index a closure is a handful of contiguous runs of the
// pid-grouped member array, one per interval.  It is the plan's only
// any-path star operator, cold or warm, over any base.

#ifndef TRIAL_CORE_REACH_REACH_INDEX_H_
#define TRIAL_CORE_REACH_REACH_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/reach/graph.h"
#include "storage/triple_set.h"
#include "util/parallel.h"
#include "util/status.h"

namespace trial {
namespace reach {

struct ReachIndexOptions {
  /// Maximum intervals kept per condensation node; 0 means unlimited
  /// (every interval exact, constant-time negative and positive
  /// answers).  A finite budget trades per-node space for occasional
  /// pruned-DFS fallbacks on approximate hits.
  size_t interval_budget = 0;
};

class ReachIndex {
 public:
  /// Builds the index over `base`'s projected graph (serially).
  /// Records reach.index_builds / reach.index_build_ns when metrics are
  /// enabled.
  static std::shared_ptr<const ReachIndex> Build(
      const TripleSet& base, const ReachIndexOptions& opts = {});

  /// The index attached to `base`'s cache cell, or nullptr.  Never
  /// builds.  A mutation of `base` since the attach returns nullptr
  /// (the mutated set detached onto a fresh cell).
  static std::shared_ptr<const ReachIndex> Cached(const TripleSet& base);

  /// Cached(base), or Build + attach on miss.  Copies of `base` sharing
  /// its cache cell — including the store relation it was copied from —
  /// see the attached index immediately.
  static std::shared_ptr<const ReachIndex> GetOrBuild(
      const TripleSet& base, const ReachIndexOptions& opts = {});

  /// Reflexive-transitive reachability over the projected graph.  Ids
  /// absent from the graph reach exactly themselves.
  bool Reaches(ObjId from, ObjId to) const;

  /// Materializes the full star output {(s, p, l) : (s, p, o) ∈ base,
  /// o ->* l} for the base set the index was built over (any set with
  /// identical contents).  Byte-identical to StarReachAnyPath and the
  /// naive fixpoint.  ResourceExhausted when the output would exceed
  /// `max_result_triples`.
  Result<TripleSet> EmitStar(const TripleSet& base, const ExecOptions& exec,
                             size_t max_result_triples) const;

  /// Upper bound on EmitStar's output cardinality: Σ per base triple of
  /// its object's closure size.  Exact for an exact index unless
  /// distinct objects of one (s, p) group have overlapping closures
  /// (the bound counts the overlap twice, the set output does not).
  uint64_t star_output_rows() const { return star_rows_; }

  /// True when every interval is exact (always true for budget 0).
  bool exact() const { return exact_; }

  /// An interval over pid space (the condensation's postorder).
  /// `exact` means every pid in [lo, hi] is reachable; an inexact one
  /// over-approximates.
  struct Interval {
    uint32_t lo, hi;
    uint8_t exact;
  };

  size_t num_nodes() const { return ids_.size(); }
  size_t num_sccs() const { return num_sccs_; }
  size_t num_intervals() const { return ivs_.size(); }
  uint64_t build_ns() const { return build_ns_; }

 private:
  ReachIndex() = default;

  /// Index of the interval of `p` covering pid `t`, or -1.
  ptrdiff_t FindCovering(uint32_t p, uint32_t t) const;
  /// Pruned DFS over the condensation: can SCC `cf` reach SCC `ct`?
  bool DfsReaches(uint32_t cf, uint32_t ct) const;
  /// Appends the pids reachable from `p` (itself included) to `seen`
  /// by condensation DFS; `visited` is num_sccs_ zeros on entry and on
  /// return.
  void ReachablePids(uint32_t p, std::vector<uint8_t>* visited,
                     std::vector<uint32_t>* seen) const;
  /// Memoized sorted closures (raw ids) of the pids EmitStar reads —
  /// those of object nodes — built on first EmitStar.  Thread-safe via
  /// call_once; parallel inside.
  void EnsureClosures(const ExecOptions& exec) const;

  NodeMap ids_;
  std::vector<uint32_t> comp_;  // dense node -> pid
  uint32_t num_sccs_ = 0;

  // Raw member ids grouped by pid (sorted within each group: dense
  // order == raw order, and groups fill dense-ascending).
  std::vector<uint32_t> members_off_;  // num_sccs_ + 1
  std::vector<ObjId> members_;

  // Per-pid interval sets over pid space, sorted by lo, disjoint and
  // non-adjacent after coalescing.
  std::vector<uint32_t> iv_off_;  // num_sccs_ + 1
  std::vector<Interval> ivs_;
  std::vector<uint8_t> pid_exact_;  // all of pid's intervals exact

  // Condensation adjacency (pid-space CSR, deduped; every edge goes to
  // a smaller pid).
  std::vector<uint32_t> dag_off_;
  std::vector<uint32_t> dag_to_;

  // Closure cardinality per pid (raw nodes reachable from the SCC,
  // itself included).  Upper bound for approximate pids.
  std::vector<uint64_t> closure_size_;

  // Pid of each base triple's object, by SPO position.
  std::vector<uint32_t> obj_pid_;

  uint64_t star_rows_ = 0;
  bool exact_ = true;
  uint64_t build_ns_ = 0;

  // Closure of pid p: closure_ids_[closure_off_[p], closure_off_[p+1]),
  // empty for pids that are no object's.
  mutable std::once_flag closures_once_;
  mutable std::vector<size_t> closure_off_;
  mutable std::vector<ObjId> closure_ids_;
};

}  // namespace reach
}  // namespace trial

#endif  // TRIAL_CORE_REACH_REACH_INDEX_H_
