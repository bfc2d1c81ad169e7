// The shared plan executor: runs a physical operator tree against a
// store, dispatching every parallel kernel from one place.
//
// This is the former SmartEvaluator execution logic (hash/probe joins,
// semi-naive fixpoints, reach-star dispatch), lifted out of
// smart_eval.cc so that every consumer — the smart engine shim, the
// CLIs' EXPLAIN paths and the tests — runs the same code.  Results are
// byte-identical to the pre-plan evaluator at every thread count: the
// probe-vs-hash and per-round decisions are re-made here from *actual*
// cardinalities with exactly the historical rules; the planner's
// predictions only pre-size buffers and feed Explain().
//
// Each node's PlanRuntime is filled as it executes: actual output rows,
// the strategy really taken, and fixpoint round counts.
//
// Adaptive execution is this executor's staged mode (StagedRun below):
// the same Executor runs a join region one materialized subset at a
// time, and adapt.cc supplies the re-plan hook (staged.h).

#include <algorithm>
#include <cassert>
#include <cmath>
#include <map>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "core/eval.h"
#include "core/fast_reach.h"
#include "core/plan/plan.h"
#include "core/plan/profile.h"
#include "core/plan/staged.h"
#include "core/reach/dijkstra.h"
#include "core/reach/reach_index.h"
#include "util/interner.h"
#include "util/metrics.h"
#include "util/parallel.h"

namespace trial {
namespace plan {
namespace {

// Candidates one semi-naive delta segment aims to generate before the
// fold drains them (about 3 MiB): bounds the star's candidate buffers
// whatever its join's fan-out.
constexpr size_t kSegmentCandidates = 256 * 1024;

using TripleHashSet = std::unordered_set<Triple, TripleHash>;
using HashIndex = std::unordered_map<uint64_t, std::vector<Triple>>;

// Children execute strictly inside a node's span (operators run their
// children sequentially; parallelism lives inside kernels), so self time
// is the cumulative span minus the children's spans.  A child spliced in
// from an earlier stage started before its parent did: the parent's span
// then widens to start with its first child.  (Only a re-plan that
// regroups subsets of the earlier plan into two sibling subtrees would
// interleave their stages; their spans then overlap as the stages did.)
void CloseSpan(PlanNode& n) {
  uint64_t child_ns = 0;
  for (const PlanPtr& c : n.children) {
    if (!c->runtime.profiled) continue;
    n.runtime.start_ns = std::min(n.runtime.start_ns, c->runtime.start_ns);
    child_ns += c->runtime.end_ns - c->runtime.start_ns;
  }
  uint64_t cum = n.runtime.end_ns - n.runtime.start_ns;
  n.runtime.self_ns = cum > child_ns ? cum - child_ns : 0;
}

// Walks an executed tree bumping the per-strategy counters.
void CountStrategies(const PlanNode& n, MetricsRegistry& reg) {
  if (n.runtime.executed && n.runtime.strategy != nullptr) {
    reg.GetCounter(std::string("exec.strategy.") + n.runtime.strategy)
        ->Increment();
  }
  for (const PlanPtr& c : n.children) CountStrategies(*c, reg);
}

// One query's executor.  Every stage of the query runs through the one
// instance, so profiled spans and exec.query_ns share a clock origin.
class Executor {
 public:
  Executor(const TripleStore& store, const ExecLimits& limits, bool profile)
      : store_(store),
        limits_(limits),
        profile_(profile),
        metrics_(MetricsEnabled()),
        origin_ns_(profile || metrics_ ? MonotonicNanos() : 0) {}

  // Executes one stage (the whole tree, for a static plan).
  Result<TripleSet> Stage(PlanNode& n) {
    Result<TripleSet> result = Exec(n);
    // A lazy snapshot decode that hit corruption yields empty scans,
    // not a Status — surface the sticky diagnostic instead of a
    // silently wrong (empty/partial) result.  The result itself may be
    // a still-lazy pass-through of a relation (a bare index scan), so
    // force it too.
    if (result.ok()) TRIAL_RETURN_IF_ERROR(result->VerifyMaterialized());
    TRIAL_RETURN_IF_ERROR(store_.SnapshotStatus());
    return result;
  }

  // The per-query accounting, once per query however many stages ran;
  // `tree` is the executed tree (null when none was assembled).
  void Account(const Result<TripleSet>& result, const PlanNode* tree) const {
    if (!metrics_) return;
    MetricsRegistry& reg = MetricsRegistry::Global();
    reg.GetCounter("exec.queries")->Increment();
    reg.GetHistogram("exec.query_ns")->Observe(MonotonicNanos() - origin_ns_);
    if (result.ok()) {
      reg.GetHistogram("exec.result_rows")->Observe(result->size());
    } else {
      reg.GetCounter("exec.query_errors")->Increment();
    }
    if (tree != nullptr) CountStrategies(*tree, reg);
  }

  Result<TripleSet> Exec(PlanNode& n) {
    n.runtime = PlanRuntime{};
    if (profile_) return ExecProfiled(n);
    // The unprofiled fast path: no clock reads, no size forcing — the
    // exact pre-profiling executor.  Zero-cost-when-off hinges on this
    // branch staying clock-free AND on the profiled path living in its
    // own never-inlined function: folding it into Exec measurably
    // regressed the unprofiled microsecond-scale queries (inliner and
    // layout effects in the recursive hot path), not the branch itself.
    Result<TripleSet> result = ExecNode(n);
    if (result.ok()) n.runtime.executed = true;
    return result;
  }

 private:
  __attribute__((noinline)) Result<TripleSet> ExecProfiled(PlanNode& n) {
    n.runtime.profiled = true;
    n.runtime.start_ns = MonotonicNanos() - origin_ns_;
    Result<TripleSet> result = ExecNode(n);
    // ANALYZE counts every node, including the root: the caller asked
    // for the rows, so the normalize size() forces is work the read was
    // about to pay anyway.  It runs before the clock read, so the node's
    // own span carries it (a stage root's too, not the next node's).
    if (result.ok()) NoteRows(n, *result);
    n.runtime.end_ns = MonotonicNanos() - origin_ns_;
    CloseSpan(n);
    if (result.ok()) {
      n.runtime.executed = true;
      if (n.runtime.peak_rows < n.runtime.actual_rows) {
        n.runtime.peak_rows = n.runtime.actual_rows;
      }
    }
    return result;
  }
  // Notes a child's actual cardinality right before its parent consumes
  // the set.  size() normalizes, but the parent was about to do exactly
  // that (probe loops, hash builds and set operations all read the
  // sorted view), so no work is added that the pre-plan engine didn't
  // pay at the same point.
  static void NoteRows(PlanNode& n, const TripleSet& s) {
    n.runtime.rows_known = true;
    n.runtime.actual_rows = s.size();
  }
  // Profiled-only: a binary operator's peak intermediate is at least
  // both inputs; Exec() folds the output size in afterwards.  Free
  // here — NoteRows just forced both sizes.
  void NotePeakInputs(PlanNode& n, const TripleSet& a, const TripleSet& b) {
    if (!profile_) return;
    n.runtime.peak_rows = std::max(a.size(), b.size());
  }
  // Executes n's children in order, then applies n's operator to their
  // results.  The recursion runs through this function alone; the
  // operators run in never-inlined Apply* functions, so their locals
  // (kilobytes under the sanitizers) are off the stack while a child
  // executes, and a kMaxTriALNesting-deep tree fits the stack in every
  // build.
  Result<TripleSet> ExecNode(PlanNode& n) {
    // Adaptive execution: a bound node carries an already-materialized
    // intermediate spliced in by a mid-query re-plan (adapt.cc).  The
    // copy shares the set's lazily-built index cache cell.
    if (n.bound != nullptr) {
      n.runtime.strategy = "reused";
      return *n.bound;
    }
    if (n.children.empty()) return ApplyLeaf(n);
    TRIAL_ASSIGN_OR_RETURN(TripleSet a, Exec(*n.children[0]));
    if (n.children.size() == 1) {
      NoteRows(*n.children[0], a);
      return ApplyUnary(n, a);
    }
    TRIAL_ASSIGN_OR_RETURN(TripleSet b, Exec(*n.children[1]));
    NoteRows(*n.children[0], a);
    NoteRows(*n.children[1], b);
    NotePeakInputs(n, a, b);
    return ApplyBinary(n, a, b);
  }

  __attribute__((noinline)) Result<TripleSet> ApplyLeaf(PlanNode& n) {
    switch (n.op) {
      case PlanOp::kIndexScan: {
        const TripleSet* rel = store_.FindRelation(n.rel_name);
        if (rel == nullptr) {
          return Status::NotFound("unknown relation: " + n.rel_name);
        }
        return *rel;
      }
      case PlanOp::kEmptyRel:
        return TripleSet();
      case PlanOp::kUniverseRel:
        return MaterializeUniverse(store_, limits_.max_result_triples);
      default:
        return Status::Internal("unknown plan operator");
    }
  }

  __attribute__((noinline)) Result<TripleSet> ApplyUnary(
      PlanNode& n, const TripleSet& base) {
    switch (n.op) {
      case PlanOp::kSelectFilter:
        return SelectIndexed(base, n.spec.cond, store_, &n.runtime.strategy,
                             limits_.exec);
      case PlanOp::kReachFastPath:
        n.runtime.strategy = "procedure-4";
        return StarReachSameMiddle(base, limits_.exec,
                                   limits_.max_result_triples);
      case PlanOp::kFixpointStar:
        return SemiNaiveStar(n, base);
      case PlanOp::kReachIndexScan: {
        n.runtime.strategy = "interval-index";
        // GetOrBuild attaches through `base`'s shared cache cell, so a
        // cold build on an IndexScan child warms the store's relation
        // for every later query.
        std::shared_ptr<const reach::ReachIndex> idx =
            reach::ReachIndex::GetOrBuild(base);
        if (MetricsEnabled()) {
          MetricsRegistry::Global().GetCounter("reach.index_hits")
              ->Increment();
        }
        return idx->EmitStar(base, limits_.exec, limits_.max_result_triples);
      }
      case PlanOp::kDijkstraScan: {
        n.runtime.strategy = "dijkstra";
        const ObjId src = store_.FindObject(n.sp_src);
        if (src == kInvalidIntern) {
          return Status::NotFound("unknown object: " + n.sp_src);
        }
        ObjId dst = kInvalidIntern;
        if (!n.sp_dst.empty()) {
          dst = store_.FindObject(n.sp_dst);
          if (dst == kInvalidIntern) {
            return Status::NotFound("unknown object: " + n.sp_dst);
          }
        }
        TRIAL_ASSIGN_OR_RETURN(
            reach::ShortestPathResult sp,
            reach::DijkstraShortestPath(base, store_, src, dst));
        n.runtime.sp_reached = sp.reached;
        n.runtime.sp_distance = sp.distance;
        n.runtime.sp_settled = sp.settled;
        return std::move(sp.edges);
      }
      default:
        return Status::Internal("unknown plan operator");
    }
  }

  __attribute__((noinline)) Result<TripleSet> ApplyBinary(
      PlanNode& n, const TripleSet& a, const TripleSet& b) {
    switch (n.op) {
      case PlanOp::kUnionOp:
        return TripleSet::Union(a, b);
      case PlanOp::kMinusOp:
        return TripleSet::Difference(a, b);
      case PlanOp::kIndexProbeJoin:
      case PlanOp::kHashJoin:
        return Join(n, a, b);
      case PlanOp::kMergeJoin:
        return MergeOrFallback(n, a, b);
      default:
        return Status::Internal("unknown plan operator");
    }
  }

  // Join: filter both sides by their one-sided atoms, locate candidate
  // partners for each left triple — by permutation-index range probe
  // when the key has exact object columns, by hashing the right side
  // otherwise — and verify the full condition on each candidate (covers
  // hash collisions, data equalities and cross inequalities).  The
  // probe loop over the left side is the parallel kernel (ProbeLoop).
  Result<TripleSet> Join(PlanNode& n, const TripleSet& l, const TripleSet& r) {
    JoinPlan plan = JoinPlan::Build(n.spec.cond);
    const JoinSpec& spec = n.spec;
    // Build the probe plan only when costing favors probing — planning
    // a three-column key computes build-side stats, which would force
    // the very index builds the hash path exists to avoid.  A one-shot
    // join additionally requires the probed permutation to be free or
    // amortized (store-backed build side): a fresh intermediate's cache
    // dies with it, and a single probe pass never repays the sort.
    ProbePlan probe;
    if (PreferIndexProbe(l.size(), r.size())) {
      probe = ProbePlan::Build(plan, /*build_right=*/true);
      if (probe.n > 0 && !r.IndexAmortized(probe.Order())) probe.n = 0;
    }
    if (probe.n > 0) {
      n.runtime.strategy = "probe";
      // Materialize the probed permutation before concurrent probes:
      // the lazy index build is single-writer.
      r.Materialize(probe.Order(), limits_.exec);
      return ProbeLoop(l, plan,
                       [&](const Triple& a, std::vector<Triple>* out) {
                         for (const Triple& b : probe.Probe(r, a)) {
                           if (!spec.cond.Holds(a, b, store_)) continue;
                           out->push_back(spec.Output(a, b));
                         }
                       });
    }
    n.runtime.strategy = "hash";
    HashIndex index;
    for (const Triple& b : r) {
      if (plan.PassesRight(b, store_)) {
        index[plan.KeyHashRight(b, store_)].push_back(b);
      }
    }
    return ProbeLoop(l, plan,
                     [&](const Triple& a, std::vector<Triple>* out) {
                       auto it = index.find(plan.KeyHashLeft(a, store_));
                       if (it == index.end()) return;
                       for (const Triple& b : it->second) {
                         if (!spec.cond.Holds(a, b, store_)) continue;
                         out->push_back(spec.Output(a, b));
                       }
                     });
  }

  // Merge join: both inputs are walked as runs sorted on their key
  // column — the left through IndexOrder(merge_lcol), the right through
  // IndexOrder(merge_rcol) — with no hash table and no per-probe index
  // descent.  The planner promised both runs are cheap (the ordering
  // property); the executor re-verifies through IndexAmortized and
  // falls back to the probe/hash path when the promise does not hold
  // for the actual inputs (e.g. a fallback-mutated set), or when the
  // left side came out so small that per-probe index descents beat
  // streaming the whole right run.
  Result<TripleSet> MergeOrFallback(PlanNode& n, const TripleSet& l,
                                    const TripleSet& r) {
    const int lc = n.merge_lcol, rc = n.merge_rcol;
    const IndexOrder lorder = static_cast<IndexOrder>(lc);
    const IndexOrder rorder = static_cast<IndexOrder>(rc);
    // The planned key must really be an exact object equality between
    // these columns — defensive: a plan node altered or built by hand
    // degrades to the generic join instead of producing wrong results.
    JoinPlan plan = JoinPlan::Build(n.spec.cond);
    bool key_ok = false;
    for (const JoinPlan::KeyComp& k : plan.key) {
      key_ok = key_ok || (!k.data && PosColumn(k.lpos) == lc &&
                          PosColumn(k.rpos) == rc);
    }
    const double ln = static_cast<double>(l.size());
    const double rn = static_cast<double>(r.size());
    const bool probe_better = ln * std::log2(rn + 2.0) < ln + rn;
    if (!key_ok || probe_better || !l.IndexAmortized(lorder) ||
        !r.IndexAmortized(rorder)) {
      return Join(n, l, r);
    }
    n.runtime.strategy = "merge";
    return MergeLoop(n, l, r, plan);
  }

  // The merge kernel.  The left run is cut into contiguous key-ordered
  // slices (TripleSet's deterministic partition API; one slice when
  // serial); each slice binary-searches its first key into the right run
  // once, then advances a private cursor monotonically.  Every left
  // triple sees exactly the candidates a whole-run walk would hand it,
  // and the slice buffers are sorted into one sorted-unique result, so
  // the output is identical for any thread count.
  Result<TripleSet> MergeLoop(PlanNode& n, const TripleSet& l,
                              const TripleSet& r, const JoinPlan& plan) {
    const JoinSpec& spec = n.spec;
    const int lc = n.merge_lcol, rc = n.merge_rcol;
    const IndexOrder lorder = static_cast<IndexOrder>(lc);
    const IndexOrder rorder = static_cast<IndexOrder>(rc);
    // Lazy permutation builds are single-writer: materialize both runs
    // before any concurrent reads.
    l.Materialize(lorder, limits_.exec);
    r.Materialize(rorder, limits_.exec);
    TripleRange run = r.Scan(rorder);
    // `match` walks one left slice, stopping when the guard trips.
    auto match = [&](TripleRange slice, std::vector<Triple>* out,
                     ChunkGuard& guard) {
      const Triple* cur = run.begin();
      if (!slice.empty()) {
        ObjId first = (*slice.begin())[lc];
        cur = std::lower_bound(
            run.begin(), run.end(), first,
            [rc](const Triple& t, ObjId v) { return t[rc] < v; });
      }
#ifndef NDEBUG
      // Executor-side verification of the planner's ordering claim:
      // both runs must really be non-decreasing on their key columns.
      ObjId prev = 0;
      bool first = true;
#endif
      for (const Triple& a : slice) {
#ifndef NDEBUG
        assert(first || a[lc] >= prev);
        prev = a[lc];
        first = false;
        assert(cur == run.end() || cur == run.begin() ||
               (*(cur - 1))[rc] <= (*cur)[rc]);
#endif
        if (!guard(out->size())) return;
        if (!plan.PassesLeft(a, store_)) continue;
        ObjId k = a[lc];
        while (cur != run.end() && (*cur)[rc] < k) ++cur;
        for (const Triple* b = cur; b != run.end() && (*b)[rc] == k; ++b) {
          if (!spec.cond.Holds(a, *b, store_)) continue;
          out->push_back(spec.Output(a, *b));
        }
      }
    };
    return GuardedKernel(
        l.size(), limits_.exec, limits_.max_result_triples,
        "join result too large",
        [&](size_t k) { return l.Partitions(lorder, k); }, match);
  }

  // The join probe loop: applies `match` (which appends verified output
  // triples) to every left triple passing the one-sided filters.  The
  // left side is consumed through TripleSet's partition API —
  // contiguous SPO slices, one private buffer each, one slice when
  // serial — and the buffers are sorted into one sorted-unique result
  // (KernelResult), so the result is identical for any thread count.
  template <typename Match>
  Result<TripleSet> ProbeLoop(const TripleSet& l, const JoinPlan& plan,
                              const Match& match) {
    return GuardedKernel(
        l.size(), limits_.exec, limits_.max_result_triples,
        "join result too large",
        [&](size_t k) { return l.Partitions(IndexOrder::kSPO, k); },
        [&](TripleRange slice, std::vector<Triple>* out, ChunkGuard& guard) {
          for (const Triple& a : slice) {
            if (!plan.PassesLeft(a, store_)) continue;
            match(a, out);
            if (!guard(out->size())) return;
          }
        });
  }

  // Semi-naive fixpoint: only the last round's delta re-joins the fixed
  // base.  Correct because ⋈ distributes over ∪ in each argument, so the
  // term sequence t_{n+1} = t_n ⋈ e is covered by delta ⋈ e.
  Result<TripleSet> SemiNaiveStar(PlanNode& n, const TripleSet& base) {
    const JoinSpec& spec = n.spec;
    const bool right = n.star_right;
    JoinPlan plan = JoinPlan::Build(spec.cond);
    // The fixed side — the right join argument for right stars, the
    // left one for left stars — is probed every round.  With exact
    // object keys its permutation index serves directly (built once,
    // shared with the store's relation); the hash table is built lazily,
    // only for rounds whose delta is too large for probing to pay off.
    ProbePlan probe = ProbePlan::Build(plan, /*build_right=*/right);
    HashIndex index;
    bool hash_built = false;
    auto build_hash = [&] {
      for (const Triple& b : base) {
        bool pass = right ? plan.PassesRight(b, store_)
                          : plan.PassesLeft(b, store_);
        if (!pass) continue;
        uint64_t h = right ? plan.KeyHashRight(b, store_)
                           : plan.KeyHashLeft(b, store_);
        index[h].push_back(b);
      }
      hash_built = true;
    };

    TripleHashSet acc(base.begin(), base.end());
    std::vector<Triple> delta(base.begin(), base.end());
    std::vector<Triple> next;
    // Candidate partners of one delta triple, pre-dedup: every
    // fixed-side triple matching the join condition, in probe (or hash
    // bucket) iteration order.  Read-only over base/index/plan, so the
    // per-round delta expansion can run it from parallel workers.
    auto candidates = [&](const Triple& d, bool use_probe,
                          std::vector<Triple>* out) {
      bool pass = right ? plan.PassesLeft(d, store_)
                        : plan.PassesRight(d, store_);
      if (!pass) return;
      auto emit = [&](const Triple& b) {
        const Triple& lt = right ? d : b;
        const Triple& rt = right ? b : d;
        if (!spec.cond.Holds(lt, rt, store_)) return;
        out->push_back(spec.Output(lt, rt));
      };
      if (use_probe) {
        for (const Triple& b : probe.Probe(base, d)) emit(b);
      } else {
        uint64_t h = right ? plan.KeyHashLeft(d, store_)
                           : plan.KeyHashRight(d, store_);
        auto it = index.find(h);
        if (it == index.end()) return;
        for (const Triple& b : it->second) emit(b);
      }
    };
    // Folds candidate outputs into the accumulator in encounter order;
    // false when the result-size guard trips.  Serial by design: the
    // dedup against acc is the sequential tail of every round.
    auto fold = [&](const std::vector<Triple>& cand) {
      for (const Triple& o : cand) {
        if (acc.insert(o).second) {
          next.push_back(o);
          if (acc.size() > limits_.max_result_triples) return false;
        }
      }
      return true;
    };
    // Each round's delta is expanded in segments: a segment's candidates
    // are generated in chunks (ChunkRuns: one chunk when serial, buffers
    // in delta order) and folded into the accumulator before the next
    // segment starts.  A segment is sized from the fan-out (candidates
    // per delta triple) seen so far, to about kSegmentCandidates and at
    // most twice the last one, so memory stays near one segment's
    // candidates even for a key-less join.  The cut never shows: the
    // fold sees every candidate in delta order and the only guard is the
    // accumulator's size, so results and the guard's outcome are the
    // same for every thread count.
    size_t segment = 1;
    double fanout = 1.0;
    for (size_t round = 0; round < limits_.max_rounds; ++round) {
      next.clear();
      bool use_probe =
          probe.n > 0 && PreferIndexProbe(delta.size(), base.size());
      if (!use_probe && !hash_built) build_hash();
      n.runtime.rounds = round + 1;
      if (use_probe) {
        ++n.runtime.probe_rounds;
      } else {
        ++n.runtime.hash_rounds;
      }
      if (use_probe) base.Materialize(probe.Order(), limits_.exec);
      for (size_t sb = 0, count = 0; sb < delta.size(); sb += count) {
        count = std::min(segment, delta.size() - sb);
        std::vector<std::vector<Triple>> runs = ChunkRuns(
            count, limits_.exec,
            [&](size_t k) { return SplitEven(count, k); },
            [&](ChunkRange c, std::vector<Triple>* out) {
              out->reserve(static_cast<size_t>(
                  fanout * static_cast<double>(c.size()) + 16.0));
              for (size_t i = c.begin; i < c.end; ++i) {
                candidates(delta[sb + i], use_probe, out);
              }
            });
        size_t produced = 0;
        for (const std::vector<Triple>& run : runs) {
          produced += run.size();
          if (!fold(run)) {
            return Status::ResourceExhausted("star result too large");
          }
        }
        fanout = static_cast<double>(std::max<size_t>(produced, 1)) /
                 static_cast<double>(count);
        segment = std::max<size_t>(
            1, std::min(2 * segment, static_cast<size_t>(
                                         kSegmentCandidates / fanout)));
      }
      if (profile_) {
        // Peak intermediate = accumulator plus the round's live delta
        // (both are held at once while the next round expands).
        size_t live = acc.size() + delta.size();
        if (live > n.runtime.peak_rows) n.runtime.peak_rows = live;
      }
      if (next.empty()) {
        std::vector<Triple> v(acc.begin(), acc.end());
        TripleHashSet().swap(acc);  // the sort's 2N peak excludes acc
        return KernelResult(std::move(v), limits_.exec);
      }
      delta.swap(next);
    }
    return Status::ResourceExhausted("star fixpoint exceeded round limit");
  }

  const TripleStore& store_;
  const ExecLimits& limits_;
  const bool profile_;
  const bool metrics_;
  const uint64_t origin_ns_;  ///< query-start clock origin (profile/metrics)
};

// Backstop on mid-query re-plans: after this many the current plan runs
// to completion.  Exact feedback on executed masks makes re-triggering
// on the same observation impossible, so this is never hit in practice.
constexpr size_t kMaxReplans = 8;

bool SingleBit(uint32_t mask) { return mask != 0 && (mask & (mask - 1)) == 0; }

bool ClsMatch(const int a[3], const int b[3]) {
  return a[0] == b[0] && a[1] == b[1] && a[2] == b[2];
}

// The staged mode of the executor over a root join region (adaptive
// execution, adapt.h).  FindNext walks the current tree to the lowest
// node whose region children are all materialized (a leaf subtree, or a
// join both of whose inputs are done) and executes exactly that subtree
// as one stage.  Its observation goes to the replanner; when the
// q-error vs the node's estimate crosses the threshold, the replanner
// re-plans the whole region with every materialized subset priced as
// sunk (DoneSubset), and the stored intermediates splice into the new
// tree as `bound` nodes.
//
// Termination: every stage materializes a subset, and after the re-plan
// cap the current plan runs to completion; re-executed masks carry
// exact feedback, so their q-error is 1 and cannot re-trigger.
class StagedRun {
 public:
  // Re-plan counts and, on success, the assembled tree go to `res`.
  StagedRun(Executor& exec, const ExecLimits& limits,
            StageReplanner& replanner, AdaptiveResult* res)
      : exec_(exec), limits_(limits), replanner_(replanner), res_(*res) {}

  Result<TripleSet> Run(PlanPtr plan) {
    full_mask_ = plan->region_mask;
    current_ = std::move(plan);
    while (done_.find(full_mask_) == done_.end()) {
      PlanPtr* slot = FindNext(&current_);
      PlanNode& step = **slot;
      double est = step.est_rows;
      TRIAL_ASSIGN_OR_RETURN(TripleSet result, exec_.Stage(step));
      size_t observed = result.size();
      uint32_t mask = step.region_mask;
      replanner_.Observe(mask, observed);
      Done& d = done_[mask];
      d.set = std::make_shared<TripleSet>(std::move(result));
      for (int c = 0; c < 3; ++c) d.cls[c] = step.region_cls[c];
      d.tree = Detach(slot, d.set);
      if (mask != full_mask_ &&
          QError(est, static_cast<double>(observed)) >
              limits_.q_error_threshold &&
          res_.replans < kMaxReplans) {
        Replan(est, static_cast<double>(observed));
      }
    }
    res_.plan = Assemble(full_mask_);
    return TripleSet(*done_[full_mask_].set);
  }

 private:
  // One materialized join-region subset.
  struct Done {
    std::shared_ptr<const TripleSet> set;
    int cls[3] = {-1, -1, -1};
    PlanPtr tree;  // the subtree that computed it, runtimes filled
  };

  // Marks `n` reusable when its (mask, schema) is materialized,
  // attaching the stored intermediate.
  bool BindIfDone(PlanNode& n) {
    if (n.bound != nullptr) return true;
    if (n.region_mask == 0) return false;
    auto it = done_.find(n.region_mask);
    if (it == done_.end() || !ClsMatch(it->second.cls, n.region_cls)) {
      return false;
    }
    n.bound = it->second.set;
    return true;
  }

  // The owning slot of the next subtree to materialize: descend from
  // the root into the first non-done region child; a leaf subtree or a
  // join with every child done is the step.
  PlanPtr* FindNext(PlanPtr* slot) {
    PlanNode& n = **slot;
    if (SingleBit(n.region_mask) || n.region_mask == 0) return slot;
    for (PlanPtr& c : n.children) {
      if (!BindIfDone(*c)) return FindNext(&c);
    }
    return slot;
  }

  // Swaps the executed subtree out of the tree, leaving a bound
  // placeholder carrying the same region bookkeeping.
  PlanPtr Detach(PlanPtr* slot, std::shared_ptr<const TripleSet> set) {
    PlanPtr placeholder = std::make_unique<PlanNode>();
    PlanNode& n = **slot;
    placeholder->op = n.op;
    placeholder->rel_name = n.rel_name;
    placeholder->region_mask = n.region_mask;
    for (int c = 0; c < 3; ++c) placeholder->region_cls[c] = n.region_cls[c];
    placeholder->est_rows = n.est_rows;
    placeholder->replanned = n.replanned;
    placeholder->bound = std::move(set);
    std::swap(*slot, placeholder);
    return placeholder;  // now owns the executed subtree
  }

  void Replan(double est, double obs) {
    std::vector<DoneSubset> sunk;
    for (const auto& [mask, d] : done_) {
      DoneSubset ds;
      ds.mask = mask;
      for (int c = 0; c < 3; ++c) ds.cls[c] = d.cls[c];
      sunk.push_back(ds);
    }
    uint64_t t0 = MonotonicNanos();
    PlanPtr next = replanner_.Replan(sunk);
    uint64_t dt = MonotonicNanos() - t0;
    if (next == nullptr) return;  // keep the current plan
    MarkReplanned(*next);
    next->replan_est = est;
    next->replan_obs = obs;
    current_ = std::move(next);
    ++res_.replans;
    res_.replan_ns += dt;
    if (MetricsEnabled()) {
      MetricsRegistry& reg = MetricsRegistry::Global();
      reg.GetCounter("exec.replans")->Increment();
      reg.GetHistogram("exec.replan_ns")->Observe(dt);
    }
  }

  // Everything the re-plan will actually have to execute is new work
  // under a new order — flag it for EXPLAIN; materialized subsets bind
  // and keep their original rendering.  Leaf subtrees are never bound
  // partially, so binding stops at them (their inner nodes may carry
  // the masks of a nested region).
  void MarkReplanned(PlanNode& n, bool in_region = true) {
    if (in_region && BindIfDone(n)) return;
    n.replanned = true;
    in_region = in_region && !SingleBit(n.region_mask);
    for (PlanPtr& c : n.children) MarkReplanned(*c, in_region);
  }

  // The executed tree: the full-mask subtree with every bound
  // placeholder replaced by the subtree that really computed it.
  PlanPtr Assemble(uint32_t mask) {
    PlanPtr root = std::move(done_[mask].tree);
    if (root != nullptr) Fill(&root);
    return root;
  }

  void Fill(PlanPtr* slot) {
    PlanNode& n = **slot;
    if (n.bound != nullptr) {
      auto it = done_.find(n.region_mask);
      if (it != done_.end() && ClsMatch(it->second.cls, n.region_cls) &&
          it->second.tree != nullptr) {
        PlanPtr sub = std::move(it->second.tree);
        Fill(&sub);
        *slot = std::move(sub);
        return;
      }
    }
    for (PlanPtr& c : n.children) Fill(&c);
    if (n.runtime.profiled) CloseSpan(n);
  }

  Executor& exec_;
  const ExecLimits& limits_;
  StageReplanner& replanner_;
  AdaptiveResult& res_;
  uint32_t full_mask_ = 0;
  PlanPtr current_;
  std::map<uint32_t, Done> done_;
};

}  // namespace

Result<TripleSet> ExecutePlan(PlanNode& root, const TripleStore& store,
                              const ExecLimits& limits, bool profile) {
  Executor exec(store, limits, profile);
  Result<TripleSet> result = exec.Stage(root);
  exec.Account(result, &root);
  return result;
}

Result<TripleSet> ExecuteStaged(PlanPtr plan, const TripleStore& store,
                                const ExecLimits& limits, bool profile,
                                StageReplanner& replanner,
                                AdaptiveResult* out) {
  Executor exec(store, limits, profile);
  AdaptiveResult res;
  Result<TripleSet> result = TripleSet();
  if (plan->region_mask != 0) {
    result = StagedRun(exec, limits, replanner, &res).Run(std::move(plan));
  } else {
    // No region to adapt (single scan, select, star, union, pairwise
    // fallback): static execution, but still learn the root cardinality.
    result = exec.Stage(*plan);
    if (result.ok()) replanner.Observe(0, result->size());
    res.plan = std::move(plan);
  }
  exec.Account(result, res.plan.get());
  if (out != nullptr) *out = std::move(res);
  return result;
}

void RecordRootRows(PlanNode& root, const TripleSet& result) {
  root.runtime.rows_known = true;
  root.runtime.actual_rows = result.size();
}

}  // namespace plan
}  // namespace trial
