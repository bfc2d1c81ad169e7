#include "core/reach/reach_index.h"

#include <algorithm>
#include <utility>

#include "util/metrics.h"

namespace trial {
namespace reach {
namespace {

using Iv = ReachIndex::Interval;

// Coalesces `scratch` (any order) into `out`: sorted by lo, disjoint,
// non-adjacent.  Overlapping or adjacent inputs merge; the union of
// exact sets over a contiguous range is exact, anything touched by an
// approximate input (other than one fully contained in the running
// interval, which adds nothing) turns approximate.
void Coalesce(std::vector<Iv>& scratch, std::vector<Iv>* out) {
  auto by_lo = [](const Iv& a, const Iv& b) {
    return a.lo != b.lo ? a.lo < b.lo : a.hi < b.hi;
  };
  if (!std::is_sorted(scratch.begin(), scratch.end(), by_lo)) {
    std::sort(scratch.begin(), scratch.end(), by_lo);
  }
  out->clear();
  for (const Iv& iv : scratch) {
    if (out->empty() || (iv.lo > out->back().hi && iv.lo - out->back().hi > 1)) {
      out->push_back(iv);
      continue;
    }
    Iv& back = out->back();
    if (iv.hi <= back.hi) continue;  // contained: no new pids
    back.exact = back.exact && iv.exact;
    back.hi = iv.hi;
  }
}

// FERRARI budget reduction: while over budget, merge the adjacent pair
// with the smallest gap.  Any gap merge admits unreachable pids, so the
// merged interval is approximate.
void ApplyBudget(std::vector<Iv>* ivs, size_t budget) {
  if (budget == 0) return;
  while (ivs->size() > budget) {
    size_t best = 0;
    uint32_t best_gap = UINT32_MAX;
    for (size_t i = 0; i + 1 < ivs->size(); ++i) {
      uint32_t gap = (*ivs)[i + 1].lo - (*ivs)[i].hi;
      if (gap < best_gap) {
        best_gap = gap;
        best = i;
      }
    }
    (*ivs)[best].hi = (*ivs)[best + 1].hi;
    (*ivs)[best].exact = 0;
    ivs->erase(ivs->begin() + best + 1);
  }
}

// Cap on the serial emission reserve derived from the closure-size
// bound: 16Mi triples ≈ 192 MiB.  The bound over-counts only
// overlapping multi-object groups, so reserving it fully avoids the
// mid-emit regrow (a copy of the whole output); the cap bounds the
// up-front allocation when the guard is going to abort the emission.
constexpr size_t kEmitReserveCap = size_t{1} << 24;

// Closure ids and output rows are each one copy, far cheaper than the
// join probe or sort item that ExecOptions::min_parallel_items counts:
// this many of them count as one item.  Below it a pool dispatch costs
// more than it saves (a predicate subgraph's star, whose output is about
// its base, ran slower at 2 and 4 threads than at 1).
constexpr size_t kRowsPerParallelItem = 32;

}  // namespace

std::shared_ptr<const ReachIndex> ReachIndex::Cached(const TripleSet& base) {
  return std::static_pointer_cast<const ReachIndex>(base.CachedReachIndex());
}

std::shared_ptr<const ReachIndex> ReachIndex::GetOrBuild(
    const TripleSet& base, const ReachIndexOptions& opts) {
  std::shared_ptr<const ReachIndex> cached = Cached(base);
  if (cached != nullptr) return cached;
  std::shared_ptr<const ReachIndex> built = Build(base, opts);
  base.AttachReachIndex(built);
  return built;
}

std::shared_ptr<const ReachIndex> ReachIndex::Build(
    const TripleSet& base, const ReachIndexOptions& opts) {
  const uint64_t t0 = MonotonicNanos();
  std::shared_ptr<ReachIndex> idx(new ReachIndex());
  const std::vector<Triple>& spo = base.triples();
  idx->ids_ = NodeMap(base);
  const NodeMap& ids = idx->ids_;
  const uint32_t n = static_cast<uint32_t>(ids.size());
  Csr g = Csr::FromSpo(spo, ids);

  // ---- Tarjan SCC contraction (iterative) ----------------------------
  //
  // Components are numbered in completion order, which for Tarjan is
  // reverse topological: every condensation edge goes from a higher
  // component id to a lower one.  That makes the component ids directly
  // usable as the postorder pids the interval labeling needs.
  idx->comp_.assign(n, kNoNode);
  {
    std::vector<uint32_t> dfs_index(n, kNoNode), low(n, 0);
    std::vector<uint8_t> on_stack(n, 0);
    std::vector<uint32_t> stk;
    struct Frame {
      uint32_t v;
      uint32_t edge;  // next unexplored offset into g.to
    };
    std::vector<Frame> call;
    uint32_t counter = 0, sccs = 0;
    for (uint32_t r = 0; r < n; ++r) {
      if (dfs_index[r] != kNoNode) continue;
      call.push_back({r, g.off[r]});
      dfs_index[r] = low[r] = counter++;
      stk.push_back(r);
      on_stack[r] = 1;
      while (!call.empty()) {
        Frame& f = call.back();
        const uint32_t v = f.v;
        if (f.edge < g.off[v + 1]) {
          // Read and advance before any push: pushing may reallocate
          // the call stack and invalidate `f`.
          const uint32_t w = g.to[f.edge++];
          if (dfs_index[w] == kNoNode) {
            call.push_back({w, g.off[w]});
            dfs_index[w] = low[w] = counter++;
            stk.push_back(w);
            on_stack[w] = 1;
          } else if (on_stack[w] && dfs_index[w] < low[v]) {
            low[v] = dfs_index[w];
          }
          continue;
        }
        call.pop_back();
        if (!call.empty() && low[v] < low[call.back().v]) {
          low[call.back().v] = low[v];
        }
        if (low[v] == dfs_index[v]) {
          uint32_t w;
          do {
            w = stk.back();
            stk.pop_back();
            on_stack[w] = 0;
            idx->comp_[w] = sccs;
          } while (w != v);
          ++sccs;
        }
      }
    }
    idx->num_sccs_ = sccs;
  }
  const uint32_t nscc = idx->num_sccs_;

  // ---- SCC member lists, grouped by pid ------------------------------
  //
  // Filling in dense-ascending order keeps each group sorted by raw id
  // (dense order == raw order), which the closures rely on.
  idx->members_off_.assign(nscc + 1, 0);
  for (uint32_t d = 0; d < n; ++d) ++idx->members_off_[idx->comp_[d] + 1];
  for (uint32_t p = 1; p <= nscc; ++p) {
    idx->members_off_[p] += idx->members_off_[p - 1];
  }
  std::vector<uint32_t> dense_members(n);
  {
    std::vector<uint32_t> cursor(idx->members_off_.begin(),
                                 idx->members_off_.end() - 1);
    for (uint32_t d = 0; d < n; ++d) {
      dense_members[cursor[idx->comp_[d]]++] = d;
    }
  }
  idx->members_.resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    idx->members_[i] = ids.Raw(dense_members[i]);
  }

  // ---- condensation adjacency (pid CSR) ------------------------------
  //
  // One pass over the pids in order; a per-target stamp drops parallel
  // edges without sorting them.
  idx->dag_off_.assign(nscc + 1, 0);
  {
    std::vector<uint32_t> stamp(nscc, kNoNode);
    for (uint32_t p = 0; p < nscc; ++p) {
      for (uint32_t i = idx->members_off_[p]; i < idx->members_off_[p + 1];
           ++i) {
        const uint32_t u = dense_members[i];
        for (uint32_t e = g.off[u]; e < g.off[u + 1]; ++e) {
          const uint32_t q = idx->comp_[g.to[e]];
          if (q != p && stamp[q] != p) {
            stamp[q] = p;
            idx->dag_to_.push_back(q);
          }
        }
      }
      idx->dag_off_[p + 1] = static_cast<uint32_t>(idx->dag_to_.size());
    }
  }

  // ---- interval labeling ---------------------------------------------
  //
  // Every condensation edge points to a smaller pid, so an ascending
  // sweep sees each successor's final interval set before its
  // predecessors and appends every pid's set to the flat array in pid
  // order.
  idx->iv_off_.assign(nscc + 1, 0);
  idx->pid_exact_.assign(nscc, 1);
  idx->closure_size_.assign(nscc, 0);
  idx->ivs_.reserve(nscc);
  {
    std::vector<Iv> scratch, merged;
    for (uint32_t p = 0; p < nscc; ++p) {
      if (idx->dag_off_[p] == idx->dag_off_[p + 1]) {
        idx->ivs_.push_back({p, p, 1});  // a sink reaches only itself
      } else {
        // Successor sets first, then [p, p] (p exceeds every successor
        // pid): a single successor, or successors in ascending pid
        // order, leave the scratch already sorted.
        scratch.clear();
        for (uint32_t e = idx->dag_off_[p]; e < idx->dag_off_[p + 1]; ++e) {
          const uint32_t q = idx->dag_to_[e];
          scratch.insert(scratch.end(), idx->ivs_.begin() + idx->iv_off_[q],
                         idx->ivs_.begin() + idx->iv_off_[q + 1]);
        }
        scratch.push_back({p, p, 1});
        Coalesce(scratch, &merged);
        ApplyBudget(&merged, opts.interval_budget);
        idx->ivs_.insert(idx->ivs_.end(), merged.begin(), merged.end());
      }
      idx->iv_off_[p + 1] = static_cast<uint32_t>(idx->ivs_.size());
      for (uint32_t i = idx->iv_off_[p]; i < idx->iv_off_[p + 1]; ++i) {
        const Iv& iv = idx->ivs_[i];
        if (!iv.exact) {
          idx->pid_exact_[p] = 0;
          idx->exact_ = false;
        }
        idx->closure_size_[p] += idx->members_off_[iv.hi + 1] -
                                 idx->members_off_[iv.lo];
      }
    }
  }

  // ---- per-triple object pids + output bound -------------------------
  idx->obj_pid_.resize(spo.size());
  uint64_t rows = 0;
  for (size_t i = 0; i < spo.size(); ++i) {
    const uint32_t q = idx->comp_[g.to[i]];
    idx->obj_pid_[i] = q;
    rows += idx->closure_size_[q];
  }
  idx->star_rows_ = rows;

  idx->build_ns_ = MonotonicNanos() - t0;
  if (MetricsEnabled()) {
    MetricsRegistry& reg = MetricsRegistry::Global();
    reg.GetCounter("reach.index_builds")->Increment();
    reg.GetHistogram("reach.index_build_ns")->Observe(idx->build_ns_);
  }
  return idx;
}

ptrdiff_t ReachIndex::FindCovering(uint32_t p, uint32_t t) const {
  const auto first = ivs_.begin() + iv_off_[p];
  const auto last = ivs_.begin() + iv_off_[p + 1];
  auto it = std::upper_bound(first, last, t, [](uint32_t v, const Iv& iv) {
    return v < iv.lo;
  });
  if (it == first) return -1;
  const ptrdiff_t i = (it - ivs_.begin()) - 1;
  return ivs_[i].hi >= t ? i : -1;
}

bool ReachIndex::DfsReaches(uint32_t cf, uint32_t ct) const {
  // The approximate-hit fallback: DFS over the condensation, entering
  // only successors whose (over-approximating, hence sound) interval
  // set could still contain the target.  Per-call scratch — this path
  // only runs for budgeted indexes.
  std::vector<uint8_t> visited(num_sccs_, 0);
  std::vector<uint32_t> stack(1, cf);
  visited[cf] = 1;
  while (!stack.empty()) {
    const uint32_t u = stack.back();
    stack.pop_back();
    if (u == ct) return true;
    for (uint32_t e = dag_off_[u]; e < dag_off_[u + 1]; ++e) {
      const uint32_t w = dag_to_[e];
      if (visited[w]) continue;
      const ptrdiff_t iv = FindCovering(w, ct);
      if (iv < 0) continue;
      if (ivs_[iv].exact) return true;
      visited[w] = 1;
      stack.push_back(w);
    }
  }
  return false;
}

bool ReachIndex::Reaches(ObjId from, ObjId to) const {
  if (from == to) return true;  // the star is reflexive
  const uint32_t df = ids_.DenseOrNoNode(from);
  const uint32_t dt = ids_.DenseOrNoNode(to);
  if (df == kNoNode || dt == kNoNode) return false;
  const uint32_t cf = comp_[df], ct = comp_[dt];
  if (cf == ct) return true;  // same SCC
  const ptrdiff_t iv = FindCovering(cf, ct);
  if (iv < 0) return false;          // not even over-approximated
  if (ivs_[iv].exact) return true;   // exact interval: definite
  return DfsReaches(cf, ct);
}

void ReachIndex::ReachablePids(uint32_t p, std::vector<uint8_t>* visited,
                               std::vector<uint32_t>* seen) const {
  // Breadth-first, with `seen` as the queue.
  const size_t first = seen->size();
  seen->push_back(p);
  (*visited)[p] = 1;
  for (size_t i = first; i < seen->size(); ++i) {
    const uint32_t u = (*seen)[i];
    for (uint32_t e = dag_off_[u]; e < dag_off_[u + 1]; ++e) {
      const uint32_t w = dag_to_[e];
      if ((*visited)[w]) continue;
      (*visited)[w] = 1;
      seen->push_back(w);
    }
  }
  for (size_t i = first; i < seen->size(); ++i) (*visited)[(*seen)[i]] = 0;
}

void ReachIndex::EnsureClosures(const ExecOptions& exec) const {
  std::call_once(closures_once_, [&] {
    // Sizes first, for the object pids only: an exact pid knows its
    // closure size, an approximate one recovers its reachable pid set
    // by condensation DFS (budgeted indexes only).
    std::vector<uint8_t> needed(num_sccs_, 0);
    for (uint32_t q : obj_pid_) needed[q] = 1;
    closure_off_.assign(num_sccs_ + 1, 0);
    {
      std::vector<uint8_t> visited(exact_ ? 0 : num_sccs_, 0);
      std::vector<uint32_t> seen;
      for (uint32_t p = 0; p < num_sccs_; ++p) {
        size_t size = 0;
        if (needed[p] && pid_exact_[p]) {
          size = closure_size_[p];
        } else if (needed[p]) {
          seen.clear();
          ReachablePids(p, &visited, &seen);
          for (uint32_t u : seen) {
            size += members_off_[u + 1] - members_off_[u];
          }
        }
        closure_off_[p + 1] = closure_off_[p] + size;
      }
    }
    closure_ids_.resize(closure_off_[num_sccs_]);

    // Then each closure fills its own slice: one member run per
    // interval (exact) or per reachable pid (approximate), sorted.
    auto fill = [&](size_t begin, size_t end) {
      std::vector<uint8_t> visited;
      std::vector<uint32_t> seen;
      for (size_t p = begin; p < end; ++p) {
        if (closure_off_[p] == closure_off_[p + 1]) continue;
        ObjId* const first = closure_ids_.data() + closure_off_[p];
        ObjId* out = first;
        auto append = [&](uint32_t lo, uint32_t hi) {
          out = std::copy(members_.begin() + members_off_[lo],
                          members_.begin() + members_off_[hi + 1], out);
        };
        if (pid_exact_[p]) {
          for (uint32_t i = iv_off_[p]; i < iv_off_[p + 1]; ++i) {
            append(ivs_[i].lo, ivs_[i].hi);
          }
        } else {
          if (visited.empty()) visited.assign(num_sccs_, 0);
          seen.clear();
          ReachablePids(static_cast<uint32_t>(p), &visited, &seen);
          for (uint32_t u : seen) append(u, u);
        }
        if (out - first > 1) std::sort(first, out);
      }
    };
    if (exec.ShouldParallelize(closure_ids_.size() / kRowsPerParallelItem)) {
      const size_t threads = exec.EffectiveThreads();
      std::vector<ChunkRange> chunks =
          SplitEven(num_sccs_, threads * kChunksPerThread);
      ParallelFor(chunks.size(), threads, [&](size_t c) {
        fill(chunks[c].begin, chunks[c].end);
      });
    } else {
      fill(0, num_sccs_);
    }
  });
}

Result<TripleSet> ReachIndex::EmitStar(const TripleSet& base,
                                       const ExecOptions& exec,
                                       size_t max_result_triples) const {
  const std::vector<Triple>& spo = base.triples();
  if (spo.empty()) return TripleSet();
  EnsureClosures(exec);

  // The closure of base triple i's object, as a sorted id range.
  auto closure_begin = [&](size_t i) {
    return closure_ids_.data() + closure_off_[obj_pid_[i]];
  };
  auto closure_end = [&](size_t i) {
    return closure_ids_.data() + closure_off_[obj_pid_[i] + 1];
  };
  // Emits the rows of base triples [begin, end) — which must start and
  // end at (s, p) group boundaries — sorted-unique through `put`.
  // `group_done` runs after each group; false aborts.
  auto emit_range = [&](size_t begin, size_t end, const auto& put,
                        const auto& group_done) {
    std::vector<ObjId> scratch;
    size_t i = begin;
    while (i < end) {
      size_t j = i + 1;
      while (j < end && spo[j].s == spo[i].s && spo[j].p == spo[i].p) ++j;
      const ObjId s = spo[i].s, p = spo[i].p;
      if (j - i == 1) {
        // Single object: its sorted closure is the group's output run.
        for (const ObjId* l = closure_begin(i); l != closure_end(i); ++l) {
          put(Triple{s, p, *l});
        }
      } else {
        // Multiple objects: merge their (possibly overlapping) sorted
        // closures, then dedup.
        scratch.assign(closure_begin(i), closure_end(i));
        for (size_t k = i + 1; k < j; ++k) {
          const size_t mid = scratch.size();
          scratch.insert(scratch.end(), closure_begin(k), closure_end(k));
          std::inplace_merge(scratch.begin(), scratch.begin() + mid,
                             scratch.end());
        }
        scratch.erase(std::unique(scratch.begin(), scratch.end()),
                      scratch.end());
        for (ObjId l : scratch) put(Triple{s, p, l});
      }
      if (!group_done()) return false;
      i = j;
    }
    return true;
  };
  auto no_guard = [] { return true; };

  // star_rows_ bounds the output from above, so within the guard the
  // parallel path needs no guard of its own.  It is also the work: a
  // row is one copy, so the pool pays off only when the rows are many
  // times the threshold a kernel's items are counted against.
  if (star_rows_ <= max_result_triples &&
      exec.ShouldParallelize(star_rows_ / kRowsPerParallelItem)) {
    // Chunks of about equal output, snapped forward to (s, p) group
    // ends so that their outputs concatenate in order to the sorted-
    // unique result.
    const size_t threads = exec.EffectiveThreads();
    const uint64_t target = star_rows_ / (threads * kChunksPerThread) + 1;
    std::vector<size_t> bounds(1, 0);
    uint64_t rows = 0, cut = 0;
    for (size_t i = 0; i < spo.size(); ++i) {
      rows += closure_end(i) - closure_begin(i);
      const bool last = i + 1 == spo.size();
      if (last || ((spo[i + 1].s != spo[i].s || spo[i + 1].p != spo[i].p) &&
                   rows - cut >= target)) {
        bounds.push_back(i + 1);
        cut = rows;
      }
    }
    const size_t nchunks = bounds.size() - 1;
    // Each chunk writes its own slice of one buffer.  A counting pass
    // sizes the slices exactly (overlapping closures in a multi-object
    // group shrink its union), so the slices tile the buffer.
    std::vector<size_t> slice(nchunks + 1, 0);
    ParallelFor(nchunks, threads, [&](size_t c) {
      size_t n = 0;
      emit_range(bounds[c], bounds[c + 1], [&](const Triple&) { ++n; },
                 no_guard);
      slice[c + 1] = n;
    });
    for (size_t c = 0; c < nchunks; ++c) slice[c + 1] += slice[c];
    std::vector<Triple> out(slice[nchunks]);
    ParallelFor(nchunks, threads, [&](size_t c) {
      Triple* w = out.data() + slice[c];
      emit_range(bounds[c], bounds[c + 1], [&](const Triple& t) { *w++ = t; },
                 no_guard);
    });
    return TripleSet::FromSortedUnique(std::move(out));
  }

  std::vector<Triple> out;
  // Never reserve (much) past the result guard: an overflowing emission
  // aborts without having paid its full allocation.
  const uint64_t guard_cap =
      max_result_triples < kEmitReserveCap
          ? static_cast<uint64_t>(max_result_triples) + 1
          : kEmitReserveCap;
  out.reserve(static_cast<size_t>(std::min(star_rows_, guard_cap)));
  const bool fits = emit_range(
      0, spo.size(), [&](const Triple& t) { out.push_back(t); },
      [&] { return out.size() <= max_result_triples; });
  if (!fits) return Status::ResourceExhausted("star result too large");
  return TripleSet::FromSortedUnique(std::move(out));
}

}  // namespace reach
}  // namespace trial
