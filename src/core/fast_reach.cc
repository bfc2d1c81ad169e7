#include "core/fast_reach.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <vector>

#include "core/eval.h"
#include "core/reach/graph.h"
#include "util/parallel.h"

namespace trial {
namespace {

// Both procedures run DFS over an adjacency relation read directly off
// the base set's permutation indexes — no edge vectors are materialized:
//
//  * Procedure 3 (any path): out-neighbors of u are the objects of the
//    contiguous SPO run with subject u; sources (every object position)
//    are the distinct leading values of the OSP permutation.
//  * Procedure 4 (same middle): within the POS group of one middle m,
//    out-neighbors of u are base.LookupPair(s=u, p=m) — an SPO prefix
//    probe; sources are the group's distinct (m, o) runs.
//
// Parallel execution: every source's DFS (Procedure 3) and every middle
// group (Procedure 4) is independent, so chunks of the source/group
// list expand concurrently with chunk-private scratch; reach sets are
// indexed by source, not by worker, and output chunks merge in order,
// so results are identical for any thread count.  All permutations the
// workers read are materialized before the parallel sections.

constexpr uint32_t kUnset = UINT32_MAX;

// The node universe of the projected graph lives in core/reach/graph.h,
// shared with the interval reachability index and Dijkstra.
using NodeMap = reach::NodeMap;

// DFS scratch sized by the dense node count; one per worker chunk,
// reused across that chunk's sources via stamps.  Procedure 3 needs
// only the visit marks (its slot map lives outside the scratch, shared
// read-only by the emission phase).
struct MarkScratch {
  explicit MarkScratch(size_t n) : mark(n, kUnset) {}

  std::vector<uint32_t> mark;   // stamped with a per-chunk source counter
  std::vector<uint32_t> stack;  // dense DFS stack
};

// Procedure 4 additionally tracks a per-middle-group slot map, with a
// generation guard so earlier groups need no clearing.
struct GroupScratch : MarkScratch {
  explicit GroupScratch(size_t n)
      : MarkScratch(n), slot(n, 0), slot_gen(n, kUnset) {}

  std::vector<uint32_t> slot;      // dense node -> local reach-set slot
  std::vector<uint32_t> slot_gen;  // generation guard for `slot`
};

}  // namespace

Result<TripleSet> StarReachAnyPath(const TripleSet& base,
                                   const ExecOptions& exec) {
  base.Materialize(IndexOrder::kOSP, exec);  // sources come off OSP
  const std::vector<Triple>& spo = base.triples();
  if (spo.empty()) return TripleSet();
  NodeMap ids(base);

  // Adjacency from the SPO index: per subject, its contiguous run.
  std::vector<uint32_t> run_lo(ids.size(), 0), run_hi(ids.size(), 0);
  for (size_t i = 0; i < spo.size();) {
    size_t j = i;
    while (j < spo.size() && spo[j].s == spo[i].s) ++j;
    uint32_t u = ids.Dense(spo[i].s);
    run_lo[u] = static_cast<uint32_t>(i);
    run_hi[u] = static_cast<uint32_t>(j);
    i = j;
  }

  // Sources: the distinct object values, off the OSP permutation; the
  // dense node -> reach-set slot map drives output emission.
  std::vector<ObjId> sources;
  std::vector<uint32_t> slot_of(ids.size(), kUnset);
  for (const Triple& t : base.Scan(IndexOrder::kOSP)) {
    uint32_t d = ids.Dense(t.o);
    if (slot_of[d] != kUnset) continue;
    slot_of[d] = static_cast<uint32_t>(sources.size());
    sources.push_back(t.o);
  }

  // Per-source reflexive-transitive closure.  Each source writes only
  // its own reach slot, so source chunks expand concurrently.
  std::vector<std::vector<ObjId>> reach(sources.size());
  auto expand_chunk = [&](size_t begin, size_t end) {
    MarkScratch scratch(ids.size());
    for (size_t si = begin; si < end; ++si) {
      uint32_t stamp = static_cast<uint32_t>(si - begin);
      uint32_t src = ids.Dense(sources[si]);
      std::vector<ObjId>& rs = reach[si];
      scratch.stack.assign(1, src);
      scratch.mark[src] = stamp;
      rs.push_back(sources[si]);
      while (!scratch.stack.empty()) {
        uint32_t u = scratch.stack.back();
        scratch.stack.pop_back();
        for (uint32_t e = run_lo[u]; e < run_hi[u]; ++e) {
          uint32_t v = ids.Dense(spo[e].o);
          if (scratch.mark[v] != stamp) {
            scratch.mark[v] = stamp;
            rs.push_back(spo[e].o);
            scratch.stack.push_back(v);
          }
        }
      }
    }
  };
  size_t threads = exec.EffectiveThreads();
  if (exec.ShouldParallelize(sources.size())) {
    // One chunk per thread, not oversplit: every chunk pays an O(n)
    // scratch zero-fill, so fewer, larger chunks win here (the stamp
    // reuse amortizes the fill across the chunk's sources).
    std::vector<ChunkRange> chunks = SplitEven(sources.size(), threads);
    ParallelFor(chunks.size(), threads,
                [&](size_t c) { expand_chunk(chunks[c].begin, chunks[c].end); });
  } else {
    expand_chunk(0, sources.size());
  }

  // Emission: (s, p, l) for every base triple and every l reachable
  // from its object.
  auto emit = [&](size_t, size_t begin, size_t end,
                  std::vector<Triple>* out) {
    size_t n = 0;
    for (size_t i = begin; i < end; ++i) {
      n += reach[slot_of[ids.Dense(spo[i].o)]].size();
    }
    out->reserve(n);
    for (size_t i = begin; i < end; ++i) {
      const Triple& t = spo[i];
      for (ObjId l : reach[slot_of[ids.Dense(t.o)]]) {
        out->push_back(Triple{t.s, t.p, l});
      }
    }
  };
  std::vector<std::vector<Triple>> runs;
  if (exec.ShouldParallelize(spo.size())) {
    runs = ParallelChunkedRuns<Triple>(spo.size(), threads, emit);
  } else {
    runs.resize(1);
    emit(0, 0, spo.size(), &runs[0]);
  }
  return KernelResult(std::move(runs), exec);
}

Result<TripleSet> StarReachSameMiddle(const TripleSet& base,
                                     const ExecOptions& exec,
                                     size_t max_result_triples) {
  base.Materialize(IndexOrder::kPOS, exec);
  TripleRange pos = base.Scan(IndexOrder::kPOS);  // sorted (p, o, s)
  if (pos.empty()) return TripleSet();
  base.triples();  // the group DFS probes SPO prefixes: materialize
  NodeMap ids(base);

  // Middle-group boundaries off the POS permutation; groups are the
  // independent units of (parallel) work.
  std::vector<TripleRange> groups;
  for (const Triple* gb = pos.begin(); gb != pos.end();) {
    const Triple* ge = gb;
    while (ge != pos.end() && ge->p == gb->p) ++ge;
    groups.push_back({gb, ge});
    gb = ge;
  }

  // Processes groups [gbegin, gend), appending output triples in group
  // order.  Chunk-local scratch: `si` stamps stay distinct across the
  // chunk's groups, so slot entries from earlier groups are ignored via
  // the generation guard instead of a per-group clear.  A group counts
  // its rows into the shared total before emitting, as in Procedure 3.
  std::atomic<size_t> rows{0};
  auto process_groups = [&](size_t gbegin, size_t gend,
                            std::vector<Triple>* out) {
    GroupScratch scratch(ids.size());
    uint32_t next_si = 0;
    std::vector<std::vector<ObjId>> reach;
    for (size_t g = gbegin; g < gend; ++g) {
      if (rows.load(std::memory_order_relaxed) > max_result_triples) return;
      const Triple* gb = groups[g].begin();
      const Triple* ge = groups[g].end();
      ObjId mid = gb->p;
      uint32_t group_gen = next_si;
      reach.clear();
      for (const Triple* t = gb; t != ge; ++t) {
        uint32_t src = ids.Dense(t->o);
        if (scratch.slot_gen[src] >= group_gen &&
            scratch.slot_gen[src] != kUnset) {
          continue;  // o already a source in this group
        }
        uint32_t si = next_si++;
        scratch.slot_gen[src] = si;
        scratch.slot[src] = static_cast<uint32_t>(reach.size());
        reach.emplace_back();
        std::vector<ObjId>& rs = reach.back();
        scratch.stack.assign(1, src);
        scratch.mark[src] = si;
        rs.push_back(t->o);
        while (!scratch.stack.empty()) {
          ObjId u = ids.Raw(scratch.stack.back());
          scratch.stack.pop_back();
          for (const Triple& edge : base.LookupPair(0, u, 1, mid)) {
            uint32_t v = ids.Dense(edge.o);
            if (scratch.mark[v] != si) {
              scratch.mark[v] = si;
              rs.push_back(edge.o);
              scratch.stack.push_back(v);
            }
          }
        }
      }
      size_t n = 0;
      for (const Triple* t = gb; t != ge; ++t) {
        n += reach[scratch.slot[ids.Dense(t->o)]].size();
      }
      if (rows.fetch_add(n, std::memory_order_relaxed) + n >
          max_result_triples) {
        return;
      }
      for (const Triple* t = gb; t != ge; ++t) {
        for (ObjId l : reach[scratch.slot[ids.Dense(t->o)]]) {
          out->push_back(Triple{t->s, mid, l});
        }
      }
    }
  };

  std::vector<std::vector<Triple>> runs;
  if (exec.ShouldParallelize(pos.size()) && groups.size() > 1) {
    runs = ParallelChunkedRuns<Triple>(
        groups.size(), exec.EffectiveThreads(),
        [&](size_t, size_t begin, size_t end, std::vector<Triple>* out) {
          process_groups(begin, end, out);
        });
  } else {
    runs.resize(1);
    process_groups(0, groups.size(), &runs[0]);
  }
  if (rows.load() > max_result_triples) {
    return Status::ResourceExhausted("star result too large");
  }
  return KernelResult(std::move(runs), exec);
}

}  // namespace trial
