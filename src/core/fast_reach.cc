#include "core/fast_reach.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/eval.h"
#include "core/reach/graph.h"

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
// Procedure 3 is serial: no plan runs it, it is the oracle the interval
// index is checked and timed against.  Procedure 4's middle groups are
// independent, so it is a chunk body of GuardedKernel (core/eval.h):
// chunks of the group list expand with chunk-private scratch, one chunk
// when serial, and their output runs are merged into one sorted set, so
// results are identical for any thread count.  The permutations the
// chunks read are materialized before the chunks run.

constexpr uint32_t kUnset = UINT32_MAX;

// The node universe of the projected graph lives in core/reach/graph.h,
// shared with the interval reachability index and Dijkstra.
using NodeMap = reach::NodeMap;

// DFS scratch sized by the dense node count, reused across sources via
// stamps.  Procedure 3 needs only the visit marks (its slot map lives
// outside the scratch, read by the emission phase).
struct MarkScratch {
  explicit MarkScratch(size_t n) : mark(n, kUnset) {}

  std::vector<uint32_t> mark;   // stamped with a source counter
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

Result<TripleSet> StarReachAnyPath(const TripleSet& base) {
  base.Materialize(IndexOrder::kOSP);  // sources come off OSP
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

  // Per-source reflexive-transitive closure; the visit marks are
  // stamped with the source's index, so they are never cleared.
  std::vector<std::vector<ObjId>> reach(sources.size());
  MarkScratch scratch(ids.size());
  for (size_t si = 0; si < sources.size(); ++si) {
    uint32_t stamp = static_cast<uint32_t>(si);
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

  // Emission: (s, p, l) for every base triple and every l reachable
  // from its object.
  size_t rows = 0;
  for (const Triple& t : spo) rows += reach[slot_of[ids.Dense(t.o)]].size();
  std::vector<Triple> out;
  out.reserve(rows);
  for (const Triple& t : spo) {
    for (ObjId l : reach[slot_of[ids.Dense(t.o)]]) {
      out.push_back(Triple{t.s, t.p, l});
    }
  }
  return TripleSet(std::move(out));
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

  // Processes the chunk's range of groups, appending output triples in
  // group order.  Chunk-local scratch: `si` stamps stay distinct across
  // the chunk's groups, so slot entries from earlier groups are ignored
  // via the generation guard instead of a per-group clear.  A group's
  // rows are counted into the guard before it emits them.
  auto process_groups = [&](ChunkRange chunk, std::vector<Triple>* out,
                            ChunkGuard& guard) {
    GroupScratch scratch(ids.size());
    uint32_t next_si = 0;
    std::vector<std::vector<ObjId>> reach;
    for (size_t g = chunk.begin; g < chunk.end; ++g) {
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
      if (!guard(out->size() + n)) return;
      for (const Triple* t = gb; t != ge; ++t) {
        for (ObjId l : reach[scratch.slot[ids.Dense(t->o)]]) {
          out->push_back(Triple{t->s, mid, l});
        }
      }
    }
  };
  return GuardedKernel(pos.size(), exec, max_result_triples,
                       "star result too large",
                       [&](size_t k) { return SplitEven(groups.size(), k); },
                       process_groups);
}

}  // namespace trial
