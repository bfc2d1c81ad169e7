// Reachability fast paths: Procedures 3 and 4 of the paper
// (Proposition 5, the reachTA= fragment), in sparse form.
//
// Both compute a Kleene star (R ⋈^{1,2,3'}_θ)* in O(|O|·|T|) style time:
//  * SpecA (θ = {3=1'}):    "reachable by an arbitrary path";
//  * SpecB (θ = {3=1',2=2'}): "…by a path labeled with the same element".

#ifndef TRIAL_CORE_FAST_REACH_H_
#define TRIAL_CORE_FAST_REACH_H_

#include <cstdint>

#include "storage/triple_set.h"
#include "util/status.h"
#include "util/parallel.h"

namespace trial {

/// (R ⋈^{1,2,3'}_{3=1'})* — Procedure 3, sparse: build the projected
/// reachability graph { i -> j : (i,·,j) ∈ R }, take its
/// reflexive-transitive closure from every needed source, and emit
/// (i, k, l) for every (i, k, j) ∈ R and l reachable from j.
///
/// Serial.  No plan runs it: the planner lowers every such star to the
/// interval index's ReachIndexScan (core/reach/reach_index.h).  It
/// stays as the oracle that tests and benchmarks check and time the
/// index against, so it has no result-size guard and no thread knob.
Result<TripleSet> StarReachAnyPath(const TripleSet& base);

/// (R ⋈^{1,2,3'}_{3=1',2=2'})* — Procedure 4, sparse: same computation
/// restricted to the subgraph of triples sharing each middle element.
/// Middle groups are independent: with exec.num_threads > 1 chunks of
/// them run in parallel on GuardedKernel (core/eval.h), and results are
/// identical for any thread count.
///
/// kResourceExhausted when more than `max_result_triples` rows would be
/// emitted.  Like the join kernels' guard, it counts rows before dedup,
/// so success or failure never depends on the thread count.
Result<TripleSet> StarReachSameMiddle(
    const TripleSet& base, const ExecOptions& exec = {},
    size_t max_result_triples = SIZE_MAX);

}  // namespace trial

#endif  // TRIAL_CORE_FAST_REACH_H_
