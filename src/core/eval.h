// Evaluator interface: QueryComputation (Section 5).
//
// Three interchangeable engines implement the same semantics and are
// cross-checked against each other by the property tests:
//
//  * Naive  — the paper's nested-loop algorithm (Procedures 1 and 2) on
//             sorted triple vectors; O(|e|·|T|²) joins, O(|e|·|T|³) stars.
//  * Matrix — Theorem 3's algorithm verbatim on the dense n×n×n bit
//             tensor ("array representation"); faithful but bounded to
//             small object counts.
//  * Smart  — hash joins on the θ/η equality columns, selection pushdown
//             and semi-naive (delta) fixpoints, plus the Proposition 4/5
//             fast paths when the fragment analyzer proves the expression
//             lies in TriAL= / reachTA=.

#ifndef TRIAL_CORE_EVAL_H_
#define TRIAL_CORE_EVAL_H_

#include <atomic>
#include <cstddef>
#include <memory>
#include <vector>

#include "core/exec_limits.h"
#include "core/expr.h"
#include "storage/triple_store.h"
#include "util/parallel.h"
#include "util/status.h"

namespace trial {

/// Resource guards for evaluation: the shared ExecLimits
/// (max_result_triples, max_rounds, exec) under the TriAL engines'
/// historical name.  DatalogOptions derives from the same base, so the
/// guard and threading plumbing is defined exactly once.
struct EvalOptions : ExecLimits {};

/// Abstract QueryComputation engine: e, T  ->  e(T).
class Evaluator {
 public:
  virtual ~Evaluator() = default;

  /// Computes e(T).  Errors: kNotFound (unknown relation name),
  /// kInvalidArgument (non-unary selection condition),
  /// kResourceExhausted (guards exceeded).
  virtual Result<TripleSet> Eval(const ExprPtr& e,
                                 const TripleStore& store) = 0;

  /// Engine name for reporting.
  virtual const char* name() const = 0;
};

/// The paper's nested-loop engine.
std::unique_ptr<Evaluator> MakeNaiveEvaluator(EvalOptions opts = {});

/// Theorem 3's dense-tensor engine.  Object count is limited by memory
/// (n^3/8 bytes per materialized relation).
std::unique_ptr<Evaluator> MakeMatrixEvaluator(EvalOptions opts = {});

/// Hash-join + semi-naive engine with TriAL= / reachTA= fast paths.
std::unique_ptr<Evaluator> MakeSmartEvaluator(EvalOptions opts = {});

/// Checks structural validity of an expression independent of a store:
/// selection conditions must be unary.  (Unknown relation names are
/// reported at evaluation time, when the store is known.)
Status ValidateExpr(const ExprPtr& e);

/// Objects occurring in at least one triple of the store ("occurs in our
/// triplestore database", the domain of the universal relation U).
std::vector<ObjId> ActiveObjects(const TripleStore& store);

/// Materializes U — all triples over ActiveObjects — guarded by
/// `max_result_triples` (kResourceExhausted when |O|^3 exceeds it; the
/// comparison is done in double, since n^3 overflows size_t past ~2.6M
/// objects).  Shared by the naive engine and the plan executor so the
/// guard semantics cannot diverge.
Result<TripleSet> MaterializeUniverse(const TripleStore& store,
                                      size_t max_result_triples);

/// Selection σ_{cond}(in) with index pushdown, shared by the engines:
/// equality-to-constant θ atoms bind columns, which route through the
/// access-path API (TripleSet::Lookup / LookupPair) instead of a linear
/// scan; the full condition is re-verified on every candidate.
/// Pre: `cond` is unary (ValidateExpr enforces this).
/// `strategy_out`, when non-null, receives the route actually taken —
/// "index" (range probe), "scan" (linear filter) or "empty"
/// (contradictory constants) — for the plan executor's EXPLAIN output.
/// The index route materializes the probed permutation with `exec`
/// first, so a cold build of a large relation runs in parallel.
TripleSet SelectIndexed(const TripleSet& in, const CondSet& cond,
                        const TripleStore& store,
                        const char** strategy_out = nullptr,
                        const ExecOptions& exec = {});

/// The result set of a kernel that emitted `runs` (per-chunk output
/// buffers, unsorted, possibly overlapping).  A large result
/// (exec.ShouldParallelize of its size) is sorted and deduped here by
/// the parallel SortUnique, and that time is recorded as
/// exec.materialize_ns; a smaller one is concatenated and left to the
/// set's lazy serial normalize, as a single-threaded kernel leaves it.
TripleSet KernelResult(std::vector<std::vector<Triple>> runs,
                       const ExecOptions& exec);
/// KernelResult of a single output buffer.
TripleSet KernelResult(std::vector<Triple> out, const ExecOptions& exec);

/// Runs a kernel over chunks of its input: `split(k)` cuts the input
/// into (at most) k chunks and body(chunk, &buffer) fills one private
/// output buffer per chunk; the buffers come back in chunk order.  k is
/// threads * kChunksPerThread when exec.ShouldParallelize(work), else 1,
/// and a single chunk runs inline on the calling thread (it never
/// touches the pool).  Chunk boundaries depend only on k, so a kernel
/// whose body writes only its own buffer is deterministic for a given
/// k, and one whose runs are merged into a set is byte-identical at
/// every thread count.
template <typename Split, typename Body>
std::vector<std::vector<Triple>> ChunkRuns(size_t work,
                                           const ExecOptions& exec,
                                           const Split& split,
                                           const Body& body) {
  const size_t threads = exec.EffectiveThreads();
  const auto chunks =
      split(exec.ShouldParallelize(work) ? threads * kChunksPerThread : 1);
  std::vector<std::vector<Triple>> runs(chunks.size());
  auto run = [&](size_t c) { body(chunks[c], &runs[c]); };
  if (runs.size() == 1) {
    run(0);
  } else {
    ParallelFor(runs.size(), threads, run);
  }
  return runs;
}

/// Rows a chunk emits between two flushes of its count into its
/// kernel's shared result-size total: a runaway kernel stops within a
/// stride per chunk, without an atomic per row.
inline constexpr size_t kGuardStride = 4096;

/// A chunk's handle on the result-size guard of a GuardedKernel.
class ChunkGuard {
 public:
  /// The kernel's emitted-row total, shared by its chunks.
  struct Total {
    explicit Total(size_t max_rows) : limit(max_rows) {}
    const size_t limit;
    std::atomic<size_t> rows{0};
    std::atomic<bool> exceeded{false};
  };

  explicit ChunkGuard(Total& total) : total_(total) {}

  /// False once the kernel's total is known to exceed the limit: the
  /// chunk should stop emitting.  `rows` is the chunk's emitted count —
  /// its buffer size, or the size it is about to reach.
  bool operator()(size_t rows) {
    if (total_.exceeded.load(std::memory_order_relaxed)) return false;
    return rows < flushed_ + kGuardStride || Flush(rows);
  }

  /// Adds the chunk's unflushed rows to the total; false when the total
  /// then exceeds the limit.
  bool Flush(size_t rows) {
    if (rows > flushed_) {
      size_t added = rows - flushed_;
      flushed_ = rows;
      if (total_.rows.fetch_add(added, std::memory_order_relaxed) + added >
          total_.limit) {
        total_.exceeded.store(true, std::memory_order_relaxed);
      }
    }
    return !total_.exceeded.load(std::memory_order_relaxed);
  }

 private:
  Total& total_;
  size_t flushed_ = 0;
};

/// ChunkRuns with a result-size guard, for the join and Procedure 4
/// kernels: body(chunk, &buffer, guard) calls guard(rows) as it emits
/// and stops when it returns false.  Every chunk's rows count toward
/// one total, so the kernel returns kResourceExhausted (`what`) exactly
/// when it emits more than `max_rows` rows before dedup — the same
/// outcome at every thread count — and KernelResult(runs) otherwise.
template <typename Split, typename Body>
Result<TripleSet> GuardedKernel(size_t work, const ExecOptions& exec,
                                size_t max_rows, const char* what,
                                const Split& split, const Body& body) {
  ChunkGuard::Total total(max_rows);
  std::vector<std::vector<Triple>> runs = ChunkRuns(
      work, exec, split,
      [&](const auto& chunk, std::vector<Triple>* out) {
        ChunkGuard guard(total);
        body(chunk, out, guard);
        guard.Flush(out->size());
      });
  if (total.exceeded.load()) return Status::ResourceExhausted(what);
  return KernelResult(std::move(runs), exec);
}

/// π_{1,3}: the pairs (s, o) of a triple set, as triples (s, s, o) are
/// NOT produced — this is the API-edge projection used when comparing
/// TriAL* with binary graph queries (Section 6.2); it leaves the algebra.
std::vector<std::pair<ObjId, ObjId>> ProjectSO(const TripleSet& set);

}  // namespace trial

#endif  // TRIAL_CORE_EVAL_H_
