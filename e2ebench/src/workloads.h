// The three workloads of the end-to-end benchmark: their seeded inputs,
// their set-up (bulk load or snapshot open), their query mixes and the
// second route each answer is checked against.
//
//   bgp_mix          10^6-triple Zipf store bulk-loaded from N-Triples;
//                    SP²Bench-shaped lookups, stars, chains and cycles.
//   transport_paths  the paper's Figure 1 network (~3,600 triples),
//                    opened from a snapshot; reachability stars, query Q,
//                    a Datalog program and a shortest path.
//   update_mix       the bgp_mix store opened from a snapshot; 1,000-
//                    triple write batches alternating with reads, with
//                    adaptive execution on.

#ifndef TRIAL_E2EBENCH_WORKLOADS_H_
#define TRIAL_E2EBENCH_WORKLOADS_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "core/eval.h"
#include "core/exec_limits.h"
#include "loader/bulk_load.h"
#include "storage/segment/store_snapshot.h"
#include "storage/triple_store.h"
#include "util/status.h"

namespace e2e {

/// Everything a run is parameterized by.
struct BenchConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Small inputs for the benchmark's own tests.
  bool tiny = false;
  /// Self-test: perturb some observed answers so the checker must
  /// report them as wrong.
  bool corrupt = false;
  /// Query and loader threads: min(4, host cores).
  size_t threads = 4;
  /// Directory holding this (workload, size, seed)'s cached inputs.
  std::string data_dir;
};

enum class OpKind { kTriAL, kDatalog, kShortestPath, kWrite };

/// One operation of a workload's closed loop.
struct Op {
  std::string cls;  ///< query class, e.g. "hop2"; "write" for batches
  OpKind kind = OpKind::kTriAL;
  std::string text;  ///< TriAL* expression or Datalog program
  std::string src;   ///< kShortestPath endpoints (object names)
  std::string dst;
  std::vector<std::array<std::string, 3>> batch;  ///< kWrite triples
};

/// How one set-up went; the layer figures feed the traced run.
struct SetupInfo {
  double seconds = 0;
  bool bulk_loaded = false;
  trial::BulkLoadStats load;
  bool snapshot_opened = false;
  trial::OpenSnapshotStats open;
};

/// The second route an answer is compared against.
enum class CheckRoute {
  kSerialPlan,  ///< PlanExpr + ExecutePlan at 1 thread, static plan
  kDatalog,     ///< TriALToDatalog + direct EvalProgram at 1 thread
  kTranslated,  ///< (Datalog ops) ProgramToTriAL + 1-thread plan
  kBfsPath,     ///< (shortest paths) breadth-first search in the bench
};

class Workload {
 public:
  explicit Workload(const BenchConfig& cfg) : cfg_(cfg) {}
  virtual ~Workload() = default;

  /// Writes the seeded inputs into cfg.data_dir unless already there.
  virtual trial::Status Prepare() = 0;
  /// Brings up a query-ready store from the prepared inputs.
  virtual trial::Result<trial::TripleStore> Setup(SetupInfo* info) = 0;
  /// Set-ups per run; their median is setup_s.
  virtual int SetupRepeats() const = 0;
  /// How many of the last set-ups are each followed by a cold pass;
  /// their median is cold_pass_s.  At most SetupRepeats().
  virtual int ColdRepeats() const { return 3; }
  /// The ops of pass `index` (deterministic in the seed and index).
  /// `store` is the set-up store, consulted only to pick constants
  /// that exist in it.
  virtual std::vector<Op> Pass(size_t index,
                               const trial::TripleStore& store) const = 0;
  /// Whether queries run with adaptive re-optimization.
  virtual bool Adaptive() const { return false; }
  /// The second route for `op`.
  virtual CheckRoute RouteFor(const Op& op) const = 0;
  /// Sizes for the run record, as "key": value JSON members.
  virtual std::string SizesJson(const trial::TripleStore& store) const = 0;

  const BenchConfig& config() const { return cfg_; }

 protected:
  BenchConfig cfg_;
};

/// The workload named cfg.workload, or null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const BenchConfig& cfg);

/// Runs `op` the way a client of the library would: parse, evaluate
/// through one smart evaluator (or the Datalog engine / shortest-path
/// planner), read the result once.  `limits` carries the thread count
/// and the adaptive flag.  kWrite ops return an empty set.
class Client {
 public:
  explicit Client(const trial::ExecLimits& limits);
  trial::Result<trial::TripleSet> Run(const Op& op, trial::TripleStore& store);

 private:
  trial::ExecLimits limits_;
  std::unique_ptr<trial::Evaluator> eval_;
};

/// Applies a write batch: interns the names and appends the triples to
/// relation E in one BulkAppend.
void ApplyWrite(const Op& op, trial::TripleStore& store);

/// The answer `op` has by `route` on the store's current state.
trial::Result<Answer> ReferenceAnswer(const Op& op,
                                      const trial::TripleStore& store,
                                      CheckRoute route);

/// The Answer of an observed result of `op`.  Shortest paths are
/// summarized as (path length, 1 if the triples form a path from src to
/// dst in E else 0), matching what kBfsPath reports.
Answer ObservedAnswer(const Op& op, const trial::TripleSet& result,
                      const trial::TripleStore& store);

}  // namespace e2e

#endif  // TRIAL_E2EBENCH_WORKLOADS_H_
