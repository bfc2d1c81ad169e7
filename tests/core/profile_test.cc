// The profiling half of the observability layer: EXPLAIN ANALYZE
// rendering, span-trace collection and nesting invariants (static and
// adaptive runs), q-error agreement with the planner-estimate tests,
// the trace sink API, and the contract that the unprofiled executor
// path records nothing.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "core/builder.h"
#include "core/eval.h"
#include "core/plan/adapt.h"
#include "core/plan/plan.h"
#include "core/plan/profile.h"
#include "graph/generators.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace trial {
namespace plan {
namespace {

// Mirrors plan_test.cc's SkewedStore: the stores the PlannerEstimates
// q-error bounds are asserted on.
TripleStore SkewedStore(size_t triples, uint64_t seed = 11) {
  RandomStoreOptions opts;
  opts.num_objects = triples / 4 + 8;
  opts.num_triples = triples;
  opts.zipf_p = 1.3;
  opts.zipf_o = 0.8;
  opts.seed = seed;
  TripleStore store = RandomTripleStore(opts);
  for (RelId r = 0; r < store.NumRelations(); ++r) store.RelationStats(r);
  return store;
}

// Mirrors plan_test.cc's MultiJoinStore: two big Zipf relations plus a
// 24-triple one, so the DP reorderer produces a genuinely reshaped
// (bushy-capable) 3-relation plan.
TripleStore MultiJoinStore() {
  RandomStoreOptions opts;
  opts.num_objects = 200;
  opts.num_triples = 2500;
  opts.num_relations = 2;
  opts.zipf_p = 1.1;
  opts.zipf_o = 0.9;
  opts.seed = 29;
  TripleStore store = RandomTripleStore(opts);
  Rng rng(31);
  RelId tiny = store.AddRelation("tiny");
  auto obj = [&] {
    return store.InternObject("o" + std::to_string(rng.Below(200)));
  };
  for (int i = 0; i < 24; ++i) store.Add(tiny, obj(), obj(), obj());
  for (RelId r = 0; r < store.NumRelations(); ++r) store.RelationStats(r);
  return store;
}

ExprPtr CompositionJoin(ExprPtr l, ExprPtr r) {
  return Expr::Join(std::move(l), std::move(r),
                    Spec(Pos::P1, Pos::P2, Pos::P3p, {Eq(Pos::P3, Pos::P1p)}));
}

// Checks every span-tree invariant the exporter documents: child
// intervals nest inside the parent's, siblings are ordered and
// non-overlapping (children execute sequentially), and self time is
// cumulative minus the children's spans.
void CheckSpanInvariants(const QueryTrace& trace) {
  ASSERT_FALSE(trace.spans.empty());
  EXPECT_EQ(trace.spans[0].parent, -1);
  EXPECT_EQ(trace.wall_ns, trace.spans[0].end_ns - trace.spans[0].start_ns);
  for (size_t i = 0; i < trace.spans.size(); ++i) {
    const TraceSpan& s = trace.spans[i];
    EXPECT_LE(s.start_ns, s.end_ns) << "span " << i;
    uint64_t child_ns = 0;
    uint64_t prev_end = s.start_ns;
    for (size_t c = i + 1; c < trace.spans.size(); ++c) {
      if (trace.spans[c].parent != static_cast<int>(i)) continue;
      const TraceSpan& child = trace.spans[c];
      EXPECT_EQ(child.depth, s.depth + 1);
      // Nested inside the parent, after the previous sibling.
      EXPECT_GE(child.start_ns, prev_end) << "span " << c;
      EXPECT_LE(child.end_ns, s.end_ns) << "span " << c;
      prev_end = child.end_ns;
      child_ns += child.end_ns - child.start_ns;
    }
    EXPECT_EQ(s.self_ns, (s.end_ns - s.start_ns) - child_ns) << "span " << i;
    EXPECT_TRUE(s.rows_known) << "span " << i;
    EXPECT_GE(s.q_error, 1.0) << "span " << i;
  }
}

TEST(QErrorFn, ClampsAndIsSymmetricRatio) {
  EXPECT_DOUBLE_EQ(QError(100, 100), 1.0);
  EXPECT_DOUBLE_EQ(QError(100, 25), 4.0);
  EXPECT_DOUBLE_EQ(QError(25, 100), 4.0);
  // Zeros and sub-1 estimates clamp instead of dividing by zero.
  EXPECT_DOUBLE_EQ(QError(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(QError(0.25, 2), 2.0);
  EXPECT_DOUBLE_EQ(QError(8, 0), 8.0);
  // NaN estimates read as "no information" and infinities clamp to a
  // huge finite ratio — q-error is always finite and >= 1, so it can
  // feed histograms and the adaptive re-plan threshold safely.
  EXPECT_DOUBLE_EQ(QError(std::numeric_limits<double>::quiet_NaN(), 6), 6.0);
  EXPECT_TRUE(std::isfinite(QError(std::numeric_limits<double>::infinity(),
                                   std::numeric_limits<double>::infinity())));
  EXPECT_GE(QError(-std::numeric_limits<double>::infinity(), 2), 1.0);
}

// The profile layer's q-error must be exactly the ratio the
// PlannerEstimates suite computes — same plan, same stores, same seeds
// — so the tested <= 2.5 bound carries over to ANALYZE output.
TEST(ProfileQError, MatchesPlannerEstimateComputationOnZipfStores) {
  for (uint64_t seed : {11u, 12u, 13u}) {
    TripleStore store = SkewedStore(4096, seed);
    ExprPtr e = Expr::Join(
        Expr::Rel("E"), Expr::Rel("E"),
        Spec(Pos::P1, Pos::P3, Pos::P3p, {Eq(Pos::P2, Pos::P2p)}));
    PlanPtr p = PlanExpr(e, store);
    auto r = ExecutePlan(*p, store, {}, /*profile=*/true);
    ASSERT_TRUE(r.ok());
    double actual = static_cast<double>(r->size());
    ASSERT_GT(actual, 0);
    // The PlannerEstimates.EquiJoinQErrorBoundedOnZipfStores formula.
    double expected = std::max(p->est_rows / actual, actual / p->est_rows);
    ASSERT_TRUE(p->runtime.rows_known);
    EXPECT_EQ(p->runtime.actual_rows, r->size());
    EXPECT_DOUBLE_EQ(QError(p->est_rows, actual), expected);
    QueryTrace trace = CollectTrace(*p);
    ASSERT_FALSE(trace.spans.empty());
    EXPECT_DOUBLE_EQ(trace.spans[0].q_error, expected) << "seed " << seed;
    EXPECT_LE(trace.spans[0].q_error, 2.5) << "seed " << seed;
  }
}

// Bushy DP-reordered 3-relation plan, profiled at 1, 2 and 4 threads:
// results stay byte-identical, and every trace satisfies the nesting
// and monotonicity invariants (parallelism lives inside operator
// kernels, so sibling spans never interleave).
TEST(SpanTrace, NestsForDpReorderedPlanAcrossThreadCounts) {
  TripleStore store = MultiJoinStore();
  ExprPtr e = CompositionJoin(
      CompositionJoin(Expr::Rel("E"), Expr::Rel("E1")), Expr::Rel("tiny"));
  TripleSet serial_result;
  size_t serial_spans = 0;
  for (size_t threads : {1u, 2u, 4u}) {
    ExecLimits limits;
    limits.exec.num_threads = threads;
    limits.exec.min_parallel_items = 16;  // force the parallel kernels
    PlanPtr p = PlanExpr(e, store);
    auto r = ExecutePlan(*p, store, limits, /*profile=*/true);
    ASSERT_TRUE(r.ok()) << "threads " << threads;
    if (threads == 1) {
      serial_result = *r;
    } else {
      EXPECT_EQ(*r, serial_result) << "threads " << threads;
    }
    EXPECT_TRUE(p->runtime.profiled);
    QueryTrace trace = CollectTrace(*p, "multi-join", threads);
    EXPECT_EQ(trace.threads, threads);
    // One span per plan node: the DP plan joins three scans.
    EXPECT_EQ(trace.spans.size(), p->TreeSize());
    EXPECT_GE(trace.spans.size(), 5u);
    if (threads == 1) serial_spans = trace.spans.size();
    EXPECT_EQ(trace.spans.size(), serial_spans) << "threads " << threads;
    CheckSpanInvariants(trace);
    // The JSON export nests one object per span.
    std::string json = TraceToJson(trace);
    size_t ops = 0;
    for (size_t at = json.find("\"op\":"); at != std::string::npos;
         at = json.find("\"op\":", at + 1)) {
      ++ops;
    }
    EXPECT_EQ(ops, trace.spans.size());
    EXPECT_NE(json.find("\"query\": \"multi-join\""), std::string::npos);
    EXPECT_NE(json.find("\"children\": ["), std::string::npos);
  }
}

// Mirrors adaptive_test.cc's MisestimateFixture: half of R1 sits on one
// hot predicate p0, so uniformity prices sigma[2=p0](R1) at ~2 rows
// against 2000 actual and the first stage of
// ((sigma[2=p0](R1) JOIN R2) JOIN R3) triggers a mid-query re-plan.
TripleStore MisestimateStore(ObjId* p0) {
  TripleStore st;
  RelId r1 = st.AddRelation("R1");
  RelId r2 = st.AddRelation("R2");
  RelId r3 = st.AddRelation("R3");
  *p0 = st.InternObject("p0");
  auto obj = [&](const char* prefix, size_t i) {
    return st.InternObject(prefix + std::to_string(i));
  };
  const size_t hot = 2000, keys = 50, b = hot / 2, sel = 50;
  for (size_t i = 0; i < hot; ++i) {
    st.Add(r1, obj("s", i), *p0, obj("m", i % keys));
    st.Add(r1, obj("t", i), obj("q", i), obj("u", i));
  }
  for (size_t i = 0; i < b; ++i) {
    st.Add(r2, obj("m", i % keys), obj("pb", 0), obj("n", i));
  }
  for (size_t j = 0; j < sel; ++j) {
    st.Add(r3, obj("n", (j * (b / sel)) % b), obj("pc", 0), obj("o", j));
  }
  for (RelId r = 0; r < st.NumRelations(); ++r) st.RelationStats(r);
  return st;
}

// An adaptive run executes its stages on one executor, so the assembled
// tree's spans share one clock origin and meet every static-plan
// invariant; the trigger node's span detail carries the re-plan mark,
// and the query is accounted exactly once however many stages ran.
TEST(SpanTrace, NestsForAdaptiveReplannedRunAcrossThreadCounts) {
  ObjId p0 = 0;
  TripleStore store = MisestimateStore(&p0);
  JoinSpec chain = Spec(Pos::P1, Pos::P2, Pos::P3p, {Eq(Pos::P3, Pos::P1p)});
  ExprPtr e = Expr::Join(
      Expr::Join(Expr::Select(Expr::Rel("R1"), Where({EqConst(Pos::P2, p0)})),
                 Expr::Rel("R2"), chain),
      Expr::Rel("R3"), chain);
  const bool was_enabled = MetricsEnabled();
  SetMetricsEnabled(true);
  MetricsRegistry& reg = MetricsRegistry::Global();
  for (size_t threads : {1u, 2u, 4u}) {
    ExecLimits limits;
    limits.exec.num_threads = threads;
    limits.exec.min_parallel_items = 16;  // force the parallel kernels
    FeedbackCache fb;  // cold: the first stage must re-plan
    const uint64_t queries = reg.GetCounter("exec.queries")->value();
    const uint64_t timed = reg.GetHistogram("exec.query_ns")->count();
    AdaptiveResult ar;
    auto r = ExecuteAdaptive(e, store, limits, /*profile=*/true, &ar, &fb);
    ASSERT_TRUE(r.ok()) << "threads " << threads;
    EXPECT_EQ(reg.GetCounter("exec.queries")->value(), queries + 1);
    EXPECT_EQ(reg.GetHistogram("exec.query_ns")->count(), timed + 1);
    EXPECT_GE(ar.replans, 1u) << "threads " << threads;
    ASSERT_NE(ar.plan, nullptr);
    QueryTrace trace = CollectTrace(*ar.plan, "adaptive", threads);
    EXPECT_EQ(trace.spans.size(), ar.plan->TreeSize());
    CheckSpanInvariants(trace);
    bool marked = false;
    for (const TraceSpan& s : trace.spans) {
      marked = marked || s.detail.find("[replanned") != std::string::npos;
    }
    EXPECT_TRUE(marked) << TraceToJson(trace);
  }
  SetMetricsEnabled(was_enabled);
}

TEST(ExplainAnalyzeRender, AnnotatesEveryLineWithRuntimeFields) {
  TripleStore store = SkewedStore(4096);
  ExprPtr e = CompositionJoin(Expr::Rel("E"), Expr::Rel("E"));
  PlanPtr p = PlanExpr(e, store);
  auto r = ExecutePlan(*p, store, {}, /*profile=*/true);
  ASSERT_TRUE(r.ok());
  std::string text = ExplainAnalyze(*p);
  // Every operator line carries self/cumulative time and peak size.
  size_t lines = static_cast<size_t>(
      std::count(text.begin(), text.end(), '\n'));
  EXPECT_EQ(lines, p->TreeSize());
  auto occurrences = [&text](const char* needle) {
    size_t n = 0;
    for (size_t at = text.find(needle); at != std::string::npos;
         at = text.find(needle, at + 1)) {
      ++n;
    }
    return n;
  };
  EXPECT_EQ(occurrences(" self="), lines) << text;
  EXPECT_EQ(occurrences(" cum="), lines) << text;
  EXPECT_EQ(occurrences(" peak="), lines) << text;
  EXPECT_EQ(occurrences(" q="), lines) << text;
  // This self-join picks the merge join; the strategy renders inline.
  EXPECT_NE(text.find("(merge)"), std::string::npos) << text;
  EXPECT_NE(text.find("MergeJoin"), std::string::npos) << text;
}

TEST(ExplainAnalyzeRender, UnprofiledTreeFallsBackToExplainFields) {
  TripleStore store = SkewedStore(256);
  PlanPtr p = PlanExpr(CompositionJoin(Expr::Rel("E"), Expr::Rel("E")),
                       store);
  auto r = ExecutePlan(*p, store);  // profile off
  ASSERT_TRUE(r.ok());
  std::string text = ExplainAnalyze(*p);
  EXPECT_EQ(text.find(" self="), std::string::npos) << text;
  EXPECT_EQ(text.find(" cum="), std::string::npos) << text;
}

// The zero-cost-when-off contract, pinned at the observable level: the
// default ExecutePlan leaves every profiling field untouched.
TEST(ProfileOff, DefaultExecutionRecordsNoProfilingState) {
  TripleStore store = SkewedStore(512);
  PlanPtr p = PlanExpr(CompositionJoin(Expr::Rel("E"), Expr::Rel("E")),
                       store);
  auto r = ExecutePlan(*p, store);
  ASSERT_TRUE(r.ok());
  std::vector<const PlanNode*> stack = {p.get()};
  while (!stack.empty()) {
    const PlanNode* n = stack.back();
    stack.pop_back();
    EXPECT_FALSE(n->runtime.profiled);
    EXPECT_EQ(n->runtime.start_ns, 0u);
    EXPECT_EQ(n->runtime.end_ns, 0u);
    EXPECT_EQ(n->runtime.self_ns, 0u);
    EXPECT_EQ(n->runtime.peak_rows, 0u);
    for (const PlanPtr& c : n->children) stack.push_back(c.get());
  }
  // CollectTrace over an unprofiled (but executed) tree still flattens
  // the nodes; spans just carry zero timestamps.
  QueryTrace trace = CollectTrace(*p);
  EXPECT_EQ(trace.spans.size(), p->TreeSize());
  EXPECT_EQ(trace.wall_ns, 0u);
}

class RecordingSink : public TraceSink {
 public:
  void Consume(const QueryTrace& trace) override {
    traces.push_back(trace);
  }
  std::vector<QueryTrace> traces;
};

TEST(TraceSinkApi, InstalledSinkSeesEmittedTracesAndRestores) {
  TripleStore store = SkewedStore(256);
  PlanPtr p = PlanExpr(CompositionJoin(Expr::Rel("E"), Expr::Rel("E")),
                       store);
  auto r = ExecutePlan(*p, store, {}, /*profile=*/true);
  ASSERT_TRUE(r.ok());

  RecordingSink sink;
  TraceSink* prev = SetTraceSink(&sink);
  EXPECT_EQ(prev, nullptr);
  EmitTrace(CollectTrace(*p, "q1"));
  EmitTrace(CollectTrace(*p, "q2"));
  // Restore and verify the uninstalled sink no longer receives.
  EXPECT_EQ(SetTraceSink(prev), &sink);
  EmitTrace(CollectTrace(*p, "q3"));
  ASSERT_EQ(sink.traces.size(), 2u);
  EXPECT_EQ(sink.traces[0].query, "q1");
  EXPECT_EQ(sink.traces[1].query, "q2");
  EXPECT_FALSE(sink.traces[0].spans.empty());
}

// ---- actual-rows accounting audit (golden) -----------------------------
//
// The per-operator actual-rows contract: whenever a node reports
// rows_known, actual_rows is exactly the normalized (sorted-unique)
// cardinality of the set that node produced — for every operator,
// including a MergeJoin root executed through the parallel
// range-partitioned path, and RecordRootRows assigns rather than
// accumulates (calling it again never double-counts).
TEST(ActualRowsAudit, RootAndChildrenMatchResultAcrossThreadCounts) {
  TripleStore store = SkewedStore(4096);
  ExprPtr e = CompositionJoin(Expr::Rel("E"), Expr::Rel("E"));
  for (size_t threads : {1u, 4u}) {
    ExecLimits limits;
    limits.exec.num_threads = threads;
    limits.exec.min_parallel_items = 16;
    PlanPtr p = PlanExpr(e, store);
    ASSERT_EQ(p->op, PlanOp::kMergeJoin) << Explain(*p);
    auto r = ExecutePlan(*p, store, limits);
    ASSERT_TRUE(r.ok());
    ASSERT_STREQ(p->runtime.strategy, "merge") << Explain(*p);
    RecordRootRows(*p, *r);
    size_t first = p->runtime.actual_rows;
    EXPECT_EQ(first, r->size()) << "threads " << threads;
    // Idempotent: a second record (e.g. a caller printing twice) and a
    // repeated size() read report the same count.
    RecordRootRows(*p, *r);
    EXPECT_EQ(p->runtime.actual_rows, first);
    for (const PlanPtr& c : p->children) {
      ASSERT_TRUE(c->runtime.rows_known);
      EXPECT_EQ(c->runtime.actual_rows, store.FindRelation("E")->size());
    }
  }
}

// Same audit through the profiled path, which records rows on every
// node itself: the root count must equal both the returned set's size
// and what RecordRootRows would assign.
TEST(ActualRowsAudit, ProfiledRootCountAgreesWithRecordRootRows) {
  TripleStore store = MultiJoinStore();
  ExprPtr e = CompositionJoin(
      CompositionJoin(Expr::Rel("E"), Expr::Rel("E1")), Expr::Rel("tiny"));
  ExecLimits limits;
  limits.exec.num_threads = 4;
  limits.exec.min_parallel_items = 16;
  PlanPtr p = PlanExpr(e, store);
  auto r = ExecutePlan(*p, store, limits, /*profile=*/true);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(p->runtime.rows_known);
  size_t profiled = p->runtime.actual_rows;
  EXPECT_EQ(profiled, r->size());
  RecordRootRows(*p, *r);
  EXPECT_EQ(p->runtime.actual_rows, profiled);
  // peak >= max(output, every input that fed the root).
  EXPECT_GE(p->runtime.peak_rows, profiled);
  for (const PlanPtr& c : p->children) {
    EXPECT_GE(p->runtime.peak_rows, c->runtime.actual_rows);
  }
}

// A node's span covers the normalize that counting its rows forces: a
// key-less join at one thread leaves its unsorted output (a million
// candidates from two 1,000-triple inputs) to the lazy sort, which is
// most of the query, so the root's cumulative time must be most of the
// ExecutePlan call's wall time.
TEST(SpanTrace, RootSpanCoversItsResultNormalization) {
  RandomStoreOptions opts;
  opts.num_objects = 400;
  opts.num_triples = 1000;
  opts.seed = 3;
  TripleStore store = RandomTripleStore(opts);
  ExprPtr e = Expr::Join(Expr::Rel("E"), Expr::Rel("E"),
                         Spec(Pos::P1, Pos::P2, Pos::P3p, {}));
  PlanPtr p = PlanExpr(e, store);
  const uint64_t t0 = MonotonicNanos();
  auto r = ExecutePlan(*p, store, {}, /*profile=*/true);
  const uint64_t wall = MonotonicNanos() - t0;
  ASSERT_TRUE(r.ok());
  ASSERT_GT(r->size(), 100'000u);
  const uint64_t cum = p->runtime.end_ns - p->runtime.start_ns;
  EXPECT_GE(static_cast<double>(cum), 0.8 * static_cast<double>(wall))
      << ExplainAnalyze(*p);
}

// Fixpoint profiling: rounds split into probe/hash is already recorded
// by the unprofiled path; the profiled path adds the peak accumulator
// size, which is at least the final result.
TEST(ProfiledFixpoint, RecordsRoundsAndPeakAccumulator) {
  // A small cycle so the star closes in a handful of rounds.
  TripleStore store;
  RelId rel = store.AddRelation("E");
  ObjId p0 = store.InternObject("p");
  std::vector<ObjId> nodes;
  for (int i = 0; i < 40; ++i) {
    nodes.push_back(store.InternObject("n" + std::to_string(i)));
  }
  for (size_t i = 0; i < nodes.size(); ++i) {
    store.Add(rel, nodes[i], p0, nodes[(i + 1) % nodes.size()]);
  }
  ExprPtr e = Expr::StarRight(
      Expr::Rel("E"),
      Spec(Pos::P1, Pos::P2p, Pos::P3p, {Eq(Pos::P3, Pos::P1p)}));
  PlanPtr p = PlanExpr(e, store);
  auto r = ExecutePlan(*p, store, {}, /*profile=*/true);
  ASSERT_TRUE(r.ok());
  // The spec outputs (1, 2', 3'), not a reachTA= shape, so no reach
  // route can take it.
  const PlanNode* star = p.get();
  ASSERT_EQ(star->op, PlanOp::kFixpointStar) << Explain(*p);
  EXPECT_GE(star->runtime.rounds, 2u) << Explain(*p);
  EXPECT_EQ(star->runtime.rounds,
            star->runtime.probe_rounds + star->runtime.hash_rounds);
  EXPECT_GE(star->runtime.peak_rows, star->runtime.actual_rows);
  std::string text = ExplainAnalyze(*p);
  EXPECT_NE(text.find(" rounds="), std::string::npos) << text;
}

}  // namespace
}  // namespace plan
}  // namespace trial
