// The interval reachability index (core/reach): SCC contraction +
// interval labels answer Reaches like a brute DFS, EmitStar is
// byte-identical to Procedure 3 and the naive fixpoint at every thread
// count (including cyclic SCC-heavy graphs), the index follows the
// permutation-cache lifecycle (shared between copies, invalidated by
// mutation), the planner routes every any-path star through
// ReachIndexScan — derived bases included — and DijkstraScan answers
// weighted shortest paths deterministically.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/builder.h"
#include "core/eval.h"
#include "core/fast_reach.h"
#include "core/parser.h"
#include "core/plan/plan.h"
#include "core/reach/dijkstra.h"
#include "core/reach/reach_index.h"
#include "graph/generators.h"
#include "loader/bulk_load.h"
#include "loader/ntriples_writer.h"
#include "storage/triple_store.h"
#include "util/rng.h"

namespace trial {
namespace {

using plan::ExecutePlan;
using plan::Explain;
using plan::PlanExpr;
using plan::PlanOp;
using plan::PlanPtr;
using plan::PlanShortestPath;
using reach::DijkstraShortestPath;
using reach::ReachIndex;
using reach::ReachIndexOptions;
using reach::ShortestPathResult;

ExecOptions Threads(size_t n) {
  ExecOptions exec;
  exec.num_threads = n;
  exec.min_parallel_items = 1;  // force the parallel paths on tiny inputs
  return exec;
}

ExecLimits Limits(size_t threads) {
  ExecLimits limits;
  limits.exec = Threads(threads);
  return limits;
}

// Reference reachability: iterative DFS over the projected graph.
std::vector<ObjId> BruteReachable(const TripleSet& base, ObjId src) {
  std::vector<ObjId> stack{src}, out;
  std::vector<ObjId> seen;
  auto mark = [&](ObjId v) {
    if (std::find(seen.begin(), seen.end(), v) != seen.end()) return false;
    seen.push_back(v);
    return true;
  };
  mark(src);
  while (!stack.empty()) {
    ObjId v = stack.back();
    stack.pop_back();
    out.push_back(v);
    for (const Triple& t : base) {
      if (t.s == v && mark(t.o)) stack.push_back(t.o);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

// A random store with heavy cycles: few objects, many triples, Zipf
// skew so some SCCs are large while pendants stay acyclic.
TripleStore CyclicStore(uint64_t seed, size_t objects = 40,
                        size_t triples = 220) {
  RandomStoreOptions opts;
  opts.num_objects = objects;
  opts.num_triples = triples;
  opts.zipf_p = 1.1;
  opts.zipf_o = 0.7;
  opts.seed = seed;
  return RandomTripleStore(opts);
}

// ---- construction + point queries -------------------------------------

TEST(ReachIndexBuild, ChainCycleAndPendant) {
  // a -> b -> c -> a (one SCC), c -> d -> e (pendant chain), f isolated
  // as a predicate-only id.
  TripleStore store;
  RelId rel = store.AddRelation("E");
  ObjId a = store.InternObject("a"), b = store.InternObject("b");
  ObjId c = store.InternObject("c"), d = store.InternObject("d");
  ObjId e = store.InternObject("e"), p = store.InternObject("p");
  store.Add(rel, a, p, b);
  store.Add(rel, b, p, c);
  store.Add(rel, c, p, a);
  store.Add(rel, c, p, d);
  store.Add(rel, d, p, e);
  const TripleSet& base = *store.FindRelation("E");

  auto idx = ReachIndex::Build(base);
  ASSERT_NE(idx, nullptr);
  EXPECT_TRUE(idx->exact());
  EXPECT_EQ(idx->num_nodes(), 5u);  // a..e; p never appears as s or o
  EXPECT_EQ(idx->num_sccs(), 3u);   // {a,b,c}, {d}, {e}

  // Same-SCC, downstream, reflexive, and negative answers.
  EXPECT_TRUE(idx->Reaches(a, c));
  EXPECT_TRUE(idx->Reaches(c, b));
  EXPECT_TRUE(idx->Reaches(a, e));
  EXPECT_TRUE(idx->Reaches(d, d));
  EXPECT_FALSE(idx->Reaches(e, a));
  EXPECT_FALSE(idx->Reaches(d, a));
  // Ids outside the projected graph reach exactly themselves.
  EXPECT_TRUE(idx->Reaches(p, p));
  EXPECT_FALSE(idx->Reaches(p, a));
  EXPECT_FALSE(idx->Reaches(a, p));
}

TEST(ReachIndexBuild, FewNodesInAHugeIdRange) {
  // A handful of edges among ids scattered over 200,000 interned
  // objects: the node map sorts its endpoints (the id range is too wide
  // for its bitmap) and binary-searches buckets that span thousands of
  // ids, one of them holding two nodes.
  TripleStore store;
  RelId rel = store.AddRelation("E");
  std::vector<ObjId> ids;
  for (int i = 0; i < 200'000; ++i) {
    ObjId id = store.InternObject("x" + std::to_string(i));
    if (i % 40'000 == 7 || i == 9) ids.push_back(id);
  }
  ObjId p = store.InternObject("p");
  // ids[0] -> ids[1] -> ids[2] -> ids[0] (one SCC), ids[2] -> ids[3],
  // ids[4] -> ids[3]; ids[5] is no node.
  store.Add(rel, ids[0], p, ids[1]);
  store.Add(rel, ids[1], p, ids[2]);
  store.Add(rel, ids[2], p, ids[0]);
  store.Add(rel, ids[2], p, ids[3]);
  store.Add(rel, ids[4], p, ids[3]);
  const TripleSet& base = *store.FindRelation("E");

  auto idx = ReachIndex::Build(base);
  EXPECT_EQ(idx->num_nodes(), 5u);
  EXPECT_EQ(idx->num_sccs(), 3u);
  for (ObjId s : ids) {
    std::vector<ObjId> want = BruteReachable(base, s);
    for (ObjId t : ids) {
      EXPECT_EQ(idx->Reaches(s, t),
                std::binary_search(want.begin(), want.end(), t))
          << "s=" << s << " t=" << t;
    }
  }
  EXPECT_FALSE(idx->Reaches(ids[0], p));
  auto star = idx->EmitStar(base, Threads(1), 1000);
  ASSERT_TRUE(star.ok());
  auto ref = MakeNaiveEvaluator()->Eval(ReachAnyPath(Expr::Rel("E")), store);
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(*star, *ref);
}

TEST(ReachIndexBuild, ReachesMatchesBruteDfs) {
  for (uint64_t seed : {3u, 7u, 19u}) {
    TripleStore store = CyclicStore(seed);
    const TripleSet& base = *store.FindRelation("E");
    auto idx = ReachIndex::Build(base);
    for (ObjId s = 0; s < store.NumObjects(); ++s) {
      std::vector<ObjId> want = BruteReachable(base, s);
      for (ObjId t = 0; t < store.NumObjects(); ++t) {
        bool brute = std::binary_search(want.begin(), want.end(), t);
        EXPECT_EQ(idx->Reaches(s, t), brute)
            << "seed=" << seed << " s=" << s << " t=" << t;
      }
    }
  }
}

TEST(ReachIndexBuild, FiniteBudgetStaysSound) {
  // A budget of one interval per node forces merged (approximate)
  // intervals on any graph whose closures are non-contiguous in pid
  // space; answers must still match the brute DFS via the pruned
  // fallback.
  TripleStore store = CyclicStore(5, /*objects=*/60, /*triples=*/150);
  const TripleSet& base = *store.FindRelation("E");
  ReachIndexOptions budget1;
  budget1.interval_budget = 1;
  auto exact = ReachIndex::Build(base);
  auto approx = ReachIndex::Build(base, budget1);
  EXPECT_TRUE(exact->exact());
  EXPECT_LE(approx->num_intervals(), approx->num_sccs());
  for (ObjId s = 0; s < store.NumObjects(); ++s) {
    for (ObjId t = 0; t < store.NumObjects(); ++t) {
      EXPECT_EQ(approx->Reaches(s, t), exact->Reaches(s, t))
          << "s=" << s << " t=" << t;
    }
  }
}

// ---- EmitStar equivalence (the tentpole's correctness pin) ------------

TEST(ReachIndexStar, ByteIdenticalToProcedure3AndNaive) {
  auto naive = MakeNaiveEvaluator();
  ExprPtr star = ReachAnyPath(Expr::Rel("E"));
  for (uint64_t seed : {2u, 9u, 23u}) {
    TripleStore store = CyclicStore(seed);
    const TripleSet& base = *store.FindRelation("E");
    TripleSet procedure3 = StarReachAnyPath(base).value();
    auto ref = naive->Eval(star, store);
    ASSERT_TRUE(ref.ok());
    ASSERT_EQ(procedure3, *ref) << "fast path vs naive, seed=" << seed;
    for (size_t threads : {1u, 2u, 4u}) {
      auto idx = ReachIndex::Build(base);
      auto got = idx->EmitStar(base, Threads(threads), 50'000'000);
      ASSERT_TRUE(got.ok()) << got.status().message();
      EXPECT_EQ(*got, procedure3)
          << "seed=" << seed << " threads=" << threads;
    }
  }
}

TEST(ReachIndexStar, ApproximateIndexEmitsIdenticalStar) {
  TripleStore store = CyclicStore(13);
  const TripleSet& base = *store.FindRelation("E");
  TripleSet want = StarReachAnyPath(base).value();
  ReachIndexOptions budget1;
  budget1.interval_budget = 1;
  auto idx = ReachIndex::Build(base, budget1);
  auto got = idx->EmitStar(base, Threads(2), 50'000'000);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, want);
}

TEST(ReachIndexStar, OutputBoundAndOverflowGuard) {
  TripleStore store = CyclicStore(4);
  const TripleSet& base = *store.FindRelation("E");
  auto idx = ReachIndex::Build(base);
  TripleSet want = StarReachAnyPath(base).value();
  // star_output_rows is an upper bound on the actual star cardinality.
  EXPECT_GE(idx->star_output_rows(), want.size());
  // The guard trips both serial and parallel emission.
  for (size_t threads : {1u, 4u}) {
    auto r = idx->EmitStar(base, Threads(threads), want.size() - 1);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  }
}

// ---- cache lifecycle ---------------------------------------------------

TEST(ReachIndexCache, SharedBetweenCopiesAndStore) {
  TripleStore store = CyclicStore(6);
  const TripleSet& rel = *store.FindRelation("E");
  ASSERT_GT(rel.size(), 0u);  // normalize before copying: staged inserts
                              // would detach the copy onto a fresh cell
  EXPECT_EQ(ReachIndex::Cached(rel), nullptr);

  TripleSet copy = rel;  // shares the index-cache cell
  auto built = ReachIndex::GetOrBuild(copy);
  ASSERT_NE(built, nullptr);
  // The store's relation sees the index built through the copy, and
  // GetOrBuild returns the same instance instead of rebuilding.
  EXPECT_EQ(ReachIndex::Cached(rel), built);
  EXPECT_EQ(ReachIndex::GetOrBuild(rel), built);
}

TEST(ReachIndexCache, MutationInvalidates) {
  TripleStore store = CyclicStore(6);
  TripleSet* rel = store.MutableRelation("E");
  auto built = ReachIndex::GetOrBuild(*rel);
  ASSERT_NE(built, nullptr);
  ASSERT_EQ(ReachIndex::Cached(*rel), built);

  // Mutating detaches the set onto a fresh cache cell: the stale index
  // is no longer reachable from the relation.
  rel->Insert(store.InternObject("zz1"), store.InternObject("zzp"),
              store.InternObject("zz2"));
  EXPECT_EQ(ReachIndex::Cached(*rel), nullptr);
  // A rebuild over the mutated set answers for the new triples.
  auto fresh = ReachIndex::GetOrBuild(*rel);
  ASSERT_NE(fresh, nullptr);
  EXPECT_NE(fresh, built);
  EXPECT_TRUE(fresh->Reaches(store.FindObject("zz1"),
                             store.FindObject("zz2")));
}

// ---- planner routing + plan execution ---------------------------------

TEST(ReachIndexPlan, WarmIndexRoutesToIndexScan) {
  TripleStore store = CyclicStore(8);  // small: no size gate either way
  for (RelId r = 0; r < store.NumRelations(); ++r) store.RelationStats(r);
  ExprPtr star = ReachAnyPath(Expr::Rel("E"));

  PlanPtr cold = PlanExpr(star, store);
  ASSERT_EQ(cold->op, PlanOp::kReachIndexScan) << Explain(*cold);

  auto idx = ReachIndex::GetOrBuild(*store.FindRelation("E"));
  PlanPtr warm = PlanExpr(star, store);
  ASSERT_EQ(warm->op, PlanOp::kReachIndexScan) << Explain(*warm);
  // The warm plan's estimate is the index's exact output bound.
  EXPECT_DOUBLE_EQ(warm->est_rows,
                   static_cast<double>(idx->star_output_rows()));

  auto r = ExecutePlan(*warm, store, Limits(2));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, StarReachAnyPath(*store.FindRelation("E")).value());
  EXPECT_STREQ(warm->runtime.strategy, "interval-index");
  EXPECT_NE(Explain(*warm).find("ReachIndexScan"), std::string::npos)
      << Explain(*warm);
}

TEST(ReachIndexPlan, ExecutionWarmsTheStoreRelation) {
  // A cold large star executes through ReachIndexScan and leaves the
  // built index attached to the store's relation for later queries.
  RandomStoreOptions opts;
  opts.num_objects = 300;
  opts.num_triples = 4096;
  opts.zipf_p = 1.3;
  opts.zipf_o = 0.8;
  opts.seed = 21;
  TripleStore store = RandomTripleStore(opts);
  for (RelId r = 0; r < store.NumRelations(); ++r) store.RelationStats(r);

  PlanPtr p = PlanExpr(ReachAnyPath(Expr::Rel("E")), store);
  ASSERT_EQ(p->op, PlanOp::kReachIndexScan) << Explain(*p);
  ASSERT_EQ(ReachIndex::Cached(*store.FindRelation("E")), nullptr);
  for (size_t threads : {1u, 2u, 4u}) {
    auto r = ExecutePlan(*p, store, Limits(threads));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r, StarReachAnyPath(*store.FindRelation("E")).value());
  }
  EXPECT_NE(ReachIndex::Cached(*store.FindRelation("E")), nullptr);
}

// ---- derived bases -----------------------------------------------------
//
// Every any-path star plans as ReachIndexScan and builds its index cold
// when its base has none.  These bases are query results, not store
// relations: predicate subgraphs of a bulk-loaded Zipf store, whose ids
// are spread thinly over the store's id space, and unions and joins of
// them.

std::string PredSubgraph(int rank) {
  return "sigma[2=\"http://db.example.org/p" + std::to_string(rank) +
         "\"](E)";
}

// Whether the base's node ids are sparse in the store's id space: the
// largest id exceeds four times the node count (plus slack), so the
// NodeMap's buckets each span several ids.
bool SparseIds(const TripleSet& base) {
  std::vector<ObjId> nodes;
  for (const Triple& t : base) {
    nodes.push_back(t.s);
    nodes.push_back(t.o);
  }
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  return !nodes.empty() && nodes.back() + 1 > 4 * nodes.size() + 1024;
}

// Plans the any-path star over `base_text` and checks it against the
// naive evaluator and the Procedure 3 oracle at 1, 2 and 4 threads,
// plus the result guard one row short of the answer.
void CheckDerivedStar(const TripleStore& store, const std::string& base_text,
                      bool sparse) {
  SCOPED_TRACE(base_text);
  auto naive = MakeNaiveEvaluator();
  Result<ExprPtr> base_expr = ParseTriAL(base_text, &store);
  ASSERT_TRUE(base_expr.ok()) << base_expr.status().ToString();
  Result<TripleSet> base = naive->Eval(*base_expr, store);
  ASSERT_TRUE(base.ok());
  ASSERT_GT(base->size(), 0u);
  EXPECT_EQ(SparseIds(*base), sparse);

  ExprPtr star = ReachAnyPath(*base_expr);
  TripleSet want = StarReachAnyPath(*base).value();
  Result<TripleSet> ref = naive->Eval(star, store);
  ASSERT_TRUE(ref.ok());
  ASSERT_EQ(*ref, want) << "Procedure 3 vs naive";
  ASSERT_GT(want.size(), base->size());  // some paths are longer than one

  PlanPtr p = PlanExpr(star, store);
  ASSERT_EQ(p->op, PlanOp::kReachIndexScan) << Explain(*p);
  for (size_t threads : {1u, 2u, 4u}) {
    ExecLimits limits = Limits(threads);
    Result<TripleSet> got = ExecutePlan(*p, store, limits);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, want) << "threads=" << threads;
    limits.max_result_triples = want.size() - 1;
    Result<TripleSet> over = ExecutePlan(*p, store, limits);
    ASSERT_FALSE(over.ok()) << "threads=" << threads;
    EXPECT_EQ(over.status().code(), StatusCode::kResourceExhausted);
  }
}

TEST(ReachIndexDerived, ZipfPredicateSubgraphsUnionsAndJoins) {
  // The bgp_mix shape: a bulk-loaded store with Zipf-skewed predicates.
  // Its predicate subgraphs are forests of singleton SCCs.
  SyntheticNTriplesOptions gen;
  gen.num_triples = 100'000;
  gen.zipf_p = 1.2;
  gen.seed = 7;
  Result<TripleStore> store = BulkLoadNTriples(SyntheticNTriples(gen));
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  CheckDerivedStar(*store, PredSubgraph(20), /*sparse=*/true);
  CheckDerivedStar(*store, PredSubgraph(6), /*sparse=*/true);
  CheckDerivedStar(*store,
                   "(" + PredSubgraph(6) + " u " + PredSubgraph(9) + ")",
                   /*sparse=*/true);
  CheckDerivedStar(*store,
                   "(" + PredSubgraph(3) + " JOIN[1,2,3'; 3=1'] " +
                       PredSubgraph(3) + ")",
                   /*sparse=*/true);
}

TEST(ReachIndexDerived, CyclicSparseSubgraph) {
  // Skewed subjects and objects close cycles inside one predicate's
  // subgraph, which still touches few of the store's 6,000 ids.
  RandomStoreOptions opts;
  opts.num_objects = 6000;
  opts.num_triples = 4000;
  opts.zipf_s = 0.8;
  opts.zipf_p = 1.6;
  opts.zipf_o = 0.8;
  opts.seed = 3;
  TripleStore store = RandomTripleStore(opts);
  const std::string o1 = "sigma[2=\"o1\"](E)";
  Result<ExprPtr> o1_expr = ParseTriAL(o1, &store);
  ASSERT_TRUE(o1_expr.ok());
  Result<TripleSet> o1_base = MakeNaiveEvaluator()->Eval(*o1_expr, store);
  ASSERT_TRUE(o1_base.ok());
  auto idx = ReachIndex::Build(*o1_base);
  ASSERT_LT(idx->num_sccs(), idx->num_nodes()) << "no cycle to contract";

  CheckDerivedStar(store, o1, /*sparse=*/true);
  CheckDerivedStar(store, "(sigma[2=\"o2\"](E) u sigma[2=\"o5\"](E))",
                   /*sparse=*/true);
  CheckDerivedStar(store, "(" + o1 + " JOIN[1,2,3'; 3=1'] " + o1 + ")",
                   /*sparse=*/true);
}

// ---- weighted shortest paths ------------------------------------------

// city0 -s1-> city1 -s1-> city2, city0 -s2-> city2, with rho(s1) = 1
// and rho(s2) = 5: the two-hop path wins, 2 < 5.
TripleStore WeightedDiamond() {
  TripleStore store;
  RelId rel = store.AddRelation("E");
  ObjId c0 = store.InternObject("city0"), c1 = store.InternObject("city1");
  ObjId c2 = store.InternObject("city2");
  ObjId s1 = store.InternObject("s1"), s2 = store.InternObject("s2");
  store.SetValue(s1, DataValue::Int(1));
  store.SetValue(s2, DataValue::Int(5));
  store.Add(rel, c0, s1, c1);
  store.Add(rel, c1, s1, c2);
  store.Add(rel, c0, s2, c2);
  return store;
}

TEST(Dijkstra, PrefersCheaperMultiHopPath) {
  TripleStore store = WeightedDiamond();
  const TripleSet& base = *store.FindRelation("E");
  ObjId c0 = store.FindObject("city0"), c2 = store.FindObject("city2");
  auto r = DijkstraShortestPath(base, store, c0, c2);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->reached);
  EXPECT_EQ(r->distance, 2);
  EXPECT_EQ(r->edges.size(), 2u);  // the two s1 hops, not the s2 edge
  ObjId s1 = store.FindObject("s1");
  for (const Triple& t : r->edges) EXPECT_EQ(t.p, s1);
}

TEST(Dijkstra, UnweightedDefaultsToHopCount) {
  TripleStore store = WeightedDiamond();
  // Clear the weights: every edge costs 1, so the direct edge wins.
  store.SetValue(store.FindObject("s1"), DataValue::Null());
  store.SetValue(store.FindObject("s2"), DataValue::Null());
  auto r = DijkstraShortestPath(*store.FindRelation("E"), store,
                                store.FindObject("city0"),
                                store.FindObject("city2"));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->reached);
  EXPECT_EQ(r->distance, 1);
  EXPECT_EQ(r->edges.size(), 1u);
}

TEST(Dijkstra, TreeModeUnreachableAndErrors) {
  TripleStore store = WeightedDiamond();
  const TripleSet& base = *store.FindRelation("E");
  ObjId c0 = store.FindObject("city0"), c2 = store.FindObject("city2");

  // Full tree from city0: one parent edge per other reachable node,
  // distance = eccentricity (city1 at 1, city2 at 2).
  auto tree = DijkstraShortestPath(base, store, c0);
  ASSERT_TRUE(tree.ok());
  EXPECT_TRUE(tree->reached);
  EXPECT_EQ(tree->edges.size(), 2u);
  EXPECT_EQ(tree->distance, 2);

  // city2 is a sink: nothing reachable, src == dst trivially reached.
  auto back = DijkstraShortestPath(base, store, c2, c0);
  ASSERT_TRUE(back.ok());
  EXPECT_FALSE(back->reached);
  EXPECT_TRUE(back->edges.empty());
  auto self = DijkstraShortestPath(base, store, c0, c0);
  ASSERT_TRUE(self.ok());
  EXPECT_TRUE(self->reached);
  EXPECT_EQ(self->distance, 0);

  // A negative weight anywhere in the relation is rejected up front.
  store.SetValue(store.FindObject("s2"), DataValue::Int(-3));
  auto bad = DijkstraShortestPath(*store.FindRelation("E"), store, c0, c2);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(Dijkstra, PlanShortestPathEndToEnd) {
  TripleStore store = WeightedDiamond();
  PlanPtr p = PlanShortestPath(store, "E", "city0", "city2");
  ASSERT_EQ(p->op, PlanOp::kDijkstraScan);
  auto r = ExecutePlan(*p, store, Limits(1));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 2u);
  EXPECT_TRUE(p->runtime.sp_reached);
  EXPECT_EQ(p->runtime.sp_distance, 2);
  EXPECT_STREQ(p->runtime.strategy, "dijkstra");
  std::string rendered = Explain(*p);
  EXPECT_NE(rendered.find("DijkstraScan"), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("dist=2"), std::string::npos) << rendered;

  // Unknown names surface as NotFound at execution, not planning.
  PlanPtr bad = PlanShortestPath(store, "E", "city0", "nope");
  auto br = ExecutePlan(*bad, store, Limits(1));
  ASSERT_FALSE(br.ok());
  EXPECT_EQ(br.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace trial
