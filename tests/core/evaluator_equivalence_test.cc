// E23 — the repository's master invariant: the three QueryComputation
// engines (paper-faithful matrix, naive nested-loop, optimized hash /
// semi-naive with fragment fast paths) compute identical results on
// randomized expressions and stores, with and without the optimizer.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/builder.h"
#include "core/eval.h"
#include "core/fast_reach.h"
#include "core/optimizer.h"
#include "core/parser.h"
#include "core/plan/plan.h"
#include "graph/generators.h"
#include "util/rng.h"

namespace trial {
namespace {

ExprPtr RandomExpr(Rng* rng, int depth, bool allow_star) {
  auto rand_pos = [&] { return static_cast<Pos>(rng->Below(6)); };
  auto rand_spec = [&](bool with_consts) {
    JoinSpec spec;
    spec.out = {rand_pos(), rand_pos(), rand_pos()};
    for (size_t i = 0, n = rng->Below(3); i < n; ++i) {
      spec.cond.theta.push_back(ObjConstraint{
          ObjTerm::P(rand_pos()), ObjTerm::P(rand_pos()), rng->Chance(3, 4)});
    }
    if (with_consts && rng->Chance(1, 3)) {
      spec.cond.theta.push_back(ObjConstraint{
          ObjTerm::P(rand_pos()), ObjTerm::C(static_cast<ObjId>(rng->Below(8))),
          rng->Chance(1, 2)});
    }
    if (rng->Chance(1, 3)) {
      spec.cond.eta.push_back(DataConstraint{
          DataTerm::P(rand_pos()), DataTerm::P(rand_pos()),
          rng->Chance(2, 3)});
    }
    if (rng->Chance(1, 5)) {
      spec.cond.eta.push_back(DataConstraint{
          DataTerm::P(rand_pos()),
          DataTerm::C(DataValue::Int(static_cast<int64_t>(rng->Below(4)))),
          rng->Chance(1, 2)});
    }
    return spec;
  };
  if (depth <= 0) {
    return rng->Chance(1, 6) ? Expr::Universe() : Expr::Rel("E");
  }
  switch (rng->Below(allow_star ? 8 : 6)) {
    case 0:
      return Expr::Rel("E");
    case 1: {
      CondSet cond;
      cond.theta.push_back(ObjConstraint{
          ObjTerm::P(static_cast<Pos>(rng->Below(3))),
          ObjTerm::P(static_cast<Pos>(rng->Below(3))), rng->Chance(3, 4)});
      if (rng->Chance(1, 3)) {
        cond.eta.push_back(
            DataConstraint{DataTerm::P(static_cast<Pos>(rng->Below(3))),
                           DataTerm::P(static_cast<Pos>(rng->Below(3))),
                           rng->Chance(1, 2)});
      }
      return Expr::Select(RandomExpr(rng, depth - 1, allow_star), cond);
    }
    case 2:
      return Expr::Union(RandomExpr(rng, depth - 1, allow_star),
                         RandomExpr(rng, depth - 1, allow_star));
    case 3:
      return Expr::Diff(RandomExpr(rng, depth - 1, allow_star),
                        RandomExpr(rng, depth - 1, allow_star));
    case 4:
      return Expr::Intersect(RandomExpr(rng, depth - 1, allow_star),
                             RandomExpr(rng, depth - 1, allow_star));
    case 5:
      return Expr::Join(RandomExpr(rng, depth - 1, allow_star),
                        RandomExpr(rng, depth - 1, allow_star),
                        rand_spec(true));
    case 6:
      return Expr::StarRight(RandomExpr(rng, depth - 1, false),
                             rand_spec(false));
    default:
      return Expr::StarLeft(RandomExpr(rng, depth - 1, false),
                            rand_spec(false));
  }
}

class EngineEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EngineEquivalenceTest, AllEnginesAgree) {
  Rng rng(GetParam() * 1009 + 17);
  RandomStoreOptions opts;
  opts.num_objects = 7;
  opts.num_triples = 18;
  opts.num_data_values = 3;
  opts.seed = GetParam() * 13 + 1;
  TripleStore store = RandomTripleStore(opts);

  auto naive = MakeNaiveEvaluator();
  auto matrix = MakeMatrixEvaluator();
  auto smart = MakeSmartEvaluator();

  for (int i = 0; i < 10; ++i) {
    ExprPtr e = RandomExpr(&rng, 3, /*allow_star=*/true);
    auto rn = naive->Eval(e, store);
    auto rm = matrix->Eval(e, store);
    auto rs = smart->Eval(e, store);
    ASSERT_TRUE(rn.ok()) << rn.status().ToString() << "\n" << e->ToString();
    ASSERT_TRUE(rm.ok()) << rm.status().ToString();
    ASSERT_TRUE(rs.ok()) << rs.status().ToString();
    EXPECT_EQ(*rn, *rm) << "naive vs matrix on " << e->ToString();
    EXPECT_EQ(*rn, *rs) << "naive vs smart on " << e->ToString();
  }
}

TEST_P(EngineEquivalenceTest, OptimizerPreservesResults) {
  Rng rng(GetParam() * 2003 + 29);
  RandomStoreOptions opts;
  opts.num_objects = 6;
  opts.num_triples = 15;
  opts.seed = GetParam() * 7 + 2;
  TripleStore store = RandomTripleStore(opts);
  auto engine = MakeSmartEvaluator();
  for (int i = 0; i < 12; ++i) {
    ExprPtr e = RandomExpr(&rng, 3, /*allow_star=*/true);
    ExprPtr o = Optimize(e);
    auto before = engine->Eval(e, store);
    auto after = engine->Eval(o, store);
    ASSERT_TRUE(before.ok()) << before.status().ToString();
    ASSERT_TRUE(after.ok()) << after.status().ToString();
    EXPECT_EQ(*before, *after)
        << "optimizer changed semantics:\n  " << e->ToString() << "\n  ~~> "
        << o->ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineEquivalenceTest,
                         ::testing::Range<uint64_t>(1, 11));

// Same master invariant on Zipf-skewed stores (SP²Bench-style skew), so
// the index-routed paths of the smart engine see hot keys with wide
// ranges next to cold keys with empty ones.
TEST(EngineEquivalenceSkewed, AllEnginesAgreeOnZipfStores) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed * 501 + 3);
    RandomStoreOptions opts;
    opts.num_objects = 9;
    opts.num_triples = 30;
    opts.num_data_values = 3;
    opts.zipf_p = 1.4;
    opts.zipf_o = 0.9;
    opts.seed = seed * 11 + 5;
    TripleStore store = RandomTripleStore(opts);

    auto naive = MakeNaiveEvaluator();
    auto matrix = MakeMatrixEvaluator();
    auto smart = MakeSmartEvaluator();
    for (int i = 0; i < 8; ++i) {
      ExprPtr e = RandomExpr(&rng, 3, /*allow_star=*/true);
      auto rn = naive->Eval(e, store);
      auto rm = matrix->Eval(e, store);
      auto rs = smart->Eval(e, store);
      ASSERT_TRUE(rn.ok()) << rn.status().ToString() << "\n" << e->ToString();
      ASSERT_TRUE(rm.ok()) << rm.status().ToString();
      ASSERT_TRUE(rs.ok()) << rs.status().ToString();
      EXPECT_EQ(*rn, *rm) << "naive vs matrix on " << e->ToString();
      EXPECT_EQ(*rn, *rs) << "naive vs smart on " << e->ToString();
    }
  }
}

// Thread-count invariance — the parallel kernels' determinism contract:
// with min_parallel_items forced to 1 so the join probe loop, the
// semi-naive delta expansion and the Procedure 3/4 fast paths all take
// their parallel branches even on tiny stores, results are identical
// for 1, 2 and 4 threads (and to the stock serial engine) across
// random TriAL expressions, stars included, on Zipf-skewed stores.
// The threaded evaluations run through the plan executor directly —
// plan::PlanExpr + plan::ExecutePlan, the code path the smart engine
// shims to — so the invariance property is pinned to the plan layer.
TEST(ParallelInvariance, PlanExecutorResultsAreThreadCountInvariant) {
  auto eval_plan = [](const ExprPtr& e, const TripleStore& store,
                      size_t threads) {
    ExecLimits limits;
    limits.exec.num_threads = threads;
    limits.exec.min_parallel_items = 1;
    plan::PlanPtr p = plan::PlanExpr(e, store);
    return plan::ExecutePlan(*p, store, limits);
  };
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed * 733 + 7);
    RandomStoreOptions opts;
    opts.num_objects = 12;
    opts.num_triples = 60;
    opts.num_data_values = 3;
    opts.zipf_p = 1.2;
    opts.zipf_o = 0.8;
    opts.seed = seed * 19 + 3;
    TripleStore store = RandomTripleStore(opts);

    auto serial = MakeSmartEvaluator();  // stock defaults: serial path
    for (int i = 0; i < 8; ++i) {
      ExprPtr e = RandomExpr(&rng, 3, /*allow_star=*/true);
      auto r0 = serial->Eval(e, store);
      auto r1 = eval_plan(e, store, 1);
      auto r2 = eval_plan(e, store, 2);
      auto r4 = eval_plan(e, store, 4);
      ASSERT_TRUE(r0.ok()) << r0.status().ToString() << "\n" << e->ToString();
      ASSERT_TRUE(r1.ok()) << r1.status().ToString();
      ASSERT_TRUE(r2.ok()) << r2.status().ToString();
      ASSERT_TRUE(r4.ok()) << r4.status().ToString();
      EXPECT_EQ(*r0, *r1) << "serial vs 1-thread on " << e->ToString();
      EXPECT_EQ(*r1, *r2) << "1 vs 2 threads on " << e->ToString();
      EXPECT_EQ(*r1, *r4) << "1 vs 4 threads on " << e->ToString();
    }
  }
}

// SP2Bench-shaped joins (the chain of Q4 and the cycle of Q8, as in the
// end-to-end benchmark's hop2 and triangle) on a Zipf store big enough
// that their outputs take the parallel sorted materialization at the
// stock min_parallel_items (hop2 has about 39K rows, the triangle 6):
// 4 threads must match 1 thread and the naive nested-loop oracle.
TEST(ParallelInvariance, LargeJoinOutputsAreThreadCountInvariant) {
  RandomStoreOptions opts;
  opts.num_objects = 20000;
  opts.num_triples = 20000;
  opts.zipf_p = 1.2;
  opts.zipf_s = 0.45;
  opts.zipf_o = 0.45;
  opts.seed = 310;
  TripleStore store = RandomTripleStore(opts);
  auto naive = MakeNaiveEvaluator();
  for (const char* text :
       {"(E JOIN[1,2,3'; 3=1'] E)",
        "((E JOIN[1,2,3'; 3=1'] E) JOIN[1,2,3; 3=1', 1=3'] E)"}) {
    Result<ExprPtr> e = ParseTriAL(text, &store);
    ASSERT_TRUE(e.ok()) << e.status().ToString();
    Result<TripleSet> want = naive->Eval(*e, store);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    for (size_t threads : std::vector<size_t>{1, 4}) {
      ExecLimits limits;
      limits.exec.num_threads = threads;
      plan::PlanPtr p = plan::PlanExpr(*e, store);
      Result<TripleSet> got = plan::ExecutePlan(*p, store, limits);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(*got, *want) << text << " at " << threads << " threads";
    }
  }
}

// The reachTA= fast path the plan runs (Procedure 4) under explicit
// thread counts, on a store big enough that its middle groups split
// into real chunks.  (Procedure 3 is the serial oracle: no thread knob.)
TEST(ParallelInvariance, ReachFastPathsAreThreadCountInvariant) {
  RandomStoreOptions opts;
  opts.num_objects = 80;
  opts.num_triples = 400;
  opts.zipf_o = 0.7;
  opts.seed = 5;
  TripleStore store = RandomTripleStore(opts);
  const TripleSet& base = *store.FindRelation("E");
  TripleSet mid1 = StarReachSameMiddle(base).value();
  for (size_t threads : std::vector<size_t>{2, 4}) {
    ExecOptions exec;
    exec.num_threads = threads;
    exec.min_parallel_items = 1;
    EXPECT_EQ(StarReachSameMiddle(base, exec).value(), mid1)
        << threads << " threads";
  }
}

// Resource guards fire instead of looping or exhausting memory.
TEST(EvalGuards, UniverseGuard) {
  RandomStoreOptions opts;
  opts.num_objects = 600;
  opts.num_triples = 2000;
  TripleStore store = RandomTripleStore(opts);
  EvalOptions eopts;
  eopts.max_result_triples = 1'000'000;  // 600^3 >> guard
  auto engine = MakeSmartEvaluator(eopts);
  auto r = engine->Eval(Expr::Universe(), store);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

// The reach-star routes — the interval index for the any-path star
// over a derived base, Procedure 4 for the same-middle one — and the
// kernels run by GuardedKernel honour the result-size guard at
// every thread count.
TEST(EvalGuards, ReachFastPathGuard) {
  TripleStore store;
  const char* chain[] = {"a", "b", "c", "d", "e", "f"};
  for (int i = 0; i + 1 < 6; ++i) store.Add("E", chain[i], "r", chain[i + 1]);
  store.Add("E", "f", "x", "a");
  const std::pair<const char*, plan::PlanOp> cases[] = {
      {"(sigma[2!=\"x\"](E) JOIN[1,2,3'; 3=1'])*",
       plan::PlanOp::kReachIndexScan},
      {"(sigma[2!=\"x\"](E) JOIN[1,2,3'; 3=1', 2=2'])*",
       plan::PlanOp::kReachFastPath}};
  for (const auto& [text, route] : cases) {
    Result<ExprPtr> e = ParseTriAL(text, &store);
    ASSERT_TRUE(e.ok()) << e.status().ToString();
    plan::PlanPtr p = plan::PlanExpr(*e, store);
    ASSERT_EQ(p->op, route) << text;
    for (size_t threads : std::vector<size_t>{1, 2, 4}) {
      ExecLimits limits;
      limits.exec.num_threads = threads;
      limits.exec.min_parallel_items = 1;
      limits.max_result_triples = 5;  // the chain's closure has 15 rows
      Result<TripleSet> r = plan::ExecutePlan(*p, store, limits);
      ASSERT_FALSE(r.ok()) << text << " at " << threads << " threads";
      EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
      limits.max_result_triples = 15;
      r = plan::ExecutePlan(*p, store, limits);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_EQ(r->size(), 15u);
    }
  }

  // The join kernels and the generic fixpoint, on a random tree (one
  // edge into every node), where a two-hop composition emits no
  // duplicate rows: a join's pre-dedup count is its result size, so the
  // guard must trip at size()-1 and pass at size().  A star's guard is
  // its accumulator, which is its result.
  TripleStore tree;
  Rng rng(7);
  for (int i = 1; i <= 3000; ++i) {
    tree.Add("E", "n" + std::to_string(rng.Below(i)),
             "p" + std::to_string(i % 8), "n" + std::to_string(i));
  }
  tree.Add("E", "z0", "x", "z1");
  tree.RelationStats(0);
  struct Case {
    const char* text;
    plan::PlanOp op;
    const char* strategy;
  };
  const Case kernels[] = {
      {"(sigma[1=\"n0\"](E) JOIN[1,2,3'; 3=1'] E)",
       plan::PlanOp::kIndexProbeJoin, "probe"},
      {"(sigma[2!=\"x\"](E) JOIN[1,2,3'; 3=1'] sigma[2!=\"x\"](E))",
       plan::PlanOp::kHashJoin, "hash"},
      {"(E JOIN[1,2,3'; 3=1'] E)", plan::PlanOp::kMergeJoin, "merge"},
      {"(E JOIN[1,2',3'; 3=1'])*", plan::PlanOp::kFixpointStar, nullptr}};
  for (const Case& c : kernels) {
    Result<ExprPtr> e = ParseTriAL(c.text, &tree);
    ASSERT_TRUE(e.ok()) << e.status().ToString();
    plan::PlanPtr p = plan::PlanExpr(*e, tree);
    ASSERT_EQ(p->op, c.op) << c.text;
    Result<TripleSet> want = plan::ExecutePlan(*p, tree);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    ASSERT_GT(want->size(), 20u) << c.text;
    if (c.strategy != nullptr) {
      EXPECT_STREQ(p->runtime.strategy, c.strategy) << c.text;
    }
    for (size_t threads : std::vector<size_t>{1, 2, 4}) {
      ExecLimits limits;
      limits.exec.num_threads = threads;
      limits.exec.min_parallel_items = 1;
      limits.max_result_triples = want->size() - 1;
      Result<TripleSet> r = plan::ExecutePlan(*p, tree, limits);
      ASSERT_FALSE(r.ok()) << c.text << " at " << threads << " threads";
      EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
      limits.max_result_triples = want->size();
      r = plan::ExecutePlan(*p, tree, limits);
      ASSERT_TRUE(r.ok()) << c.text << " at " << threads << " threads: "
                          << r.status().ToString();
      EXPECT_EQ(*r, *want) << c.text << " at " << threads << " threads";
      if (c.strategy != nullptr) {
        EXPECT_STREQ(p->runtime.strategy, c.strategy) << c.text;
      }
    }
  }
}

TEST(EvalGuards, UnknownRelation) {
  TripleStore store;
  store.Add("E", "a", "b", "c");
  for (auto make : {MakeNaiveEvaluator, MakeSmartEvaluator,
                    MakeMatrixEvaluator}) {
    auto engine = make({});
    auto r = engine->Eval(Expr::Rel("nope"), store);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  }
}

TEST(EvalGuards, NonUnarySelectionRejected) {
  TripleStore store;
  store.Add("E", "a", "b", "c");
  CondSet bad;
  bad.theta.push_back(Eq(Pos::P1, Pos::P1p));
  auto engine = MakeSmartEvaluator();
  auto r = engine->Eval(Expr::Select(Expr::Rel("E"), bad), store);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace trial
