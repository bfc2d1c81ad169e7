// Unit tests for core components: conditions, expression structure,
// fragment analysis, the optimizer's individual rewrites and the
// reachability fast paths.

#include <gtest/gtest.h>

#include "core/builder.h"
#include "core/eval.h"
#include "core/fast_reach.h"
#include "core/fragment.h"
#include "core/optimizer.h"
#include "rdf/fixtures.h"

namespace trial {
namespace {

TEST(Condition, HoldsEvaluatesThetaAndEta) {
  TripleStore store;
  Triple t1 = store.Add("E", "a", "b", "c");
  Triple t2 = store.Add("E", "c", "d", "a");
  store.SetValue(t1.s, DataValue::Int(1));
  store.SetValue(t2.p, DataValue::Int(1));

  CondSet cond;
  cond.theta.push_back(Eq(Pos::P3, Pos::P1p));  // c == c
  EXPECT_TRUE(cond.Holds(t1, t2, store));
  cond.theta.push_back(Neq(Pos::P1, Pos::P3p));  // a != a  — fails
  EXPECT_FALSE(cond.Holds(t1, t2, store));

  CondSet data;
  data.eta.push_back(DataEq(Pos::P1, Pos::P2p));  // rho(a)=rho(d)=1
  EXPECT_TRUE(data.Holds(t1, t2, store));
  data.eta.push_back(DataEqConst(Pos::P1, DataValue::Int(2)));
  EXPECT_FALSE(data.Holds(t1, t2, store));
}

TEST(Condition, UnaryDetection) {
  CondSet unary;
  unary.theta.push_back(Eq(Pos::P1, Pos::P2));
  EXPECT_TRUE(unary.IsUnary());
  unary.theta.push_back(Eq(Pos::P1, Pos::P3p));
  EXPECT_FALSE(unary.IsUnary());
}

TEST(Expr, SizeAndToString) {
  ExprPtr e = Expr::Join(Expr::Rel("E"), Expr::Rel("E"),
                         Spec(Pos::P1, Pos::P3p, Pos::P3,
                              {Eq(Pos::P2, Pos::P1p)}));
  EXPECT_EQ(e->Size(), 4u);  // join node + condition atom + two rels
  EXPECT_EQ(e->ToString(), "(E JOIN[1,3',3; 2=1'] E)");
  EXPECT_FALSE(e->IsRecursive());
  EXPECT_TRUE(ReachAnyPath(Expr::Rel("E"))->IsRecursive());
}

TEST(Fragment, ReachSpecDetection) {
  EXPECT_TRUE(IsReachSpecA(
      Spec(Pos::P1, Pos::P2, Pos::P3p, {Eq(Pos::P3, Pos::P1p)})));
  // Symmetric orientation of the atom also matches.
  EXPECT_TRUE(IsReachSpecA(
      Spec(Pos::P1, Pos::P2, Pos::P3p, {Eq(Pos::P1p, Pos::P3)})));
  EXPECT_FALSE(IsReachSpecA(
      Spec(Pos::P1, Pos::P2, Pos::P3p, {Eq(Pos::P3, Pos::P2p)})));
  EXPECT_FALSE(IsReachSpecA(
      Spec(Pos::P1, Pos::P2p, Pos::P3p, {Eq(Pos::P3, Pos::P1p)})));
  EXPECT_TRUE(IsReachSpecB(
      Spec(Pos::P1, Pos::P2, Pos::P3p,
           {Eq(Pos::P3, Pos::P1p), Eq(Pos::P2, Pos::P2p)})));
  EXPECT_FALSE(IsReachSpecB(
      Spec(Pos::P1, Pos::P2, Pos::P3p, {Eq(Pos::P3, Pos::P1p)})));
}

TEST(Fragment, Classification) {
  ExprPtr eq_join = Expr::Join(
      Expr::Rel("E"), Expr::Rel("E"),
      Spec(Pos::P1, Pos::P2, Pos::P3p, {Eq(Pos::P3, Pos::P1p)}));
  EXPECT_EQ(AnalyzeFragment(eq_join).Classify(), Fragment::kTriALEq);

  ExprPtr neq_join = Expr::Join(
      Expr::Rel("E"), Expr::Rel("E"),
      Spec(Pos::P1, Pos::P2, Pos::P3p, {Neq(Pos::P3, Pos::P1p)}));
  EXPECT_EQ(AnalyzeFragment(neq_join).Classify(), Fragment::kTriAL);

  EXPECT_EQ(AnalyzeFragment(ReachAnyPath(Expr::Rel("E"))).Classify(),
            Fragment::kReachTAEq);
  EXPECT_EQ(AnalyzeFragment(ReachSameMiddle(eq_join)).Classify(),
            Fragment::kReachTAEq);

  // A star whose spec is not a reach shape leaves reachTA=.
  ExprPtr odd_star = Expr::StarRight(
      Expr::Rel("E"),
      Spec(Pos::P1, Pos::P2p, Pos::P3p, {Eq(Pos::P3, Pos::P1p)}));
  EXPECT_EQ(AnalyzeFragment(odd_star).Classify(), Fragment::kTriALEqStar);
}

TEST(Optimizer, NormalizeCondDropsAndDetects) {
  CondSet dup;
  dup.theta = {Eq(Pos::P1, Pos::P2), Eq(Pos::P2, Pos::P1),
               Eq(Pos::P1, Pos::P1)};
  auto norm = NormalizeCond(dup);
  ASSERT_TRUE(norm.has_value());
  EXPECT_EQ(norm->theta.size(), 1u);

  CondSet contra;
  contra.theta = {Eq(Pos::P1, Pos::P2), Neq(Pos::P1, Pos::P2)};
  EXPECT_FALSE(NormalizeCond(contra).has_value());

  CondSet two_consts;
  two_consts.theta = {EqConst(Pos::P1, 3), EqConst(Pos::P1, 4)};
  EXPECT_FALSE(NormalizeCond(two_consts).has_value());

  CondSet self_neq;
  self_neq.theta = {Neq(Pos::P2, Pos::P2)};
  EXPECT_FALSE(NormalizeCond(self_neq).has_value());
}

TEST(Optimizer, StructuralRewrites) {
  ExprPtr e = Expr::Rel("E");
  EXPECT_EQ(Optimize(Expr::Union(e, Expr::Empty()))->kind(), ExprKind::kRel);
  EXPECT_EQ(Optimize(Expr::Diff(e, e))->kind(), ExprKind::kEmpty);
  EXPECT_EQ(Optimize(Expr::Union(e, e))->kind(), ExprKind::kRel);
  EXPECT_EQ(
      Optimize(Expr::Join(Expr::Empty(), e, Spec(Pos::P1, Pos::P2, Pos::P3)))
          ->kind(),
      ExprKind::kEmpty);

  // Selection pushdown into a join: the select disappears.
  CondSet sel;
  sel.theta.push_back(Eq(Pos::P1, Pos::P3));
  ExprPtr joined = Expr::Join(e, e, Spec(Pos::P1, Pos::P3p, Pos::P3));
  ExprPtr pushed = Optimize(Expr::Select(joined, sel));
  EXPECT_EQ(pushed->kind(), ExprKind::kJoin);
  EXPECT_EQ(pushed->join_spec().cond.theta.size(), 1u);

  // Merged adjacent selections.
  ExprPtr twice = Expr::Select(Expr::Select(e, sel), sel);
  ExprPtr merged = Optimize(twice);
  EXPECT_EQ(merged->kind(), ExprKind::kSelect);
  EXPECT_EQ(merged->select_cond().theta.size(), 1u);  // dedup'd
}

TEST(FastReach, MatchesDefinitionOnExampleThree) {
  TripleStore store = ExampleThreeStore();
  const TripleSet& base = *store.FindRelation("E");
  // (E ⋈^{1,2,3'}_{3=1'})*: the projected edge graph is a->c, c->e,
  // d->f, so the only derivable triple is (a,b,e); e has no out-edge.
  TripleSet any = StarReachAnyPath(base).value();
  ObjId a = store.FindObject("a"), b = store.FindObject("b");
  EXPECT_TRUE(any.Contains(Triple{a, b, store.FindObject("e")}));
  EXPECT_FALSE(any.Contains(Triple{a, b, store.FindObject("f")}));
  EXPECT_EQ(any.size(), base.size() + 1u);
  // Cross-check against the generic engine on the same star.
  auto engine = MakeNaiveEvaluator();
  auto generic = engine->Eval(ReachAnyPath(Expr::Rel("E")), store);
  ASSERT_TRUE(generic.ok());
  EXPECT_EQ(any, *generic);

  // Same-middle closure: no two triples share a middle here.
  TripleSet same = StarReachSameMiddle(base).value();
  EXPECT_EQ(same, base);
}

TEST(Expr, UniverseIsActiveDomainCube) {
  TripleStore store;
  store.Add("E", "a", "b", "c");
  store.InternObject("isolated");  // not in any triple -> not in U
  auto engine = MakeNaiveEvaluator();
  auto u = engine->Eval(Expr::Universe(), store);
  ASSERT_TRUE(u.ok());
  EXPECT_EQ(u->size(), 27u);
  // Complement: U - E.
  auto comp = engine->Eval(Expr::Complement(Expr::Rel("E")), store);
  ASSERT_TRUE(comp.ok());
  EXPECT_EQ(comp->size(), 26u);
}

}  // namespace
}  // namespace trial
