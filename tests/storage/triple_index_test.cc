// Unit and property tests for the permutation-index layer
// (storage/triple_index.h): planner coverage, agreement of Lookup /
// LookupPair / Scan with the sorted base vector, lazy build and
// invalidation, cache sharing across copies, stats, the merge-based
// Normalize, and the Zipf-skewed store generator that exercises skewed
// index selectivity.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "core/builder.h"
#include "core/eval.h"
#include "graph/generators.h"
#include "storage/triple_index.h"
#include "storage/triple_set.h"
#include "storage/triple_sort.h"
#include "storage/triple_store.h"
#include "util/rng.h"

namespace trial {
namespace {

TripleSet RandomSet(Rng* rng, size_t n, ObjId universe) {
  TripleSet s;
  for (size_t i = 0; i < n; ++i) {
    s.Insert(static_cast<ObjId>(rng->Below(universe)),
             static_cast<ObjId>(rng->Below(universe)),
             static_cast<ObjId>(rng->Below(universe)));
  }
  return s;
}

std::vector<Triple> ScanFilter(const TripleSet& s, int col, ObjId v) {
  std::vector<Triple> out;
  for (const Triple& t : s) {
    if (t[col] == v) out.push_back(t);
  }
  return out;
}

TEST(PlanAccess, CoversEverySingleColumnAndPair) {
  EXPECT_EQ(PlanAccess(true, false, false).order, IndexOrder::kSPO);
  EXPECT_EQ(PlanAccess(false, true, false).order, IndexOrder::kPOS);
  EXPECT_EQ(PlanAccess(false, false, true).order, IndexOrder::kOSP);
  EXPECT_EQ(PlanAccess(true, true, false).order, IndexOrder::kSPO);
  EXPECT_EQ(PlanAccess(false, true, true).order, IndexOrder::kPOS);
  EXPECT_EQ(PlanAccess(true, false, true).order, IndexOrder::kOSP);
  // Every bound set is fully covered by the chosen order's prefix.
  for (int mask = 0; mask < 8; ++mask) {
    bool s = mask & 1, p = mask & 2, o = mask & 4;
    AccessPath path = PlanAccess(s, p, o);
    EXPECT_EQ(path.prefix, (s ? 1 : 0) + (p ? 1 : 0) + (o ? 1 : 0));
    // The prefix columns of the order are exactly the bound ones.
    bool bound[3] = {s, p, o};
    for (int k = 0; k < path.prefix; ++k) {
      EXPECT_TRUE(bound[IndexColumn(path.order, k)])
          << "mask=" << mask << " k=" << k;
    }
  }
}

TEST(TripleIndex, LookupAgreesWithLinearScan) {
  Rng rng(7);
  TripleSet s = RandomSet(&rng, 300, 12);
  for (int col = 0; col < 3; ++col) {
    for (ObjId v = 0; v < 13; ++v) {  // one past the universe: empty range
      std::vector<Triple> expect = ScanFilter(s, col, v);
      TripleRange got = s.Lookup(col, v);
      std::vector<Triple> got_v(got.begin(), got.end());
      std::sort(got_v.begin(), got_v.end());
      std::sort(expect.begin(), expect.end());
      EXPECT_EQ(got_v, expect) << "col=" << col << " v=" << v;
    }
  }
}

TEST(TripleIndex, LookupPairAgreesWithLinearScan) {
  Rng rng(11);
  TripleSet s = RandomSet(&rng, 400, 8);
  for (int a = 0; a < 3; ++a) {
    for (int b = 0; b < 3; ++b) {
      if (a == b) continue;
      for (ObjId va = 0; va < 8; ++va) {
        for (ObjId vb = 0; vb < 8; ++vb) {
          std::vector<Triple> expect;
          for (const Triple& t : s) {
            if (t[a] == va && t[b] == vb) expect.push_back(t);
          }
          TripleRange got = s.LookupPair(a, va, b, vb);
          std::vector<Triple> got_v(got.begin(), got.end());
          std::sort(got_v.begin(), got_v.end());
          std::sort(expect.begin(), expect.end());
          EXPECT_EQ(got_v, expect)
              << "cols " << a << "," << b << " vals " << va << "," << vb;
        }
      }
    }
  }
}

TEST(TripleIndex, LookupPairSameColumn) {
  TripleSet s({{1, 2, 3}, {1, 5, 6}});
  EXPECT_EQ(s.LookupPair(0, 1, 0, 1).size(), 2u);
  EXPECT_TRUE(s.LookupPair(0, 1, 0, 2).empty());
}

TEST(TripleIndex, ScanIsSortedPermutationOfBase) {
  Rng rng(13);
  TripleSet s = RandomSet(&rng, 250, 9);
  std::vector<Triple> base = s.triples();
  for (IndexOrder ord :
       {IndexOrder::kSPO, IndexOrder::kPOS, IndexOrder::kOSP}) {
    TripleRange r = s.Scan(ord);
    ASSERT_EQ(r.size(), base.size());
    for (size_t i = 1; i < r.size(); ++i) {
      EXPECT_FALSE(IndexLess(ord, r.begin()[i], r.begin()[i - 1]))
          << IndexOrderName(ord) << " out of order at " << i;
    }
    std::vector<Triple> copy(r.begin(), r.end());
    std::sort(copy.begin(), copy.end());
    EXPECT_EQ(copy, base) << IndexOrderName(ord) << " is not a permutation";
  }
}

TEST(TripleIndex, LazyBuildAndInvalidationOnInsert) {
  TripleSet s;
  s.Insert(1, 2, 3);
  // Pending staged inserts: nothing is ready.
  EXPECT_FALSE(s.IndexReady(IndexOrder::kSPO));
  EXPECT_EQ(s.size(), 1u);  // normalizes
  EXPECT_TRUE(s.IndexReady(IndexOrder::kSPO));   // the base vector itself
  EXPECT_FALSE(s.IndexReady(IndexOrder::kPOS));  // lazy: not yet built
  EXPECT_EQ(s.Lookup(1, 2).size(), 1u);          // builds POS
  EXPECT_TRUE(s.IndexReady(IndexOrder::kPOS));
  EXPECT_FALSE(s.IndexReady(IndexOrder::kOSP));

  s.Insert(4, 2, 6);  // invalidates
  EXPECT_FALSE(s.IndexReady(IndexOrder::kPOS));
  EXPECT_EQ(s.Lookup(1, 2).size(), 2u);  // the batch merged into POS
  EXPECT_TRUE(s.IndexReady(IndexOrder::kPOS));
}

TEST(TripleIndex, CopiesShareTheCacheUntilMutation) {
  Rng rng(17);
  TripleSet original = RandomSet(&rng, 100, 6);
  original.triples();  // normalize
  TripleSet copy = original;
  // Building through the copy warms the original (shared cell) ...
  copy.Lookup(2, 3);
  EXPECT_TRUE(original.IndexReady(IndexOrder::kOSP));
  // ... and mutating the copy detaches it without touching the original.
  copy.Insert(99, 99, 99);
  EXPECT_FALSE(copy.IndexReady(IndexOrder::kOSP));  // staged insert pending
  EXPECT_EQ(copy.Lookup(2, 99).size(), 1u);  // detaches, rebuilds over merge
  EXPECT_TRUE(original.IndexReady(IndexOrder::kOSP));
  EXPECT_TRUE(original.Lookup(2, 99).empty());
}

TEST(TripleIndex, StatsCountDistinctValues) {
  TripleSet s({{0, 5, 1}, {0, 5, 2}, {1, 5, 2}, {2, 6, 2}});
  const TripleSetStats& st = s.Stats();
  EXPECT_EQ(st.num_triples, 4u);
  EXPECT_EQ(st.distinct[0], 3u);  // s: 0, 1, 2
  EXPECT_EQ(st.distinct[1], 2u);  // p: 5, 6
  EXPECT_EQ(st.distinct[2], 2u);  // o: 1, 2
  EXPECT_DOUBLE_EQ(st.ExpectedMatches(1), 2.0);
}

TEST(TripleIndex, StoreExposesRelationStats) {
  TripleStore store;
  store.Add("E", "a", "p", "b");
  store.Add("E", "a", "p", "c");
  const TripleSetStats& st = store.RelationStats(0);
  EXPECT_EQ(st.num_triples, 2u);
  EXPECT_EQ(st.distinct[0], 1u);
  EXPECT_EQ(st.distinct[2], 2u);
}

// The merge-based Normalize: interleaved insert/read rounds agree with a
// std::set model (this is the semi-naive fixpoint access pattern).
TEST(TripleSetNormalize, InterleavedBatchesMatchSetModel) {
  Rng rng(23);
  TripleSet s;
  std::set<Triple> model;
  for (int round = 0; round < 20; ++round) {
    size_t batch = rng.Below(40);
    for (size_t i = 0; i < batch; ++i) {
      Triple t{static_cast<ObjId>(rng.Below(10)),
               static_cast<ObjId>(rng.Below(10)),
               static_cast<ObjId>(rng.Below(10))};
      s.Insert(t);
      model.insert(t);
    }
    ASSERT_EQ(s.size(), model.size()) << "round " << round;
    std::vector<Triple> expect(model.begin(), model.end());
    EXPECT_EQ(s.triples(), expect) << "round " << round;
  }
}

// ---- SortUnique / SortedCopy: the splitter sort -----------------------

// The serial reference: std::sort + std::unique under `order`.
std::vector<Triple> SortedReference(IndexOrder order, std::vector<Triple> v) {
  std::sort(v.begin(), v.end(), [order](const Triple& a, const Triple& b) {
    return IndexLess(order, a, b);
  });
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

// `v` cut into `k` runs of uneven length, like per-chunk kernel buffers.
std::vector<std::vector<Triple>> CutRuns(const std::vector<Triple>& v,
                                         size_t k) {
  std::vector<std::vector<Triple>> runs(k);
  size_t at = 0;
  for (size_t r = 0; r < k; ++r) {
    // Run r holds a share proportional to r + 1.
    size_t end = v.size() * (r + 1) * (r + 2) / (k * (k + 1));
    runs[r].assign(v.data() + at, v.data() + end);
    at = end;
  }
  return runs;
}

struct SortCase {
  const char* name;
  std::vector<Triple> input;
};

std::vector<SortCase> SortCases() {
  const size_t threshold = ExecOptions{}.min_parallel_items;
  Rng rng(41);
  auto random = [&](size_t n, ObjId universe) {
    std::vector<Triple> v;
    for (size_t i = 0; i < n; ++i) {
      v.push_back({static_cast<ObjId>(rng.Below(universe)),
                   static_cast<ObjId>(rng.Below(universe)),
                   static_cast<ObjId>(rng.Below(universe))});
    }
    return v;
  };
  std::vector<SortCase> cases;
  cases.push_back({"empty", {}});
  cases.push_back({"single", {{3, 1, 2}}});
  cases.push_back({"below_threshold", random(threshold - 1, 40)});
  cases.push_back({"above_threshold", random(threshold + 1, 40)});
  // 30 distinct triples repeated across 20K entries: every run and
  // every bucket holds copies of the same few values.
  std::vector<Triple> few = random(30, 1000);
  std::vector<Triple> dups;
  for (size_t i = 0; i < 20000; ++i) {
    dups.push_back(few[rng.Below(few.size())]);
  }
  cases.push_back({"heavy_duplicates", dups});
  // A Zipf hot key: subject 7 holds 60% of the triples, so most
  // splitters share their leading column (and, in the POS and OSP
  // orders, the trailing one).
  std::vector<Triple> hot = random(20000, 500);
  for (size_t i = 0; i < hot.size(); ++i) {
    if (rng.Below(10) < 6) hot[i].s = 7;
  }
  cases.push_back({"hot_subject", hot});
  return cases;
}

TEST(SortUnique, MatchesStdSortAtEveryOrderAndThreadCount) {
  for (const SortCase& c : SortCases()) {
    const std::vector<Triple> unique =
        SortedReference(IndexOrder::kSPO, c.input);
    for (IndexOrder order :
         {IndexOrder::kSPO, IndexOrder::kPOS, IndexOrder::kOSP}) {
      const std::vector<Triple> want = SortedReference(order, c.input);
      for (size_t threads : {1, 2, 4}) {
        // The stock threshold, and 1 to force even the empty and
        // single-triple inputs down the parallel path.
        for (size_t min_items :
             {ExecOptions{}.min_parallel_items, size_t{1}}) {
          ExecOptions exec;
          exec.num_threads = threads;
          exec.min_parallel_items = min_items;
          for (size_t runs : {1, 7}) {
            EXPECT_EQ(SortUnique(order, CutRuns(c.input, runs), exec), want)
                << c.name << " " << IndexOrderName(order) << " threads="
                << threads << " min_items=" << min_items << " runs=" << runs;
          }
          EXPECT_EQ(SortedCopy(order, unique, exec), want)
              << c.name << " " << IndexOrderName(order) << " threads="
              << threads << " min_items=" << min_items;
        }
      }
    }
  }
}

// The TripleSet routes onto the sort: a staged batch normalized and a
// permutation built with parallel ExecOptions equal the serial ones.
TEST(SortUnique, ParallelMaterializeMatchesSerial) {
  std::vector<Triple> input = SortCases().back().input;
  TripleSet serial(input);
  ExecOptions exec;
  exec.num_threads = 4;
  for (IndexOrder order :
       {IndexOrder::kSPO, IndexOrder::kPOS, IndexOrder::kOSP}) {
    TripleSet parallel(input);
    parallel.Materialize(order, exec);
    EXPECT_TRUE(parallel.IndexReady(order));
    TripleRange got = parallel.Scan(order), want = serial.Scan(order);
    EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
        << IndexOrderName(order);
  }
}

// Copies share the sorted body itself, not just the permutations: a
// copy is O(1), and a write to either side copies the body first.
TEST(TripleSetNormalize, CopiesShareTheBodyUntilWrite) {
  Rng rng(29);
  TripleSet original = RandomSet(&rng, 200, 8);
  const std::vector<Triple> before = original.triples();
  original.Lookup(1, 3);  // builds POS on the shared cell
  TripleSet copy = original;
  EXPECT_EQ(&copy.triples(), &original.triples());
  copy.Insert(99, 3, 99);
  EXPECT_EQ(copy.Lookup(1, 3).size(), original.Lookup(1, 3).size() + 1);
  EXPECT_NE(&copy.triples(), &original.triples());
  EXPECT_EQ(original.triples(), before);
  EXPECT_TRUE(original.IndexReady(IndexOrder::kPOS));
}

// A write to a set that is its cell's only user merges the batch into
// the permutations already built instead of dropping them; an order
// never built stays lazy until its first probe (OSP, from round 5).
TEST(TripleSetNormalize, WritesMergeIntoBuiltPermutations) {
  Rng rng(31);
  TripleSet s = RandomSet(&rng, 300, 12);
  std::set<Triple> model(s.begin(), s.end());
  s.Materialize(IndexOrder::kPOS);
  for (int round = 0; round < 12; ++round) {
    // Fresh triples plus a copy of a present one, which must not
    // duplicate in any permutation.
    std::vector<Triple> batch;
    for (size_t i = 0; i < 25; ++i) {
      batch.push_back({static_cast<ObjId>(rng.Below(14)),
                       static_cast<ObjId>(rng.Below(14)),
                       static_cast<ObjId>(rng.Below(14))});
    }
    batch.push_back(*s.begin());
    for (const Triple& t : batch) model.insert(t);
    s.InsertBatch(batch);
    ASSERT_EQ(s.size(), model.size()) << "round " << round;
    EXPECT_TRUE(s.IndexReady(IndexOrder::kPOS)) << "round " << round;
    EXPECT_EQ(s.IndexReady(IndexOrder::kOSP), round > 5) << "round " << round;
    for (IndexOrder ord : {IndexOrder::kPOS, IndexOrder::kOSP}) {
      if (ord == IndexOrder::kOSP && round < 5) continue;
      TripleRange r = s.Scan(ord);
      EXPECT_EQ(std::vector<Triple>(r.begin(), r.end()),
                SortedReference(ord, {model.begin(), model.end()}))
          << IndexOrderName(ord) << " round " << round;
    }
  }
}

TEST(ZipfStores, DeterministicInSeed) {
  RandomStoreOptions opts;
  opts.num_objects = 50;
  opts.num_triples = 500;
  opts.zipf_p = 1.2;
  opts.zipf_o = 0.8;
  opts.seed = 5;
  TripleStore a = RandomTripleStore(opts);
  TripleStore b = RandomTripleStore(opts);
  ASSERT_EQ(a.TotalTriples(), b.TotalTriples());
  EXPECT_EQ(*a.FindRelation("E"), *b.FindRelation("E"));
}

TEST(ZipfStores, SkewConcentratesOnLowRanks) {
  RandomStoreOptions opts;
  opts.num_objects = 64;
  opts.num_triples = 2000;
  opts.zipf_p = 1.5;
  opts.seed = 9;
  TripleStore store = RandomTripleStore(opts);
  const TripleSet& rel = *store.FindRelation("E");
  ObjId hottest = store.FindObject("o0");
  ASSERT_NE(hottest, kInvalidIntern);
  size_t hot = rel.Lookup(1, hottest).size();
  // Uniform would give ~2000/64 ≈ 31 (duplicates collapse a little);
  // Zipf(1.5) gives rank 0 about 1/ζ(1.5)·2000 ≈ 40% of all draws.
  EXPECT_GT(hot, 200u);
  const TripleSetStats& st = rel.Stats();
  EXPECT_LT(st.distinct[1], 64u);  // deep ranks are rarely drawn at all
  EXPECT_GT(st.distinct[0], 50u);  // subjects stayed uniform
}

// ---- partition API (the parallel kernels' input splitting) ------------

TEST(Partitions, SlicesConcatenateToScanInOrder) {
  Rng rng(77);
  TripleSet s = RandomSet(&rng, 500, 40);
  for (IndexOrder order :
       {IndexOrder::kSPO, IndexOrder::kPOS, IndexOrder::kOSP}) {
    TripleRange full = s.Scan(order);
    for (size_t parts : std::vector<size_t>{1, 2, 3, 7, 1000}) {
      std::vector<TripleRange> ps = s.Partitions(order, parts);
      EXPECT_LE(ps.size(), std::max<size_t>(parts, 1));
      const Triple* expect = full.begin();
      for (const TripleRange& r : ps) {
        EXPECT_EQ(r.begin(), expect);  // contiguous, in scan order
        expect = r.end();
      }
      EXPECT_EQ(expect, full.end());
    }
  }
}

TEST(Partitions, PartitionAwareScanMatchesPartitions) {
  Rng rng(78);
  TripleSet s = RandomSet(&rng, 300, 30);
  for (IndexOrder order :
       {IndexOrder::kSPO, IndexOrder::kPOS, IndexOrder::kOSP}) {
    const size_t parts = 5;
    TripleRange full = s.Scan(order);
    const Triple* expect = full.begin();
    for (size_t p = 0; p < parts; ++p) {
      TripleRange r = s.Scan(order, p, parts);
      EXPECT_EQ(r.begin(), expect);
      expect = r.end();
    }
    EXPECT_EQ(expect, full.end());
    EXPECT_TRUE(s.Scan(order, parts, parts).empty());  // part out of range
  }
}

TEST(Partitions, MaterializeBuildsTheOrder) {
  Rng rng(79);
  TripleSet s = RandomSet(&rng, 50, 10);
  EXPECT_FALSE(s.IndexReady(IndexOrder::kPOS));
  s.Materialize(IndexOrder::kPOS);
  EXPECT_TRUE(s.IndexReady(IndexOrder::kPOS));
  s.Insert(1, 2, 3);  // staged insert invalidates readiness
  EXPECT_FALSE(s.IndexReady(IndexOrder::kPOS));
}

// Cross-check: the index-routed Smart engine agrees with Naive on
// selective constant selections and joins over a skewed store — the
// workload where index ranges differ most between hot and cold keys.
TEST(ZipfStores, EnginesAgreeOnSelectiveQueries) {
  RandomStoreOptions opts;
  opts.num_objects = 40;
  opts.num_triples = 400;
  opts.zipf_p = 1.3;
  opts.zipf_o = 1.0;
  opts.seed = 31;
  TripleStore store = RandomTripleStore(opts);
  auto naive = MakeNaiveEvaluator();
  auto smart = MakeSmartEvaluator();
  ObjId hot = store.FindObject("o0");
  ObjId cold = store.FindObject("o39");
  ASSERT_NE(hot, kInvalidIntern);
  ASSERT_NE(cold, kInvalidIntern);
  for (ObjId c : {hot, cold}) {
    for (Pos pos : {Pos::P1, Pos::P2, Pos::P3}) {
      // σ_{pos=c}(E) and σ_{pos=c}(E) ⋈_{3=1'} E.
      ExprPtr sel = Expr::Select(Expr::Rel("E"), Where({EqConst(pos, c)}));
      ExprPtr join =
          Expr::Join(sel, Expr::Rel("E"),
                     Spec(Pos::P1, Pos::P2, Pos::P3p, {Eq(Pos::P3, Pos::P1p)}));
      for (const ExprPtr& e : {sel, join}) {
        auto rn = naive->Eval(e, store);
        auto rs = smart->Eval(e, store);
        ASSERT_TRUE(rn.ok()) << rn.status().ToString();
        ASSERT_TRUE(rs.ok()) << rs.status().ToString();
        EXPECT_EQ(*rn, *rs) << e->ToString();
      }
    }
  }
}

}  // namespace
}  // namespace trial
