// The process metrics registry: named instrument identity, counter and
// gauge semantics, the log2 histogram bucketing, the global enable
// flag, snapshot/JSON rendering, thread-safety under a concurrent
// hammer (the TSan configuration runs this suite), and the engine's
// permutation-build and result-materialization instruments.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/eval.h"
#include "core/parser.h"
#include "storage/triple_store.h"
#include "util/metrics.h"

namespace trial {
namespace {

// The registry is process-global and other suites may have touched it;
// every test uses its own instrument names and asserts deltas.

const MetricsSnapshot::HistogramValue* FindHisto(const MetricsSnapshot& snap,
                                                 const std::string& name) {
  for (const auto& e : snap.histograms) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

TEST(MetricsRegistry, SameNameReturnsSameInstrument) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter* c1 = reg.GetCounter("test.identity.counter");
  Counter* c2 = reg.GetCounter("test.identity.counter");
  EXPECT_EQ(c1, c2);
  EXPECT_EQ(reg.GetGauge("test.identity.gauge"),
            reg.GetGauge("test.identity.gauge"));
  EXPECT_EQ(reg.GetHistogram("test.identity.histo"),
            reg.GetHistogram("test.identity.histo"));
  // Distinct names are distinct instruments.
  EXPECT_NE(c1, reg.GetCounter("test.identity.counter2"));
}

TEST(MetricsRegistry, CounterAndGaugeBasics) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter* c = reg.GetCounter("test.basics.counter");
  uint64_t before = c->value();
  c->Increment();
  c->Add(41);
  EXPECT_EQ(c->value(), before + 42);

  Gauge* g = reg.GetGauge("test.basics.gauge");
  g->Set(17);
  EXPECT_EQ(g->value(), 17);
  g->Add(-20);
  EXPECT_EQ(g->value(), -3);
}

TEST(MetricsHistogram, Log2BucketBoundaries) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Histogram* h = reg.GetHistogram("test.buckets.histo");
  // 0 and 1 land in the first bucket (upper bound 1); 2 and 3 in
  // [2,4); 4 in [4,8); a huge value clamps into the top bucket.
  h->Observe(0);
  h->Observe(1);
  h->Observe(2);
  h->Observe(3);
  h->Observe(4);
  h->Observe(UINT64_MAX);

  MetricsSnapshot snap = reg.Snapshot();
  const MetricsSnapshot::HistogramValue* found =
      FindHisto(snap, "test.buckets.histo");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->count, 6u);
  EXPECT_EQ(found->min, 0u);
  EXPECT_EQ(found->max, UINT64_MAX);
  EXPECT_EQ(found->sum, uint64_t{10} + UINT64_MAX);  // wraps, and that's fine

  uint64_t total = 0;
  uint64_t at_upper_1 = 0, at_upper_4 = 0, at_upper_8 = 0, at_top = 0;
  for (const auto& b : found->buckets) {
    total += b.second;
    if (b.first == 1) at_upper_1 = b.second;
    if (b.first == 4) at_upper_4 = b.second;
    if (b.first == 8) at_upper_8 = b.second;
    if (b.first == UINT64_MAX) at_top = b.second;
  }
  EXPECT_EQ(total, found->count) << "buckets must sum to the count";
  EXPECT_EQ(at_upper_1, 2u);  // 0, 1
  EXPECT_EQ(at_upper_4, 2u);  // 2, 3
  EXPECT_EQ(at_upper_8, 1u);  // 4
  EXPECT_EQ(at_top, 1u);      // the clamped UINT64_MAX
}

TEST(MetricsFlag, SetMetricsEnabledIsReadBack) {
  bool was = MetricsEnabled();
  SetMetricsEnabled(true);
  EXPECT_TRUE(MetricsEnabled());
  SetMetricsEnabled(false);
  EXPECT_FALSE(MetricsEnabled());
  SetMetricsEnabled(was);
  // The instruments themselves always record; the flag only gates the
  // instrumentation sites (callers check it before reading clocks).
  Counter* c = MetricsRegistry::Global().GetCounter("test.flag.counter");
  uint64_t before = c->value();
  c->Increment();
  EXPECT_EQ(c->value(), before + 1);
}

TEST(MetricsRender, JsonContainsRegisteredInstruments) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.GetCounter("test.render.counter")->Add(7);
  reg.GetGauge("test.render.gauge")->Set(5);
  reg.GetHistogram("test.render.histo")->Observe(100);
  std::string json = reg.RenderJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"gauges\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"histograms\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"test.render.counter\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"test.render.gauge\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"test.render.histo\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"count\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"buckets\""), std::string::npos) << json;
}

TEST(MetricsTimer, ScopedTimerObservesOnlyWhenEnabledAtConstruction) {
  bool was = MetricsEnabled();
  Histogram* h = MetricsRegistry::Global().GetHistogram("test.timer.histo");
  SetMetricsEnabled(false);
  uint64_t before = h->count();
  { ScopedTimer t(h); }
  EXPECT_EQ(h->count(), before);
  SetMetricsEnabled(true);
  { ScopedTimer t(h); }
  EXPECT_EQ(h->count(), before + 1);
  SetMetricsEnabled(was);
}

TEST(MetricsClock, MonotonicNanosNeverGoesBackwards) {
  uint64_t prev = MonotonicNanos();
  for (int i = 0; i < 1000; ++i) {
    uint64_t now = MonotonicNanos();
    ASSERT_GE(now, prev);
    prev = now;
  }
}

uint64_t CounterTotal(const std::string& name) {
  for (const auto& c : MetricsRegistry::Global().Snapshot().counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

// A cold query on a fresh store pays a permutation build; the same query
// again finds the permutation cached and builds nothing.
TEST(MetricsEngine, PermutationBuildsCountColdQueriesOnly) {
  bool was = MetricsEnabled();
  SetMetricsEnabled(true);
  TripleStore store;
  for (int i = 0; i < 50; ++i) {
    store.Add("E", "s" + std::to_string(i), "p" + std::to_string(i % 5),
              "o" + std::to_string(i % 7));
  }
  Result<ExprPtr> e = ParseTriAL("sigma[2=\"p3\"](E)", &store);
  ASSERT_TRUE(e.ok()) << e.status().ToString();
  auto engine = MakeSmartEvaluator();
  const uint64_t before = CounterTotal("index.permutation_builds");
  ASSERT_TRUE(engine->Eval(*e, store).ok());
  const uint64_t cold = CounterTotal("index.permutation_builds");
  EXPECT_GE(cold, before + 1);
  ASSERT_TRUE(engine->Eval(*e, store).ok());
  EXPECT_EQ(CounterTotal("index.permutation_builds"), cold);
  const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  const MetricsSnapshot::HistogramValue* h =
      FindHisto(snap, "index.permutation_build_ns");
  ASSERT_NE(h, nullptr);
  EXPECT_GE(h->count, cold);
  SetMetricsEnabled(was);
}

// A kernel output large enough for the parallel sort records its time.
TEST(MetricsEngine, ParallelMaterializationIsTimed) {
  bool was = MetricsEnabled();
  SetMetricsEnabled(true);
  TripleStore store;
  for (int i = 0; i < 4000; ++i) {
    store.Add("E", "n" + std::to_string(i % 400), "p",
              "n" + std::to_string((i * 7 + i / 400) % 400));
  }
  Result<ExprPtr> e = ParseTriAL("(E JOIN[1,2,3'; 3=1'] E)", &store);
  ASSERT_TRUE(e.ok()) << e.status().ToString();
  EvalOptions opts;
  opts.exec.num_threads = 4;
  auto engine = MakeSmartEvaluator(opts);
  auto histo_count = [] {
    const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
    const MetricsSnapshot::HistogramValue* h =
        FindHisto(snap, "exec.materialize_ns");
    return h == nullptr ? uint64_t{0} : h->count;
  };
  const uint64_t before = histo_count();
  Result<TripleSet> r = engine->Eval(*e, store);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_GE(r->size(), opts.exec.min_parallel_items);
  EXPECT_EQ(histo_count(), before + 1);
  SetMetricsEnabled(was);
}

// Concurrency: registrations, counter bumps and histogram observations
// race across threads; totals must come out exact and TSan-clean.
TEST(MetricsThreads, ConcurrentRegisterAndRecordIsExact) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10'000;
  MetricsRegistry& reg = MetricsRegistry::Global();
  uint64_t c_before = reg.GetCounter("test.mt.counter")->value();
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, t] {
      // Every thread re-resolves by name (exercising the registry
      // lock) and records on shared and per-thread instruments.
      Counter* c = reg.GetCounter("test.mt.counter");
      Histogram* h = reg.GetHistogram("test.mt.histo");
      Counter* own = reg.GetCounter("test.mt.own." + std::to_string(t));
      for (int i = 0; i < kPerThread; ++i) {
        c->Increment();
        h->Observe(static_cast<uint64_t>(i));
        own->Increment();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(reg.GetCounter("test.mt.counter")->value(),
            c_before + uint64_t{kThreads} * kPerThread);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(reg.GetCounter("test.mt.own." + std::to_string(t))->value(),
              uint64_t{kPerThread});
  }
  MetricsSnapshot snap = reg.Snapshot();
  const MetricsSnapshot::HistogramValue* found =
      FindHisto(snap, "test.mt.histo");
  ASSERT_NE(found, nullptr);
  EXPECT_GE(found->count, uint64_t{kThreads} * kPerThread);
  uint64_t total = 0;
  for (const auto& b : found->buckets) total += b.second;
  EXPECT_EQ(total, found->count);
}

}  // namespace
}  // namespace trial
