// The parallel execution layer: deterministic chunking, the global
// thread pool, and the chunk runner the query kernels are built on
// (see src/util/parallel.h for the determinism contract and
// ChunkRuns / GuardedKernel in src/core/eval.h).

#include "util/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/eval.h"
#include "storage/triple_sort.h"

namespace trial {
namespace {

TEST(SplitEvenTest, CoversRangeContiguouslyAndEvenly) {
  for (size_t n : std::vector<size_t>{0, 1, 2, 7, 100, 1001}) {
    for (size_t chunks : std::vector<size_t>{1, 2, 3, 8, 1000}) {
      std::vector<ChunkRange> cs = SplitEven(n, chunks);
      ASSERT_FALSE(cs.empty());
      EXPECT_LE(cs.size(), std::max<size_t>(chunks, 1));
      EXPECT_EQ(cs.front().begin, 0u);
      EXPECT_EQ(cs.back().end, n);
      size_t lo = n, hi = 0;
      for (size_t i = 0; i < cs.size(); ++i) {
        if (i > 0) {
          EXPECT_EQ(cs[i].begin, cs[i - 1].end);
        }
        lo = std::min(lo, cs[i].size());
        hi = std::max(hi, cs[i].size());
      }
      if (n > 0) {
        EXPECT_GE(lo, 1u);  // no empty chunks on non-empty input
        EXPECT_LE(hi - lo, 1u);
      }
    }
  }
}

TEST(SplitEvenTest, DependsOnlyOnArguments) {
  for (int rep = 0; rep < 3; ++rep) {
    std::vector<ChunkRange> a = SplitEven(12345, 7);
    std::vector<ChunkRange> b = SplitEven(12345, 7);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].begin, b[i].begin);
      EXPECT_EQ(a[i].end, b[i].end);
    }
  }
}

TEST(ThreadPoolTest, RunsEveryTaskExactlyOnce) {
  for (size_t threads : std::vector<size_t>{1, 2, 4, 8}) {
    std::vector<int> hits(257, 0);
    // Distinct tasks write distinct elements: no data race, and a task
    // run twice (or never) shows up as hits[t] != 1.
    ParallelFor(hits.size(), threads, [&](size_t t) { ++hits[t]; });
    for (int h : hits) EXPECT_EQ(h, 1);
  }
}

TEST(ThreadPoolTest, NestedRunExecutesInlineWithoutDeadlock) {
  std::atomic<int> count{0};
  ParallelFor(4, 4, [&](size_t) {
    ParallelFor(8, 4, [&](size_t) { count.fetch_add(1); });
  });
  EXPECT_EQ(count.load(), 32);
}

TEST(ThreadPoolTest, GlobalPoolIsReusableAcrossRuns) {
  std::atomic<size_t> sum{0};
  for (int round = 0; round < 50; ++round) {
    ParallelFor(16, 4, [&](size_t t) { sum.fetch_add(t); });
  }
  EXPECT_EQ(sum.load(), 50u * (15 * 16 / 2));
}

ExecOptions Threads(size_t threads) {
  ExecOptions exec;
  exec.num_threads = threads;
  exec.min_parallel_items = 1;
  return exec;
}

// Emits (i, i, i) for every i of its chunk.
void EmitIndices(ChunkRange c, std::vector<Triple>* out) {
  for (size_t i = c.begin; i < c.end; ++i) {
    ObjId v = static_cast<ObjId>(i);
    out->push_back(Triple{v, v, v});
  }
}

TEST(ChunkRunsTest, RunsComeBackInChunkOrderAtEveryThreadCount) {
  const size_t n = 10007;
  auto split = [&](size_t k) { return SplitEven(n, k); };
  for (size_t threads : std::vector<size_t>{1, 2, 4, 16}) {
    std::vector<std::vector<Triple>> runs =
        ChunkRuns(n, Threads(threads), split, EmitIndices);
    EXPECT_EQ(runs.size(), threads == 1 ? 1 : threads * kChunksPerThread);
    std::vector<Triple> all = Concatenate(std::move(runs));
    ASSERT_EQ(all.size(), n) << "threads=" << threads;
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(all[i].s, i) << "threads=" << threads;
    }
  }
}

TEST(ChunkRunsTest, SerialWorkRunsInlineOnTheCallingThread) {
  // Below min_parallel_items, and at one thread, there is one chunk and
  // it runs on the caller, not on a pool worker.
  ExecOptions small = Threads(4);
  small.min_parallel_items = 100;
  for (const ExecOptions& exec : {Threads(1), small}) {
    std::thread::id ran_on;
    std::vector<std::vector<Triple>> runs = ChunkRuns(
        50, exec, [](size_t k) { return SplitEven(50, k); },
        [&](ChunkRange c, std::vector<Triple>* out) {
          ran_on = std::this_thread::get_id();
          EmitIndices(c, out);
        });
    ASSERT_EQ(runs.size(), 1u);
    EXPECT_EQ(runs[0].size(), 50u);
    EXPECT_EQ(ran_on, std::this_thread::get_id());
  }
}

TEST(GuardedKernelTest, ExhaustsExactlyAboveTheLimitAtEveryThreadCount) {
  // Three times the guard stride, so the chunks flush mid-run.
  const size_t n = 3 * kGuardStride + 5;
  auto split = [&](size_t k) { return SplitEven(n, k); };
  auto body = [](ChunkRange c, std::vector<Triple>* out, ChunkGuard& guard) {
    for (size_t i = c.begin; i < c.end; ++i) {
      ObjId v = static_cast<ObjId>(i);
      out->push_back(Triple{v, v, v});
      if (!guard(out->size())) return;
    }
  };
  for (size_t threads : std::vector<size_t>{1, 2, 4}) {
    Result<TripleSet> over =
        GuardedKernel(n, Threads(threads), n - 1, "too large", split, body);
    ASSERT_FALSE(over.ok()) << "threads=" << threads;
    EXPECT_EQ(over.status().code(), StatusCode::kResourceExhausted);
    Result<TripleSet> fits =
        GuardedKernel(n, Threads(threads), n, "too large", split, body);
    ASSERT_TRUE(fits.ok()) << "threads=" << threads;
    EXPECT_EQ(fits->size(), n);
    EXPECT_EQ(fits->triples().front().s, 0u);
    EXPECT_EQ(fits->triples().back().s, n - 1);
  }
}

TEST(ExecOptionsTest, DefaultsAreSerial) {
  ExecOptions opts;
  EXPECT_EQ(opts.EffectiveThreads(), 1u);
  EXPECT_FALSE(opts.ShouldParallelize(1u << 20));
}

TEST(ExecOptionsTest, ThresholdGatesParallelism) {
  ExecOptions opts;
  opts.num_threads = 4;
  opts.min_parallel_items = 100;
  EXPECT_TRUE(opts.ShouldParallelize(100));
  EXPECT_FALSE(opts.ShouldParallelize(99));
  opts.num_threads = 0;  // hardware concurrency
  EXPECT_GE(opts.EffectiveThreads(), 1u);
}

}  // namespace
}  // namespace trial
