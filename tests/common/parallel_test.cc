#include "common/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.h"

namespace metaai::par {
namespace {

TEST(ParallelForTest, VisitsEveryIndexExactlyOnce) {
  const ScopedThreadCount threads(4);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> visits(kN);
  ParallelFor(kN, [&](std::size_t i) {
    visits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(visits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, ZeroIterationsIsANoOp) {
  ParallelFor(0, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ParallelForTest, SingleThreadRunsInlineInIndexOrder) {
  const ScopedThreadCount threads(1);
  std::vector<std::size_t> order;
  ParallelFor(100, [&](std::size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 100u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ParallelForTest, ExplicitThreadArgumentOverridesDefault) {
  const ScopedThreadCount threads(8);
  // num_threads = 1 forces the inline path regardless of the default.
  std::vector<std::size_t> order;
  ParallelFor(
      10, [&](std::size_t i) { order.push_back(i); }, 1);
  ASSERT_EQ(order.size(), 10u);
  EXPECT_EQ(order.front(), 0u);
  EXPECT_EQ(order.back(), 9u);
}

TEST(ParallelMapTest, CollectsResultsInItemOrder) {
  const ScopedThreadCount threads(4);
  std::vector<int> items(257);
  std::iota(items.begin(), items.end(), 0);
  const std::vector<int> squares =
      ParallelMap(items, [](int v) { return v * v; });
  ASSERT_EQ(squares.size(), items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(squares[i], items[i] * items[i]);
  }
}

TEST(ParallelForTest, LowestChunkExceptionPropagates) {
  const ScopedThreadCount threads(4);
  try {
    ParallelFor(100, [&](std::size_t i) {
      if (i == 7) throw std::runtime_error("task 7");
      if (i == 93) throw std::runtime_error("task 93");
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& error) {
    // Both failing indices land in different chunks at 4 threads; the
    // lowest-numbered chunk's exception must win deterministically.
    EXPECT_EQ(std::string(error.what()), "task 7");
  }
}

TEST(ParallelForTest, OtherChunksStillRunWhenOneThrows) {
  const ScopedThreadCount threads(4);
  // The throw happens at the last index of the first chunk (64/4 = 16
  // indices per chunk), so every index is still visited: a failing chunk
  // stops early but never cancels its siblings.
  std::vector<std::atomic<int>> visits(64);
  EXPECT_THROW(ParallelFor(64, [&](std::size_t i) {
                 visits[i].fetch_add(1, std::memory_order_relaxed);
                 if (i == 15) throw std::runtime_error("first chunk");
               }),
               std::runtime_error);
  int total = 0;
  for (auto& v : visits) total += v.load();
  EXPECT_EQ(total, 64);
}

TEST(ParallelForTest, NestedUseRunsInlineWithoutDeadlock) {
  const ScopedThreadCount threads(4);
  std::vector<std::atomic<int>> inner_visits(16 * 8);
  ParallelFor(16, [&](std::size_t outer) {
    EXPECT_TRUE(InParallelRegion());
    // Re-entering the pool from a worker must degrade to inline serial
    // execution instead of deadlocking the fixed-size pool.
    std::vector<std::size_t> order;
    ParallelFor(8, [&](std::size_t inner) {
      order.push_back(inner);
      inner_visits[outer * 8 + inner].fetch_add(1, std::memory_order_relaxed);
    });
    ASSERT_EQ(order.size(), 8u);
    for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(order[i], i);
  });
  EXPECT_FALSE(InParallelRegion());
  for (auto& v : inner_visits) EXPECT_EQ(v.load(), 1);
}

TEST(ParallelForTest, ResultsIdenticalAcrossThreadCounts) {
  auto run = [](int threads) {
    const ScopedThreadCount scoped(threads);
    Rng base(1234);
    std::vector<Rng> rngs = ForkRngs(base, 64);
    std::vector<double> out(64, 0.0);
    ParallelFor(64, [&](std::size_t i) {
      double acc = 0.0;
      for (int k = 0; k < 100; ++k) acc += rngs[i].Uniform();
      out[i] = acc;
    });
    return out;
  };
  const std::vector<double> serial = run(1);
  EXPECT_EQ(run(2), serial);
  EXPECT_EQ(run(8), serial);
}

TEST(ParallelForTest, ManyTinyFanOutsCompleteSafely) {
  // Regression for a completion race: the last worker used to decrement
  // the job's remaining count before locking its done mutex, so the
  // caller could see zero, return and destroy the stack-allocated job
  // while the worker still locked and notified it. Serving runs one
  // fan-out per frame, so the window is reached by volume: hammer it
  // with tiny fan-outs at several widths (TSan/ASan flag the
  // use-after-free directly; a plain build may crash).
  constexpr int kFanOutsPerWidth = 1 << 18;  // ~10^6 fan-outs in total
  for (const int threads : {2, 4, 8}) {
    const ScopedThreadCount scoped(threads);
    std::size_t visited = 0;
    std::atomic<std::size_t> touched{0};
    for (int k = 0; k < kFanOutsPerWidth; ++k) {
      ParallelFor(static_cast<std::size_t>(threads), [&](std::size_t) {
        touched.fetch_add(1, std::memory_order_relaxed);
      });
      visited += static_cast<std::size_t>(threads);
    }
    EXPECT_EQ(touched.load(), visited) << threads << " threads";
  }
}

TEST(ForkRngsTest, StreamsAreIndependentOfTaskCountPrefix) {
  // Fork streams are derived on the calling thread in index order: the
  // first k streams of ForkRngs(base, n) match ForkRngs(base', k) for an
  // identically seeded base.
  Rng base_a(99);
  Rng base_b(99);
  std::vector<Rng> wide = ForkRngs(base_a, 8);
  std::vector<Rng> narrow = ForkRngs(base_b, 3);
  for (std::size_t i = 0; i < narrow.size(); ++i) {
    EXPECT_EQ(wide[i].Next(), narrow[i].Next()) << "stream " << i;
  }
}

TEST(ThreadCountTest, SetDefaultThreadCountRoundTrips) {
  const int previous = SetDefaultThreadCount(3);
  EXPECT_EQ(DefaultThreadCount(), 3);
  SetDefaultThreadCount(previous);
}

TEST(ThreadCountTest, ScopedOverrideRestores) {
  const int before = DefaultThreadCount();
  {
    const ScopedThreadCount scoped(2);
    EXPECT_EQ(DefaultThreadCount(), 2);
  }
  EXPECT_EQ(DefaultThreadCount(), before);
}

TEST(ThreadCountTest, DefaultIsAtLeastOne) {
  EXPECT_GE(DefaultThreadCount(), 1);
}

}  // namespace
}  // namespace metaai::par
