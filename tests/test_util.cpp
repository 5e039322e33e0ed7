// Tests for src/util: thread pool, the host parallel loop, timers, tables,
// RNG determinism.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <sstream>
#include <thread>

#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace feti {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 100; ++i)
    futs.push_back(pool.submit([&] { counter.fetch_add(1); }));
  for (auto& f : futs) f.get();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, SubmitReturnsValue) {
  ThreadPool pool(2);
  auto f = pool.submit([] { return 41 + 1; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, 1000, [&](long i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyRange) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(5, 5, [&](long) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, ParallelForPropagatesException) {
  ThreadPool pool(3);
  EXPECT_THROW(
      pool.parallel_for(0, 50,
                        [&](long i) {
                          if (i == 13) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
}

TEST(ThreadPool, SizeClampsToAtLeastOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1);
  auto f = pool.submit([] { return 7; });
  EXPECT_EQ(f.get(), 7);
}

TEST(ParallelFor, EmptyRangeRunsNothing) {
  std::atomic<int> calls{0};
  parallel_for(0, [&](idx) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelFor, RunsEveryIndexExactlyOnce) {
  for (idx n : {1, 1000}) {
    std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
    parallel_for(n, [&](idx i) { hits[static_cast<std::size_t>(i)]++; });
    for (idx i = 0; i < n; ++i)
      EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
          << "n " << n << " index " << i;
  }
}

/// A type no library code throws, so catching it proves the type survived.
struct LoopError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

TEST(ParallelFor, RethrowsTheBodysExceptionAfterTheJoin) {
  // Index 0 throws at once while the others still sleep: the exception may
  // only reach the caller after every other iteration has finished.
  constexpr idx n = 64;
  std::atomic<int> finished{0};
  try {
    parallel_for(n, [&](idx i) {
      if (i == 0) throw LoopError("body failed");
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      finished.fetch_add(1);
    });
    FAIL() << "parallel_for swallowed the exception";
  } catch (const LoopError& e) {
    EXPECT_STREQ(e.what(), "body failed");
  }
  EXPECT_EQ(finished.load(), n - 1);

  // The loop holds no state: a call after a throw runs normally.
  std::atomic<int> calls{0};
  parallel_for(n, [&](idx) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), n);
}

TEST(Timer, MeasuresElapsedTime) {
  Timer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_GE(t.millis(), 5.0);
  t.reset();
  EXPECT_LT(t.millis(), 5.0);
}

TEST(TimingRegistry, AccumulatesAcrossThreads) {
  TimingRegistry reg;
  ThreadPool pool(4);
  pool.parallel_for(0, 64, [&](long) { reg.add("phase", 0.5); });
  EXPECT_DOUBLE_EQ(reg.total("phase"), 32.0);
  EXPECT_EQ(reg.get("phase").count, 64);
}

TEST(TimingRegistry, ScopedTimerAddsEntry) {
  TimingRegistry reg;
  { ScopedTimer t(reg, "scope"); }
  EXPECT_EQ(reg.get("scope").count, 1);
  EXPECT_GE(reg.get("scope").total, 0.0);
}

TEST(TimingRegistry, UnknownNameIsZero) {
  TimingRegistry reg;
  EXPECT_EQ(reg.get("nope").count, 0);
  EXPECT_EQ(reg.total("nope"), 0.0);
}

TEST(MeasureMedian, RespectsMinReps) {
  int calls = 0;
  const double m = measure_median_seconds(5, 0.0, [&] { ++calls; });
  EXPECT_GE(calls, 5);
  EXPECT_GE(m, 0.0);
}

TEST(Table, PrintsAlignedRowsAndCsv) {
  Table t({"name", "value"});
  t.add_row({"alpha", Table::num(1.5, 2)});
  t.add_row({"b", "x"});
  std::ostringstream txt;
  t.print(txt);
  EXPECT_NE(txt.str().find("alpha"), std::string::npos);
  EXPECT_NE(txt.str().find("1.50"), std::string::npos);
  std::ostringstream csv;
  t.print_csv(csv);
  EXPECT_NE(csv.str().find("alpha,1.50"), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.raw(), b.raw());
}

TEST(Rng, UniformStaysInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = r.uniform(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(Rng, IntegerCoversInclusiveRange) {
  Rng r(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const long v = r.integer(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    saw_lo |= v == 0;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

}  // namespace
}  // namespace feti
