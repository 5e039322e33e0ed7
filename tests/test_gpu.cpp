// Tests for the virtual GPU runtime: stream ordering, events, memory
// allocators (including the blocking temporary pool), vcuBLAS and vcuSPARSE
// kernels against their CPU references, and both sparse TRSM APIs.

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>

#include "gpu/blas.hpp"
#include "gpu/context.hpp"
#include "gpu/kernels.hpp"
#include "gpu/sparse.hpp"
#include "la/blas_dense.hpp"
#include "la/blas_sparse.hpp"
#include "test_helpers.hpp"

namespace feti::gpu {
namespace {

DeviceConfig test_config() {
  DeviceConfig cfg;
  cfg.worker_threads = 4;
  cfg.launch_latency_us = 0.0;  // tests care about semantics, not timing
  cfg.memory_bytes = 64ull << 20;
  return cfg;
}

TEST(Stream, OperationsRunInOrder) {
  Device dev(test_config());
  Stream s = dev.create_stream();
  std::vector<int> log;
  for (int i = 0; i < 50; ++i)
    s.submit([&log, i] { log.push_back(i); });
  s.synchronize();
  ASSERT_EQ(log.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(log[i], i);
}

TEST(Stream, DifferentStreamsRunConcurrently) {
  Device dev(test_config());
  Stream a = dev.create_stream(), b = dev.create_stream();
  std::atomic<bool> a_started{false}, release_a{false};
  a.submit([&] {
    a_started = true;
    while (!release_a) std::this_thread::yield();
  });
  // Stream b can complete while a is still blocked.
  std::atomic<bool> b_done{false};
  b.submit([&] { b_done = true; });
  b.synchronize();
  EXPECT_TRUE(b_done.load());
  release_a = true;
  a.synchronize();
  EXPECT_TRUE(a_started.load());
}

TEST(Stream, EventOrdersAcrossStreams) {
  Device dev(test_config());
  Stream a = dev.create_stream(), b = dev.create_stream();
  std::vector<int> log;
  std::mutex m;
  auto push = [&](int v) {
    std::lock_guard<std::mutex> lock(m);
    log.push_back(v);
  };
  a.submit([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    push(1);
  });
  Event e = a.record();
  b.wait(e);
  b.submit([&] { push(2); });
  dev.synchronize();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0], 1);
  EXPECT_EQ(log[1], 2);
}

TEST(Stream, EventQueryTransitions) {
  Device dev(test_config());
  Stream s = dev.create_stream();
  std::atomic<bool> release{false};
  s.submit([&] {
    while (!release) std::this_thread::yield();
  });
  Event e = s.record();
  EXPECT_FALSE(e.query());
  release = true;
  e.wait();
  EXPECT_TRUE(e.query());
}

TEST(Stream, MemcpyRoundTrip) {
  Device dev(test_config());
  Stream s = dev.create_stream();
  auto host = testing::random_vector(256, 1);
  double* d = dev.alloc_n<double>(256);
  std::vector<double> back(256, 0.0);
  s.memcpy_h2d(d, host.data(), 256 * sizeof(double));
  s.memcpy_d2h(back.data(), d, 256 * sizeof(double));
  s.synchronize();
  EXPECT_EQ(back, host);
  dev.free(d);
}

TEST(DeviceMemory, CapacityEnforced) {
  DeviceConfig cfg = test_config();
  cfg.memory_bytes = 1 << 20;
  Device dev(cfg);
  void* p = dev.alloc(512 << 10);
  EXPECT_THROW(dev.alloc(600 << 10), std::bad_alloc);
  dev.free(p);
  EXPECT_NO_THROW(p = dev.alloc(600 << 10));
  dev.free(p);
  EXPECT_EQ(dev.memory_used(), 0u);
}

TEST(TempAllocator, ReusesMemoryWithoutDeviceAllocs) {
  Device dev(test_config());
  dev.init_temp_pool();
  auto& temp = dev.temp();
  void* a = temp.alloc(1 << 20);
  void* b = temp.alloc(1 << 20);
  EXPECT_NE(a, b);
  temp.free(a);
  temp.free(b);
  void* c = temp.alloc(2 << 20);  // coalesced region must satisfy this
  EXPECT_EQ(c, a);
  temp.free(c);
  EXPECT_EQ(temp.in_use(), 0u);
}

TEST(TempAllocator, BlocksUntilMemoryAvailable) {
  DeviceConfig cfg = test_config();
  cfg.memory_bytes = 4 << 20;
  Device dev(cfg);
  dev.init_temp_pool();
  auto& temp = dev.temp();
  const std::size_t big = 3 << 20;
  void* a = temp.alloc(big);
  std::atomic<bool> got{false};
  std::thread t([&] {
    void* b = temp.alloc(big);  // must block until `a` is freed
    got = true;
    temp.free(b);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(got.load());
  temp.free(a);
  t.join();
  EXPECT_TRUE(got.load());
  EXPECT_GE(temp.contention_count(), 1);
}

TEST(TempAllocator, OversizeRequestThrows) {
  Device dev(test_config());
  dev.init_temp_pool();
  EXPECT_THROW(dev.temp().alloc(dev.temp().capacity() + 1),
               std::invalid_argument);
}

TEST(TempAllocator, ContentionCounterTracksOnlyBlockedRequests) {
  DeviceConfig cfg = test_config();
  cfg.memory_bytes = 4 << 20;
  Device dev(cfg);
  dev.init_temp_pool();
  auto& temp = dev.temp();
  // Requests that fit immediately never count as contention.
  for (int i = 0; i < 10; ++i) {
    void* p = temp.alloc(1 << 16);
    temp.free(p);
  }
  EXPECT_EQ(temp.contention_count(), 0);
  // One request that must wait counts exactly once, however long it waits.
  const std::size_t big = 3 << 20;
  void* a = temp.alloc(big);
  std::thread t([&] { temp.free(temp.alloc(big)); });
  // The counter increments before the blocked wait, so it doubles as the
  // signal that the thread is parked inside alloc.
  while (temp.contention_count() < 1) std::this_thread::yield();
  temp.free(a);
  t.join();
  EXPECT_EQ(temp.contention_count(), 1);
  EXPECT_EQ(temp.in_use(), 0u);
}

TEST(TempAllocator, FreeOfForeignPointerThrows) {
  Device dev(test_config());
  dev.init_temp_pool();
  auto& temp = dev.temp();
  double on_stack = 0.0;
  EXPECT_THROW(temp.free(&on_stack), std::invalid_argument);
  // nullptr stays a no-op (mirrors cudaFree).
  EXPECT_NO_THROW(temp.free(nullptr));
}

TEST(TempAllocator, DoubleFreeAndInteriorPointerThrow) {
  Device dev(test_config());
  dev.init_temp_pool();
  auto& temp = dev.temp();
  void* a = temp.alloc(1 << 20);
  temp.free(a);
  EXPECT_THROW(temp.free(a), std::invalid_argument);
  void* b = temp.alloc(1 << 20);
  // An interior pointer is not an allocation start.
  EXPECT_THROW(temp.free(static_cast<char*>(b) + 64), std::invalid_argument);
  temp.free(b);
  EXPECT_EQ(temp.in_use(), 0u);
}

TEST(DeviceMemory, DoubleFreeAndForeignPointerThrow) {
  Device dev(test_config());
  void* p = dev.alloc(1 << 12);
  dev.free(p);
  EXPECT_THROW(dev.free(p), std::invalid_argument);
  double on_stack = 0.0;
  EXPECT_THROW(dev.free(&on_stack), std::invalid_argument);
  EXPECT_NO_THROW(dev.free(nullptr));
  EXPECT_EQ(dev.memory_used(), 0u);
}

TEST(Stream, EventChainsOrderThreeStreams) {
  // a -> b -> c through two events: c's work observes both predecessors.
  Device dev(test_config());
  Stream a = dev.create_stream(), b = dev.create_stream(),
         c = dev.create_stream();
  std::vector<int> log;
  std::mutex log_mutex;
  auto push = [&](int v) {
    std::lock_guard<std::mutex> lock(log_mutex);
    log.push_back(v);
  };
  a.submit([&] { push(1); });
  Event ea = a.record();
  b.wait(ea);
  b.submit([&] { push(2); });
  Event eb = b.record();
  c.wait(eb);
  c.submit([&] { push(3); });
  c.synchronize();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
}

TEST(Stream, EventWaitAfterCompletionDoesNotBlock) {
  Device dev(test_config());
  Stream a = dev.create_stream(), b = dev.create_stream();
  Event e = a.record();  // empty stream: fires immediately
  e.wait();
  EXPECT_TRUE(e.query());
  b.wait(e);
  std::atomic<bool> ran{false};
  b.submit([&] { ran = true; });
  b.synchronize();
  EXPECT_TRUE(ran.load());
}

TEST(Stream, SynchronizeRunsWorkNoWorkerStartedOnTheCallingThread) {
  // One worker, held by stream a: b's work can only run if b.synchronize()
  // runs it itself.
  DeviceConfig cfg = test_config();
  cfg.worker_threads = 1;
  Device dev(cfg);
  Stream a = dev.create_stream(), b = dev.create_stream();
  std::atomic<bool> a_started{false}, release_a{false};
  a.submit([&] {
    a_started = true;
    while (!release_a) std::this_thread::yield();
  });
  while (!a_started) std::this_thread::yield();
  // Without that, b would wait for the worker forever: a watchdog frees
  // the worker after 5 s so the failure is reported instead of hanging.
  std::atomic<bool> b_synced{false}, watchdog_fired{false};
  std::thread watchdog([&] {
    for (int ms = 0; ms < 5000 && !b_synced; ++ms)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    if (!b_synced) {
      watchdog_fired = true;
      release_a = true;
    }
  });
  std::vector<std::thread::id> ran_on;
  for (int i = 0; i < 3; ++i)
    b.submit([&] { ran_on.push_back(std::this_thread::get_id()); });
  b.synchronize();
  b_synced = true;
  release_a = true;
  watchdog.join();
  a.synchronize();
  EXPECT_FALSE(watchdog_fired.load());
  ASSERT_EQ(ran_on.size(), 3u);
  for (const std::thread::id id : ran_on)
    EXPECT_EQ(id, std::this_thread::get_id());
}

TEST(Stream, ConcurrentSynchronizersRunEveryOperationOnceInOrder) {
  // Host threads that synchronize while another submits share the pump
  // with the workers: each operation still runs once, in stream order, and
  // never alongside another of the same stream (the unguarded log is what
  // a thread sanitizer would flag otherwise).
  Device dev(test_config());
  Stream s = dev.create_stream();
  constexpr int kOps = 2000;
  std::vector<int> log;
  std::atomic<bool> done{false};
  std::vector<std::thread> syncers;
  for (int t = 0; t < 3; ++t)
    syncers.emplace_back([&] {
      while (!done) {
        s.synchronize();
        std::this_thread::yield();
      }
    });
  for (int i = 0; i < kOps; ++i) s.submit([&log, i] { log.push_back(i); });
  s.synchronize();
  done = true;
  for (std::thread& t : syncers) t.join();
  ASSERT_EQ(log.size(), static_cast<std::size_t>(kOps));
  for (int i = 0; i < kOps; ++i) ASSERT_EQ(log[i], i);
}

// ---------------------------------------------------------------------------
// Kernels against CPU references.
// ---------------------------------------------------------------------------

class GpuBlasTest : public ::testing::Test {
 protected:
  GpuBlasTest() : dev_(test_config()), s_(dev_.create_stream()) {}
  Device dev_;
  Stream s_;
};

TEST_F(GpuBlasTest, GemvMatchesCpu) {
  la::DenseMatrix a(9, 7, la::Layout::ColMajor);
  Rng rng(2);
  for (idx r = 0; r < 9; ++r)
    for (idx c = 0; c < 7; ++c) a.at(r, c) = rng.uniform(-1, 1);
  auto x = testing::random_vector(7, 3);
  std::vector<double> y_ref(9, 0.5), y(9, 0.5);
  la::gemv(2.0, a.cview(), la::Trans::No, x.data(), 0.5, y_ref.data());

  DeviceDense da = alloc_dense(dev_, 9, 7, la::Layout::ColMajor);
  double* dx = upload_array(dev_, s_, x);
  double* dy = upload_array(dev_, s_, y);
  s_.memcpy_h2d(da.data, a.data(), a.size() * sizeof(double));
  blas::gemv(s_, 2.0, da, la::Trans::No, dx, 0.5, dy);
  s_.memcpy_d2h(y.data(), dy, 9 * sizeof(double));
  s_.synchronize();
  for (idx i = 0; i < 9; ++i) EXPECT_NEAR(y[i], y_ref[i], 1e-13);
  free_dense(dev_, da);
  dev_.free(dx);
  dev_.free(dy);
}

TEST_F(GpuBlasTest, SymvUsesStoredTriangleOnly) {
  const idx n = 8;
  la::DenseMatrix full(n, n, la::Layout::ColMajor);
  Rng rng(4);
  for (idx r = 0; r < n; ++r)
    for (idx c = r; c < n; ++c) {
      const double v = rng.uniform(-1, 1);
      full.at(r, c) = v;
      full.at(c, r) = v;
    }
  auto x = testing::random_vector(n, 5);
  std::vector<double> ref(n, 0.0), y(n, 0.0);
  la::symv(la::Uplo::Upper, 1.0, full.cview(), x.data(), 0.0, ref.data());

  DeviceDense da = alloc_dense(dev_, n, n, la::Layout::ColMajor);
  // Poison the lower triangle on the device copy.
  la::DenseMatrix poisoned = full;
  for (idx r = 0; r < n; ++r)
    for (idx c = 0; c < r; ++c) poisoned.at(r, c) = 1e9;
  s_.memcpy_h2d(da.data, poisoned.data(), poisoned.size() * sizeof(double));
  double* dx = upload_array(dev_, s_, x);
  double* dy = upload_array(dev_, s_, y);
  blas::symv(s_, la::Uplo::Upper, 1.0, da, dx, 0.0, dy);
  s_.memcpy_d2h(y.data(), dy, n * sizeof(double));
  s_.synchronize();
  for (idx i = 0; i < n; ++i) EXPECT_NEAR(y[i], ref[i], 1e-12);
  free_dense(dev_, da);
  dev_.free(dx);
  dev_.free(dy);
}

class SpTrsmParam
    : public ::testing::TestWithParam<
          std::tuple<sparse::Api, la::Layout, la::Layout, bool>> {};

TEST_P(SpTrsmParam, SolvesAgainstCpuReference) {
  const auto [api, factor_order, rhs_layout, forward] = GetParam();
  Device dev(test_config());
  Stream s = dev.create_stream();

  // SPD-factor stand-in: a well-conditioned sparse upper factor U.
  const idx n = 40, w = 6;
  la::Csr a = testing::random_spd(n, 0.1, 11);
  // Build U as the upper triangle with diag-first rows by reusing the
  // simplicial pattern convention: take the upper triangle directly (its
  // rows are sorted, diagonal first).
  la::Csr u = a.triangle(la::Uplo::Upper);

  la::DenseMatrix b(n, w, rhs_layout);
  Rng rng(12);
  for (idx r = 0; r < n; ++r)
    for (idx c = 0; c < w; ++c) b.at(r, c) = rng.uniform(-1, 1);

  // CPU reference: solve op(L) X = B with L = U^T.
  la::DenseMatrix ref(n, w, rhs_layout);
  la::copy(b.cview(), ref.view());
  la::sp_trsm(la::Uplo::Upper, forward ? la::Trans::Yes : la::Trans::No, u,
              ref.view());

  sparse::SpTrsmPlan plan(dev, s, api, u, factor_order, forward, rhs_layout,
                          w);
  DeviceDense db = alloc_dense(dev, n, w, rhs_layout);
  // Persistent allocations done — hand the rest to the temporary pool
  // (mirrors the preparation-phase order of the solver).
  dev.init_temp_pool();
  s.memcpy_h2d(db.data, b.data(), b.size() * sizeof(double));
  void* workspace = nullptr;
  const std::size_t wb = plan.workspace_bytes(w);
  if (wb > 0) workspace = dev.temp().alloc(wb);
  plan.solve(s, db, workspace);
  la::DenseMatrix out(n, w, rhs_layout);
  s.memcpy_d2h(out.data(), db.data, out.size() * sizeof(double));
  s.synchronize();
  if (workspace != nullptr) dev.temp().free(workspace);
  EXPECT_LT(la::max_abs_diff(out.cview(), ref.cview()), 1e-10);
  EXPECT_GT(plan.level_count(), 0);
  EXPECT_GT(plan.persistent_bytes(), 0u);
  free_dense(dev, db);
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, SpTrsmParam,
    ::testing::Combine(
        ::testing::Values(sparse::Api::Legacy, sparse::Api::Modern),
        ::testing::Values(la::Layout::RowMajor, la::Layout::ColMajor),
        ::testing::Values(la::Layout::RowMajor, la::Layout::ColMajor),
        ::testing::Values(true, false)));

TEST(SpTrsmPlanProps, ModernHoldsLargerPersistentBuffers) {
  Device dev(test_config());
  Stream s = dev.create_stream();
  la::Csr a = testing::random_spd(60, 0.08, 21);
  la::Csr u = a.triangle(la::Uplo::Upper);
  sparse::SpTrsmPlan legacy(dev, s, sparse::Api::Legacy, u,
                            la::Layout::ColMajor, true, la::Layout::RowMajor,
                            64);
  sparse::SpTrsmPlan modern(dev, s, sparse::Api::Modern, u,
                            la::Layout::ColMajor, true, la::Layout::RowMajor,
                            64);
  s.synchronize();
  EXPECT_GT(modern.persistent_bytes(), legacy.persistent_bytes());
  // Legacy needs per-call workspace only for col-major RHS.
  EXPECT_EQ(legacy.workspace_bytes(64), 0u);
  EXPECT_EQ(modern.workspace_bytes(64), 0u);
  sparse::SpTrsmPlan legacy_cm(dev, s, sparse::Api::Legacy, u,
                               la::Layout::ColMajor, true,
                               la::Layout::ColMajor, 64);
  EXPECT_GT(legacy_cm.workspace_bytes(64), 0u);
  s.synchronize();
}

TEST(SpTrsmPlanProps, ValueRefreshTracksNewFactorization) {
  Device dev(test_config());
  Stream s = dev.create_stream();
  la::Csr a = testing::random_spd(30, 0.15, 31);
  la::Csr u = a.triangle(la::Uplo::Upper);
  sparse::SpTrsmPlan plan(dev, s, sparse::Api::Legacy, u,
                          la::Layout::RowMajor, true, la::Layout::RowMajor,
                          4);
  // Scale values and refresh; solution must scale inversely.
  la::Csr u2 = u;
  for (auto& v : u2.vals()) v *= 2.0;
  plan.update_values(s, u2);
  la::DenseMatrix b(30, 1, la::Layout::RowMajor);
  for (idx i = 0; i < 30; ++i) b.at(i, 0) = 1.0;
  la::DenseMatrix ref(30, 1, la::Layout::RowMajor);
  la::copy(b.cview(), ref.view());
  la::sp_trsm(la::Uplo::Upper, la::Trans::Yes, u2, ref.view());
  DeviceDense db = alloc_dense(dev, 30, 1, la::Layout::RowMajor);
  s.memcpy_h2d(db.data, b.data(), b.size() * sizeof(double));
  plan.solve(s, db, nullptr);
  la::DenseMatrix out(30, 1, la::Layout::RowMajor);
  s.memcpy_d2h(out.data(), db.data, out.size() * sizeof(double));
  s.synchronize();
  EXPECT_LT(la::max_abs_diff(out.cview(), ref.cview()), 1e-12);
  free_dense(dev, db);
}

TEST(GpuSparse, SpmvAndSpmmMatchCpu) {
  Device dev(test_config());
  Stream s = dev.create_stream();
  la::Csr a = testing::random_sparse(12, 9, 0.3, 41);
  DeviceCsr da = upload_csr(dev, s, a);
  auto x = testing::random_vector(9, 42);
  std::vector<double> y(12, 0.0), y_ref(12, 0.0);
  la::spmv(1.0, a, x.data(), 0.0, y_ref.data());
  double* dx = upload_array(dev, s, x);
  double* dy = upload_array(dev, s, y);
  sparse::spmv(s, 1.0, da, la::Trans::No, dx, 0.0, dy);
  s.memcpy_d2h(y.data(), dy, 12 * sizeof(double));
  s.synchronize();
  for (idx i = 0; i < 12; ++i) EXPECT_NEAR(y[i], y_ref[i], 1e-13);

  la::DenseMatrix bm(9, 5, la::Layout::RowMajor);
  Rng rng(43);
  for (idx r = 0; r < 9; ++r)
    for (idx c = 0; c < 5; ++c) bm.at(r, c) = rng.uniform(-1, 1);
  la::DenseMatrix c_ref(12, 5, la::Layout::RowMajor);
  la::spmm(1.0, a, la::Trans::No, bm.cview(), 0.0, c_ref.view());
  DeviceDense db = alloc_dense(dev, 9, 5, la::Layout::RowMajor);
  DeviceDense dc = alloc_dense(dev, 12, 5, la::Layout::RowMajor);
  s.memcpy_h2d(db.data, bm.data(), bm.size() * sizeof(double));
  sparse::spmm(s, 1.0, da, la::Trans::No, db, 0.0, dc);
  la::DenseMatrix c_out(12, 5, la::Layout::RowMajor);
  s.memcpy_d2h(c_out.data(), dc.data, c_out.size() * sizeof(double));
  s.synchronize();
  EXPECT_LT(la::max_abs_diff(c_out.cview(), c_ref.cview()), 1e-12);
  free_csr(dev, da);
  free_dense(dev, db);
  free_dense(dev, dc);
  dev.free(dx);
  dev.free(dy);
}

TEST(GpuSparse, DenseConversions) {
  Device dev(test_config());
  Stream s = dev.create_stream();
  la::Csr a = testing::random_sparse(7, 10, 0.3, 51);
  DeviceCsr da = upload_csr(dev, s, a);
  DeviceDense direct = alloc_dense(dev, 7, 10, la::Layout::ColMajor);
  DeviceDense transposed = alloc_dense(dev, 10, 7, la::Layout::ColMajor);
  sparse::csr_to_dense(s, da, direct);
  sparse::csr_to_dense_transposed(s, da, transposed);
  s.synchronize();
  for (idx r = 0; r < 7; ++r)
    for (idx c = 0; c < 10; ++c) {
      EXPECT_DOUBLE_EQ(direct.view().at(r, c), a.at(r, c));
      EXPECT_DOUBLE_EQ(transposed.view().at(c, r), a.at(r, c));
    }
  free_csr(dev, da);
  free_dense(dev, direct);
  free_dense(dev, transposed);
}

TEST_F(GpuBlasTest, SymmMatchesCpuAndUsesStoredTriangleOnly) {
  const idx n = 7, w = 4;
  la::DenseMatrix full(n, n, la::Layout::ColMajor);
  Rng rng(6);
  for (idx r = 0; r < n; ++r)
    for (idx c = r; c < n; ++c) {
      const double v = rng.uniform(-1, 1);
      full.at(r, c) = v;
      full.at(c, r) = v;
    }
  la::DenseMatrix b(n, w, la::Layout::RowMajor);
  for (idx r = 0; r < n; ++r)
    for (idx c = 0; c < w; ++c) b.at(r, c) = rng.uniform(-1, 1);
  la::DenseMatrix ref(n, w, la::Layout::RowMajor);
  la::symm(la::Uplo::Upper, 1.0, full.cview(), b.cview(), 0.0, ref.view());

  // Poison the unreferenced triangle on the device copy.
  la::DenseMatrix poisoned = full;
  for (idx r = 0; r < n; ++r)
    for (idx c = 0; c < r; ++c) poisoned.at(r, c) = 1e9;
  DeviceDense da = alloc_dense(dev_, n, n, la::Layout::ColMajor);
  DeviceDense db = alloc_dense(dev_, n, w, la::Layout::RowMajor);
  DeviceDense dc = alloc_dense(dev_, n, w, la::Layout::RowMajor);
  s_.memcpy_h2d(da.data, poisoned.data(), poisoned.size() * sizeof(double));
  s_.memcpy_h2d(db.data, b.data(), b.size() * sizeof(double));
  blas::symm(s_, la::Uplo::Upper, 1.0, da, db, 0.0, dc);
  la::DenseMatrix out(n, w, la::Layout::RowMajor);
  s_.memcpy_d2h(out.data(), dc.data, out.size() * sizeof(double));
  s_.synchronize();
  EXPECT_LT(la::max_abs_diff(out.cview(), ref.cview()), 1e-12);
  free_dense(dev_, da);
  free_dense(dev_, db);
  free_dense(dev_, dc);
}

// ---------------------------------------------------------------------------
// Multi-RHS scatter/gather kernels.
// ---------------------------------------------------------------------------

class MultiRhsKernels : public ::testing::Test {
 protected:
  MultiRhsKernels() : dev_(test_config()), s_(dev_.create_stream()) {
    // Two overlapping subdomain maps over a 5-entry cluster vector; the
    // cluster block stores its columns at a non-contiguous stride.
    dcluster_ = dev_.alloc_n<double>(static_cast<std::size_t>(kLd) * kMaxRhs);
    reset_cluster();
    dmap1_ = upload_array(dev_, s_, map1_);
    dmap2_ = upload_array(dev_, s_, map2_);
    s_.synchronize();
  }
  ~MultiRhsKernels() override {
    dev_.free(dcluster_);
    dev_.free(dmap1_);
    dev_.free(dmap2_);
  }

  /// Cluster entry i (stride gaps included) holds i + 1.
  void reset_cluster() {
    std::vector<double> init(static_cast<std::size_t>(kLd) * kMaxRhs);
    for (std::size_t i = 0; i < init.size(); ++i)
      init[i] = static_cast<double>(i + 1);
    s_.memcpy_h2d(dcluster_, init.data(), init.size() * sizeof(double));
    s_.synchronize();
  }

  [[nodiscard]] std::vector<double> read_cluster() {
    std::vector<double> out(static_cast<std::size_t>(kLd) * kMaxRhs);
    s_.memcpy_d2h(out.data(), dcluster_, out.size() * sizeof(double));
    s_.synchronize();
    return out;
  }

  static constexpr idx kSize = 5;   ///< live cluster entries per column
  static constexpr idx kLd = 7;     ///< cluster column stride (> kSize)
  static constexpr idx kMaxRhs = 3;
  std::vector<idx> map1_ = {0, 2, 4}, map2_ = {1, 2, 3};
  Device dev_;
  Stream s_;
  double* dcluster_ = nullptr;
  idx* dmap1_ = nullptr;
  idx* dmap2_ = nullptr;
};

TEST_F(MultiRhsKernels, ScatterGatherBlocksRoundTripWithOverlap) {
  // Row-major panels with leading dimension 4 > nrhs: the batch only
  // touches the first nrhs entries of each panel row. nrhs = 1 is the
  // single dual vector.
  const idx ld = 4;
  for (idx nrhs : {1, 3}) {
    reset_cluster();
    double* dl1 = dev_.alloc_n<double>(3 * ld);
    double* dl2 = dev_.alloc_n<double>(3 * ld);
    kernels::fill_zero(s_, dl1, 3 * ld);
    kernels::fill_zero(s_, dl2, 3 * ld);
    kernels::scatter_batch(s_, dcluster_, kLd, nrhs, la::Layout::RowMajor,
                           {{dmap1_, 3, dl1, ld}, {dmap2_, 3, dl2, ld}});
    std::vector<double> l1(3 * ld), l2(3 * ld);
    s_.memcpy_d2h(l1.data(), dl1, l1.size() * sizeof(double));
    s_.memcpy_d2h(l2.data(), dl2, l2.size() * sizeof(double));
    s_.synchronize();
    for (idx i = 0; i < 3; ++i)
      for (idx j = 0; j < nrhs; ++j) {
        // Cluster column j holds values (1 + j*kLd) + index.
        EXPECT_EQ(l1[i * ld + j], 1.0 + j * kLd + map1_[i])
            << i << "," << j << " nrhs " << nrhs;
        EXPECT_EQ(l2[i * ld + j], 1.0 + j * kLd + map2_[i])
            << i << "," << j << " nrhs " << nrhs;
        // The ld > nrhs tail stays untouched (zero from fill_zero).
        EXPECT_EQ(l1[i * ld + nrhs], 0.0);
      }

    // Gather: zero-fills the live cluster entries of each column, leaves
    // the stride gap and the columns beyond nrhs alone, and sums
    // overlapping dual indices (map index 2 is shared by both subdomains).
    kernels::gather_batch(s_, dcluster_, kSize, kLd, nrhs,
                          la::Layout::RowMajor,
                          {{dmap1_, 3, dl1, ld}, {dmap2_, 3, dl2, ld}});
    std::vector<double> out = read_cluster();
    for (idx j = 0; j < nrhs; ++j) {
      const double base = 1.0 + j * kLd;
      EXPECT_EQ(out[j * kLd + 0], base + 0);        // map1 only
      EXPECT_EQ(out[j * kLd + 1], base + 1);        // map2 only
      EXPECT_EQ(out[j * kLd + 2], 2 * (base + 2));  // shared: summed
      EXPECT_EQ(out[j * kLd + 3], base + 3);        // map2 only
      EXPECT_EQ(out[j * kLd + 4], base + 4);        // map1 only
      // The stride gap beyond cluster_size is untouched.
      EXPECT_EQ(out[j * kLd + 5], static_cast<double>(j * kLd + 6));
      EXPECT_EQ(out[j * kLd + 6], static_cast<double>(j * kLd + 7));
    }
    for (idx i = nrhs * kLd; i < kMaxRhs * kLd; ++i)
      EXPECT_EQ(out[i], static_cast<double>(i + 1)) << "nrhs " << nrhs;
    dev_.free(dl1);
    dev_.free(dl2);
  }
}

TEST_F(MultiRhsKernels, ZeroRhsIsANoOp) {
  // nrhs == 0 submits nothing: locals and the cluster block stay exactly
  // as they were (gather does not even zero-fill — zero columns requested).
  const std::vector<double> before = read_cluster();
  double* dl = dev_.alloc_n<double>(3);
  std::vector<double> marker = {-7.0, -8.0, -9.0};
  s_.memcpy_h2d(dl, marker.data(), marker.size() * sizeof(double));
  kernels::scatter_batch(s_, dcluster_, kLd, 0, la::Layout::RowMajor,
                         {{dmap1_, 3, dl, 1}});
  kernels::gather_batch(s_, dcluster_, kSize, kLd, 0, la::Layout::RowMajor,
                        {{dmap1_, 3, dl, 1}});
  std::vector<double> local(3);
  s_.memcpy_d2h(local.data(), dl, local.size() * sizeof(double));
  s_.synchronize();
  EXPECT_EQ(local, marker);
  EXPECT_EQ(read_cluster(), before);
  dev_.free(dl);
}

TEST(DeviceConfigTest, EnvParsing) {
  // Just exercise the default path; env-specific values are covered by use.
  DeviceConfig cfg = DeviceConfig::from_env();
  EXPECT_GE(cfg.launch_latency_us, 0.0);
  EXPECT_GT(cfg.memory_bytes, 0u);
}

TEST(DevicePool, SplitConfigDividesTheSingleDeviceBudget) {
  DeviceConfig total = test_config();
  total.launch_latency_us = 3.0;
  total.temp_pool_fraction = 0.25;
  // One device keeps the whole budget.
  const DeviceConfig one = DevicePool::split_config(total, 1);
  EXPECT_EQ(one.worker_threads, total.worker_threads);
  EXPECT_EQ(one.memory_bytes, total.memory_bytes);
  // Workers and memory divide evenly; latency and pool fraction are
  // inherited, not divided.
  const DeviceConfig two = DevicePool::split_config(total, 2);
  EXPECT_EQ(two.worker_threads, total.worker_threads / 2);
  EXPECT_EQ(two.memory_bytes, total.memory_bytes / 2);
  EXPECT_EQ(two.launch_latency_us, total.launch_latency_us);
  EXPECT_EQ(two.temp_pool_fraction, total.temp_pool_fraction);
  // More devices than workers still leaves each one worker, and memory
  // never drops below 1 MiB per device.
  const DeviceConfig many = DevicePool::split_config(total, 1000);
  EXPECT_EQ(many.worker_threads, 1);
  EXPECT_EQ(many.memory_bytes, std::size_t{1} << 20);
  EXPECT_THROW((void)DevicePool::split_config(total, 0),
               std::invalid_argument);
}

TEST(DevicePool, EachTenantSlotIsItsOwnDeviceAndIndicesAreChecked) {
  EXPECT_THROW(DevicePool(0, test_config()), std::invalid_argument);
  DevicePool pool(2, DevicePool::split_config(test_config(), 2));
  ASSERT_EQ(pool.size(), 2u);
  EXPECT_NE(&pool.context(0), &pool.context(1));
  EXPECT_NE(&pool.device(0), &pool.device(1));
  EXPECT_EQ(&pool.device(1), &pool.context(1).device());
  EXPECT_EQ(pool.device(1).config().memory_bytes,
            test_config().memory_bytes / 2);
  EXPECT_THROW((void)pool.context(2), std::invalid_argument);
  EXPECT_THROW((void)pool.device(2), std::invalid_argument);
  EXPECT_THROW((void)pool.acquire(2), std::invalid_argument);
  EXPECT_THROW((void)pool.active_leases(2), std::invalid_argument);
  // A fresh pool has no outstanding leases, and synchronize() on idle
  // devices returns.
  EXPECT_EQ(pool.active_leases(0), 0);
  EXPECT_EQ(pool.active_leases(1), 0);
  pool.synchronize();
}

TEST(DevicePoolLease, AcquireSteersToLeastLoadedShard) {
  DevicePool pool(3, DevicePool::split_config(test_config(), 3));
  // The split keeps at least one worker per shard and divides memory.
  const DeviceConfig shard_cfg = pool.device(0).config();
  EXPECT_GE(shard_cfg.worker_threads, 1);
  EXPECT_LE(shard_cfg.memory_bytes, test_config().memory_bytes / 3 + 1);
  // Ties break toward the lowest index, then each new lease lands on the
  // emptiest shard.
  DevicePool::Lease a = pool.acquire();
  EXPECT_EQ(a.shard(), 0u);
  DevicePool::Lease b = pool.acquire();
  EXPECT_EQ(b.shard(), 1u);
  DevicePool::Lease c = pool.acquire();
  EXPECT_EQ(c.shard(), 2u);
  DevicePool::Lease d = pool.acquire();  // all tied at 1 → back to shard 0
  EXPECT_EQ(d.shard(), 0u);
  EXPECT_EQ(pool.active_leases(0), 2);
  EXPECT_EQ(pool.active_leases(1), 1);
  EXPECT_EQ(pool.active_leases(2), 1);
  b.release();
  DevicePool::Lease e = pool.acquire();  // shard 1 is now the emptiest
  EXPECT_EQ(e.shard(), 1u);
}

TEST(DevicePoolLease, PinnedAcquireAndReleaseAccounting) {
  DevicePool pool(2, DevicePool::split_config(test_config(), 2));
  {
    DevicePool::Lease pinned = pool.acquire(1);
    EXPECT_TRUE(pinned.valid());
    EXPECT_EQ(pinned.shard(), 1u);
    EXPECT_EQ(&pinned.context(), &pool.context(1));
    EXPECT_EQ(pool.active_leases(1), 1);
    // release() is idempotent; the destructor afterwards is a no-op.
    pinned.release();
    EXPECT_FALSE(pinned.valid());
    EXPECT_EQ(pool.active_leases(1), 0);
    pinned.release();
    EXPECT_EQ(pool.active_leases(1), 0);
  }
  EXPECT_EQ(pool.active_leases(0), 0);
  EXPECT_EQ(pool.active_leases(1), 0);
}

TEST(DevicePoolLease, MoveTransfersOwnershipWithoutDoubleReturn) {
  DevicePool pool(2, DevicePool::split_config(test_config(), 2));
  DevicePool::Lease a = pool.acquire(0);
  DevicePool::Lease b = std::move(a);
  EXPECT_FALSE(a.valid());
  EXPECT_TRUE(b.valid());
  EXPECT_EQ(pool.active_leases(0), 1);
  // Move-assignment over a live lease returns its shard first.
  DevicePool::Lease c = pool.acquire(1);
  c = std::move(b);
  EXPECT_EQ(pool.active_leases(1), 0);
  EXPECT_EQ(pool.active_leases(0), 1);
  EXPECT_EQ(c.shard(), 0u);
}

}  // namespace
}  // namespace feti::gpu
