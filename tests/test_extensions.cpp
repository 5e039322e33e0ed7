// Tests for the extension features and hardening paths: symmetric triangle
// packing (paper footnote 1), virtual-device stress/regression cases,
// dense POTRF, alternative orderings end-to-end, and failure reporting.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <thread>

#include "core/autotune.hpp"
#include "core/feti_solver.hpp"
#include "la/blas_dense.hpp"
#include "test_helpers.hpp"

namespace feti {
namespace {

using fem::Physics;
using mesh::ElementOrder;

gpu::DeviceConfig quiet_config(std::size_t mem = 512ull << 20) {
  gpu::DeviceConfig cfg;
  cfg.worker_threads = 4;
  cfg.launch_latency_us = 0.0;
  cfg.memory_bytes = mem;
  return cfg;
}

decomp::FetiProblem heat2d_problem(idx cells = 8, idx splits = 2) {
  mesh::Mesh m = mesh::make_grid_2d(cells, cells, ElementOrder::Linear);
  auto dec = mesh::decompose_2d(m, cells, cells, splits, splits);
  return decomp::build_feti_problem(dec, Physics::HeatTransfer);
}

// ---------------------------------------------------------------------------
// Symmetric triangle packing (footnote 1)
// ---------------------------------------------------------------------------

TEST(SymmetricPack, ApplyMatchesUnpacked) {
  decomp::FetiProblem p = heat2d_problem(8, 2);
  gpu::ExecutionContext dev(quiet_config());

  auto run = [&](bool pack) {
    core::DualOpConfig cfg;
    cfg.key = "expl legacy";
    cfg.gpu = core::recommend_options(gpu::sparse::Api::Legacy, 2, 1000);
    cfg.gpu.symmetric_pack = pack;
    auto op = core::make_dual_operator(p, cfg, &dev);
    op->prepare();
    op->update_values();
    Rng rng(5);
    std::vector<double> x(static_cast<std::size_t>(p.num_lambdas));
    for (auto& v : x) v = rng.uniform(-1, 1);
    std::vector<double> y(x.size(), 0.0);
    op->apply(x.data(), y.data());
    return y;
  };

  const auto y_plain = run(false);
  const auto y_packed = run(true);
  ASSERT_EQ(y_plain.size(), y_packed.size());
  for (std::size_t i = 0; i < y_plain.size(); ++i)
    EXPECT_NEAR(y_packed[i], y_plain[i], 1e-11);
}

TEST(SymmetricPack, ReducesDeviceMemory) {
  decomp::FetiProblem p = heat2d_problem(8, 2);  // 4 equal subdomains
  auto measure = [&](bool pack) {
    gpu::ExecutionContext dev(quiet_config());
    core::DualOpConfig cfg;
    cfg.key = "expl legacy";
    cfg.gpu = core::recommend_options(gpu::sparse::Api::Legacy, 2, 1000);
    cfg.gpu.symmetric_pack = pack;
    auto op = core::make_dual_operator(p, cfg, &dev);
    op->prepare();
    return dev.device().memory_used();
  };
  const std::size_t plain = measure(false);
  const std::size_t packed = measure(true);
  // Four equal m x m matrices (4m^2 doubles) collapse into two packed
  // m(m+1) buffers — the F̃ storage nearly halves.
  EXPECT_LT(packed, plain);
}

TEST(SymmetricPack, EndToEndSolveStaysCorrect) {
  decomp::FetiProblem p = heat2d_problem(6, 2);
  gpu::ExecutionContext dev(quiet_config());
  core::FetiSolverOptions opts;
  opts.dualop.key = "expl legacy";
  opts.dualop.gpu = core::recommend_options(gpu::sparse::Api::Legacy, 2, 500);
  opts.dualop.gpu.symmetric_pack = true;
  opts.pcpg.rel_tolerance = 1e-10;
  core::FetiSolver solver(p, opts, &dev);
  solver.prepare();
  auto res = solver.solve_step();
  ASSERT_TRUE(res.converged);

  mesh::Mesh m = mesh::make_grid_2d(6, 6, ElementOrder::Linear);
  auto u_ref = fem::reference_solve(
      fem::assemble_global(m, Physics::HeatTransfer));
  for (std::size_t i = 0; i < u_ref.size(); ++i)
    EXPECT_NEAR(res.u[i], u_ref[i], 1e-7);
}

TEST(SymmetricPack, IgnoredForTrsmPath) {
  // The TRSM path produces a full (non-triangular) F̃; packing must be a
  // no-op there and results must stay correct.
  decomp::FetiProblem p = heat2d_problem(6, 2);
  gpu::ExecutionContext dev(quiet_config());
  core::DualOpConfig cfg;
  cfg.key = "expl legacy";
  cfg.gpu = core::recommend_options(gpu::sparse::Api::Legacy, 2, 500);
  cfg.gpu.path = core::Path::Trsm;
  cfg.gpu.symmetric_pack = true;
  auto op = core::make_dual_operator(p, cfg, &dev);
  op->prepare();
  op->update_values();

  core::DualOpConfig ref_cfg;
  ref_cfg.key = "impl cholmod";
  auto ref = core::make_dual_operator(p, ref_cfg, nullptr);
  ref->prepare();
  ref->update_values();

  std::vector<double> x(static_cast<std::size_t>(p.num_lambdas), 1.0);
  std::vector<double> y(x.size()), y_ref(x.size());
  op->apply(x.data(), y.data());
  ref->apply(x.data(), y_ref.data());
  for (std::size_t i = 0; i < y.size(); ++i)
    EXPECT_NEAR(y[i], y_ref[i], 1e-9);
}

// ---------------------------------------------------------------------------
// Virtual device stress / regression
// ---------------------------------------------------------------------------

TEST(DeviceStress, CrossStreamEventWithSingleWorkerDoesNotDeadlock) {
  // Regression: a stream waiting on an event must not occupy the (only)
  // worker thread, otherwise the producing stream can never run.
  gpu::DeviceConfig cfg = quiet_config();
  cfg.worker_threads = 1;
  gpu::Device dev(cfg);
  gpu::Stream a = dev.create_stream(), b = dev.create_stream();
  std::atomic<int> order{0};
  int saw_a = -1, saw_b = -1;
  a.submit([&] { saw_a = order.fetch_add(1); });
  gpu::Event e = a.record();
  b.wait(e);
  b.submit([&] { saw_b = order.fetch_add(1); });
  dev.synchronize();
  EXPECT_EQ(saw_a, 0);
  EXPECT_EQ(saw_b, 1);
}

TEST(DeviceStress, ManyStreamsWaitOnOneEvent) {
  gpu::DeviceConfig cfg = quiet_config();
  cfg.worker_threads = 2;
  gpu::Device dev(cfg);
  gpu::Stream producer = dev.create_stream();
  std::atomic<bool> released{false};
  producer.submit([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    released = true;
  });
  gpu::Event e = producer.record();
  std::vector<gpu::Stream> consumers;
  std::atomic<int> ran{0};
  for (int i = 0; i < 8; ++i) {
    consumers.push_back(dev.create_stream());
    consumers.back().wait(e);
    consumers.back().submit([&] {
      EXPECT_TRUE(released.load());
      ran.fetch_add(1);
    });
  }
  dev.synchronize();
  EXPECT_EQ(ran.load(), 8);
}

TEST(DeviceStress, TempAllocatorConcurrentChurn) {
  gpu::Device dev(quiet_config(64ull << 20));
  dev.init_temp_pool();
  auto& temp = dev.temp();
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(static_cast<std::uint64_t>(t) + 1);
      for (int i = 0; i < 500; ++i) {
        const std::size_t bytes =
            static_cast<std::size_t>(rng.integer(64, 1 << 16));
        void* p = temp.alloc(bytes);
        if (p == nullptr) failures.fetch_add(1);
        std::this_thread::yield();
        temp.free(p);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(temp.in_use(), 0u);
}

// ---------------------------------------------------------------------------
// Dense POTRF
// ---------------------------------------------------------------------------

TEST(Potrf, FactorReproducesMatrix) {
  const idx n = 12;
  la::Csr spd = testing::random_spd(n, 0.5, 99);
  la::DenseMatrix a = spd.to_dense();
  la::DenseMatrix l = spd.to_dense();
  ASSERT_TRUE(la::potrf_lower(l.view()));
  la::DenseMatrix prod(n, n);
  la::gemm(1.0, l.cview(), la::Trans::No, l.cview(), la::Trans::Yes, 0.0,
           prod.view());
  EXPECT_LT(la::max_abs_diff(prod.cview(), a.cview()), 1e-10);
  // Strict upper triangle must be zeroed.
  for (idx r = 0; r < n; ++r)
    for (idx c = r + 1; c < n; ++c) EXPECT_EQ(l.at(r, c), 0.0);
}

TEST(Potrf, RejectsIndefiniteMatrix) {
  la::DenseMatrix a(3, 3);
  a.at(0, 0) = 1.0;
  a.at(1, 1) = -2.0;
  a.at(2, 2) = 1.0;
  EXPECT_FALSE(la::potrf_lower(a.view()));
}

// ---------------------------------------------------------------------------
// Alternative orderings & failure reporting
// ---------------------------------------------------------------------------

TEST(Orderings, RcmEndToEndSolveMatchesReference) {
  decomp::FetiProblem p = heat2d_problem(6, 2);
  core::FetiSolverOptions opts;
  opts.dualop.key = "expl mkl";
  opts.dualop.ordering = sparse::OrderingKind::RCM;
  opts.pcpg.rel_tolerance = 1e-10;
  core::FetiSolver solver(p, opts, nullptr);
  solver.prepare();
  auto res = solver.solve_step();
  ASSERT_TRUE(res.converged);
  mesh::Mesh m = mesh::make_grid_2d(6, 6, ElementOrder::Linear);
  auto u_ref = fem::reference_solve(
      fem::assemble_global(m, Physics::HeatTransfer));
  for (std::size_t i = 0; i < u_ref.size(); ++i)
    EXPECT_NEAR(res.u[i], u_ref[i], 1e-7);
}

TEST(Pcpg, ReportsNonConvergenceHonestly) {
  decomp::FetiProblem p = heat2d_problem(10, 2);
  core::FetiSolverOptions opts;
  opts.dualop.key = "impl mkl";
  opts.pcpg.rel_tolerance = 1e-14;
  opts.pcpg.max_iterations = 2;  // far too few
  core::FetiSolver solver(p, opts, nullptr);
  solver.prepare();
  auto res = solver.solve_step();
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.pcpg_iterations, 2);
  EXPECT_GT(res.rel_residual, 1e-14);
}

TEST(FetiSolver, SolveBeforePrepareThrows) {
  decomp::FetiProblem p = heat2d_problem(4, 2);
  core::FetiSolverOptions opts;
  opts.dualop.key = "impl mkl";
  core::FetiSolver solver(p, opts, nullptr);
  EXPECT_THROW(solver.solve_step(), std::invalid_argument);
}

TEST(Timings, DualOperatorPhasesAreRecorded) {
  decomp::FetiProblem p = heat2d_problem(6, 2);
  core::FetiSolverOptions opts;
  opts.dualop.key = "impl mkl";
  core::FetiSolver solver(p, opts, nullptr);
  solver.prepare();
  auto res = solver.solve_step();
  auto& reg = solver.dual_operator().timings();
  EXPECT_EQ(reg.get("prepare").count, 1);
  EXPECT_GE(reg.get("update_values").count, 1);
  EXPECT_GE(reg.get("apply").count, res.pcpg_iterations);
  EXPECT_GE(res.step_seconds, res.preprocess_seconds);
}

TEST(StreamsOption, SingleStreamExplicitGpuStillCorrect) {
  decomp::FetiProblem p = heat2d_problem(6, 2);
  gpu::ExecutionContext dev(quiet_config());
  core::DualOpConfig cfg;
  cfg.key = "expl legacy";
  cfg.gpu = core::recommend_options(gpu::sparse::Api::Legacy, 2, 500);
  cfg.gpu.streams = 1;
  auto op = core::make_dual_operator(p, cfg, &dev);
  op->prepare();
  op->update_values();

  core::DualOpConfig ref_cfg;
  ref_cfg.key = "impl mkl";
  auto ref = core::make_dual_operator(p, ref_cfg, nullptr);
  ref->prepare();
  ref->update_values();

  std::vector<double> x(static_cast<std::size_t>(p.num_lambdas), 0.5);
  std::vector<double> y(x.size()), y_ref(x.size());
  op->apply(x.data(), y.data());
  ref->apply(x.data(), y_ref.data());
  for (std::size_t i = 0; i < y.size(); ++i)
    EXPECT_NEAR(y[i], y_ref[i], 1e-9);
}

}  // namespace
}  // namespace feti
