// Property-based sweeps: randomized invariants checked across many seeds
// and sizes for the numerical substrates, plus the paper's memory-capacity
// behaviour (the modern API's large persistent buffers limit the maximum
// problem size — Section V-A-b).

#include <gtest/gtest.h>

#include <cmath>

#include "core/autotune.hpp"
#include "core/feti_solver.hpp"
#include "decomp/boundary.hpp"
#include "gpu/sparse.hpp"
#include "la/blas_sparse.hpp"
#include "sparse/simplicial_cholesky.hpp"
#include "sparse/supernodal_cholesky.hpp"
#include "test_helpers.hpp"

namespace feti {
namespace {

// ---------------------------------------------------------------------------
// Sparse solver invariants over random matrices.
// ---------------------------------------------------------------------------

class SeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedSweep, BothBackendsAgreeOnRandomSpd) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed);
  const idx n = static_cast<idx>(rng.integer(5, 80));
  const double density = rng.uniform(0.05, 0.3);
  la::Csr a = testing::random_spd(n, density, seed * 7 + 1);

  sparse::SimplicialCholesky simplicial;
  sparse::SupernodalCholesky supernodal;
  simplicial.analyze(a, sparse::OrderingKind::MinimumDegree);
  simplicial.factorize(a);
  supernodal.analyze(a, sparse::OrderingKind::MinimumDegree);
  supernodal.factorize(a);

  auto b = testing::random_vector(n, seed * 7 + 2);
  std::vector<double> x1(static_cast<std::size_t>(n));
  std::vector<double> x2(static_cast<std::size_t>(n));
  simplicial.solve(b.data(), x1.data());
  supernodal.solve(b.data(), x2.data());
  for (idx i = 0; i < n; ++i) EXPECT_NEAR(x1[i], x2[i], 1e-8);

  // Residual check against the original matrix.
  std::vector<double> r(b);
  la::spmv(-1.0, a, x1.data(), 1.0, r.data());
  EXPECT_LT(la::nrm2(n, r.data()), 1e-8 * (1.0 + la::nrm2(n, b.data())));
}

TEST_P(SeedSweep, SameOrderingGivesSameFill) {
  // Both backends run the same symbolic pipeline; with identical ordering
  // their factor fill must match (supernodal counts panel entries).
  const std::uint64_t seed = GetParam();
  la::Csr a = testing::random_spd(40, 0.12, seed);
  sparse::SimplicialCholesky simplicial;
  sparse::SupernodalCholesky supernodal;
  simplicial.analyze(a, sparse::OrderingKind::Natural);
  supernodal.analyze(a, sparse::OrderingKind::Natural);
  // Supernodal panels cover at least the simplicial nnz (trapezoidal
  // padding inside supernodes never removes entries).
  EXPECT_GE(supernodal.factor_nnz(), simplicial.factor_nnz());
  simplicial.factorize(a);
  supernodal.factorize(a);
}

TEST_P(SeedSweep, SchurMatchesSolveComposition) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed + 1000);
  const idx n = static_cast<idx>(rng.integer(10, 60));
  const idx m = static_cast<idx>(rng.integer(1, 10));
  la::Csr a = testing::random_spd(n, 0.15, seed * 3 + 1);
  la::Csr b = testing::random_sparse(m, n, 0.2, seed * 3 + 2);
  sparse::SupernodalCholesky sn;
  sn.analyze_schur(a, b);
  la::DenseMatrix s(m, m);
  sn.factorize_schur(a, b, s.view(), la::Uplo::Upper);
  // Compare S y against B A^{-1} B^T y for a random vector.
  auto y = testing::random_vector(m, seed * 3 + 3);
  std::vector<double> bty(static_cast<std::size_t>(n), 0.0);
  la::spmv_trans(1.0, b, y.data(), 0.0, bty.data());
  std::vector<double> ainv(static_cast<std::size_t>(n), 0.0);
  sn.solve(bty.data(), ainv.data());
  std::vector<double> ref(static_cast<std::size_t>(m), 0.0);
  la::spmv(1.0, b, ainv.data(), 0.0, ref.data());
  la::symmetrize_from(s.view(), la::Uplo::Upper);
  std::vector<double> sy(static_cast<std::size_t>(m), 0.0);
  la::gemv(1.0, s.cview(), la::Trans::No, y.data(), 0.0, sy.data());
  for (idx i = 0; i < m; ++i)
    EXPECT_NEAR(sy[i], ref[i], 1e-8 * (1.0 + std::fabs(ref[i])));
}

INSTANTIATE_TEST_SUITE_P(ManySeeds, SeedSweep,
                         ::testing::Range<std::uint64_t>(1, 13));

// ---------------------------------------------------------------------------
// Memory capacity behaviour (paper Section V-A-b)
// ---------------------------------------------------------------------------

TEST(MemoryLimits, ModernPersistentBuffersLimitProblemSize) {
  // "The kernel also requires very large persistently allocated memory
  // buffers, which very significantly limits the maximum problem size."
  // On a deliberately tiny device, the legacy plan fits where the modern
  // plan (persistent dense RHS workspace) exhausts device memory.
  la::Csr a = testing::random_spd(600, 0.05, 42);
  la::Csr u = a.triangle(la::Uplo::Upper);
  const idx wide_rhs = 512;

  gpu::DeviceConfig cfg;
  cfg.worker_threads = 2;
  cfg.launch_latency_us = 0.0;
  // Budget: legacy needs O(nnz) only; modern adds n * wide_rhs doubles.
  cfg.memory_bytes = sizeof(double) * 600 * 512 / 2;
  {
    gpu::Device dev(cfg);
    gpu::Stream s = dev.create_stream();
    EXPECT_NO_THROW(gpu::sparse::SpTrsmPlan(
        dev, s, gpu::sparse::Api::Legacy, u, la::Layout::ColMajor, true,
        la::Layout::RowMajor, wide_rhs));
  }
  {
    gpu::Device dev(cfg);
    gpu::Stream s = dev.create_stream();
    const std::size_t before = dev.memory_used();
    EXPECT_THROW(gpu::sparse::SpTrsmPlan(
                     dev, s, gpu::sparse::Api::Modern, u,
                     la::Layout::ColMajor, true, la::Layout::RowMajor,
                     wide_rhs),
                 std::bad_alloc);
    // The failed construction frees the buffers it had already allocated.
    EXPECT_EQ(dev.memory_used(), before);
  }
}

TEST(MemoryLimits, ExplicitGpuOperatorReportsExhaustionCleanly) {
  mesh::Mesh m = mesh::make_grid_2d(12, 12, mesh::ElementOrder::Quadratic);
  auto dec = mesh::decompose_2d(m, 12, 12, 2, 2);
  auto p = decomp::build_feti_problem(dec, fem::Physics::HeatTransfer);
  gpu::DeviceConfig cfg;
  cfg.worker_threads = 2;
  cfg.launch_latency_us = 0.0;
  cfg.memory_bytes = 64 << 10;  // absurdly small device
  gpu::ExecutionContext dev(cfg);
  core::DualOpConfig c;
  c.key = "expl legacy";
  c.gpu = core::recommend_options(gpu::sparse::Api::Legacy, 2, 500);
  auto op = core::make_dual_operator(p, c, &dev);
  EXPECT_THROW(op->prepare(), std::bad_alloc);
}

// ---------------------------------------------------------------------------
// FETI invariants under randomized configurations
// ---------------------------------------------------------------------------

class RandomConfigSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomConfigSweep, RandomTableOneConfigMatchesReference) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed * 31);
  decomp::FetiProblem p = [&] {
    mesh::Mesh m = mesh::make_grid_2d(6, 6, mesh::ElementOrder::Linear);
    auto dec = mesh::decompose_2d(m, 6, 6, 2, 2);
    return decomp::build_feti_problem(dec, fem::Physics::HeatTransfer);
  }();

  static gpu::ExecutionContext dev([] {
    gpu::DeviceConfig cfg;
    cfg.worker_threads = 4;
    cfg.launch_latency_us = 0.0;
    cfg.memory_bytes = 256ull << 20;
    return cfg;
  }());

  core::DualOpConfig cfg;
  cfg.key = rng.integer(0, 1) ? "expl legacy" : "expl modern";
  auto coin = [&] { return rng.integer(0, 1) == 1; };
  cfg.gpu.path = coin() ? core::Path::Syrk : core::Path::Trsm;
  cfg.gpu.fwd_storage = coin() ? core::FactorStorage::Sparse
                               : core::FactorStorage::Dense;
  cfg.gpu.bwd_storage = coin() ? core::FactorStorage::Sparse
                               : core::FactorStorage::Dense;
  cfg.gpu.fwd_order = coin() ? la::Layout::RowMajor : la::Layout::ColMajor;
  cfg.gpu.bwd_order = coin() ? la::Layout::RowMajor : la::Layout::ColMajor;
  cfg.gpu.rhs_order = coin() ? la::Layout::RowMajor : la::Layout::ColMajor;
  cfg.gpu.scatter_gather = coin() ? core::SgLocation::Cpu
                                  : core::SgLocation::Gpu;
  cfg.gpu.symmetric_pack = coin();
  cfg.gpu.streams = static_cast<int>(rng.integer(1, 6));
  // The sparsity axis rides on top of any Table-I knob combination: sp
  // keys must match the reference under every random configuration too
  // (the knobs that only concern the dense m-column panel are simply
  // ignored there).
  const bool sp = coin();
  if (sp)
    cfg.key = cfg.key == "expl legacy" ? "expl legacy sp" : "expl modern sp";

  auto op = core::make_dual_operator(p, cfg, &dev);
  op->prepare();
  op->update_values();
  if (sp) {
    long total_nb = 0;
    for (idx s = 0; s < p.num_subdomains(); ++s)
      total_nb += decomp::boundary_dofs(p.sub[s]).count();
    EXPECT_EQ(op->solve_columns(), total_nb) << "seed " << seed;
  }

  core::DualOpConfig ref_cfg;
  ref_cfg.key = "impl mkl";
  auto ref = core::make_dual_operator(p, ref_cfg, nullptr);
  ref->prepare();
  ref->update_values();

  std::vector<double> x(static_cast<std::size_t>(p.num_lambdas));
  for (auto& v : x) v = rng.uniform(-1, 1);
  std::vector<double> y(x.size()), y_ref(x.size());
  op->apply(x.data(), y.data());
  ref->apply(x.data(), y_ref.data());
  double scale = 0.0;
  for (double v : y_ref) scale = std::max(scale, std::fabs(v));
  for (std::size_t i = 0; i < y.size(); ++i)
    EXPECT_NEAR(y[i], y_ref[i], 1e-8 * std::max(1.0, scale))
        << "seed " << seed << " config " << cfg.gpu.describe();
}

INSTANTIATE_TEST_SUITE_P(ManySeeds, RandomConfigSweep,
                         ::testing::Range<std::uint64_t>(1, 17));

// ---------------------------------------------------------------------------
// Batched-apply invariants: F is linear and symmetric, so those properties
// must survive the device-side block paths — checked *within* one batch,
// which exercises cross-column independence of the multi-RHS kernels.
// ---------------------------------------------------------------------------

class BatchedApplySweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BatchedApplySweep, BatchedApplyIsLinearAndSymmetricPerColumn) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed * 101 + 7);
  decomp::FetiProblem p = [&] {
    mesh::Mesh m = mesh::make_grid_2d(6, 6, mesh::ElementOrder::Linear);
    auto dec = mesh::decompose_2d(m, 6, 6, 2, 2);
    return decomp::build_feti_problem(dec, fem::Physics::HeatTransfer);
  }();
  static gpu::ExecutionContext dev([] {
    gpu::DeviceConfig cfg;
    cfg.worker_threads = 4;
    cfg.launch_latency_us = 0.0;
    cfg.memory_bytes = 256ull << 20;
    return cfg;
  }());

  // One representative of every GPU family and the sparsity-aware
  // variants of each explicit GPU family.
  const char* keys[] = {"expl legacy",    "expl modern",    "impl legacy",
                        "impl modern",    "expl hybrid",    "expl legacy sp",
                        "expl modern sp", "expl hybrid sp"};
  const std::string key = keys[seed % (sizeof(keys) / sizeof(keys[0]))];
  core::DualOpConfig cfg =
      core::recommend_config(key, 2, p.max_subdomain_dofs());
  auto op = core::make_dual_operator(p, cfg, &dev);
  op->prepare();
  op->update_values();

  const std::size_t n = static_cast<std::size_t>(p.num_lambdas);
  const idx nrhs = 3;
  const double alpha = rng.uniform(0.5, 2.0);
  // Batch columns: [x, y, alpha * x].
  std::vector<double> xblk(n * nrhs);
  for (std::size_t i = 0; i < n; ++i) {
    xblk[i] = rng.uniform(-1, 1);
    xblk[n + i] = rng.uniform(-1, 1);
    xblk[2 * n + i] = alpha * xblk[i];
  }
  std::vector<double> yblk(xblk.size(), 0.0);
  op->apply(xblk.data(), yblk.data(), nrhs);
  EXPECT_EQ(op->loop_fallback_count(), 0) << key;

  const double* fx = yblk.data();
  const double* fy = yblk.data() + n;
  const double* fax = yblk.data() + 2 * n;
  double scale = 0.0;
  for (std::size_t i = 0; i < n; ++i)
    scale = std::max(scale, std::fabs(fx[i]));
  // Linearity per column: F(alpha x) = alpha F(x) within one batch.
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(fax[i], alpha * fx[i],
                1e-9 * std::max(1.0, alpha * scale))
        << "key " << key << " seed " << seed;
  // Symmetry across two columns of one batch: x^T (F y) = y^T (F x).
  const double xfy = la::dot(p.num_lambdas, xblk.data(), fy);
  const double yfx = la::dot(p.num_lambdas, xblk.data() + n, fx);
  EXPECT_NEAR(xfy, yfx, 1e-8 * std::max(1.0, std::fabs(xfy)))
      << "key " << key << " seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(ManySeeds, BatchedApplySweep,
                         ::testing::Range<std::uint64_t>(1, 13));

// ---------------------------------------------------------------------------
// Sparsity-aware assembly under irregular boundary widths: rectangular
// grids with asymmetric splits give every subdomain a different boundary
// DOF count (corner, edge, and interior subdomains), so the boundary-local
// renumbering, the nb-column solve panels, and the expansion SpMMs all run
// with mismatched shapes across one problem.
// ---------------------------------------------------------------------------

class IrregularBoundarySweep : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(IrregularBoundarySweep, SpAssemblyMatchesImplicitOnIrregularGrids) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed * 211 + 5);
  const idx cx = static_cast<idx>(rng.integer(6, 10));
  const idx cy = static_cast<idx>(rng.integer(4, 8));
  const idx sx = static_cast<idx>(rng.integer(2, 3));
  const idx sy = static_cast<idx>(rng.integer(2, 3));
  decomp::FetiProblem p = [&] {
    mesh::Mesh m = mesh::make_grid_2d(cx, cy, mesh::ElementOrder::Linear);
    auto dec = mesh::decompose_2d(m, cx, cy, sx, sy);
    return decomp::build_feti_problem(dec, fem::Physics::HeatTransfer);
  }();

  // The decomposition really is irregular: at least two distinct boundary
  // widths. Tiny subdomains may be all-boundary (nb == ndof) — the sp
  // path must survive that degenerate width alongside interior-heavy
  // neighbours in the same problem.
  idx nb_min = p.max_subdomain_dofs(), nb_max = 0;
  long total_nb = 0;
  for (idx s = 0; s < p.num_subdomains(); ++s) {
    const idx nb = decomp::boundary_dofs(p.sub[s]).count();
    EXPECT_GT(nb, 0) << "subdomain " << s;
    EXPECT_LE(nb, p.sub[s].ndof()) << "subdomain " << s;
    nb_min = std::min(nb_min, nb);
    nb_max = std::max(nb_max, nb);
    total_nb += nb;
  }
  EXPECT_LT(nb_min, nb_max) << "grid " << cx << "x" << cy << " splits "
                            << sx << "x" << sy;

  static gpu::ExecutionContext dev([] {
    gpu::DeviceConfig cfg;
    cfg.worker_threads = 4;
    cfg.launch_latency_us = 0.0;
    cfg.memory_bytes = 256ull << 20;
    return cfg;
  }());
  const char* keys[] = {"expl legacy sp", "expl modern sp", "expl hybrid sp",
                        "expl mkl sp"};
  const std::string key = keys[seed % (sizeof(keys) / sizeof(keys[0]))];
  core::DualOpConfig cfg =
      core::recommend_config(key, 2, p.max_subdomain_dofs());
  auto op = core::make_dual_operator(p, cfg, &dev);
  op->prepare();
  op->update_values();
  EXPECT_EQ(op->solve_columns(), total_nb) << key;

  // F̃ y must equal the matrix-free B K⁺ Bᵀ y of the implicit reference.
  core::DualOpConfig ref_cfg;
  ref_cfg.key = "impl mkl";
  auto ref = core::make_dual_operator(p, ref_cfg, nullptr);
  ref->prepare();
  ref->update_values();

  std::vector<double> x(static_cast<std::size_t>(p.num_lambdas));
  for (auto& v : x) v = rng.uniform(-1, 1);
  std::vector<double> y(x.size(), 0.0), y_ref(x.size(), 0.0);
  op->apply(x.data(), y.data());
  ref->apply(x.data(), y_ref.data());
  EXPECT_EQ(op->loop_fallback_count(), 0) << key;
  double scale = 0.0;
  for (double v : y_ref) scale = std::max(scale, std::fabs(v));
  for (std::size_t i = 0; i < y.size(); ++i)
    EXPECT_NEAR(y[i], y_ref[i], 1e-8 * std::max(1.0, scale))
        << "key " << key << " seed " << seed << " grid " << cx << "x" << cy;
}

INSTANTIATE_TEST_SUITE_P(ManySeeds, IrregularBoundarySweep,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace feti
