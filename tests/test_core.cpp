// End-to-end tests of the FETI core: projector identities, PCPG
// convergence, agreement of all nine dual-operator approaches, the full
// Table-I parameter sweep of the explicit GPU assembly, multi-step
// simulations, and validation of the FETI solution against a monolithic
// direct solve.

#include <gtest/gtest.h>

#include <cmath>

#include "core/autotune.hpp"
#include "core/dualop_registry.hpp"
#include "core/feti_solver.hpp"
#include "test_helpers.hpp"

namespace feti::core {
namespace {

using decomp::FetiProblem;
using fem::Physics;
using mesh::ElementOrder;

gpu::ExecutionContext& test_context() {
  static gpu::ExecutionContext ctx([] {
    gpu::DeviceConfig cfg;
    cfg.worker_threads = 4;
    cfg.launch_latency_us = 0.0;
    cfg.memory_bytes = 512ull << 20;
    return cfg;
  }());
  return ctx;
}

struct ProblemSpec {
  Physics physics;
  int dim;
  ElementOrder order;
};

FetiProblem make_problem(const ProblemSpec& spec, idx cells = 6,
                         idx splits = 2) {
  if (spec.dim == 2) {
    mesh::Mesh m = mesh::make_grid_2d(cells, cells, spec.order);
    auto dec = mesh::decompose_2d(m, cells, cells, splits, splits);
    return decomp::build_feti_problem(dec, spec.physics);
  }
  mesh::Mesh m = mesh::make_grid_3d(cells, cells, cells, spec.order);
  auto dec = mesh::decompose_3d(m, cells, cells, cells, splits, splits, splits);
  return decomp::build_feti_problem(dec, spec.physics);
}

std::vector<double> reference_solution(const ProblemSpec& spec, idx cells) {
  mesh::Mesh m = spec.dim == 2
                     ? mesh::make_grid_2d(cells, cells, spec.order)
                     : mesh::make_grid_3d(cells, cells, cells, spec.order);
  fem::GlobalSystem sys = fem::assemble_global(m, spec.physics);
  return fem::reference_solve(sys);
}

// ---------------------------------------------------------------------------
// Projector
// ---------------------------------------------------------------------------

TEST(Projector, IsIdempotentAndAnnihilatesG) {
  FetiProblem p = make_problem({Physics::HeatTransfer, 2,
                                ElementOrder::Linear});
  Projector proj(p);
  Rng rng(3);
  std::vector<double> x(static_cast<std::size_t>(p.num_lambdas));
  for (auto& v : x) v = rng.uniform(-1, 1);
  std::vector<double> px(x.size()), ppx(x.size());
  proj.apply(x.data(), px.data());
  proj.apply(px.data(), ppx.data());
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(ppx[i], px[i], 1e-10);          // P^2 = P
  EXPECT_LT(proj.gt_norm(px.data()), 1e-10);    // G^T P x = 0
}

TEST(Projector, InitialLambdaSatisfiesCoarseConstraint) {
  FetiProblem p = make_problem({Physics::LinearElasticity, 2,
                                ElementOrder::Linear});
  Projector proj(p);
  std::vector<double> lambda0(static_cast<std::size_t>(p.num_lambdas));
  proj.initial_lambda(lambda0.data());
  // G^T lambda0 must equal e: verify via gt_norm of (lambda0 - correction).
  // Direct check: recompute G^T lambda0 against e.
  // gt_norm returns ||G^T x||_inf, so check ||G^T lambda0 - e|| by shifting.
  // lambda0 lies entirely in range(G), so P lambda0 = 0 ...
  std::vector<double> plambda(lambda0.size());
  proj.apply(lambda0.data(), plambda.data());
  for (double v : plambda) EXPECT_NEAR(v, 0.0, 1e-10);
  // ... and e must be reproducible from the problem's load vectors.
  std::vector<double> e = proj.compute_e();
  EXPECT_EQ(e.size(), static_cast<std::size_t>(proj.kernel_total()));
}

// ---------------------------------------------------------------------------
// Cross-approach agreement of F and end-to-end solves
// ---------------------------------------------------------------------------

class ApproachParam
    : public ::testing::TestWithParam<std::tuple<std::string, int, Physics>> {};

TEST_P(ApproachParam, DualOperatorMatchesImplicitReference) {
  const auto [key, dim, physics] = GetParam();
  FetiProblem p = make_problem({physics, dim, ElementOrder::Linear},
                               dim == 2 ? 6 : 4, 2);

  DualOpConfig ref_cfg;
  ref_cfg.key = "impl mkl";
  auto ref_op = make_dual_operator(p, ref_cfg, &test_context());
  ref_op->prepare();
  ref_op->update_values();

  DualOpConfig cfg;
  cfg.key = key;
  cfg.gpu = recommend_options(gpu::sparse::Api::Legacy, dim,
                              p.max_subdomain_dofs());
  auto op = make_dual_operator(p, cfg, &test_context());
  op->prepare();
  op->update_values();

  Rng rng(17);
  std::vector<double> x(static_cast<std::size_t>(p.num_lambdas));
  for (auto& v : x) v = rng.uniform(-1, 1);
  std::vector<double> y_ref(x.size(), 0.0), y(x.size(), 0.0);
  ref_op->apply(x.data(), y_ref.data());
  op->apply(x.data(), y.data());
  double scale = 0.0;
  for (double v : y_ref) scale = std::max(scale, std::fabs(v));
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(y[i], y_ref[i], 1e-8 * std::max(1.0, scale))
        << "entry " << i << " key " << key;

  // d must agree as well (exercises kplus_solve).
  std::vector<double> d_ref(x.size()), d(x.size());
  ref_op->compute_d(d_ref.data());
  op->compute_d(d.data());
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(d[i], d_ref[i], 1e-8 * std::max(1.0, scale));
}

INSTANTIATE_TEST_SUITE_P(
    AllApproaches, ApproachParam,
    ::testing::Combine(
        ::testing::Values("impl mkl", "impl cholmod", "impl legacy",
                          "impl modern", "expl mkl", "expl cholmod",
                          "expl legacy", "expl modern", "expl hybrid"),
        ::testing::Values(2, 3),
        ::testing::Values(Physics::HeatTransfer)));

INSTANTIATE_TEST_SUITE_P(
    ElasticityApproaches, ApproachParam,
    ::testing::Combine(::testing::Values("impl mkl", "expl mkl",
                                         "expl legacy", "expl hybrid"),
                       ::testing::Values(2, 3),
                       ::testing::Values(Physics::LinearElasticity)));

// Full Table-I parameter sweep: every combination must produce the same F.
class GpuParamSweep
    : public ::testing::TestWithParam<
          std::tuple<gpu::sparse::Api, Path, FactorStorage, FactorStorage,
                     la::Layout, la::Layout, SgLocation>> {};

TEST_P(GpuParamSweep, ExplicitAssemblyMatchesReference) {
  const auto [api, path, fwd_st, bwd_st, order, rhs, sg] = GetParam();
  FetiProblem p =
      make_problem({Physics::HeatTransfer, 2, ElementOrder::Linear}, 6, 2);

  DualOpConfig ref_cfg;
  ref_cfg.key = "impl cholmod";
  auto ref_op = make_dual_operator(p, ref_cfg, nullptr);
  ref_op->prepare();
  ref_op->update_values();

  DualOpConfig cfg;
  cfg.key = api == gpu::sparse::Api::Legacy ? "expl legacy" : "expl modern";
  cfg.gpu.path = path;
  cfg.gpu.fwd_storage = fwd_st;
  cfg.gpu.bwd_storage = bwd_st;
  cfg.gpu.fwd_order = order;
  cfg.gpu.bwd_order = order;
  cfg.gpu.rhs_order = rhs;
  cfg.gpu.scatter_gather = sg;
  cfg.gpu.streams = 3;
  auto op = make_dual_operator(p, cfg, &test_context());
  op->prepare();
  op->update_values();

  Rng rng(19);
  std::vector<double> x(static_cast<std::size_t>(p.num_lambdas));
  for (auto& v : x) v = rng.uniform(-1, 1);
  std::vector<double> y_ref(x.size(), 0.0), y(x.size(), 0.0);
  ref_op->apply(x.data(), y_ref.data());
  op->apply(x.data(), y.data());
  double scale = 0.0;
  for (double v : y_ref) scale = std::max(scale, std::fabs(v));
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(y[i], y_ref[i], 1e-8 * std::max(1.0, scale));
}

INSTANTIATE_TEST_SUITE_P(
    TableOne, GpuParamSweep,
    ::testing::Combine(
        ::testing::Values(gpu::sparse::Api::Legacy, gpu::sparse::Api::Modern),
        ::testing::Values(Path::Trsm, Path::Syrk),
        ::testing::Values(FactorStorage::Sparse, FactorStorage::Dense),
        ::testing::Values(FactorStorage::Sparse, FactorStorage::Dense),
        ::testing::Values(la::Layout::RowMajor, la::Layout::ColMajor),
        ::testing::Values(la::Layout::RowMajor, la::Layout::ColMajor),
        ::testing::Values(SgLocation::Cpu, SgLocation::Gpu)));

// ---------------------------------------------------------------------------
// End-to-end FETI solves against the monolithic reference
// ---------------------------------------------------------------------------

class SolveParam : public ::testing::TestWithParam<
                       std::tuple<std::string, ProblemSpec>> {};

TEST_P(SolveParam, MatchesMonolithicSolve) {
  const auto [key, spec] = GetParam();
  const idx cells = spec.dim == 2 ? 6 : 4;
  FetiProblem p = make_problem(spec, cells, 2);
  std::vector<double> u_ref = reference_solution(spec, cells);

  FetiSolverOptions opts;
  opts.dualop.key = key;
  opts.dualop.gpu =
      recommend_options(gpu::sparse::Api::Legacy, spec.dim, 1000);
  opts.pcpg.rel_tolerance = 1e-10;
  opts.pcpg.max_iterations = 2000;
  FetiSolver solver(p, opts, &test_context());
  solver.prepare();
  FetiStepResult res = solver.solve_step();
  EXPECT_TRUE(res.converged);
  EXPECT_GT(res.pcpg_iterations, 0);

  double umax = 0.0;
  for (double v : u_ref) umax = std::max(umax, std::fabs(v));
  ASSERT_EQ(res.u.size(), u_ref.size());
  for (std::size_t i = 0; i < u_ref.size(); ++i)
    EXPECT_NEAR(res.u[i], u_ref[i], 1e-6 * std::max(1.0, umax))
        << "dof " << i;
}

INSTANTIATE_TEST_SUITE_P(
    Solves, SolveParam,
    ::testing::Values(
        std::tuple{"impl mkl",
                   ProblemSpec{Physics::HeatTransfer, 2,
                               ElementOrder::Linear}},
        std::tuple{"impl cholmod",
                   ProblemSpec{Physics::HeatTransfer, 2,
                               ElementOrder::Quadratic}},
        std::tuple{"expl mkl",
                   ProblemSpec{Physics::HeatTransfer, 3,
                               ElementOrder::Linear}},
        std::tuple{"expl legacy",
                   ProblemSpec{Physics::HeatTransfer, 2,
                               ElementOrder::Linear}},
        std::tuple{"expl modern",
                   ProblemSpec{Physics::HeatTransfer, 3,
                               ElementOrder::Linear}},
        std::tuple{"expl hybrid",
                   ProblemSpec{Physics::LinearElasticity, 2,
                               ElementOrder::Linear}},
        std::tuple{"impl legacy",
                   ProblemSpec{Physics::LinearElasticity, 2,
                               ElementOrder::Quadratic}},
        std::tuple{"expl legacy",
                   ProblemSpec{Physics::LinearElasticity, 3,
                               ElementOrder::Linear}},
        std::tuple{"expl cholmod",
                   ProblemSpec{Physics::HeatTransfer, 2,
                               ElementOrder::Quadratic}}));

TEST(Pcpg, LumpedPreconditionerReducesIterations) {
  // Elasticity is ill-conditioned enough for the lumped preconditioner to
  // pay off (on tiny heat problems it can cost an iteration or two).
  ProblemSpec spec{Physics::LinearElasticity, 2, ElementOrder::Linear};
  FetiProblem p = make_problem(spec, 12, 3);
  FetiSolverOptions opts;
  opts.dualop.key = "impl mkl";
  opts.pcpg.rel_tolerance = 1e-9;

  FetiSolver plain(p, opts, nullptr);
  plain.prepare();
  const int it_plain = plain.solve_step().pcpg_iterations;

  opts.pcpg.preconditioner = "lumped";
  FetiSolver precond(p, opts, nullptr);
  precond.prepare();
  const int it_precond = precond.solve_step().pcpg_iterations;

  EXPECT_TRUE(it_precond <= it_plain)
      << "lumped=" << it_precond << " none=" << it_plain;
}

TEST(MultiStep, RepeatedStepsWithChangingValues) {
  // Algorithm 2: symbolic work once, numeric factorization + assembly per
  // step. Scaling K and f by the same factor leaves u unchanged.
  ProblemSpec spec{Physics::HeatTransfer, 2, ElementOrder::Linear};
  decomp::FetiProblem p = make_problem(spec, 6, 2);
  FetiSolverOptions opts;
  opts.dualop.key = "expl legacy";
  opts.dualop.gpu = recommend_options(gpu::sparse::Api::Legacy, 2, 1000);
  opts.pcpg.rel_tolerance = 1e-10;
  FetiSolver solver(p, opts, &test_context());
  solver.prepare();

  FetiStepResult step1 = solver.solve_step();
  decomp::scale_step(p, 3.0);
  FetiStepResult step2 = solver.solve_step();
  decomp::scale_step(p, 0.5);
  FetiStepResult step3 = solver.solve_step();

  ASSERT_TRUE(step1.converged && step2.converged && step3.converged);
  for (std::size_t i = 0; i < step1.u.size(); ++i) {
    EXPECT_NEAR(step2.u[i], step1.u[i], 1e-7);
    EXPECT_NEAR(step3.u[i], step1.u[i], 1e-7);
  }
}

TEST(MultiStep, NonUniformValueChangeIsPickedUp) {
  // Scaling K only (not f) must scale the solution by 1/factor.
  ProblemSpec spec{Physics::HeatTransfer, 2, ElementOrder::Linear};
  decomp::FetiProblem p = make_problem(spec, 6, 2);
  FetiSolverOptions opts;
  opts.dualop.key = "expl mkl";
  opts.pcpg.rel_tolerance = 1e-11;
  FetiSolver solver(p, opts, nullptr);
  solver.prepare();
  FetiStepResult step1 = solver.solve_step();
  for (auto& s : p.sub) {
    for (auto& v : s.sys.k.vals()) v *= 2.0;
    for (auto& v : s.k_reg.vals()) v *= 2.0;
  }
  FetiStepResult step2 = solver.solve_step();
  for (std::size_t i = 0; i < step1.u.size(); ++i)
    EXPECT_NEAR(step2.u[i], 0.5 * step1.u[i], 1e-7);
}

// ---------------------------------------------------------------------------
// Autotuning (Table II)
// ---------------------------------------------------------------------------

TEST(Autotune, MatchesTableTwo) {
  // Legacy, 2D: sparse factors, row-major, RHS row-major, SYRK.
  auto l2 = recommend_options(gpu::sparse::Api::Legacy, 2, 5000);
  EXPECT_EQ(l2.path, Path::Syrk);
  EXPECT_EQ(l2.fwd_storage, FactorStorage::Sparse);
  EXPECT_EQ(l2.fwd_order, la::Layout::RowMajor);
  EXPECT_EQ(l2.rhs_order, la::Layout::RowMajor);

  // Legacy, 3D small: dense factors col-major.
  auto l3s = recommend_options(gpu::sparse::Api::Legacy, 3, 5000);
  EXPECT_EQ(l3s.fwd_storage, FactorStorage::Dense);
  EXPECT_EQ(l3s.fwd_order, la::Layout::ColMajor);

  // Legacy, 3D large: back to sparse.
  auto l3l = recommend_options(gpu::sparse::Api::Legacy, 3, 20000);
  EXPECT_EQ(l3l.fwd_storage, FactorStorage::Sparse);

  // Modern: always dense; RHS col-major in 2D, row-major in 3D.
  auto m2 = recommend_options(gpu::sparse::Api::Modern, 2, 5000);
  EXPECT_EQ(m2.fwd_storage, FactorStorage::Dense);
  EXPECT_EQ(m2.rhs_order, la::Layout::ColMajor);
  auto m3 = recommend_options(gpu::sparse::Api::Modern, 3, 20000);
  EXPECT_EQ(m3.fwd_storage, FactorStorage::Dense);
  EXPECT_EQ(m3.rhs_order, la::Layout::RowMajor);
}

TEST(Config, NamesAreDistinctAndStable) {
  const DualOperatorRegistry& registry = DualOperatorRegistry::instance();
  EXPECT_TRUE(registry.contains("impl mkl"));
  EXPECT_TRUE(registry.contains("expl hybrid"));
  EXPECT_EQ(registry.families().size(), 9u);
  EXPECT_TRUE(registry.uses_gpu("expl legacy"));
  EXPECT_FALSE(registry.uses_gpu("expl mkl"));
  EXPECT_TRUE(registry.is_explicit("expl hybrid"));
  EXPECT_FALSE(registry.is_explicit("impl modern"));
  ExplicitGpuOptions opt;
  EXPECT_FALSE(opt.describe().empty());
}

TEST(Factory, GpuApproachWithoutDeviceThrows) {
  FetiProblem p = make_problem({Physics::HeatTransfer, 2,
                                ElementOrder::Linear});
  DualOpConfig cfg;
  cfg.key = "expl legacy";
  EXPECT_THROW(make_dual_operator(p, cfg, nullptr), std::invalid_argument);
}

}  // namespace
}  // namespace feti::core
