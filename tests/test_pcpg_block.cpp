// Tests for the block-PCPG path (shared Krylov panel, rank-revealing Gram
// deflation), cross-step Krylov recycling, and the solver-loop reporting
// fixes: consistent breakdown state in batches and the scaled zero-RHS
// floor.

#include <gtest/gtest.h>

#include <cmath>

#include "core/autotune.hpp"
#include "core/feti_solver.hpp"
#include "la/blas_dense.hpp"
#include "test_helpers.hpp"

namespace feti {
namespace {

using core::BlockPcpgOptions;
using core::Pcpg;
using core::PcpgOptions;
using core::PcpgResult;
using core::Projector;
using fem::Physics;
using mesh::ElementOrder;

decomp::FetiProblem heat2d_problem(idx cells = 8, idx splits = 2) {
  mesh::Mesh m = mesh::make_grid_2d(cells, cells, ElementOrder::Linear);
  auto dec = mesh::decompose_2d(m, cells, cells, splits, splits);
  return decomp::build_feti_problem(dec, Physics::HeatTransfer);
}

gpu::DeviceConfig quiet_config(std::size_t mem = 512ull << 20) {
  gpu::DeviceConfig cfg;
  cfg.worker_threads = 4;
  cfg.launch_latency_us = 0.0;
  cfg.memory_bytes = mem;
  return cfg;
}

// ---------------------------------------------------------------------------
// Breakdown reporting (lockstep batches and the block Gram panel)
// ---------------------------------------------------------------------------

/// Reflection operator F = I − 2 v vᵀ with v a unit vector in range(P):
/// indefinite, with {v}ᵀ and span{v} as exact invariant subspaces even
/// under the (orthogonal) projector — a right-hand side orthogonal to v
/// iterates on the identity and converges in one step, while a right-hand
/// side along v hits pᵀFp = −1 on the first iteration. Lets one batch
/// carry a healthy and a broken system side by side.
class ReflectionOp final : public core::DualOperator {
 public:
  ReflectionOp(const decomp::FetiProblem& p, std::vector<double> v)
      : core::DualOperator(p), v_(std::move(v)) {}
  void prepare() override {}
  void update_values() override {}
  void kplus_solve(idx, const double*, double*) const override {}

 protected:
  void apply_one(const double* x, double* y) override {
    const idx n = p_.num_lambdas;
    const double c = 2.0 * la::dot(n, v_.data(), x);
    for (idx i = 0; i < n; ++i) y[i] = x[i] - c * v_[i];
  }

 private:
  std::vector<double> v_;
};

struct ReflectionSetup {
  decomp::FetiProblem problem;
  std::vector<double> v;        ///< unit vector in range(P)
  std::vector<double> healthy;  ///< rhs with projected residual ⊥ v
  std::vector<double> broken;   ///< rhs with projected residual along v
};

ReflectionSetup reflection_setup() {
  ReflectionSetup s{heat2d_problem(6, 2), {}, {}, {}};
  const idx n = s.problem.num_lambdas;
  Projector projector(s.problem);
  std::vector<double> z = testing::random_vector(n, 17);
  s.v.resize(static_cast<std::size_t>(n));
  projector.apply(z.data(), s.v.data());
  const double vn = la::nrm2(n, s.v.data());
  for (auto& x : s.v) x /= vn;

  std::vector<double> u(static_cast<std::size_t>(n));
  std::vector<double> x = testing::random_vector(n, 31);
  projector.apply(x.data(), u.data());
  const double uv = la::dot(n, s.v.data(), u.data());
  s.healthy.resize(static_cast<std::size_t>(n));
  for (idx i = 0; i < n; ++i) s.healthy[i] = u[i] - uv * s.v[i];
  s.broken = s.v;
  return s;
}

TEST(PcpgBreakdown, BatchReportsConsistentStateAndCountsSpentApply) {
  ReflectionSetup s = reflection_setup();
  ReflectionOp op(s.problem, s.v);
  Projector projector(s.problem);
  PcpgOptions popts;
  popts.rel_tolerance = 1e-10;
  Pcpg pcpg(op, projector, popts);

  std::vector<PcpgResult> res = pcpg.solve_many({s.healthy, s.broken});
  ASSERT_EQ(res.size(), 2u);

  // The broken system spent one F application discovering pᵀFp < 0; that
  // iteration must be counted, and the reported residual must describe the
  // state the λ/α it returns are in (untouched by the failed step → the
  // relative residual is exactly the initial 1).
  EXPECT_FALSE(res[1].converged);
  EXPECT_TRUE(res[1].breakdown);
  EXPECT_EQ(res[1].iterations, 1);
  EXPECT_DOUBLE_EQ(res[1].rel_residual, 1.0);

  // The healthy neighbor is untouched: F acts as the identity on its
  // invariant subspace, so it converges in one iteration and matches a
  // solo solve exactly.
  EXPECT_TRUE(res[0].converged);
  EXPECT_FALSE(res[0].breakdown);
  EXPECT_EQ(res[0].iterations, 1);
  PcpgResult solo = pcpg.solve(s.healthy);
  ASSERT_EQ(res[0].lambda.size(), solo.lambda.size());
  for (std::size_t i = 0; i < solo.lambda.size(); ++i)
    EXPECT_EQ(res[0].lambda[i], solo.lambda[i]) << "entry " << i;
}

TEST(PcpgBreakdown, SingleSolveKeepsThrowingContract) {
  ReflectionSetup s = reflection_setup();
  ReflectionOp op(s.problem, s.v);
  Projector projector(s.problem);
  PcpgOptions popts;
  Pcpg pcpg(op, projector, popts);
  EXPECT_THROW(pcpg.solve(s.broken), std::invalid_argument);

  // Block mode: the whole 1-wide panel loses definiteness → Gram rank 0 →
  // the same throwing contract for solve().
  popts.block.enabled = true;
  Pcpg block(op, projector, popts);
  EXPECT_THROW(block.solve(s.broken), std::invalid_argument);
}

TEST(PcpgBreakdown, BlockBatchSurvivesRankDeficientPanel) {
  ReflectionSetup s = reflection_setup();
  ReflectionOp op(s.problem, s.v);
  Projector projector(s.problem);
  PcpgOptions popts;
  popts.rel_tolerance = 1e-10;
  popts.max_iterations = 8;
  popts.block.enabled = true;
  Pcpg pcpg(op, projector, popts);

  // The shared panel mixes a healthy and a negative-curvature column: the
  // pivoted Cholesky keeps the healthy one, so the healthy system still
  // converges; the broken one, left alone on a width-1 panel, is reported
  // as a breakdown without a throw.
  std::vector<PcpgResult> res = pcpg.solve_many({s.healthy, s.broken});
  EXPECT_TRUE(res[0].converged);
  EXPECT_FALSE(res[0].breakdown);
  EXPECT_FALSE(res[1].converged);
  EXPECT_TRUE(res[1].breakdown);
}

TEST(PcpgBreakdown, FetiSolverForwardsFlagAndThrow) {
  // fp32-stored F̃ loses positive definiteness below its noise floor, so a
  // far too tight tolerance ends in a genuine breakdown on a registry key.
  // solve_step_many reports it as FetiStepResult::breakdown; solve_step
  // keeps the throwing contract. Both backends report it the same way.
  decomp::FetiProblem p = heat2d_problem(8, 2);
  gpu::ExecutionContext dev(quiet_config());
  for (const auto mode : {PcpgOptions::DeviceState::Off,
                          PcpgOptions::DeviceState::On}) {
    const bool device = mode == PcpgOptions::DeviceState::On;
    core::FetiSolverOptions opts;
    opts.dualop =
        core::recommend_config("expl legacy f32", 2, p.max_subdomain_dofs());
    opts.pcpg.rel_tolerance = 1e-15;
    opts.pcpg.max_iterations = 1000;
    opts.pcpg.device_state = mode;
    core::FetiSolver solver(p, opts, &dev);
    solver.prepare();

    std::vector<core::FetiStepResult> res = solver.solve_step_many({{}});
    ASSERT_EQ(res.size(), 1u);
    EXPECT_TRUE(res[0].breakdown) << "device=" << device;
    EXPECT_FALSE(res[0].converged) << "device=" << device;
    EXPECT_LT(res[0].pcpg_iterations, opts.pcpg.max_iterations)
        << "device=" << device;
    EXPECT_THROW(solver.solve_step(), std::invalid_argument)
        << "device=" << device;
  }
}

// ---------------------------------------------------------------------------
// Scaled zero-RHS floor
// ---------------------------------------------------------------------------

TEST(PcpgZeroRhs, TinyScaledRhsFinalizesAtLambda0) {
  // A 1e-300-scaled load: w₀ is denormal but not bit-zero. The scaled
  // floor must finalize at λ₀ instead of iterating on underflowed (pᵀFp =
  // 0) step lengths — the exact-zero test alone threw here.
  decomp::FetiProblem p = heat2d_problem(6, 2);
  for (auto& fs : p.sub)
    for (auto& v : fs.sys.f) v *= 1e-300;

  core::DualOpConfig cfg;
  cfg.key = "impl mkl";
  auto op = core::make_dual_operator(p, cfg);
  op->prepare();
  op->update_values();
  Projector projector(p);
  std::vector<double> d(static_cast<std::size_t>(p.num_lambdas));
  op->compute_d(d.data());

  for (const bool block : {false, true}) {
    PcpgOptions popts;
    popts.block.enabled = block;
    Pcpg pcpg(*op, projector, popts);
    PcpgResult res = pcpg.solve(d);
    EXPECT_TRUE(res.converged) << "block=" << block;
    EXPECT_EQ(res.iterations, 0) << "block=" << block;
    EXPECT_EQ(res.rel_residual, 0.0) << "block=" << block;
  }
}

TEST(PcpgZeroRhs, ExactZeroStillFinalizes) {
  decomp::FetiProblem p = heat2d_problem(6, 2);
  for (auto& fs : p.sub)
    for (auto& v : fs.sys.f) v = 0.0;
  core::DualOpConfig cfg;
  cfg.key = "impl mkl";
  auto op = core::make_dual_operator(p, cfg);
  op->prepare();
  op->update_values();
  Projector projector(p);
  std::vector<double> d(static_cast<std::size_t>(p.num_lambdas), 0.0);
  Pcpg pcpg(*op, projector, PcpgOptions{});
  PcpgResult res = pcpg.solve(d);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.iterations, 0);
}

// ---------------------------------------------------------------------------
// Drain tail of batched solves
// ---------------------------------------------------------------------------

TEST(PcpgDrainTail, SurvivorMatchesSoloSolveBitwise) {
  decomp::FetiProblem p = heat2d_problem(8, 2);
  core::DualOpConfig cfg;
  cfg.key = "impl mkl";
  auto op = core::make_dual_operator(p, cfg);
  op->prepare();
  op->update_values();
  Projector projector(p);

  const idx n = p.num_lambdas;
  std::vector<double> d(static_cast<std::size_t>(n));
  op->compute_d(d.data());
  // The fast system's rhs is exactly F λ₀ — its projected residual is
  // bit-zero, so it finalizes before the first iteration and the batch
  // drains to the physical system alone.
  std::vector<double> lambda0(static_cast<std::size_t>(n));
  projector.initial_lambda(lambda0.data());
  std::vector<double> q0(static_cast<std::size_t>(n));
  op->apply(lambda0.data(), q0.data());

  PcpgOptions popts;
  popts.rel_tolerance = 1e-10;
  Pcpg pcpg(*op, projector, popts);
  std::vector<PcpgResult> res = pcpg.solve_many({d, q0});

  EXPECT_TRUE(res[1].converged);
  EXPECT_EQ(res[1].iterations, 0);
  for (std::size_t i = 0; i < res[1].lambda.size(); ++i)
    EXPECT_EQ(res[1].lambda[i], lambda0[i]);

  // The surviving system iterated at batch width 1 throughout — the same
  // apply path as a solo solve, so the result is bit-identical to it.
  PcpgResult solo = pcpg.solve(d);
  EXPECT_TRUE(res[0].converged);
  EXPECT_EQ(res[0].iterations, solo.iterations);
  ASSERT_EQ(res[0].lambda.size(), solo.lambda.size());
  for (std::size_t i = 0; i < solo.lambda.size(); ++i)
    EXPECT_EQ(res[0].lambda[i], solo.lambda[i]) << "entry " << i;
}

// ---------------------------------------------------------------------------
// Block vs lockstep vs solo agreement across operator families
// ---------------------------------------------------------------------------

TEST(PcpgBlock, AgreesWithLockstepAndSoloAcrossOperators) {
  decomp::FetiProblem p = heat2d_problem(8, 2);
  gpu::ExecutionContext dev(quiet_config());

  struct Case {
    const char* key;
    double rel_tolerance;
    double cmp;  ///< solution agreement bound (looser for fp32 storage)
  };
  const Case cases[] = {
      {"impl mkl", 1e-10, 1e-8},
      {"expl mkl", 1e-10, 1e-8},
      {"expl legacy f32", 2e-5, 1e-4},
  };

  for (const Case& c : cases) {
    core::DualOpConfig cfg =
        core::recommend_config(c.key, 2, p.max_subdomain_dofs());
    auto op = core::make_dual_operator(p, cfg, &dev);
    op->prepare();
    op->update_values();
    Projector projector(p);

    const idx n = p.num_lambdas;
    std::vector<double> d(static_cast<std::size_t>(n));
    op->compute_d(d.data());
    // Consistent clustered right-hand sides: scaled d plus an F·v nudge
    // (anything in range(F) keeps the singular dual system solvable).
    std::vector<double> v(static_cast<std::size_t>(n)), fv(v.size());
    for (idx i = 0; i < n; ++i)
      v[i] = std::sin(0.25 * static_cast<double>(i));
    op->apply(v.data(), fv.data());
    std::vector<std::vector<double>> ds;
    for (int j = 0; j < 4; ++j) {
      ds.push_back(d);
      for (idx i = 0; i < n; ++i)
        ds.back()[i] = (1.0 + 0.1 * j) * d[i] + 0.01 * j * fv[i];
    }

    PcpgOptions popts;
    popts.rel_tolerance = c.rel_tolerance;
    Pcpg lockstep(*op, projector, popts);
    popts.block.enabled = true;
    Pcpg block(*op, projector, popts);

    std::vector<PcpgResult> lres = lockstep.solve_many(ds);
    std::vector<PcpgResult> bres = block.solve_many(ds);
    for (std::size_t j = 0; j < ds.size(); ++j) {
      ASSERT_TRUE(lres[j].converged) << c.key << " lockstep system " << j;
      ASSERT_TRUE(bres[j].converged) << c.key << " block system " << j;
      PcpgResult solo = lockstep.solve(ds[j]);
      double scale = 1.0;
      for (double x : solo.lambda) scale = std::max(scale, std::fabs(x));
      for (std::size_t i = 0; i < solo.lambda.size(); ++i) {
        EXPECT_NEAR(lres[j].lambda[i], solo.lambda[i], c.cmp * scale)
            << c.key << " lockstep system " << j;
        EXPECT_NEAR(bres[j].lambda[i], solo.lambda[i], c.cmp * scale)
            << c.key << " block system " << j;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Cross-step Krylov recycling lifecycle
// ---------------------------------------------------------------------------

core::FetiSolverOptions recycling_options() {
  core::FetiSolverOptions opts;
  opts.dualop.key = "expl mkl";
  opts.pcpg.rel_tolerance = 1e-10;
  opts.pcpg.block.enabled = true;
  opts.pcpg.block.recycle = true;
  opts.pcpg.block.deflation_budget = 64;
  return opts;
}

TEST(KrylovRecycling, WarmStepStartsFromRecycledSpace) {
  decomp::FetiProblem p = heat2d_problem(8, 2);
  core::FetiSolver solver(p, recycling_options(), nullptr);
  solver.prepare();

  core::FetiStepResult cold = solver.solve_step();
  ASSERT_TRUE(cold.converged);
  EXPECT_EQ(cold.deflation_dim, 0);
  EXPECT_GT(cold.pcpg_iterations, 0);
  ASSERT_NE(solver.recycler(), nullptr);
  EXPECT_GT(solver.recycler()->dim(), 0);

  // Unchanged K and f: the warm step deflates against the harvested panel
  // and its Galerkin start already solves the system.
  core::FetiStepResult warm = solver.solve_step();
  ASSERT_TRUE(warm.converged);
  EXPECT_GT(warm.deflation_dim, 0);
  EXPECT_LT(warm.pcpg_iterations, cold.pcpg_iterations);

  // The warm solution matches the cold one.
  double scale = 1.0;
  for (double v : cold.u) scale = std::max(scale, std::fabs(v));
  for (std::size_t i = 0; i < cold.u.size(); ++i)
    EXPECT_NEAR(warm.u[i], cold.u[i], 1e-8 * scale);
}

TEST(KrylovRecycling, RefreshedOperatorDropsThePanel) {
  decomp::FetiProblem p = heat2d_problem(8, 2);
  core::FetiSolver solver(p, recycling_options(), nullptr);
  solver.prepare();

  const core::FetiStepResult cold = solver.solve_step();
  // K changes → update_values() refreshes subdomains → the panel (built
  // against the old F) must not deflate this step.
  decomp::scale_step(p, 1.25);
  const core::FetiStepResult changed = solver.solve_step();
  ASSERT_TRUE(changed.converged);
  EXPECT_GT(changed.refreshed_subdomains, 0);
  EXPECT_EQ(changed.deflation_dim, 0);
  EXPECT_GT(changed.pcpg_iterations, 0);

  // The step after the change recycles again.
  const core::FetiStepResult warm = solver.solve_step();
  ASSERT_TRUE(warm.converged);
  EXPECT_GT(warm.deflation_dim, 0);
  EXPECT_LT(warm.pcpg_iterations, cold.pcpg_iterations);
}

TEST(KrylovRecycling, ScopeChangeDropsThePanel) {
  decomp::FetiProblem p = heat2d_problem(8, 2);
  core::FetiSolver solver(p, recycling_options(), nullptr);
  solver.prepare();

  (void)solver.solve_step();
  ASSERT_NE(solver.recycler(), nullptr);
  ASSERT_GT(solver.recycler()->dim(), 0);

  // A different tenant checks the pooled solver out: its Krylov state must
  // not leak across the scope switch.
  solver.set_recycle_scope(7);
  EXPECT_EQ(solver.recycler()->dim(), 0);
  const core::FetiStepResult res = solver.solve_step();
  ASSERT_TRUE(res.converged);
  EXPECT_EQ(res.deflation_dim, 0);

  // Same scope again: state retained.
  solver.set_recycle_scope(7);
  EXPECT_GT(solver.recycler()->dim(), 0);
}

TEST(KrylovRecycling, DisabledOptionsKeepLockstepBehavior) {
  decomp::FetiProblem p = heat2d_problem(8, 2);
  core::FetiSolverOptions opts = recycling_options();
  opts.pcpg.block = BlockPcpgOptions{};
  core::FetiSolver solver(p, opts, nullptr);
  solver.prepare();
  const core::FetiStepResult res = solver.solve_step();
  ASSERT_TRUE(res.converged);
  EXPECT_EQ(res.deflation_dim, 0);
  EXPECT_EQ(solver.recycler(), nullptr);
}

}  // namespace
}  // namespace feti
