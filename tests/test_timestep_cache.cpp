// Time-step operator caching: update_values() consults the problem's
// per-subdomain values versions (ValueTracking::Versioned) or K_reg
// content hashes (ValueTracking::Hashed, the default) and refreshes only
// dirty subdomains. These tests pin the cache semantics for every
// registered key: a clean step performs zero refactorizations and leaves
// the apply results bit-identical, a targeted dirty mark refreshes exactly
// the marked subdomains, and the hash fallback catches unmarked in-place
// mutation.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "core/autotune.hpp"
#include "core/dualop_registry.hpp"
#include "core/feti_solver.hpp"
#include "decomp/boundary.hpp"
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

FetiProblem heat2d_problem(idx cells = 6, idx splits = 2) {
  mesh::Mesh m = mesh::make_grid_2d(cells, cells, ElementOrder::Linear);
  auto dec = mesh::decompose_2d(m, cells, cells, splits, splits);
  return decomp::build_feti_problem(dec, Physics::HeatTransfer);
}

std::vector<double> probe_vector(idx n, unsigned seed) {
  Rng rng(seed);
  std::vector<double> x(static_cast<std::size_t>(n));
  for (auto& v : x) v = rng.uniform(-1, 1);
  return x;
}

double max_abs(const std::vector<double>& v) {
  double m = 0.0;
  for (double x : v) m = std::max(m, std::fabs(x));
  return m;
}

// ---------------------------------------------------------------------------
// Registry-wide cache matrix
// ---------------------------------------------------------------------------

TEST(TimestepCache, UnchangedStepSkipsEveryRegisteredKey) {
  // For every registered key: step 2 with unchanged K performs zero
  // numeric refactorizations/reassemblies and matches a cold rebuild to
  // tight tolerance; a whole-problem change refreshes everything again;
  // a targeted per-subdomain mark refreshes exactly the marked subdomain.
  auto& registry = DualOperatorRegistry::instance();
  for (const std::string& key : registry.keys()) {
    FetiProblem p = heat2d_problem(6, 2);
    const idx n = p.num_lambdas;
    const long nsub = static_cast<long>(p.num_subdomains());
    DualOpConfig cfg = recommend_config(key, 2, p.max_subdomain_dofs());
    auto op = registry.create(key, p, cfg, &test_context());
    op->prepare();

    // Step 1: everything is dirty (the operator has never seen the values).
    op->update_values();
    CacheStats s1 = op->cache_stats();
    EXPECT_EQ(s1.steps, 1) << key;
    EXPECT_EQ(s1.skipped_steps, 0) << key;
    EXPECT_EQ(s1.refreshed_subdomains, nsub) << key;
    EXPECT_EQ(s1.skipped_subdomains, 0) << key;

    const std::vector<double> x = probe_vector(n, 41);
    std::vector<double> y1(x.size(), 0.0), y2(x.size(), 0.0);
    op->apply(x.data(), y1.data());

    // Step 2: unchanged values — zero refreshes, results unchanged.
    op->update_values();
    CacheStats s2 = op->cache_stats();
    EXPECT_EQ(s2.steps, 2) << key;
    EXPECT_GE(s2.skipped_steps, 1) << key;
    EXPECT_EQ(s2.refreshed_subdomains, nsub) << key;
    EXPECT_EQ(s2.skipped_subdomains, nsub) << key;
    op->apply(x.data(), y2.data());
    const double scale = std::max(1.0, max_abs(y1));
    for (std::size_t i = 0; i < y1.size(); ++i)
      EXPECT_NEAR(y2[i], y1[i], 1e-12 * scale) << "entry " << i << " " << key;

    // Cold rebuild on the same values agrees with the cached state.
    {
      auto cold = registry.create(key, p, cfg, &test_context());
      cold->prepare();
      cold->update_values();
      std::vector<double> y_cold(x.size(), 0.0);
      cold->apply(x.data(), y_cold.data());
      for (std::size_t i = 0; i < y1.size(); ++i)
        EXPECT_NEAR(y_cold[i], y1[i], 1e-10 * scale)
            << "entry " << i << " " << key;
    }

    // Step 3: whole-problem change refreshes everything.
    decomp::scale_step(p, 2.0);
    op->update_values();
    CacheStats s3 = op->cache_stats();
    EXPECT_EQ(s3.refreshed_subdomains, 2 * nsub) << key;

    // Step 4: a single marked subdomain refreshes exactly that subdomain,
    // and the refreshed state matches a cold rebuild.
    decomp::scale_subdomain(p, 1, 3.0);
    op->update_values();
    CacheStats s4 = op->cache_stats();
    EXPECT_EQ(s4.refreshed_subdomains - s3.refreshed_subdomains, 1) << key;
    EXPECT_EQ(s4.skipped_subdomains - s3.skipped_subdomains, nsub - 1) << key;
    std::vector<double> y4(x.size(), 0.0), y_cold(x.size(), 0.0);
    op->apply(x.data(), y4.data());
    auto cold = registry.create(key, p, cfg, &test_context());
    cold->prepare();
    cold->update_values();
    cold->apply(x.data(), y_cold.data());
    const double scale4 = std::max(1.0, max_abs(y_cold));
    for (std::size_t i = 0; i < y4.size(); ++i)
      EXPECT_NEAR(y4[i], y_cold[i], 1e-10 * scale4)
          << "entry " << i << " " << key;
  }
}

// ---------------------------------------------------------------------------
// Bit-identical applies and deterministic skip on the CPU families
// ---------------------------------------------------------------------------

TEST(TimestepCache, UnchangedStepIsBitIdenticalOnCpu) {
  // The CPU apply path is deterministic (per-subdomain kernels are
  // sequential, the gather runs in subdomain order), so a skipped
  // update_values() must leave the results bit-for-bit identical — the
  // factors were not touched at all. The sparsity-aware keys ride the same
  // contract: a clean step must skip the boundary re-assembly entirely.
  for (const char* key : {"expl mkl", "expl cholmod", "impl mkl",
                          "expl mkl sp", "expl cholmod sp"}) {
    FetiProblem p = heat2d_problem(6, 2);
    DualOpConfig cfg;
    cfg.key = key;
    auto op = make_dual_operator(p, cfg);
    op->prepare();
    op->update_values();
    const std::vector<double> x = probe_vector(p.num_lambdas, 7);
    std::vector<double> y1(x.size(), 0.0), y2(x.size(), 0.0);
    op->apply(x.data(), y1.data());
    op->update_values();  // clean step: must not touch any factor
    EXPECT_EQ(op->cache_stats().refreshed_subdomains,
              static_cast<long>(p.num_subdomains()))
        << key;
    op->apply(x.data(), y2.data());
    for (std::size_t i = 0; i < y1.size(); ++i)
      EXPECT_EQ(y1[i], y2[i]) << "entry " << i << " " << key;
  }
}

// ---------------------------------------------------------------------------
// Mixed precision: dirty refresh re-demotes only the refreshed blocks
// ---------------------------------------------------------------------------

TEST(TimestepCache, F32DirtyRefreshRedemotesOnlyTheRefreshedBlocks) {
  // fp32 keys keep their demoted F̃ storage across cached steps: a targeted
  // dirty mark re-assembles and re-demotes exactly the marked subdomain
  // (cache_stats proves the others were untouched), and the partially
  // re-demoted state matches a cold fp32 rebuild on the current values —
  // bit-for-bit, because demotion of identical fp64 values is
  // deterministic. One CPU, one GPU, and the hybrid f32 key, plus their
  // sparsity-aware siblings (the sp refresh re-demotes the full block
  // rebuilt from the boundary panel).
  for (const char* key :
       {"expl mkl f32", "expl legacy f32", "expl hybrid f32",
        "expl mkl sp f32", "expl legacy sp f32", "expl hybrid sp f32"}) {
    FetiProblem p = heat2d_problem(6, 2);
    const long nsub = static_cast<long>(p.num_subdomains());
    DualOpConfig cfg = recommend_config(key, 2, p.max_subdomain_dofs());
    auto& registry = DualOperatorRegistry::instance();
    auto op = registry.create(key, p, cfg, &test_context());
    op->prepare();
    op->update_values();

    const std::vector<double> x = probe_vector(p.num_lambdas, 29);
    std::vector<double> y1(x.size(), 0.0);
    op->apply(x.data(), y1.data());

    // Clean step: zero refreshes, zero re-demotions, identical results.
    op->update_values();
    EXPECT_EQ(op->cache_stats().refreshed_subdomains, nsub) << key;
    std::vector<double> y2(x.size(), 0.0);
    op->apply(x.data(), y2.data());
    for (std::size_t i = 0; i < y1.size(); ++i)
      EXPECT_EQ(y2[i], y1[i]) << "entry " << i << " " << key;

    // One dirty subdomain: exactly one refresh (assembly + demotion).
    decomp::scale_subdomain(p, 2, 2.5);
    op->update_values();
    CacheStats s = op->cache_stats();
    EXPECT_EQ(s.refreshed_subdomains, nsub + 1) << key;
    EXPECT_EQ(s.skipped_subdomains, 2 * nsub - 1) << key;

    // The mixed cached/re-demoted state equals a cold fp32 rebuild.
    std::vector<double> y3(x.size(), 0.0), y_cold(x.size(), 0.0);
    op->apply(x.data(), y3.data());
    auto cold = registry.create(key, p, cfg, &test_context());
    cold->prepare();
    cold->update_values();
    cold->apply(x.data(), y_cold.data());
    for (std::size_t i = 0; i < y3.size(); ++i)
      EXPECT_EQ(y3[i], y_cold[i]) << "entry " << i << " " << key;
  }
}

// ---------------------------------------------------------------------------
// Odd subdomain counts on one device
// ---------------------------------------------------------------------------

TEST(TimestepCache, OneDirtySubdomainOfNineRefreshesAloneOnGpuKeys) {
  // 3x3 subdomains on one device: a clean step is skipped whole, one dirty
  // subdomain refreshes alone (the step is then not skipped), and the
  // partially refreshed state matches a cold operator on the current
  // values. Run for the dense and the sparsity-aware explicit keys and an
  // implicit one.
  for (const char* key : {"expl legacy", "expl legacy sp", "impl legacy"}) {
    FetiProblem p = heat2d_problem(9, 3);
    const long nsub = static_cast<long>(p.num_subdomains());
    ASSERT_EQ(nsub, 9);
    DualOpConfig cfg = recommend_config(key, 2, p.max_subdomain_dofs());
    auto op = DualOperatorRegistry::instance().create(key, p, cfg,
                                                      &test_context());
    op->prepare();
    op->update_values();
    const long cols1 = op->solve_columns();

    op->update_values();
    CacheStats s2 = op->cache_stats();
    EXPECT_EQ(s2.steps, 2) << key;
    EXPECT_EQ(s2.skipped_steps, 1) << key;
    EXPECT_EQ(s2.refreshed_subdomains, nsub) << key;
    EXPECT_EQ(s2.skipped_subdomains, nsub) << key;
    EXPECT_EQ(op->solve_columns(), cols1) << key;

    decomp::scale_subdomain(p, 4, 2.0);
    op->update_values();
    CacheStats s3 = op->cache_stats();
    EXPECT_EQ(s3.steps, 3) << key;
    EXPECT_EQ(s3.skipped_steps, 1) << key;
    EXPECT_EQ(s3.refreshed_subdomains, nsub + 1) << key;
    EXPECT_EQ(s3.skipped_subdomains, 2 * nsub - 1) << key;

    const std::vector<double> x = probe_vector(p.num_lambdas, 13);
    std::vector<double> y(x.size(), 0.0), y_ref(x.size(), 0.0);
    op->apply(x.data(), y.data());
    auto cold = DualOperatorRegistry::instance().create(key, p, cfg,
                                                        &test_context());
    cold->prepare();
    cold->update_values();
    cold->apply(x.data(), y_ref.data());
    const double scale = std::max(1.0, max_abs(y_ref));
    for (std::size_t i = 0; i < y.size(); ++i)
      EXPECT_NEAR(y[i], y_ref[i], 1e-10 * scale) << "entry " << i << " " << key;
  }
}

TEST(TimestepCache, SpDirtyRefreshSolvesOnlyTheDirtyBoundaryPanel) {
  // The solve-column counter exposes exactly how much K⁻¹ panel work each
  // refresh performed: step 1 solves the summed boundary widths Σnb, a
  // clean step solves nothing, and a single dirty subdomain adds exactly
  // its own nb — the sp refresh reassembles only that subdomain's
  // boundary block. The refreshed state matches a cold rebuild
  // bit-for-bit on the deterministic CPU path.
  FetiProblem p = heat2d_problem(6, 2);
  long total_nb = 0;
  std::vector<long> nb(static_cast<std::size_t>(p.num_subdomains()));
  for (idx s = 0; s < p.num_subdomains(); ++s) {
    nb[static_cast<std::size_t>(s)] = decomp::boundary_dofs(p.sub[s]).count();
    total_nb += nb[static_cast<std::size_t>(s)];
  }

  for (const char* key : {"expl mkl sp", "expl cholmod sp"}) {
    DualOpConfig cfg;
    cfg.key = key;
    auto op = make_dual_operator(p, cfg);
    op->prepare();
    op->update_values();
    EXPECT_EQ(op->solve_columns(), total_nb) << key;

    op->update_values();  // clean: zero extra columns
    EXPECT_EQ(op->solve_columns(), total_nb) << key;

    decomp::scale_subdomain(p, 1, 1.75);
    op->update_values();
    EXPECT_EQ(op->solve_columns(), total_nb + nb[1]) << key;

    auto cold = make_dual_operator(p, cfg);
    cold->prepare();
    cold->update_values();
    const std::vector<double> x = probe_vector(p.num_lambdas, 67);
    std::vector<double> y(x.size(), 0.0), y_cold(x.size(), 0.0);
    op->apply(x.data(), y.data());
    cold->apply(x.data(), y_cold.data());
    for (std::size_t i = 0; i < y.size(); ++i)
      EXPECT_EQ(y[i], y_cold[i]) << "entry " << i << " " << key;
    decomp::scale_subdomain(p, 1, 1.0 / 1.75);  // restore for the next key
  }
}

// ---------------------------------------------------------------------------
// Tracking modes: hash fallback vs explicit versioning
// ---------------------------------------------------------------------------

TEST(TimestepCache, HashFallbackDetectsInPlaceMutation) {
  // Default (Hashed) tracking: mutating K_reg in place without any mark is
  // detected by the content hash and refreshes exactly the mutated
  // subdomain.
  FetiProblem p = heat2d_problem(6, 2);
  ASSERT_EQ(p.tracking, decomp::ValueTracking::Hashed);
  DualOpConfig cfg;
  cfg.key = "expl mkl";
  auto op = make_dual_operator(p, cfg);
  op->prepare();
  op->update_values();

  for (auto& v : p.sub[2].k_reg.vals()) v *= 2.0;  // no mark on purpose
  op->update_values();
  CacheStats s = op->cache_stats();
  EXPECT_EQ(s.refreshed_subdomains,
            static_cast<long>(p.num_subdomains()) + 1);
  EXPECT_EQ(s.skipped_steps, 0);

  // A value rewritten to the identical bits is a legitimate cache hit.
  p.sub[2].k_reg.vals()[0] = p.sub[2].k_reg.vals()[0] * 1.0;
  op->update_values();
  EXPECT_EQ(op->cache_stats().skipped_steps, 1);
}

TEST(TimestepCache, VersionedTrackingTrustsMarksAlone) {
  // Versioned tracking (the zero-overhead opt-in): marks are honored, and
  // an unmarked in-place mutation is — by contract — NOT picked up until
  // the subdomain is marked.
  FetiProblem p = heat2d_problem(6, 2);
  p.tracking = decomp::ValueTracking::Versioned;
  DualOpConfig cfg;
  cfg.key = "impl mkl";
  auto op = make_dual_operator(p, cfg);
  op->prepare();
  op->update_values();
  const long nsub = static_cast<long>(p.num_subdomains());

  // Unmarked in-place mutation: skipped (documented contract).
  for (auto& v : p.sub[0].k_reg.vals()) v *= 2.0;
  op->update_values();
  EXPECT_EQ(op->cache_stats().skipped_steps, 1);
  EXPECT_EQ(op->cache_stats().refreshed_subdomains, nsub);

  // The mark makes the next step refresh exactly that subdomain.
  p.mark_values_changed(0);
  op->update_values();
  EXPECT_EQ(op->cache_stats().refreshed_subdomains, nsub + 1);

  // Whole-problem mark refreshes everything.
  p.mark_values_changed();
  op->update_values();
  EXPECT_EQ(op->cache_stats().refreshed_subdomains, 2 * nsub + 1);
}

// ---------------------------------------------------------------------------
// Solver wiring
// ---------------------------------------------------------------------------

TEST(TimestepCache, SolveStepReportsCachedSteps) {
  // Three steps: full, cached, full again after a material change — the
  // per-step result carries the cache outcome, and the cached step still
  // converges to the same solution (K unchanged means the same system).
  FetiProblem p = heat2d_problem(6, 2);
  FetiSolverOptions opts;
  opts.dualop = recommend_config("expl legacy", 2, p.max_subdomain_dofs());
  opts.pcpg.rel_tolerance = 1e-10;
  FetiSolver solver(p, opts, &test_context());
  solver.prepare();

  FetiStepResult step1 = solver.solve_step();
  ASSERT_TRUE(step1.converged);
  EXPECT_FALSE(step1.values_cached);
  EXPECT_EQ(step1.refreshed_subdomains, p.num_subdomains());
  EXPECT_EQ(step1.skipped_subdomains, 0);

  FetiStepResult step2 = solver.solve_step();
  ASSERT_TRUE(step2.converged);
  EXPECT_TRUE(step2.values_cached);
  EXPECT_EQ(step2.refreshed_subdomains, 0);
  EXPECT_EQ(step2.skipped_subdomains, p.num_subdomains());
  for (std::size_t i = 0; i < step1.u.size(); ++i)
    EXPECT_NEAR(step2.u[i], step1.u[i], 1e-9);

  decomp::scale_step(p, 3.0);
  FetiStepResult step3 = solver.solve_step();
  ASSERT_TRUE(step3.converged);
  EXPECT_FALSE(step3.values_cached);
  EXPECT_EQ(step3.refreshed_subdomains, p.num_subdomains());
  // scale_step scales f along with K, so the solution is step-invariant.
  for (std::size_t i = 0; i < step1.u.size(); ++i)
    EXPECT_NEAR(step3.u[i], step1.u[i], 1e-7);
}

TEST(TimestepCache, SolveStepManySharesOnePreprocessing) {
  FetiProblem p = heat2d_problem(6, 2);
  FetiSolverOptions opts;
  opts.dualop = recommend_config("impl mkl", 2, p.max_subdomain_dofs());
  opts.pcpg.rel_tolerance = 1e-10;
  FetiSolver solver(p, opts, nullptr);
  solver.prepare();
  (void)solver.solve_step();

  std::vector<double> d(static_cast<std::size_t>(p.num_lambdas));
  solver.dual_operator().compute_d(d.data());
  std::vector<double> d2 = d;
  for (auto& v : d2) v *= 2.0;
  const std::vector<FetiStepResult> block = solver.solve_step_many({d, d2});
  ASSERT_EQ(block.size(), 2u);
  for (const auto& r : block) {
    EXPECT_TRUE(r.values_cached);
    EXPECT_EQ(r.refreshed_subdomains, 0);
    EXPECT_EQ(r.skipped_subdomains, p.num_subdomains());
  }
}

// ---------------------------------------------------------------------------
// Problem-model helpers
// ---------------------------------------------------------------------------

TEST(TimestepCache, MarkAndScaleHelpersBumpVersions) {
  FetiProblem p = heat2d_problem(4, 2);
  const std::uint64_t v0 = p.sub[0].values_version;
  const std::uint64_t v1 = p.sub[1].values_version;
  p.mark_values_changed(0);
  EXPECT_EQ(p.sub[0].values_version, v0 + 1);
  EXPECT_EQ(p.sub[1].values_version, v1);
  p.mark_values_changed();
  EXPECT_EQ(p.sub[0].values_version, v0 + 2);
  EXPECT_EQ(p.sub[1].values_version, v1 + 1);

  const double k0 = p.sub[0].k_reg.vals()[0];
  const double f1 = p.sub[1].sys.f.empty() ? 0.0 : p.sub[1].sys.f[0];
  decomp::scale_subdomain(p, 0, 2.0);
  EXPECT_DOUBLE_EQ(p.sub[0].k_reg.vals()[0], 2.0 * k0);
  if (!p.sub[1].sys.f.empty()) {
    EXPECT_DOUBLE_EQ(p.sub[1].sys.f[0], f1);  // untouched subdomain
  }
  EXPECT_EQ(p.sub[0].values_version, v0 + 3);
  EXPECT_THROW(p.mark_values_changed(-1), std::invalid_argument);
  EXPECT_THROW(p.mark_values_changed(p.num_subdomains()),
               std::invalid_argument);
  EXPECT_THROW(decomp::scale_subdomain(p, -1, 2.0), std::invalid_argument);
  EXPECT_THROW(decomp::scale_subdomain(p, p.num_subdomains(), 2.0),
               std::invalid_argument);
  EXPECT_THROW(decomp::scale_subdomain(p, 0, 0.0), std::invalid_argument);

  // The content hash tracks the value bytes.
  const std::uint64_t h = decomp::k_values_hash(p.sub[0]);
  EXPECT_EQ(decomp::k_values_hash(p.sub[0]), h);
  p.sub[0].k_reg.vals()[0] *= 1.5;
  EXPECT_NE(decomp::k_values_hash(p.sub[0]), h);
}

}  // namespace
}  // namespace feti::core
