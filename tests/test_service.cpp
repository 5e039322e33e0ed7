// Service-layer tests: the operator pool's checkout discipline
// (hit/miss/eviction, exclusive same-fingerprint checkout, precision-keyed
// entries), the SolverService job lifecycle (correctness of concurrent
// multi-tenant mixes against solo solves, wave packing, two-tenant cache
// isolation), the job fingerprint, the pool-pressure autotune hook, and
// the concurrent-reader safety of the DualOperator counters.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <thread>

#include "decomp/feti_problem.hpp"
#include "service/solver_service.hpp"
#include "test_helpers.hpp"

namespace feti {
namespace {

using core::FetiSolver;
using core::FetiSolverOptions;
using core::FetiStepResult;
using decomp::FetiProblem;
using service::JobResult;
using service::OperatorPool;
using service::PoolStats;
using service::ServiceOptions;
using service::SolveJob;
using service::SolverService;

FetiProblem heat2d_problem(idx cells = 6, idx splits = 2) {
  mesh::Mesh m = mesh::make_grid_2d(cells, cells, mesh::ElementOrder::Linear);
  auto dec = mesh::decompose_2d(m, cells, cells, splits, splits);
  return decomp::build_feti_problem(dec, fem::Physics::HeatTransfer);
}

SolveJob job_for(const FetiProblem& p, std::string key,
                 std::vector<double> rhs = {}) {
  SolveJob job;
  job.problem = &p;
  job.key = std::move(key);
  job.pcpg.rel_tolerance = 1e-10;
  job.dual_rhs = std::move(rhs);
  return job;
}

/// Solo reference: one FetiSolver on its own context, physical d. The
/// fp32 storage tier iterates with a matching looser tolerance (1e-10 can
/// break down inside fp32 round-off).
FetiStepResult solo_solve(const FetiProblem& p, const std::string& key,
                          double rel_tolerance = 1e-10) {
  gpu::ExecutionContext ctx{gpu::DeviceConfig::from_env()};
  FetiSolverOptions o;
  o.dualop = core::recommend_config(key, 2, p.max_subdomain_dofs());
  o.pcpg.rel_tolerance = rel_tolerance;
  FetiSolver solver(p, o, &ctx);
  solver.prepare();
  return solver.solve_step();
}

void expect_u_near(const std::vector<double>& u, const std::vector<double>& ref,
                   double tol, const std::string& what) {
  ASSERT_EQ(u.size(), ref.size()) << what;
  double scale = 0.0;
  for (double v : ref) scale = std::max(scale, std::fabs(v));
  for (std::size_t i = 0; i < u.size(); ++i)
    ASSERT_NEAR(u[i], ref[i], tol * std::max(1.0, scale)) << what << " [" << i
                                                          << "]";
}

// ---------------------------------------------------------------- fingerprint

TEST(JobFingerprint, KeyAndProblemIdentityBothEnterTheHash) {
  FetiProblem a = heat2d_problem();
  FetiProblem b = heat2d_problem();
  // Deterministic for one (problem, key) pairing.
  EXPECT_EQ(service::job_fingerprint(a, "expl legacy"),
            service::job_fingerprint(a, "expl legacy"));
  // The resolved key is an axis of the pooled entry: the fp32 storage tier
  // of the same problem is a distinct entry, never a hit on the fp64 one.
  EXPECT_NE(service::job_fingerprint(a, "expl legacy"),
            service::job_fingerprint(a, "expl legacy f32"));
  // Distinct problem instances (even structurally identical ones) are
  // distinct tenants: the pooled operator holds references into its
  // problem, so instance identity is the correct notion.
  EXPECT_NE(service::job_fingerprint(a, "expl legacy"),
            service::job_fingerprint(b, "expl legacy"));
}

// --------------------------------------------------------------- operator pool

OperatorPool::SolverFactory factory_for(const FetiProblem& p,
                                        const std::string& key) {
  return [&p, key](gpu::ExecutionContext& ctx) {
    FetiSolverOptions o;
    o.dualop = core::recommend_config(key, 2, p.max_subdomain_dofs());
    return std::make_unique<FetiSolver>(p, o, &ctx);
  };
}

TEST(OperatorPool, MissBuildsHitReusesAndCountersTrack) {
  FetiProblem p = heat2d_problem();
  gpu::DevicePool devices(2, gpu::DevicePool::split_config(
                                 gpu::DeviceConfig::from_env(), 2));
  OperatorPool pool(devices, /*budget_bytes=*/0);
  const std::uint64_t fp = service::job_fingerprint(p, "expl legacy");

  OperatorPool::Checkout c1 = pool.checkout(fp, factory_for(p, "expl legacy"));
  EXPECT_FALSE(c1.hit);
  EXPECT_TRUE(c1.solver->prepared());
  FetiSolver* first = c1.solver;
  pool.give_back(fp);

  OperatorPool::Checkout c2 = pool.checkout(fp, factory_for(p, "expl legacy"));
  EXPECT_TRUE(c2.hit);
  EXPECT_EQ(c2.solver, first);  // the same prepared instance
  EXPECT_EQ(c2.shard, c1.shard);
  pool.give_back(fp);

  const PoolStats s = pool.stats();
  EXPECT_EQ(s.hits, 1);
  EXPECT_EQ(s.misses, 1);
  EXPECT_EQ(s.evictions, 0);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_GT(s.resident_bytes, 0u);
}

TEST(OperatorPool, LruEvictionUnderBudgetDropsIdleEntries) {
  FetiProblem p = heat2d_problem();
  gpu::DevicePool devices(1, gpu::DeviceConfig::from_env());
  // Budget sized for roughly one entry: measure the first entry, then cap
  // the pool at 1.5x its bytes so a second fingerprint must evict it.
  OperatorPool probe(devices, 0);
  // Two equal-footprint entries: same problem, same precision, different
  // factorization backend (same F̃ blocks, distinct fingerprints).
  const std::uint64_t fp_a = service::job_fingerprint(p, "expl legacy");
  const std::uint64_t fp_b = service::job_fingerprint(p, "expl mkl");
  (void)probe.checkout(fp_a, factory_for(p, "expl legacy"));
  probe.give_back(fp_a);
  const std::size_t one_entry = probe.stats().resident_bytes;
  ASSERT_GT(one_entry, 0u);

  OperatorPool pool(devices, one_entry + one_entry / 2);
  (void)pool.checkout(fp_a, factory_for(p, "expl legacy"));
  pool.give_back(fp_a);
  EXPECT_EQ(pool.stats().entries, 1u);
  // The second entry pushes the pool over budget and evicts the idle
  // first one (LRU).
  (void)pool.checkout(fp_b, factory_for(p, "expl mkl"));
  pool.give_back(fp_b);
  const PoolStats s = pool.stats();
  EXPECT_EQ(s.evictions, 1);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_LE(s.resident_bytes, s.budget_bytes);
  // The evicted fingerprint is a miss again.
  (void)pool.checkout(fp_a, factory_for(p, "expl legacy"));
  pool.give_back(fp_a);
  EXPECT_EQ(pool.stats().misses, 3);
}

TEST(OperatorPool, SameFingerprintCheckoutIsExclusive) {
  FetiProblem p = heat2d_problem();
  gpu::DevicePool devices(1, gpu::DeviceConfig::from_env());
  OperatorPool pool(devices, 0);
  const std::uint64_t fp = service::job_fingerprint(p, "impl mkl");

  OperatorPool::Checkout c1 = pool.checkout(fp, factory_for(p, "impl mkl"));
  std::atomic<bool> second_got_it{false};
  std::thread waiter([&] {
    OperatorPool::Checkout c2 = pool.checkout(fp, factory_for(p, "impl mkl"));
    second_got_it.store(true);
    EXPECT_TRUE(c2.hit);
    pool.give_back(fp);
  });
  // The second checkout must block while we hold the entry.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(second_got_it.load());
  pool.give_back(fp);
  waiter.join();
  EXPECT_TRUE(second_got_it.load());
}

// --------------------------------------------------------------- solver service

TEST(SolverService, SingleJobMatchesSoloSolveAndReportsMetadata) {
  FetiProblem p = heat2d_problem();
  const FetiStepResult ref = solo_solve(p, "expl legacy");
  ASSERT_TRUE(ref.converged);

  SolverService svc;
  JobResult r = svc.submit(job_for(p, "expl legacy")).get();
  EXPECT_TRUE(r.converged);
  EXPECT_FALSE(r.pool_hit);
  EXPECT_EQ(r.key, "expl legacy");
  EXPECT_EQ(r.wave_size, 1);
  EXPECT_GT(r.job_id, 0u);
  EXPECT_GE(r.latency_seconds, r.solve_seconds);
  EXPECT_GE(r.queue_seconds, 0.0);
  // pcpg_seconds (satellite: per-phase wall clock) is a real sub-interval
  // of the step.
  EXPECT_GT(r.pcpg_seconds, 0.0);
  EXPECT_LE(r.pcpg_seconds, r.step_seconds);
  EXPECT_GE(r.apply_seconds, 0.0);
  expect_u_near(r.u, ref.u, 1e-9, "service vs solo");

  const service::ServiceStats st = svc.stats();
  EXPECT_EQ(st.submitted, 1);
  EXPECT_EQ(st.completed, 1);
  EXPECT_EQ(st.waves, 1);
}

TEST(SolverService, MixedPrecisionTenantMixMatchesSoloSolves) {
  // N tenants × {fp64 GPU, fp32 GPU, CPU} concurrently through one
  // service; every result must match its solo solve in the right tolerance
  // tier (fp64 round-off vs the fp32 storage tier of the registry tests).
  FetiProblem pa = heat2d_problem(6);
  FetiProblem pb = heat2d_problem(8);
  struct Case {
    const FetiProblem* p;
    const char* key;
    double tol;
    double rel_tolerance;
  };
  // The fp32 cases iterate at 1e-5 — the tier above the fp32 operator's
  // noise floor the registry tests established (pushing CG below the
  // operator precision breaks down).
  const Case cases[] = {
      {&pa, "expl legacy", 1e-9, 1e-10},
      {&pb, "expl legacy f32", 2e-5, 1e-5},
      {&pa, "impl mkl", 1e-9, 1e-10},
      {&pb, "expl legacy", 1e-9, 1e-10},
      {&pa, "expl legacy f32", 2e-5, 1e-5},
      {&pb, "impl mkl", 1e-9, 1e-10},
  };
  std::vector<FetiStepResult> refs;
  for (const Case& c : cases)
    refs.push_back(solo_solve(*c.p, c.key, c.rel_tolerance));

  ServiceOptions opts;
  opts.num_shards = 2;
  SolverService svc(opts);
  std::vector<SolveJob> jobs;
  for (std::size_t i = 0; i < std::size(cases); ++i) {
    SolveJob j = job_for(*cases[i].p, cases[i].key);
    j.pcpg.rel_tolerance = cases[i].rel_tolerance;
    j.tenant = i;
    jobs.push_back(std::move(j));
  }
  std::vector<std::future<JobResult>> futures = svc.submit(std::move(jobs));
  for (std::size_t i = 0; i < futures.size(); ++i) {
    JobResult r = futures[i].get();
    ASSERT_TRUE(r.converged) << cases[i].key;
    EXPECT_EQ(r.tenant, i);
    EXPECT_EQ(r.key, cases[i].key);
    expect_u_near(r.u, refs[i].u, cases[i].tol, cases[i].key);
  }
  // All six (problem, key) pairings are distinct fingerprints — each one
  // prepared exactly once.
  const PoolStats ps = svc.pool_stats();
  EXPECT_EQ(ps.misses, 6);
  EXPECT_EQ(svc.stats().completed, 6);
}

TEST(SolverService, CompatibleJobsPackIntoOneWave) {
  FetiProblem p = heat2d_problem();
  ServiceOptions opts;
  opts.num_shards = 1;  // one worker: the burst is queued when it drains
  opts.max_wave = 4;
  SolverService svc(opts);
  // Warm the pool so the wave isn't serialized behind preparation.
  svc.submit(job_for(p, "expl legacy")).get();

  std::vector<SolveJob> jobs;
  for (int j = 0; j < 6; ++j) jobs.push_back(job_for(p, "expl legacy"));
  std::vector<std::future<JobResult>> futures = svc.submit(std::move(jobs));
  int max_wave = 0;
  for (auto& f : futures) {
    JobResult r = f.get();
    EXPECT_TRUE(r.converged);
    EXPECT_TRUE(r.pool_hit);
    EXPECT_LE(r.wave_size, opts.max_wave);
    max_wave = std::max(max_wave, r.wave_size);
  }
  EXPECT_GT(max_wave, 1);
  EXPECT_GT(svc.stats().batched_jobs, 0);
  EXPECT_LT(svc.stats().waves, 7);  // fewer solve calls than jobs
}

TEST(SolverService, IncompatiblePcpgOptionsNeverShareAWave) {
  FetiProblem p = heat2d_problem();
  ServiceOptions opts;
  opts.num_shards = 1;
  SolverService svc(opts);
  svc.submit(job_for(p, "expl legacy")).get();

  std::vector<SolveJob> jobs;
  for (int j = 0; j < 4; ++j) {
    SolveJob job = job_for(p, "expl legacy");
    job.pcpg.rel_tolerance = j % 2 == 0 ? 1e-10 : 1e-6;
    jobs.push_back(std::move(job));
  }
  std::vector<std::future<JobResult>> futures = svc.submit(std::move(jobs));
  for (std::size_t j = 0; j < futures.size(); ++j) {
    JobResult r = futures[j].get();
    EXPECT_TRUE(r.converged);
    EXPECT_LE(r.wave_size, 2);  // only same-tolerance jobs may pack
    // The wave's PCPG honored each job's own options: the loose-tolerance
    // jobs stop earlier.
    if (j % 2 == 1) {
      EXPECT_LE(r.rel_residual, 1e-6);
    }
  }
}

TEST(SolverService, TwoTenantDirtyStepNeverRefreshesTheOtherPooledOperator) {
  // Tenant isolation across the pool: A's matrix change must refresh A's
  // pooled operator only — B's next job still reports the cached skip.
  FetiProblem pa = heat2d_problem();
  FetiProblem pb = heat2d_problem(8);
  SolverService svc;
  JobResult a0 = svc.submit(job_for(pa, "expl legacy")).get();
  JobResult b0 = svc.submit(job_for(pb, "expl legacy")).get();
  ASSERT_FALSE(a0.pool_hit);
  ASSERT_FALSE(b0.pool_hit);

  decomp::scale_step(pa, 1.25);  // only tenant A's values change
  JobResult a1 = svc.submit(job_for(pa, "expl legacy")).get();
  JobResult b1 = svc.submit(job_for(pb, "expl legacy")).get();
  EXPECT_TRUE(a1.pool_hit);
  EXPECT_FALSE(a1.values_cached);
  EXPECT_EQ(a1.refreshed_subdomains, pa.num_subdomains());
  EXPECT_TRUE(b1.pool_hit);
  EXPECT_TRUE(b1.values_cached);
  EXPECT_EQ(b1.refreshed_subdomains, 0);
  EXPECT_TRUE(a1.converged);
  EXPECT_TRUE(b1.converged);
}

TEST(SolverService, AutotunedKeyDemotesToF32UnderPoolPressure) {
  FetiProblem p = heat2d_problem();
  SolveJob job;
  job.problem = &p;  // empty key = autotune
  idx max_lambdas = 0;
  for (const auto& s : p.sub)
    max_lambdas = std::max(max_lambdas, s.num_local_lambdas());
  const std::size_t blocks = static_cast<std::size_t>(p.num_subdomains()) *
                             static_cast<std::size_t>(max_lambdas) *
                             static_cast<std::size_t>(max_lambdas);

  // Roomy pool: fp64 explicit GPU assembly.
  core::DualOpConfig roomy = SolverService::plan_config(
      job, 2, /*remaining=*/blocks * 64, /*total=*/blocks * 64);
  EXPECT_EQ(roomy.axes().precision, core::Precision::F64);
  // Crowded pool (remaining budget between the fp32 and fp64 footprints):
  // the planner demotes the new entry to the fp32 storage tier.
  core::DualOpConfig tight = SolverService::plan_config(
      job, 2, /*remaining=*/blocks * sizeof(double) - 1,
      /*total=*/blocks * 64);
  EXPECT_EQ(tight.axes().precision, core::Precision::F32);
  EXPECT_NE(tight.key.find(" f32"), std::string::npos);
  // No budget configured (total == 0): never demote.
  core::DualOpConfig unlimited =
      SolverService::plan_config(job, 2, /*remaining=*/0, /*total=*/0);
  EXPECT_EQ(unlimited.axes().precision, core::Precision::F64);
}

TEST(SolverService, CustomDualRhsWaveMatchesSequentialSolves) {
  // Load-multiplier mix: scaled copies of the physical d through one wave
  // vs sequential solo solve_step_many calls.
  FetiProblem p = heat2d_problem();
  gpu::ExecutionContext ctx{gpu::DeviceConfig::from_env()};
  FetiSolverOptions o;
  o.dualop = core::recommend_config("expl legacy", 2, p.max_subdomain_dofs());
  o.pcpg.rel_tolerance = 1e-10;
  FetiSolver solo(p, o, &ctx);
  solo.prepare();
  solo.dual_operator().update_values();  // compute_d needs the factors
  std::vector<double> d(static_cast<std::size_t>(p.num_lambdas));
  solo.dual_operator().compute_d(d.data());

  std::vector<std::vector<double>> rhs;
  for (int j = 0; j < 3; ++j) {
    rhs.push_back(d);
    for (auto& v : rhs.back()) v *= 1.0 + 0.25 * j;
  }
  std::vector<FetiStepResult> refs;
  for (const auto& r : rhs)
    refs.push_back(std::move(solo.solve_step_many({r}).front()));

  ServiceOptions opts;
  opts.num_shards = 1;
  SolverService svc(opts);
  svc.submit(job_for(p, "expl legacy")).get();  // warm
  std::vector<SolveJob> jobs;
  for (const auto& r : rhs) jobs.push_back(job_for(p, "expl legacy", r));
  std::vector<std::future<JobResult>> futures = svc.submit(std::move(jobs));
  for (std::size_t j = 0; j < futures.size(); ++j) {
    JobResult r = futures[j].get();
    ASSERT_TRUE(r.converged);
    expect_u_near(r.u, refs[j].u, 1e-8, "wave rhs " + std::to_string(j));
  }
}

TEST(SolverService, DestructorDrainsQueuedJobsBeforeJoining) {
  FetiProblem p = heat2d_problem();
  std::vector<std::future<JobResult>> futures;
  {
    SolverService svc;
    for (int j = 0; j < 4; ++j)
      futures.push_back(svc.submit(job_for(p, "impl mkl")));
    // Destructor runs here with jobs possibly still queued.
  }
  for (auto& f : futures) EXPECT_TRUE(f.get().converged);
}

TEST(SolverService, BadDualRhsLengthIsRejectedAtSubmission) {
  FetiProblem p = heat2d_problem();
  SolverService svc;
  SolveJob job = job_for(p, "impl mkl");
  job.dual_rhs.assign(static_cast<std::size_t>(p.num_lambdas) + 1, 0.0);
  EXPECT_THROW(svc.submit(std::move(job)), std::invalid_argument);
}

// ------------------------------------------------- concurrent counter readers

TEST(DualOperatorCounters, SafeForConcurrentReadersDuringUpdates) {
  // Satellite: cache/fallback counters are atomics — reader threads
  // snapshot them while the owner thread drives the lifecycle. Monotone
  // non-decreasing snapshots prove the readers never see torn state.
  FetiProblem p = heat2d_problem();
  auto cfg = core::recommend_config("impl mkl", 2, p.max_subdomain_dofs());
  auto op = core::make_dual_operator(p, cfg, nullptr);
  op->prepare();
  op->update_values();

  std::atomic<bool> stop{false};
  std::atomic<bool> torn{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t)
    readers.emplace_back([&] {
      core::CacheStats prev;
      long prev_fallbacks = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const core::CacheStats s = op->cache_stats();
        const long fb = op->loop_fallback_count();
        if (s.steps < prev.steps || s.skipped_steps < prev.skipped_steps ||
            s.refreshed_subdomains < prev.refreshed_subdomains ||
            s.skipped_subdomains < prev.skipped_subdomains ||
            fb < prev_fallbacks)
          torn.store(true);
        prev = s;
        prev_fallbacks = fb;
      }
    });

  for (int step = 0; step < 40; ++step) {
    if (step % 2 == 0) decomp::scale_step(p, 1.0 + 1e-3);
    op->update_values();  // alternates refresh and skip paths
  }
  stop.store(true);
  for (auto& r : readers) r.join();
  EXPECT_FALSE(torn.load());
  const core::CacheStats s = op->cache_stats();
  EXPECT_EQ(s.steps, 41);
  EXPECT_EQ(s.skipped_steps, 20);
  EXPECT_EQ(s.refreshed_subdomains, 21L * p.num_subdomains());
}

}  // namespace
}  // namespace feti
