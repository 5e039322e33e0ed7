// Service-layer throughput/latency harness — the "server never solves one
// problem at a time" scenario the ROADMAP's solver-as-a-service item calls
// for. Three phases:
//
//  1. Wave throughput: N compatible jobs (same fingerprint, distinct
//     load-multiplier right-hand sides — scaled copies of the physical d,
//     the span the dual system is actually consistent over) submitted as a
//     burst through the batching service vs one-at-a-time serial
//     submission. Hard gate: batched-wave jobs/sec beats serial jobs/sec —
//     the whole point of packing compatible solves into solve_step_many
//     waves.
//  2. Pooled resubmission: a repeated fingerprint with unchanged K must be
//     a pool hit that skips update_values() entirely. Hard gate:
//     pool_hit && values_cached && refreshed_subdomains == 0; a dirty
//     resubmission must refresh again.
//  3. Poisson arrival mix: heterogeneous jobs (two problem sizes, explicit
//     fp64/fp32 and implicit CPU keys, physical and custom load cases)
//     arriving with exponential inter-arrival times; reports jobs/sec and
//     p50/p99 queue/latency percentiles plus pool and wave statistics
//     (advisory — load-dependent, no hard gate).
//
// `--quick` runs the CI smoke configuration: smaller problems and counts,
// same hard gates.

#include <chrono>
#include <cmath>
#include <cstring>
#include <thread>

#include "common.hpp"
#include "service/solver_service.hpp"
#include "util/rng.hpp"

using namespace feti;
using namespace feti::bench;

namespace {

/// The physical dual right-hand side d of eq. (7), computed once per
/// problem through a throwaway CPU operator. Job mixes scale it per tenant
/// (load multipliers) — an arbitrary random vector is NOT a valid dual RHS
/// (F is singular beyond the coarse space, so PCPG would stall on the
/// inconsistent component).
std::vector<double> physical_d(const decomp::FetiProblem& p) {
  auto cfg = core::recommend_config("impl mkl", 2, p.max_subdomain_dofs());
  auto op = core::make_dual_operator(p, cfg, nullptr);
  op->prepare();
  op->update_values();
  std::vector<double> d(static_cast<std::size_t>(p.num_lambdas));
  op->compute_d(d.data());
  return d;
}

std::vector<double> scaled(const std::vector<double>& d, double factor) {
  std::vector<double> v = d;
  for (auto& x : v) x *= factor;
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;

  const int burst_jobs = quick ? 12 : 32;
  const int poisson_jobs = quick ? 16 : 64;
  BuiltProblem small = build_2d(fem::Physics::HeatTransfer, quick ? 6 : 8,
                                mesh::ElementOrder::Linear);
  BuiltProblem big = build_2d(fem::Physics::HeatTransfer, quick ? 8 : 14,
                              mesh::ElementOrder::Linear);
  std::printf("=== solver service: %d-job burst + %d-job Poisson mix "
              "(%s mode; %d/%d dofs per subdomain) ===\n",
              burst_jobs, poisson_jobs, quick ? "quick" : "full",
              small.dofs_per_subdomain, big.dofs_per_subdomain);
  const std::vector<double> d_small = physical_d(small.problem);
  const std::vector<double> d_big = physical_d(big.problem);

  auto make_job = [&](const BuiltProblem& bp, std::string key,
                      std::vector<double> rhs) {
    service::SolveJob job;
    job.problem = &bp.problem;
    job.key = std::move(key);
    job.pcpg.rel_tolerance = 1e-8;
    job.pcpg.max_iterations = 2000;
    job.dual_rhs = std::move(rhs);
    return job;
  };

  // -- Phase 1: batched waves vs serial one-at-a-time submission ----------
  // Both services run one shard (the whole device) so the comparison
  // isolates wave packing itself, not device splitting.
  double serial_jps = 0.0, batched_jps = 0.0;
  {
    service::ServiceOptions serial_opts;
    serial_opts.num_shards = 1;
    serial_opts.batch_waves = false;
    service::SolverService serial(serial_opts);
    serial.submit(make_job(small, "expl legacy", {})).get();  // warm the pool
    Timer t;
    for (int j = 0; j < burst_jobs; ++j)
      serial
          .submit(make_job(small, "expl legacy",
                           scaled(d_small, 1.0 + 0.1 * j)))
          .get();
    serial_jps = burst_jobs / t.seconds();
  }
  int max_wave_seen = 1;
  double batched_h2d_mb = 0.0, batched_d2h_mb = 0.0;
  {
    service::ServiceOptions opts;
    opts.num_shards = 1;
    opts.max_wave = 8;
    service::SolverService batched(opts);
    batched.submit(make_job(small, "expl legacy", {})).get();  // warm the pool
    std::vector<service::SolveJob> jobs;
    for (int j = 0; j < burst_jobs; ++j)
      jobs.push_back(
          make_job(small, "expl legacy", scaled(d_small, 1.0 + 0.1 * j)));
    Timer t;
    std::vector<std::future<service::JobResult>> futures =
        batched.submit(std::move(jobs));
    for (auto& f : futures) {
      service::JobResult r = f.get();
      max_wave_seen = std::max(max_wave_seen, r.wave_size);
      // Every job of a wave reports the wave-level TransferCounters delta
      // (see FetiStepResult::pcpg_h2d_bytes), so the per-job share sums to
      // the burst's true PCIe total without double counting.
      batched_h2d_mb +=
          static_cast<double>(r.pcpg_h2d_bytes) / r.wave_size / 1e6;
      batched_d2h_mb +=
          static_cast<double>(r.pcpg_d2h_bytes) / r.wave_size / 1e6;
    }
    batched_jps = burst_jobs / t.seconds();
  }
  Table burst({"submission", "jobs", "jobs/sec", "max wave", "pcpg H2D [MB]",
               "pcpg D2H [MB]"});
  burst.add_row({"serial", std::to_string(burst_jobs),
                 Table::num(serial_jps, 1), "1", "-", "-"});
  burst.add_row({"batched waves", std::to_string(burst_jobs),
                 Table::num(batched_jps, 1), std::to_string(max_wave_seen),
                 Table::num(batched_h2d_mb, 2), Table::num(batched_d2h_mb, 2)});
  burst.print();
  const bool batched_beats_serial = batched_jps > serial_jps;
  const bool waves_packed = max_wave_seen > 1;

  // -- Phase 2: pooled resubmission skips update_values -------------------
  bool resubmit_cached = false, dirty_refreshes = false, cold_was_miss = false;
  {
    service::ServiceOptions opts;
    opts.num_shards = 2;
    service::SolverService svc(opts);
    service::JobResult cold =
        svc.submit(make_job(big, "expl legacy", {})).get();
    cold_was_miss = !cold.pool_hit;
    service::JobResult warm =
        svc.submit(make_job(big, "expl legacy", {})).get();
    resubmit_cached = warm.pool_hit && warm.values_cached &&
                      warm.refreshed_subdomains == 0;
    decomp::scale_step(const_cast<decomp::FetiProblem&>(big.problem), 1.05);
    service::JobResult dirty =
        svc.submit(make_job(big, "expl legacy", {})).get();
    dirty_refreshes = dirty.pool_hit && !dirty.values_cached &&
                      dirty.refreshed_subdomains ==
                          big.problem.num_subdomains();
    std::printf("\nresubmission: cold miss=%d, warm hit skipped "
                "update_values=%d (refreshed %ld), dirty hit refreshed all="
                "%d\n",
                cold_was_miss ? 1 : 0, resubmit_cached ? 1 : 0,
                warm.refreshed_subdomains, dirty_refreshes ? 1 : 0);
  }

  // -- Phase 3: Poisson arrival mix ---------------------------------------
  {
    service::ServiceOptions opts;
    opts.num_shards = 2;
    opts.pool_budget_bytes = 256ull << 20;
    service::SolverService svc(opts);
    Rng rng(7);
    const double mean_interarrival_s = quick ? 0.002 : 0.004;
    const char* keys[] = {"expl legacy", "expl legacy f32", "impl mkl"};
    std::vector<std::future<service::JobResult>> futures;
    Timer t;
    for (int j = 0; j < poisson_jobs; ++j) {
      const bool use_big = rng.raw() % 3 == 0;
      const BuiltProblem& bp = use_big ? big : small;
      std::vector<double> rhs;
      if (rng.raw() % 2 == 0)  // else empty = the physical d
        rhs = scaled(use_big ? d_big : d_small, rng.uniform(0.5, 2.0));
      service::SolveJob job = make_job(bp, keys[rng.raw() % 3], std::move(rhs));
      job.tenant = static_cast<std::uint64_t>(j % 4);
      futures.push_back(svc.submit(std::move(job)));
      const double gap = -mean_interarrival_s * std::log(1.0 - rng.uniform());
      std::this_thread::sleep_for(std::chrono::duration<double>(gap));
    }
    std::vector<double> queue_s, latency_s, pcpg_s;
    long batched_count = 0, total_iterations = 0;
    int min_iterations = 0, max_iterations = 0;
    double mix_h2d_mb = 0.0, mix_d2h_mb = 0.0;
    for (auto& f : futures) {
      service::JobResult r = f.get();
      queue_s.push_back(r.queue_seconds);
      latency_s.push_back(r.latency_seconds);
      pcpg_s.push_back(r.pcpg_seconds);
      mix_h2d_mb += static_cast<double>(r.pcpg_h2d_bytes) / r.wave_size / 1e6;
      mix_d2h_mb += static_cast<double>(r.pcpg_d2h_bytes) / r.wave_size / 1e6;
      if (r.wave_size > 1) ++batched_count;
      total_iterations += r.pcpg_iterations;
      min_iterations = queue_s.size() == 1
                           ? r.pcpg_iterations
                           : std::min(min_iterations, r.pcpg_iterations);
      max_iterations = std::max(max_iterations, r.pcpg_iterations);
    }
    const double elapsed = t.seconds();
    const LatencySummary lat = summarize_latencies(latency_s);
    const LatencySummary que = summarize_latencies(queue_s);
    const LatencySummary pcg = summarize_latencies(pcpg_s);
    const service::PoolStats ps = svc.pool_stats();
    const service::ServiceStats ss = svc.stats();

    std::printf("\n");
    Table mix({"metric", "value"});
    mix.add_row({"jobs/sec", Table::num(poisson_jobs / elapsed, 1)});
    mix.add_row({"latency p50/p99 [ms]", Table::num(lat.p50 * 1e3, 2) + " / " +
                                             Table::num(lat.p99 * 1e3, 2)});
    mix.add_row({"queue wait p50/p99 [ms]",
                 Table::num(que.p50 * 1e3, 2) + " / " +
                     Table::num(que.p99 * 1e3, 2)});
    mix.add_row({"pcpg p50/p99 [ms]", Table::num(pcg.p50 * 1e3, 2) + " / " +
                                          Table::num(pcg.p99 * 1e3, 2)});
    mix.add_row({"jobs sharing a wave", std::to_string(batched_count) + "/" +
                                            std::to_string(poisson_jobs)});
    mix.add_row({"pcpg iters min/mean/max",
                 std::to_string(min_iterations) + "/" +
                     Table::num(static_cast<double>(total_iterations) /
                                    poisson_jobs, 1) +
                     "/" + std::to_string(max_iterations)});
    mix.add_row({"waves", std::to_string(ss.waves)});
    mix.add_row({"pool hits/misses/evictions",
                 std::to_string(ps.hits) + "/" + std::to_string(ps.misses) +
                     "/" + std::to_string(ps.evictions)});
    mix.add_row({"pool resident [MB]",
                 Table::num(static_cast<double>(ps.resident_bytes) / 1e6, 1)});
    mix.add_row({"pcpg H2D/D2H [MB]", Table::num(mix_h2d_mb, 2) + " / " +
                                          Table::num(mix_d2h_mb, 2)});
    mix.print();
    std::printf("\nCSV:\n");
    mix.print_csv(std::cout);
  }

  shape_check("batched-wave submission beats serial one-job-at-a-time "
              "throughput",
              batched_beats_serial);
  shape_check("burst of compatible jobs actually shared waves", waves_packed);
  shape_check("repeated fingerprint is a pool hit that skips update_values "
              "(values_cached, zero refreshed subdomains)",
              cold_was_miss && resubmit_cached);
  shape_check("dirty resubmission refreshes every subdomain again",
              dirty_refreshes);
  return (batched_beats_serial && waves_packed && cold_was_miss &&
          resubmit_cached && dirty_refreshes)
             ? 0
             : 1;
}
