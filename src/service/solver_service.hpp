#pragma once

// SolverService — the concurrent multi-tenant solve-job subsystem.
//
// The service owns a gpu::DevicePool and a thread-safe queue of
// independent SolveJobs (different problems, sizes, operator keys,
// precisions, right-hand sides). Worker threads drain the queue in waves:
//
//  * compatible jobs (equal fingerprint + equal PCPG options) queued at
//    the same time are packed into one batched FetiSolver::solve_step_many
//    wave, so every PCPG iteration of the whole wave reaches the dual
//    operator as a single apply(X, Y, nrhs);
//  * prepared operators are pooled per fingerprint (OperatorPool) with LRU
//    eviction under a memory budget — a resubmitted fingerprint skips
//    prepare(), and when the tenant's K is also unchanged, the PR-4 dirty
//    tracking skips update_values() too (JobResult::values_cached);
//  * distinct fingerprints run on distinct shards of the device pool
//    (DevicePool::acquire steers new entries to the least-loaded shard),
//    so one tenant's update_values() overlaps another tenant's apply() on
//    separate devices and worker streams.
//
// Thread-safety contract per layer is documented in docs/ARCHITECTURE.md
// ("Service layer"): the service serializes the lifecycle of each pooled
// solver via exclusive checkout; tenants must not mutate a problem while
// one of its jobs is in flight.

#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "core/autotune.hpp"
#include "service/operator_pool.hpp"

namespace feti::service {

struct ServiceOptions {
  /// Device shards in the pool — the maximum number of tenants whose GPU
  /// phases can genuinely overlap.
  int num_shards = 2;
  /// Worker threads draining the queue; 0 = one per shard.
  int workers = 0;
  /// Operator-pool budget (accounted bytes of pooled entries; 0 =
  /// unlimited). Also feeds the per-job autotune: a tight pool steers
  /// auto-keyed explicit jobs to the fp32 storage tier.
  std::size_t pool_budget_bytes = 0;
  /// Total device budget, split evenly across the shards
  /// (DevicePool::split_config). Defaults to the FETI_VGPU_* environment.
  gpu::DeviceConfig device = gpu::DeviceConfig::from_env();
  /// Pack compatible queued jobs into one solve_step_many wave. Off =
  /// every job solves alone (the serial baseline bench_service gates
  /// against).
  bool batch_waves = true;
  /// Upper bound on jobs per wave (bounds the lockstep block's memory).
  int max_wave = 8;
  /// Problem dimensionality hint for the per-job autotune (Table II).
  int autotune_dim = 2;
};

/// Aggregate service counters, snapshot by stats().
struct ServiceStats {
  long submitted = 0;
  long completed = 0;
  long waves = 0;         ///< solve_step_many calls issued
  long batched_jobs = 0;  ///< jobs that shared a wave with at least one other
};

class SolverService {
 public:
  explicit SolverService(ServiceOptions options = {});
  /// Drains the queue, then joins the workers.
  ~SolverService();

  SolverService(const SolverService&) = delete;
  SolverService& operator=(const SolverService&) = delete;

  /// Enqueues one job; the future resolves when a worker completes it (or
  /// carries the worker's exception). Safe from any thread.
  std::future<JobResult> submit(SolveJob job);

  /// Burst submission — one queue lock for the whole batch, maximizing the
  /// wave-packing opportunity for compatible jobs.
  std::vector<std::future<JobResult>> submit(std::vector<SolveJob> jobs);

  /// Blocks until every submitted job has completed.
  void drain();

  [[nodiscard]] ServiceStats stats() const;
  [[nodiscard]] PoolStats pool_stats() const { return pool_.stats(); }

  /// The registry key the service would pick for `job` right now: an
  /// explicit job key is resolved as-is; an empty key is autotuned from
  /// the problem shape and the current pool occupancy (remaining budget
  /// becomes the WorkloadHint memory budget, so a crowded pool demotes
  /// auto-keyed explicit jobs to fp32 storage).
  /// This is the dry-run hook behind `feti_cli --pool-stats`.
  [[nodiscard]] std::string plan_key(const SolveJob& job) const;

  /// Stateless planning core: what plan_key computes for a given remaining
  /// pool budget (0 = no memory pressure signal).
  [[nodiscard]] static core::DualOpConfig plan_config(
      const SolveJob& job, int autotune_dim, std::size_t pool_budget_remaining,
      std::size_t pool_budget_total);

 private:
  struct PendingJob {
    SolveJob job;
    std::uint64_t id = 0;
    std::uint64_t fingerprint = 0;
    core::DualOpConfig config;
    Timer queued;  ///< started at submission
    std::promise<JobResult> promise;
  };

  void worker_loop();
  /// Pops the next wave (head job + up to max_wave-1 compatible queued
  /// jobs) under the queue lock; empty when stopping and drained.
  std::vector<PendingJob> next_wave();
  void solve_wave(std::vector<PendingJob> wave);

  ServiceOptions options_;
  gpu::DevicePool devices_;
  OperatorPool pool_;

  mutable std::mutex mutex_;
  std::condition_variable queue_cv_;
  std::condition_variable drain_cv_;
  std::deque<PendingJob> queue_;
  bool stopping_ = false;
  long in_flight_ = 0;
  std::uint64_t next_job_id_ = 1;
  ServiceStats stats_;

  std::vector<std::thread> workers_;
};

}  // namespace feti::service
