#include "service/solver_service.hpp"

#include <algorithm>

#include "precond/precond_registry.hpp"

namespace feti::service {

namespace {

/// Wave compatibility beyond the fingerprint: solve_step_many iterates one
/// PCPG option set for the whole block.
bool same_pcpg(const core::PcpgOptions& a, const core::PcpgOptions& b) {
  return a.rel_tolerance == b.rel_tolerance &&
         a.max_iterations == b.max_iterations &&
         a.preconditioner == b.preconditioner && a.block == b.block &&
         a.device_state == b.device_state;
}

/// With cross-step recycling on, a wave additionally sticks to one tenant:
/// the pooled solver's retained Krylov panel is scoped per tenant
/// (FetiSolver::set_recycle_scope), so mixing tenants in one recycled wave
/// would either leak one tenant's Krylov space into another's solve or
/// force a clear that defeats the recycling.
bool same_wave(const SolveJob& a, const SolveJob& b) {
  if (!same_pcpg(a.pcpg, b.pcpg)) return false;
  if (a.pcpg.block.enabled && a.pcpg.block.recycle && a.tenant != b.tenant)
    return false;
  return true;
}

}  // namespace

SolverService::SolverService(ServiceOptions options)
    : options_(options),
      devices_(std::max(1, options.num_shards),
               gpu::DevicePool::split_config(options.device,
                                             std::max(1, options.num_shards))),
      pool_(devices_, options.pool_budget_bytes) {
  options_.num_shards = std::max(1, options_.num_shards);
  options_.max_wave = std::max(1, options_.max_wave);
  const int workers =
      options_.workers > 0 ? options_.workers : options_.num_shards;
  workers_.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w)
    workers_.emplace_back([this] { worker_loop(); });
}

SolverService::~SolverService() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

core::DualOpConfig SolverService::plan_config(
    const SolveJob& job, int autotune_dim, std::size_t pool_budget_remaining,
    std::size_t pool_budget_total) {
  check(job.problem != nullptr, "SolveJob: problem must be set");
  const decomp::FetiProblem& p = *job.problem;
  const idx dofs = p.max_subdomain_dofs();
  if (!job.key.empty())
    return core::recommend_config(job.key, autotune_dim, dofs);

  // Auto-keyed job: explicit GPU assembly (the paper's fast path), with
  // the precision axis decided by the pool occupancy — the remaining pool
  // budget plays the WorkloadHint memory budget, so a crowded pool demotes
  // new entries to the fp32 storage tier instead of evicting harder.
  core::ApproachAxes axes;
  axes.repr = core::Representation::Explicit;
  axes.device = core::ExecDevice::Gpu;
  axes.backend = sparse::Backend::Simplicial;
  axes.api = gpu::sparse::Api::Modern;
  core::WorkloadHint hint;
  hint.num_subdomains = p.num_subdomains();
  for (const auto& s : p.sub)
    hint.lambdas_per_subdomain =
        std::max(hint.lambdas_per_subdomain, s.num_local_lambdas());
  if (pool_budget_total > 0) hint.memory_budget_bytes =
      std::max<std::size_t>(pool_budget_remaining, 1);
  return core::recommend_config(axes, autotune_dim, dofs, 1, hint);
}

std::string SolverService::plan_key(const SolveJob& job) const {
  return plan_config(job, options_.autotune_dim, pool_.remaining_budget(),
                     options_.pool_budget_bytes)
      .key;
}

std::future<JobResult> SolverService::submit(SolveJob job) {
  std::vector<SolveJob> one;
  one.push_back(std::move(job));
  return std::move(submit(std::move(one)).front());
}

std::vector<std::future<JobResult>> SolverService::submit(
    std::vector<SolveJob> jobs) {
  std::vector<std::future<JobResult>> futures;
  futures.reserve(jobs.size());
  std::vector<PendingJob> pending;
  pending.reserve(jobs.size());
  for (SolveJob& job : jobs) {
    PendingJob p;
    p.config = plan_config(job, options_.autotune_dim,
                           pool_.remaining_budget(), options_.pool_budget_bytes);
    p.fingerprint =
        job_fingerprint(*job.problem, p.config.key,
                        precond::normalize_key(job.pcpg.preconditioner));
    if (!job.dual_rhs.empty())
      check(job.dual_rhs.size() ==
                static_cast<std::size_t>(job.problem->num_lambdas),
            "SolveJob: dual_rhs length must equal num_lambdas");
    p.job = std::move(job);
    futures.push_back(p.promise.get_future());
    pending.push_back(std::move(p));
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    check(!stopping_, "SolverService: submit after shutdown");
    for (PendingJob& p : pending) {
      p.id = next_job_id_++;
      p.queued.reset();
      ++stats_.submitted;
      queue_.push_back(std::move(p));
    }
  }
  queue_cv_.notify_all();
  return futures;
}

void SolverService::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  drain_cv_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
}

ServiceStats SolverService::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::vector<SolverService::PendingJob> SolverService::next_wave() {
  std::unique_lock<std::mutex> lock(mutex_);
  queue_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
  if (queue_.empty()) return {};  // stopping and drained

  std::vector<PendingJob> wave;
  wave.push_back(std::move(queue_.front()));
  queue_.pop_front();
  if (options_.batch_waves) {
    for (auto it = queue_.begin();
         it != queue_.end() &&
         wave.size() < static_cast<std::size_t>(options_.max_wave);) {
      if (it->fingerprint == wave.front().fingerprint &&
          same_wave(it->job, wave.front().job)) {
        wave.push_back(std::move(*it));
        it = queue_.erase(it);
      } else {
        ++it;
      }
    }
  }
  in_flight_ += static_cast<long>(wave.size());
  return wave;
}

void SolverService::solve_wave(std::vector<PendingJob> wave) {
  const std::uint64_t fingerprint = wave.front().fingerprint;
  const core::DualOpConfig config = wave.front().config;
  const core::PcpgOptions pcpg = wave.front().job.pcpg;
  const decomp::FetiProblem& problem = *wave.front().job.problem;

  std::vector<double> queue_seconds(wave.size());
  for (std::size_t j = 0; j < wave.size(); ++j)
    queue_seconds[j] = wave[j].queued.seconds();

  bool checked_out = false;
  bool counted = false;
  try {
    Timer solve_timer;
    OperatorPool::Checkout checkout =
        pool_.checkout(fingerprint, [&](gpu::ExecutionContext& context) {
          core::FetiSolverOptions o;
          o.dualop = config;
          o.pcpg = pcpg;
          return std::make_unique<core::FetiSolver>(problem, o, &context);
        });
    checked_out = true;
    checkout.solver->set_pcpg_options(pcpg);
    // Tenant-scoped recycling: a scope change drops the pooled solver's
    // retained Krylov panel, so consecutive checkouts by different tenants
    // never share Krylov state (same-tenant consecutive waves keep it).
    checkout.solver->set_recycle_scope(wave.front().job.tenant);

    std::vector<std::vector<double>> rhs(wave.size());
    for (std::size_t j = 0; j < wave.size(); ++j)
      rhs[j] = std::move(wave[j].job.dual_rhs);  // empty = physical d
    std::vector<core::FetiStepResult> steps =
        checkout.solver->solve_step_many(rhs);
    const double solve_seconds = solve_timer.seconds();

    pool_.give_back(fingerprint);
    checked_out = false;

    // Completion counters update BEFORE the promises are fulfilled: a
    // caller reading stats() right after future.get() must already see
    // this wave counted.
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stats_.completed += static_cast<long>(wave.size());
      ++stats_.waves;
      if (wave.size() > 1)
        stats_.batched_jobs += static_cast<long>(wave.size());
    }
    counted = true;

    for (std::size_t j = 0; j < wave.size(); ++j) {
      JobResult r;
      static_cast<core::FetiStepResult&>(r) = std::move(steps[j]);
      r.job_id = wave[j].id;
      r.tenant = wave[j].job.tenant;
      r.fingerprint = fingerprint;
      r.key = config.key;
      r.shard = checkout.shard;
      r.wave_size = static_cast<int>(wave.size());
      r.pool_hit = checkout.hit;
      r.queue_seconds = queue_seconds[j];
      r.solve_seconds = solve_seconds;
      r.latency_seconds = wave[j].queued.seconds();
      wave[j].promise.set_value(std::move(r));
    }
  } catch (...) {
    if (checked_out) pool_.give_back(fingerprint);
    for (PendingJob& p : wave)
      p.promise.set_exception(std::current_exception());
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    in_flight_ -= static_cast<long>(wave.size());
    if (!counted) {  // exception path: the wave still completed (with error)
      stats_.completed += static_cast<long>(wave.size());
      ++stats_.waves;
      if (wave.size() > 1)
        stats_.batched_jobs += static_cast<long>(wave.size());
    }
  }
  drain_cv_.notify_all();
}

void SolverService::worker_loop() {
  for (;;) {
    std::vector<PendingJob> wave = next_wave();
    if (wave.empty()) return;
    solve_wave(std::move(wave));
  }
}

}  // namespace feti::service
