#include "core/feti_solver.hpp"

#include <algorithm>

#include "gpu/runtime.hpp"
#include "precond/precond_registry.hpp"
#include "util/timer.hpp"

namespace feti::core {

FetiSolver::FetiSolver(const decomp::FetiProblem& problem,
                       FetiSolverOptions options, gpu::ExecutionContext* context)
    : problem_(problem), options_(options), context_(context),
      dualop_(make_dual_operator(problem, options.dualop, context)),
      projector_(problem) {}

void FetiSolver::ensure_preconditioner() {
  const std::string key =
      precond::normalize_key(options_.pcpg.preconditioner);
  if (precond_ != nullptr && precond_key_ == key) return;
  precond_.reset();
  precond_key_ = key;
  if (key == "none") return;
  precond_ = precond::PreconditionerRegistry::instance().create(key, problem_,
                                                                context_);
  precond_->prepare();
}

void FetiSolver::ensure_recycler() {
  const BlockPcpgOptions& block = options_.pcpg.block;
  if (!block.enabled || !block.recycle) {
    // Recycling switched off (e.g. a pooled solver re-optioned between
    // checkouts): drop the stale Krylov state rather than park it.
    recycler_.reset();
    return;
  }
  const int budget = std::max(1, block.deflation_budget);
  if (recycler_ == nullptr || recycler_->budget() != budget)
    recycler_ =
        std::make_unique<KrylovRecycler>(problem_.num_lambdas, budget);
}

void FetiSolver::prepare() {
  dualop_->prepare();
  ensure_preconditioner();
  prepared_ = true;
}

FetiStepResult FetiSolver::solve_step() {
  // One empty right-hand side = the physical d of eq. (7).
  FetiStepResult result =
      std::move(solve_step_many(std::vector<std::vector<double>>(1)).front());
  check_breakdown(result.breakdown);
  return result;
}

std::vector<FetiStepResult> FetiSolver::solve_step_many(
    const std::vector<std::vector<double>>& dual_rhs) {
  check(prepared_, "FetiSolver: prepare() must be called first");
  Timer step_timer;
  std::vector<FetiStepResult> results(dual_rhs.size());
  if (dual_rhs.empty()) return results;

  ensure_preconditioner();
  double preprocess_seconds = 0.0;
  const CacheStats cache_before = dualop_->cache_stats();
  {
    Timer t;
    dualop_->update_values();
    if (precond_ != nullptr) precond_->update_values();
    preprocess_seconds = t.seconds();
  }
  const CacheStats cache_after = dualop_->cache_stats();
  const long refreshed =
      cache_after.refreshed_subdomains - cache_before.refreshed_subdomains;
  const long skipped =
      cache_after.skipped_subdomains - cache_before.skipped_subdomains;
  // The skipped-steps delta, not "refreshed == 0": an operator that does
  // not maintain cache_stats() (an out-of-tree update_values() override)
  // reports zero deltas everywhere and must read as NOT cached.
  const bool cached = cache_after.skipped_steps > cache_before.skipped_steps;
  ensure_recycler();
  // A refreshed subdomain means F changed: the recycled Krylov panel was
  // harvested from the old operator and would deflate against the wrong F.
  if (refreshed > 0 && recycler_ != nullptr) recycler_->clear();

  // An empty entry stands for the physical d of eq. (7), computed once
  // after the numeric refresh and shared by every such system (the service
  // layer mixes per-tenant load cases with physical steps in one wave).
  std::vector<double> physical_d;
  std::vector<const std::vector<double>*> rhs_ptrs(dual_rhs.size());
  for (std::size_t j = 0; j < dual_rhs.size(); ++j) {
    if (dual_rhs[j].empty() && physical_d.empty()) {
      physical_d.resize(static_cast<std::size_t>(problem_.num_lambdas));
      dualop_->compute_d(physical_d.data());
    }
    rhs_ptrs[j] = dual_rhs[j].empty() ? &physical_d : &dual_rhs[j];
  }

  const double apply_before = dualop_->timings().total("apply");
  const gpu::TransferCounters::Snapshot xfer_before =
      gpu::TransferCounters::global().snapshot();
  Timer pcpg_timer;
  Pcpg pcpg(*dualop_, projector_, options_.pcpg, precond_.get());
  pcpg.set_recycler(recycler_.get());
  std::vector<PcpgResult> prs = pcpg.solve_many_ptrs(rhs_ptrs);
  const double pcpg_seconds = pcpg_timer.seconds();
  const gpu::TransferCounters::Snapshot xfer =
      gpu::TransferCounters::global().snapshot() - xfer_before;
  const double apply_seconds =
      dualop_->timings().total("apply") - apply_before;

  for (std::size_t j = 0; j < prs.size(); ++j) {
    FetiStepResult& result = results[j];
    result.pcpg_iterations = prs[j].iterations;
    result.preconditioner = precond_key_;
    result.rel_residual = prs[j].rel_residual;
    result.converged = prs[j].converged;
    result.breakdown = prs[j].breakdown;
    result.deflation_dim = prs[j].deflation_dim;
    result.preprocess_seconds = preprocess_seconds;
    result.pcpg_seconds = pcpg_seconds;
    result.apply_seconds = apply_seconds;
    result.refreshed_subdomains = refreshed;
    result.skipped_subdomains = skipped;
    result.values_cached = cached;
    result.operator_precision = options_.dualop.axes().precision;
    result.pcpg_h2d_bytes = xfer.h2d_bytes;
    result.pcpg_d2h_bytes = xfer.d2h_bytes;
    std::vector<std::vector<double>> u_local;
    dualop_->primal_solution(prs[j].lambda.data(), prs[j].alpha, u_local);
    result.u = decomp::gather_solution(problem_, u_local);
  }
  const double step_seconds = step_timer.seconds();
  for (auto& result : results) result.step_seconds = step_seconds;
  return results;
}

}  // namespace feti::core
