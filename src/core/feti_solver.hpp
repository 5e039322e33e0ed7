#pragma once

// The Total FETI solver driver — Algorithm 2 of the paper: one preparation
// phase, then per time step a FETI preprocessing (numeric factorization +
// explicit assembly where configured) followed by the PCPG iteration and
// primal recovery.

#include <cstdint>
#include <memory>
#include <string>

#include "core/krylov_recycler.hpp"
#include "core/pcpg.hpp"
#include "precond/preconditioner.hpp"

namespace feti::core {

struct FetiSolverOptions {
  DualOpConfig dualop;
  PcpgOptions pcpg;
};

struct FetiStepResult {
  std::vector<double> u;       ///< gathered global solution
  /// PCPG iterations this step took to converge (or hit max_iterations).
  int pcpg_iterations = 0;
  double rel_residual = 0.0;
  bool converged = false;
  /// PCPG stopped on lost positive definiteness (PcpgResult::breakdown).
  /// solve_step() throws instead; solve_step_many() reports it per system.
  bool breakdown = false;
  /// Normalized preconditioner registry key that served this step.
  std::string preconditioner = "none";
  /// Width of the recycled Krylov deflation space PCPG started from this
  /// step (0 = cold start or recycling off — see core/krylov_recycler.hpp).
  int deflation_dim = 0;
  // Wall-clock phase split of the step. The three phases are the shared
  // measurement path for benches and the service layer's latency report
  // (bench/common.hpp aggregates them into percentile summaries):
  //   preprocess — DualOperator::update_values(),
  //   pcpg       — the whole PCPG iteration (projector + preconditioner +
  //                operator applies + recurrences),
  //   apply      — the dual-operator application share of the pcpg phase
  //                (from the operator's own "apply" timing registry).
  double preprocess_seconds = 0.0;  ///< DualOperator::update_values() time
  double pcpg_seconds = 0.0;   ///< wall-clock PCPG iteration time
  double apply_seconds = 0.0;  ///< total dual-operator application time
  double step_seconds = 0.0;
  // Time-step cache outcome of this step's update_values() (deltas of
  // DualOperator::cache_stats()): how many subdomains were refactorized vs
  // served from cache, and whether the whole preprocessing was skipped.
  long refreshed_subdomains = 0;
  long skipped_subdomains = 0;
  /// True when update_values() took the skip path (cache_stats() counted a
  /// skipped step — nothing was dirty, nothing was refactorized).
  bool values_cached = false;
  /// F̃ storage/apply precision of the operator that served this step
  /// (resolved from the configured key's axes). PCPG itself always
  /// iterates in fp64; F32 means the explicit blocks were stored and
  /// applied in fp32 with fp64 accumulation.
  Precision operator_precision = Precision::F64;
  /// PCIe traffic of this step's PCPG phase (deltas of the process-wide
  /// gpu::TransferCounters around the solve; 0 for CPU operators). Under
  /// the device-state PCPG mode the per-iteration D2H share is O(scalars);
  /// the host-staged loop instead pays O(num_lambdas) vector round trips
  /// per iteration. Concurrent solves on other threads pollute the deltas
  /// (the counters are process-global) — single-solve contexts only.
  std::uint64_t pcpg_h2d_bytes = 0;
  std::uint64_t pcpg_d2h_bytes = 0;
};

/// Drives one problem through Algorithm 2. Re-entrancy contract: distinct
/// FetiSolver instances are safe to run concurrently from different
/// threads, including instances sharing one FetiProblem — solving reads
/// the problem but never mutates it, and the operator/cache counters are
/// safe for concurrent readers. A single instance is NOT thread-safe: its
/// lifecycle calls (prepare / solve_step / solve_step_many) must be
/// externally serialized, which is exactly the exclusive-checkout
/// discipline the service layer's operator pool enforces. Mutating the
/// problem (scale_step, mark_values_changed) while any solver on it is
/// mid-step is a data race on the caller.
class FetiSolver {
 public:
  /// `context` supplies the execution resources for GPU-backed dual
  /// operators (ignored by CPU configurations).
  FetiSolver(const decomp::FetiProblem& problem, FetiSolverOptions options,
             gpu::ExecutionContext* context = nullptr);

  /// Preparation (Algorithm 2, line 1).
  void prepare();

  /// One time step (lines 2-7): preprocessing + PCPG + primal solution.
  /// The single-RHS case of solve_step_many() for the physical d; throws
  /// when PCPG breaks down (check_breakdown).
  FetiStepResult solve_step();

  /// One time step solved for a block of dual right-hand sides sharing the
  /// pattern and the coarse constraint (load multipliers, residual probes,
  /// deflation vectors): preprocessing runs once, then all systems iterate
  /// together through Pcpg::solve_many_ptrs — in lockstep, or on one shared
  /// search panel when pcpg.block.enabled — so every PCPG iteration
  /// reaches the dual operator as one batched apply(X, Y, nrhs), served
  /// device-side by the GPU operator families. Each dual_rhs[j] plays the
  /// role of the d vector of eq. (7); an *empty* dual_rhs[j] requests the
  /// physical d computed from the problem's current f (computed once per
  /// call, shared by every empty entry). Results are returned in input
  /// order, with the shared preprocessing/pcpg/apply/step times repeated
  /// in every entry.
  std::vector<FetiStepResult> solve_step_many(
      const std::vector<std::vector<double>>& dual_rhs);

  [[nodiscard]] DualOperator& dual_operator() { return *dualop_; }
  [[nodiscard]] const Projector& projector() const { return projector_; }

  /// Swaps the PCPG options for subsequent steps. The operator and the
  /// projector are untouched, so a pooled long-lived solver can serve
  /// tenants with different tolerances/preconditioners between checkouts —
  /// a changed preconditioner key rebuilds (and re-prepares) the pooled
  /// preconditioner lazily on the next step.
  void set_pcpg_options(const PcpgOptions& pcpg) { options_.pcpg = pcpg; }
  [[nodiscard]] const FetiSolverOptions& options() const { return options_; }
  [[nodiscard]] bool prepared() const { return prepared_; }

  /// The pooled preconditioner instance for the current options key (null
  /// for "none" or before the first prepare()/solve_step()).
  [[nodiscard]] precond::Preconditioner* preconditioner() {
    return precond_.get();
  }

  /// The cross-step Krylov recycler (null until the first step with
  /// pcpg.block.recycle enabled). Exposed for tests/diagnostics; lifecycle
  /// (creation, budget changes, invalidation on refreshed subdomains) is
  /// the solver's.
  [[nodiscard]] KrylovRecycler* recycler() { return recycler_.get(); }

  /// Scopes the recycled Krylov state to one tenant: a changed scope drops
  /// the retained panel, so a pooled solver serving several tenants under
  /// the service layer never replays one tenant's Krylov space in
  /// another's solve. The scope value itself is opaque (the service passes
  /// the wave's tenant id).
  void set_recycle_scope(std::uint64_t scope) {
    if (scope != recycle_scope_ && recycler_ != nullptr) recycler_->clear();
    recycle_scope_ = scope;
  }

 private:
  /// (Re)creates + prepares the pooled preconditioner when the options key
  /// changed since the last step; resolves "" to "none".
  void ensure_preconditioner();

  /// Creates/rebuilds (or drops) the recycler to match the current block
  /// options; called at the top of every step.
  void ensure_recycler();

  const decomp::FetiProblem& problem_;
  FetiSolverOptions options_;
  gpu::ExecutionContext* context_;
  std::unique_ptr<DualOperator> dualop_;
  Projector projector_;
  std::unique_ptr<precond::Preconditioner> precond_;
  std::string precond_key_ = "none";
  std::unique_ptr<KrylovRecycler> recycler_;
  std::uint64_t recycle_scope_ = 0;
  bool prepared_ = false;
};

}  // namespace feti::core
