#pragma once

// The FETI dual operator F = B K^+ B^T and its implementations (Table
// III), constructed through the string-keyed DualOperatorRegistry.
//
// Staged lifecycle (Algorithm 2 of the paper, refined for multi-step,
// multi-RHS, and time-step-cached workloads). The full contract — including
// the dirty-tracking rules summarized below — is documented in
// docs/ARCHITECTURE.md.
//
//   prepare()        — once per problem *pattern*: symbolic factorization,
//                      persistent GPU allocations, kernel analysis
//                      ("preparation"). Must be called first.
//   update_values()  — once per time step. Consults the problem's
//                      per-subdomain values versions (and, under
//                      ValueTracking::Hashed, K_reg content hashes) and
//                      refreshes only the dirty subdomains: numeric
//                      refactorization and, for explicit approaches,
//                      (re)assembly of the local dual operators F̃ᵢ ("FETI
//                      preprocessing"). A step where nothing changed is a
//                      near-free no-op; cache_stats() counts both outcomes.
//   apply(x, y)      — per PCPG iteration: y = F x on cluster-wide dual
//                      vectors (scatter → local apply → gather).
//   apply(X, Y, nrhs)— batched application to nrhs dual vectors stored as
//                      contiguous columns (column j starts at offset
//                      j * num_lambdas). The base class falls back to a
//                      loop of single applies (counted — see
//                      loop_fallback_count()); every built-in operator
//                      overrides the batch hook. CPU explicit: one SYMM per
//                      subdomain; CPU implicit: SpMM + multi-RHS solves;
//                      GPU operators: device-side batching — one
//                      multi-RHS scatter kernel, one SYMM/GEMM (explicit)
//                      or SpMM + block triangular solves (implicit) per
//                      subdomain, one multi-RHS gather kernel, so a block
//                      of RHS costs one submission sweep instead of nrhs
//                      full round trips.
//
// Both apply entry points are non-virtual wrappers (timed under "apply" in
// timings()); implementations override the protected apply_one/apply_many
// hooks.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/lifecycle.hpp"
#include "decomp/feti_problem.hpp"
#include "gpu/context.hpp"
#include "util/timer.hpp"

namespace feti::core {

// CacheStats / AtomicCacheStats / UpdatePlan / ValueTracker live in
// core/lifecycle.hpp — the dirty-tracking machinery is shared with the
// preconditioner subsystem (src/precond/), which follows the same
// prepare()/update_values() contract.

class DualOperator {
 public:
  explicit DualOperator(const decomp::FetiProblem& p) : p_(p) {}
  virtual ~DualOperator() = default;

  DualOperator(const DualOperator&) = delete;
  DualOperator& operator=(const DualOperator&) = delete;

  /// Once per pattern: symbolic factorization + persistent allocations.
  /// Precondition: the problem outlives the operator and its pattern (Csr
  /// structures, subdomain count, lambda maps) never changes afterwards.
  /// Postcondition: update_values() may be called; apply()/kplus_solve()
  /// may NOT be called yet (no numeric factor exists).
  virtual void prepare() = 0;

  /// Per time step: numeric refactorization (+ explicit assembly) of the
  /// subdomains whose K values changed since this operator last saw them.
  /// Precondition: prepare() has run; value changes were announced via
  /// FetiProblem::mark_values_changed (or the problem uses
  /// ValueTracking::Hashed, in which case in-place mutation is detected by
  /// content hash). Postcondition: apply()/kplus_solve()/compute_d()
  /// reflect the current K values; cache_stats() has counted the step. On
  /// exception, no version is committed — the next call retries the same
  /// dirty set.
  virtual void update_values() = 0;

  /// y = F x; x and y are cluster-wide dual vectors (host memory).
  /// Valid only after update_values().
  void apply(const double* x, double* y);
  /// Y(:,j) = F X(:,j) for j in [0, nrhs); columns are contiguous
  /// cluster-wide dual vectors (leading dimension num_lambdas). Column j is
  /// bitwise equal to apply() of column j alone (every built-in key).
  void apply(const double* x, double* y, idx nrhs);

  /// The execution context whose device holds this operator's state, or
  /// null for operators without a device-resident application path. Non-null
  /// enables apply_device() and the device-state PCPG mode (core/pcpg.cpp):
  /// the solver loop keeps its vectors on this context's device and the
  /// per-iteration operator application scatters/gathers device-to-device,
  /// skipping the H2D/D2H staging of the host-pointer apply().
  [[nodiscard]] virtual gpu::ExecutionContext* device_context() {
    return nullptr;
  }

  /// Device-resident application: d_x / d_y are *device* allocations of
  /// device_context()'s device holding nrhs contiguous cluster-wide columns
  /// (leading dimension num_lambdas). Synchronous like apply(): the result
  /// is complete on return. Bit-identical to the host-pointer apply() of
  /// the same nrhs (the implementations submit the same kernels in the same
  /// order; only the boundary staging copies disappear). Valid only when
  /// device_context() != nullptr.
  void apply_device(const double* d_x, double* d_y, idx nrhs = 1);

  /// The registry key the operator was created under (set by
  /// DualOperatorRegistry::create; empty for operators built directly).
  [[nodiscard]] const char* name() const { return name_.c_str(); }

  /// x = K^+ b for one subdomain (valid after update_values()).
  virtual void kplus_solve(idx sub, const double* b, double* x) const = 0;

  // -- shared derived operations --

  /// d = sum_i B̃ᵢ K⁺ᵢ fᵢ − c (right-hand side of the dual system, eq. (7)).
  void compute_d(double* d) const;

  /// Subdomain solutions uᵢ = K⁺ᵢ(fᵢ − B̃ᵢᵀ λᵢ) + Rᵢ αᵢ (eq. (5)); `alpha`
  /// holds the concatenated per-subdomain kernel coefficients.
  void primal_solution(const double* lambda, const std::vector<double>& alpha,
                       std::vector<std::vector<double>>& u) const;

  [[nodiscard]] const decomp::FetiProblem& problem() const { return p_; }
  [[nodiscard]] TimingRegistry& timings() { return timings_; }

  /// Number of batched applies served by the base-class loop over
  /// apply_one instead of a real block implementation. Every built-in
  /// operator overrides apply_many (the GPU families device-side), so this
  /// stays 0 for them — asserted by the batched-consistency test matrix;
  /// out-of-tree operators that inherit the loop count here. Accumulates
  /// from construction; never resets.
  /// Safe to read from any thread while another thread is applying.
  [[nodiscard]] long loop_fallback_count() const {
    return loop_fallbacks_.load(std::memory_order_relaxed);
  }

  /// Time-step cache counters: how many update_values() steps and
  /// per-subdomain refreshes were served from cache vs recomputed.
  /// Accumulates from construction; never resets.
  /// Safe to read from any thread while the lifecycle thread is inside
  /// update_values() (see AtomicCacheStats for the snapshot semantics).
  [[nodiscard]] CacheStats cache_stats() const {
    return cache_stats_.snapshot();
  }

  /// Bytes of persistent operator state streamed by one apply(x, y) — the
  /// assembled F̃ᵢ blocks for the explicit families (fp32 storage halves
  /// this), 0 when unknown (implicit families, out-of-tree operators).
  /// Valid after prepare(); benches divide by the measured apply time for
  /// achieved GB/s.
  [[nodiscard]] virtual std::size_t apply_bytes() const { return 0; }

  /// Total K⁻¹ solve columns performed by the explicit assembly across all
  /// update_values() calls so far: a dense-RHS refresh of one subdomain
  /// counts its full dual width m, a sparsity-aware ("sp") refresh counts
  /// only the boundary width nb. Deterministic (counted, not timed), so
  /// benches can gate the boundary-fraction reduction of the sp variants.
  /// Implicit families perform no assembly solves and stay 0. Accumulates
  /// from construction; never resets. Safe to read concurrently with
  /// update_values().
  [[nodiscard]] long solve_columns() const {
    return solve_columns_.load(std::memory_order_relaxed);
  }

  /// Total counted work of those solves' forward halves (the TRSM/SYRK
  /// explicit families): factor entries × live columns, where column k of
  /// L counts once per panel column still nonzero at pivot k
  /// (la::staircase_solve_work, fixed at prepare() from the factor pattern
  /// and the staircase order of the panel). The unpruned solve would count
  /// nnz(L) × solve columns per refresh. Schur-based, hybrid and implicit
  /// families stay 0. Same accumulation and thread-safety contract as
  /// solve_columns().
  [[nodiscard]] long solve_work() const {
    return solve_work_.load(std::memory_order_relaxed);
  }

 protected:
  /// Single-vector application hook: y = F x.
  virtual void apply_one(const double* x, double* y) = 0;
  /// Batched application hook; the default loops over apply_one.
  /// Overriders may assume nrhs >= 1 and distinct, non-overlapping x/y.
  virtual void apply_many(const double* x, double* y, idx nrhs);
  /// Device-pointer application hook behind apply_device(). Overriders may
  /// assume nrhs >= 1 and must return bitwise what apply_one/apply_many
  /// return for the same width (same local kernels). The default
  /// rejects — only operators with device_context() != nullptr implement
  /// it, and callers gate on that.
  virtual void apply_many_device(const double* d_x, double* d_y, idx nrhs);

  /// The dirty-set decision of one update_values() call (see
  /// core/lifecycle.hpp); kept as a nested alias so implementations spell
  /// it DualOperator::UpdatePlan.
  using UpdatePlan = core::UpdatePlan;

  /// Computes the dirty subset at the top of an update_values()
  /// implementation and counts the step in cache_stats() (a step with an
  /// empty dirty set counts as skipped).
  UpdatePlan begin_update();
  /// Commits the refreshed versions/hashes at the bottom of a successful
  /// update_values(); not reached on exception, so a failed refresh is
  /// retried in full on the next step.
  void end_update(const UpdatePlan& plan);

  const decomp::FetiProblem& p_;
  mutable TimingRegistry timings_;
  /// Incremented by the base apply_many; atomic so diagnostic readers on
  /// other threads (the service layer) never race the applying thread.
  std::atomic<long> loop_fallbacks_{0};
  /// Incremented by the explicit implementations per refreshed subdomain
  /// (m dense / nb sp); atomic for the same concurrent-reader contract.
  std::atomic<long> solve_columns_{0};
  /// Incremented with solve_columns_ by the TRSM/SYRK explicit families.
  std::atomic<long> solve_work_{0};
  /// Maintained by begin_update/end_update; atomic per counter for the
  /// same concurrent-reader contract.
  AtomicCacheStats cache_stats_;

 private:
  friend class DualOperatorRegistry;

  /// Per-operator change-detection state behind begin_update/end_update.
  ValueTracker tracker_;
  std::string name_;
};

/// Creates the dual operator config.key names through the
/// DualOperatorRegistry. `context` carries the execution resources (device,
/// stream pool, workspace policy); it is required for the GPU-backed keys
/// and ignored otherwise.
std::unique_ptr<DualOperator> make_dual_operator(
    const decomp::FetiProblem& problem, const DualOpConfig& config,
    gpu::ExecutionContext* context = nullptr);

}  // namespace feti::core
