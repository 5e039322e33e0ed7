#pragma once

// The FETI preconditioner layer: string-keyed M⁻¹ approximations applied
// once per PCPG iteration (line 12 of Algorithm 1). Every preconditioner
// follows the same staged lifecycle as the dual operators —
//
//   prepare()        — once per problem pattern: boundary/interior splits,
//                      Schur symbolic analysis, persistent device buffers;
//   update_values()  — once per time step: reassembles the per-subdomain
//                      blocks M̃ᵢ of the subdomains whose K values changed
//                      (dirty tracking via core::ValueTracker, counted in
//                      cache_stats() exactly like a dual operator);
//   apply(x, y)      — per PCPG iteration: y = M⁻¹ x on cluster-wide dual
//                      vectors;
//   apply(X, Y, nrhs)— batched application to nrhs dual vectors stored as
//                      contiguous columns, so Pcpg::solve_many waves stay
//                      batched end to end (base fallback loops and counts
//                      in loop_fallback_count()).
//
// The built-in kinds, all of the form M⁻¹ = Σᵢ B̃ᵢ D (·) D B̃ᵢᵀ:
//
//   none        — identity (PCPG degenerates to plain projected CG);
//   lumped      — M̃ᵢ = B̃ᵢ Kᵢ B̃ᵢᵀ with the original singular stiffness;
//   superlumped — the diagonal-of-K approximation of lumped;
//   dirichlet   — M̃ᵢ = B_b Sᵢ B_bᵀ with Sᵢ = K_bb − K_bi K_ii⁻¹ K_ib the
//                 boundary Schur complement (boundary = the column support
//                 of B̃ᵢ, which in Total FETI includes the Dirichlet rows).
//
// Each kind exists unscaled, with multiplicity scaling (D = 1/#subdomains
// sharing the multiplier) and with stiffness scaling (D from the relative
// K-diagonal weights κ of the sharing subdomains — the superlumped weights
// of the classical scaled preconditioners). The diagonal is applied on BOTH
// sides of M̃ᵢ, so every variant stays symmetric positive semidefinite on
// the dual space. Scaling weights are never baked into the cached blocks:
// stiffness weights depend on the *neighbors'* K values and are recomputed
// whenever any subdomain refreshes.

#include <atomic>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/lifecycle.hpp"
#include "decomp/feti_problem.hpp"
#include "util/timer.hpp"

namespace feti::gpu {
class ExecutionContext;
}

namespace feti::precond {

/// The preconditioner kind — the first token of a registry key.
enum class Kind : std::uint8_t { None, Lumped, Superlumped, Dirichlet };

/// The scaling variant — the optional second token of a registry key.
enum class Scaling : std::uint8_t { None, Multiplicity, Stiffness };

const char* to_string(Kind k);
const char* to_string(Scaling s);

class Preconditioner {
 public:
  explicit Preconditioner(const decomp::FetiProblem& p) : p_(p) {}
  virtual ~Preconditioner() = default;

  Preconditioner(const Preconditioner&) = delete;
  Preconditioner& operator=(const Preconditioner&) = delete;

  /// Once per pattern: boundary splits, symbolic analysis, persistent
  /// allocations. Must be called before update_values().
  virtual void prepare() = 0;

  /// Per time step: reassembles the M̃ᵢ blocks of the dirty subdomains and
  /// refreshes the scaling weights when needed. Same change-detection
  /// contract as DualOperator::update_values() (versions, or content
  /// hashes under ValueTracking::Hashed).
  virtual void update_values() = 0;

  /// y = M⁻¹ x on cluster-wide dual vectors (valid after update_values()).
  void apply(const double* x, double* y);
  /// Y(:,j) = M⁻¹ X(:,j) for j in [0, nrhs); columns are contiguous
  /// cluster-wide dual vectors (leading dimension num_lambdas). Column j is
  /// bitwise equal to apply() of column j alone (every built-in key).
  void apply(const double* x, double* y, idx nrhs);

  /// The execution context whose device holds this preconditioner's state,
  /// or null when there is no device-resident application path. Non-null
  /// enables apply_device() — used by the device-state PCPG mode to feed
  /// device residual columns straight into the preconditioner without
  /// host staging. Same contract as DualOperator::device_context().
  [[nodiscard]] virtual gpu::ExecutionContext* device_context() {
    return nullptr;
  }

  /// Device-resident application: d_x / d_y are device allocations of
  /// device_context()'s device holding nrhs contiguous cluster-wide columns
  /// (leading dimension num_lambdas). Synchronous; bit-identical to the
  /// host-pointer apply() of the same nrhs. Valid only when
  /// device_context() != nullptr.
  void apply_device(const double* d_x, double* d_y, idx nrhs = 1);

  /// The registry key this instance was created under ("dirichlet
  /// stiffness gpu", ...).
  [[nodiscard]] virtual const char* key() const = 0;

  [[nodiscard]] const decomp::FetiProblem& problem() const { return p_; }
  [[nodiscard]] TimingRegistry& timings() { return timings_; }

  /// Batched applies served by the base-class loop instead of a real block
  /// implementation — stays 0 for every built-in (asserted by the
  /// consistency tests). Same contract as the dual-operator counter.
  [[nodiscard]] virtual long loop_fallback_count() const {
    return loop_fallbacks_.load(std::memory_order_relaxed);
  }

  /// Time-step cache counters, identical in meaning to
  /// DualOperator::cache_stats().
  [[nodiscard]] virtual core::CacheStats cache_stats() const {
    return cache_stats_.snapshot();
  }

 protected:
  /// Single-vector hook: y = M⁻¹ x.
  virtual void apply_one(const double* x, double* y) = 0;
  /// Batched hook; the default loops over apply_one (counted).
  virtual void apply_many(const double* x, double* y, idx nrhs);
  /// Device-pointer hook behind apply_device(). Overriders may assume
  /// nrhs >= 1 and must return bitwise what apply_one/apply_many return
  /// for the same width (same local kernels). The default rejects.
  virtual void apply_many_device(const double* d_x, double* d_y, idx nrhs);

  using UpdatePlan = core::UpdatePlan;
  UpdatePlan begin_update();
  void end_update(const UpdatePlan& plan);

  const decomp::FetiProblem& p_;
  mutable TimingRegistry timings_;
  std::atomic<long> loop_fallbacks_{0};
  core::AtomicCacheStats cache_stats_;

 private:
  core::ValueTracker tracker_;
};

/// Per-subdomain, per-local-multiplier scaling diagonals D for `scaling`.
/// Multiplicity: 1 / (number of subdomains sharing the cluster multiplier).
/// Stiffness: w_{s,r} = (total_r − κ_{s,r}) / total_r with
/// κ_{s,r} = Σⱼ B̃ᵢ(r,j)² Kⱼⱼ and total_r the cluster-wide sum over the
/// sharing subdomains; multipliers seen by a single subdomain (the
/// Dirichlet rows of Total FETI) keep weight 1, as does any row whose
/// total vanishes. Scaling::None returns an empty vector (no weighting).
[[nodiscard]] std::vector<std::vector<double>> compute_scaling_weights(
    const decomp::FetiProblem& p, Scaling scaling);

/// Creates the preconditioner registered under `key` (see
/// precond::PreconditionerRegistry); the context is required for the GPU
/// variants and ignored otherwise. "" resolves to "none".
std::unique_ptr<Preconditioner> make_preconditioner(
    const decomp::FetiProblem& problem, std::string_view key,
    gpu::ExecutionContext* context = nullptr);

}  // namespace feti::precond
