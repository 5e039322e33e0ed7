#pragma once

// The FETI projector P = I − G (GᵀG)⁻¹ Gᵀ with G = B R (eq. (8)), the
// coarse-problem solves behind it, and the kernel coefficients α (eq. (9)).

#include <vector>

#include "decomp/feti_problem.hpp"
#include "la/dense.hpp"

namespace feti::gpu {
class Device;
class Stream;
}  // namespace feti::gpu

namespace feti::core {

class KrylovRecycler;

class Projector {
 public:
  /// Builds G column-block by column-block (G_i = B̃ᵢ Rᵢ scattered through
  /// the subdomain→cluster multiplier maps), assembles and factorizes GᵀG,
  /// and computes e = Rᵀ f.
  explicit Projector(const decomp::FetiProblem& p);

  ~Projector();

  /// y = P x.
  void apply(const double* x, double* y) const;

  /// Device-resident apply for the device-state PCPG mode: xs[b] and ys[b]
  /// are device column pointers on `dev`. G and the Cholesky factor of GᵀG
  /// are uploaded once on first use (both are immutable after
  /// construction); after that a call moves no data across PCIe. All
  /// columns of one call cost one fused kernel submission — the Gᵀ products,
  /// the (GᵀG)⁻¹ coarse solves and the rank-rt updates — and no host
  /// synchronization. Bit-identical to per-column apply() (same la:: calls
  /// on the same operands in the same per-column order).
  void apply_device(gpu::Device& dev, gpu::Stream& s,
                    const std::vector<const double*>& xs,
                    const std::vector<double*>& ys) const;

  /// Deflation-augmented apply: y = (I − U (UᵀFU)⁻¹ (FU)ᵀ) P x for the
  /// recycled panel U (GᵀU = 0 holds since the columns are former PCPG
  /// search directions, so the two projections commute). The result stays
  /// in the projector's range AND F-orthogonal to span(U) — the
  /// per-iteration contract of deflated PCPG. The small Gram solve lives
  /// in the recycler (core/krylov_recycler.hpp); empty panels degrade to
  /// the plain apply.
  void apply_deflated(const double* x, double* y,
                      const KrylovRecycler& recycler) const;

  /// λ₀ = G (GᵀG)⁻¹ e — the initial multiplier satisfying Gᵀλ = e. The
  /// vector e = Rᵀ f is recomputed from the problem's current load vectors,
  /// so multi-step simulations with changing values stay consistent.
  void initial_lambda(double* lambda0) const;

  /// α = −(GᵀG)⁻¹ Gᵀ r with r = d − Fλ (eq. (9)).
  [[nodiscard]] std::vector<double> alpha(const double* r) const;

  /// e = Rᵀ f from the problem's current load vectors.
  [[nodiscard]] std::vector<double> compute_e() const;
  [[nodiscard]] idx kernel_total() const { return g_.cols(); }

  /// ‖Gᵀ x‖∞ — test/diagnostic helper (should vanish for projected x).
  [[nodiscard]] double gt_norm(const double* x) const;

 private:
  /// s ← (GᵀG)⁻¹ s via the Cholesky factor `l` (host or device copy).
  static void coarse_solve(la::ConstDenseView l, double* s);
  /// Uploads G and the GᵀG factor (once) and sizes the coarse block for
  /// `cols` columns on `dev`. One device per projector instance.
  void ensure_device(gpu::Device& dev, gpu::Stream& s,
                     std::size_t cols) const;

  const decomp::FetiProblem& p_;
  la::DenseMatrix g_;        ///< num_lambdas x total_kernel, col-major
  la::DenseMatrix gtg_;      ///< Cholesky factor (lower) of GᵀG

  // Lazily created device mirror for apply_device (logically const: G and
  // its Gram factor never change after construction, so the mirror is a
  // cache).
  mutable gpu::Device* dev_ = nullptr;
  mutable double* g_dev_ = nullptr;       ///< device copy of g_
  mutable double* l_dev_ = nullptr;       ///< gtg_ copy, in g_dev_'s block
  mutable double* s_dev_ = nullptr;       ///< coarse RHS block, rt × cols
  mutable std::size_t s_cap_ = 0;         ///< columns s_dev_ can hold
};

}  // namespace feti::core
