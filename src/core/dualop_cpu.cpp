// CPU dual-operator implementations:
//   * implicit (supernodal = "impl mkl", simplicial = "impl cholmod"):
//     apply = SpMV(B^T) -> forward/backward solve -> SpMV(B), per
//     subdomain, right-to-left as in eq. (13); the batched entry point
//     solves all right-hand sides through one SpMM / solve_many / SpMM
//     sweep per subdomain;
//   * explicit via augmented Schur complement ("expl mkl"): F̃ᵢ assembled by
//     the supernodal backend's partial factorization, exploiting the
//     sparsity of B̃ᵢ;
//   * explicit via factor extraction + dense-RHS TRSM ("expl cholmod"):
//     F̃ᵢ = (L^{-1} B̃ᵢᵀ)^T (L^{-1} B̃ᵢᵀ) with a densified right-hand side
//     (no B̃ᵢ sparsity exploited — the paper's reason it is slowest).
//     Both explicit operators serve the batched entry point with a single
//     SYMM per subdomain.
//
// register_cpu_dual_operators() at the bottom is this family's entry in
// the DualOperatorRegistry.

#include <omp.h>

#include <type_traits>

#include "core/dualop_impls.hpp"
#include "core/dualop_registry.hpp"
#include "decomp/boundary.hpp"
#include "util/omp_guard.hpp"
#include "la/blas_dense.hpp"
#include "la/blas_sparse.hpp"
#include "sparse/simplicial_cholesky.hpp"
#include "sparse/supernodal_cholesky.hpp"

namespace feti::core {

namespace {

// ---------------------------------------------------------------------------
// Implicit CPU (impl mkl / impl cholmod)
// ---------------------------------------------------------------------------

class ImplicitCpuDualOp final : public DualOperator {
 public:
  ImplicitCpuDualOp(const decomp::FetiProblem& p, sparse::Backend backend,
                    sparse::OrderingKind ordering)
      : DualOperator(p), backend_(backend), ordering_(ordering) {}

  void prepare() override {
    ScopedTimer t(timings_, "prepare");
    const idx nsub = p_.num_subdomains();
    solvers_.resize(static_cast<std::size_t>(nsub));
    lam_.resize(solvers_.size());
    tmp_.resize(solvers_.size());
    tmp2_.resize(solvers_.size());
    q_.resize(solvers_.size());
    OmpExceptionGuard guard;
#pragma omp parallel for schedule(dynamic)
    for (idx s = 0; s < nsub; ++s) {
      guard.run([&, s] {
        solvers_[s] = sparse::make_solver(backend_);
        solvers_[s]->analyze(p_.sub[s].k_reg, ordering_);
        lam_[s].resize(static_cast<std::size_t>(p_.sub[s].num_local_lambdas()));
        tmp_[s].resize(static_cast<std::size_t>(p_.sub[s].ndof()));
        tmp2_[s].resize(static_cast<std::size_t>(p_.sub[s].ndof()));
        q_[s].resize(lam_[s].size());
      });
    }
    guard.rethrow();
  }

  void update_values() override {
    ScopedTimer t(timings_, "update_values");
    const UpdatePlan plan = begin_update();
    if (plan.skip()) return;
    const idx nd = static_cast<idx>(plan.dirty.size());
    OmpExceptionGuard guard;
#pragma omp parallel for schedule(dynamic)
    for (idx k = 0; k < nd; ++k) {
      guard.run([&, k] {
        const idx s = plan.dirty[static_cast<std::size_t>(k)];
        solvers_[s]->factorize(p_.sub[s].k_reg);
      });
    }
    guard.rethrow();
    end_update(plan);
  }

  void kplus_solve(idx sub, const double* b, double* x) const override {
    solvers_[sub]->solve(b, x);
  }

 protected:
  void apply_one(const double* x, double* y) override {
    const idx nsub = p_.num_subdomains();
    OmpExceptionGuard guard;
#pragma omp parallel for schedule(dynamic)
    for (idx s = 0; s < nsub; ++s) {
      guard.run([&, s] {
        const auto& fs = p_.sub[s];
        scatter_cpu(x, s, lam_[s].data());
        la::spmv_trans(1.0, fs.b, lam_[s].data(), 0.0, tmp_[s].data());
        solvers_[s]->solve(tmp_[s].data(), tmp2_[s].data());
        la::spmv(1.0, fs.b, tmp2_[s].data(), 0.0, q_[s].data());
      });
    }
    guard.rethrow();
    std::fill_n(y, p_.num_lambdas, 0.0);
    for (idx s = 0; s < nsub; ++s) gather_add_cpu(q_[s].data(), s, y);
  }

  void apply_many(const double* x, double* y, idx nrhs) override {
    const idx nsub = p_.num_subdomains();
    const std::size_t stride = static_cast<std::size_t>(p_.num_lambdas);
    ensure_block_buffers(nrhs);
    OmpExceptionGuard guard;
#pragma omp parallel for schedule(dynamic)
    for (idx s = 0; s < nsub; ++s) {
      guard.run([&, s] {
        const auto& fs = p_.sub[s];
        const idx m = fs.num_local_lambdas();
        const idx n = fs.ndof();
        // First-nrhs-columns views of the (possibly wider) cached blocks.
        la::DenseView lam{lam_blk_[s].data(), m, nrhs, m,
                          la::Layout::ColMajor};
        la::DenseView rhs{rhs_blk_[s].data(), n, nrhs, n,
                          la::Layout::ColMajor};
        la::DenseView sol{sol_blk_[s].data(), n, nrhs, n,
                          la::Layout::ColMajor};
        la::DenseView q{q_blk_[s].data(), m, nrhs, m, la::Layout::ColMajor};
        for (idx j = 0; j < nrhs; ++j)
          scatter_cpu(x + static_cast<std::size_t>(j) * stride, s,
                      lam.data + static_cast<std::size_t>(j) * m);
        la::spmm(1.0, fs.b, la::Trans::Yes, lam, 0.0, rhs);
        solvers_[s]->solve_many(rhs, sol);
        la::spmm(1.0, fs.b, la::Trans::No, sol, 0.0, q);
      });
    }
    guard.rethrow();
    std::fill_n(y, stride * static_cast<std::size_t>(nrhs), 0.0);
    for (idx s = 0; s < nsub; ++s) {
      const idx m = p_.sub[s].num_local_lambdas();
      for (idx j = 0; j < nrhs; ++j)
        gather_add_cpu(q_blk_[s].data() + static_cast<std::size_t>(j) * m, s,
                       y + static_cast<std::size_t>(j) * stride);
    }
  }

 private:
  /// Grow-only per-subdomain block workspaces; narrower batches reuse the
  /// leading columns (a lockstep block solve shrinks as systems converge,
  /// which must not trigger reallocation waves).
  void ensure_block_buffers(idx nrhs) {
    if (blk_nrhs_ >= nrhs) return;
    const idx nsub = p_.num_subdomains();
    lam_blk_.resize(static_cast<std::size_t>(nsub));
    rhs_blk_.resize(lam_blk_.size());
    sol_blk_.resize(lam_blk_.size());
    q_blk_.resize(lam_blk_.size());
    for (idx s = 0; s < nsub; ++s) {
      const idx m = p_.sub[s].num_local_lambdas();
      const idx n = p_.sub[s].ndof();
      lam_blk_[s] = la::DenseMatrix(m, nrhs, la::Layout::ColMajor);
      rhs_blk_[s] = la::DenseMatrix(n, nrhs, la::Layout::ColMajor);
      sol_blk_[s] = la::DenseMatrix(n, nrhs, la::Layout::ColMajor);
      q_blk_[s] = la::DenseMatrix(m, nrhs, la::Layout::ColMajor);
    }
    blk_nrhs_ = nrhs;
  }

  sparse::Backend backend_;
  sparse::OrderingKind ordering_;
  std::vector<std::unique_ptr<sparse::DirectSolver>> solvers_;
  std::vector<std::vector<double>> lam_, tmp_, tmp2_, q_;
  std::vector<la::DenseMatrix> lam_blk_, rhs_blk_, sol_blk_, q_blk_;
  idx blk_nrhs_ = 0;
};

// ---------------------------------------------------------------------------
// Shared pieces of the explicit CPU operators.
// ---------------------------------------------------------------------------

/// Common explicit-CPU state: dense F̃ᵢ (upper triangle) + SYMV/SYMM
/// application. `T` is the persistent F̃ storage scalar (the same pattern
/// as ExplicitGpuDualOpT): double for the fp64 operators, float for the
/// mixed-precision " f32" keys — assembly always runs in fp64 (a scratch
/// block demoted via commit_f), the apply streams T through the
/// T-instantiated SYMV/SYMM kernels, and the cluster-wide dual vectors
/// stay fp64 (the scatter downcasts, the gather accumulates in fp64).
template <typename T>
class ExplicitCpuBaseT : public DualOperator {
 public:
  using DualOperator::DualOperator;

  [[nodiscard]] std::size_t apply_bytes() const override {
    std::size_t total = 0;
    for (const auto& f : f_) total += f.size() * sizeof(T);
    return total;
  }

 protected:
  void apply_one(const double* x, double* y) override {
    const idx nsub = p_.num_subdomains();
    OmpExceptionGuard guard;
#pragma omp parallel for schedule(dynamic)
    for (idx s = 0; s < nsub; ++s) {
      guard.run([&, s] {
        const auto& map = p_.sub[s].lm_l2c;
        for (std::size_t i = 0; i < map.size(); ++i)
          lam_[s][i] = static_cast<T>(x[map[i]]);
        la::symv(la::Uplo::Upper, 1.0, f_[s].cview(), lam_[s].data(), 0.0,
                 q_[s].data());
      });
    }
    guard.rethrow();
    std::fill_n(y, p_.num_lambdas, 0.0);
    // fp64 accumulation at the dual-vector reduction.
    for (idx s = 0; s < nsub; ++s) {
      const auto& map = p_.sub[s].lm_l2c;
      for (std::size_t i = 0; i < map.size(); ++i)
        y[map[i]] += static_cast<double>(q_[s][i]);
    }
  }

  void apply_many(const double* x, double* y, idx nrhs) override {
    // One SYMM per subdomain — the BLAS-3 payoff of the explicit
    // representation for block solvers. The blocks are row-major so the
    // SYMM inner loops stream contiguously over the right-hand sides.
    const idx nsub = p_.num_subdomains();
    const std::size_t stride = static_cast<std::size_t>(p_.num_lambdas);
    ensure_block_buffers(nrhs);
    // The cached blocks may be wider than this batch; their row stride is
    // the allocated width.
    const std::size_t ld = static_cast<std::size_t>(blk_nrhs_);
    OmpExceptionGuard guard;
#pragma omp parallel for schedule(dynamic)
    for (idx s = 0; s < nsub; ++s) {
      guard.run([&, s] {
        const auto& map = p_.sub[s].lm_l2c;
        const idx m = p_.sub[s].num_local_lambdas();
        T* lam = lam_blk_[s].data();
        for (std::size_t i = 0; i < map.size(); ++i) {
          const double* xg = x + map[i];
          T* row = lam + i * ld;
          for (idx j = 0; j < nrhs; ++j)
            row[j] =
                static_cast<T>(xg[static_cast<std::size_t>(j) * stride]);
        }
        la::ConstDenseViewT<T> lamv(lam, m, nrhs, blk_nrhs_,
                                    la::Layout::RowMajor);
        la::DenseViewT<T> qv{q_blk_[s].data(), m, nrhs, blk_nrhs_,
                             la::Layout::RowMajor};
        la::symm(la::Uplo::Upper, 1.0, f_[s].cview(), lamv, 0.0, qv);
      });
    }
    guard.rethrow();
    std::fill_n(y, stride * static_cast<std::size_t>(nrhs), 0.0);
    for (idx s = 0; s < nsub; ++s) {
      const auto& map = p_.sub[s].lm_l2c;
      const T* q = q_blk_[s].data();
      for (std::size_t i = 0; i < map.size(); ++i) {
        double* yg = y + map[i];
        const T* row = q + i * ld;
        for (idx j = 0; j < nrhs; ++j)
          yg[static_cast<std::size_t>(j) * stride] +=
              static_cast<double>(row[j]);
      }
    }
  }

  /// Grow-only per-subdomain block workspaces; narrower batches reuse the
  /// leading columns with the allocated width as row stride.
  void ensure_block_buffers(idx nrhs) {
    if (blk_nrhs_ >= nrhs) return;
    const idx nsub = p_.num_subdomains();
    lam_blk_.resize(static_cast<std::size_t>(nsub));
    q_blk_.resize(lam_blk_.size());
    for (idx s = 0; s < nsub; ++s) {
      const idx m = p_.sub[s].num_local_lambdas();
      lam_blk_[s] = la::DenseMatrixT<T>(m, nrhs, la::Layout::RowMajor);
      q_blk_[s] = la::DenseMatrixT<T>(m, nrhs, la::Layout::RowMajor);
    }
    blk_nrhs_ = nrhs;
  }

  void alloc_dense_f() {
    const idx nsub = p_.num_subdomains();
    f_.resize(static_cast<std::size_t>(nsub));
    lam_.resize(f_.size());
    q_.resize(f_.size());
    for (idx s = 0; s < nsub; ++s) {
      const idx m = p_.sub[s].num_local_lambdas();
      f_[s] = la::DenseMatrixT<T>(m, m, la::Layout::ColMajor);
      lam_[s].resize(static_cast<std::size_t>(m));
      q_[s].resize(static_cast<std::size_t>(m));
    }
  }

  /// The fp64 assembly target of one subdomain: the persistent block
  /// itself for the fp64 operator, a caller-provided scratch for the fp32
  /// one (demoted into the persistent block via commit_f afterwards).
  [[nodiscard]] la::DenseView assembly_target(idx s,
                                              la::DenseMatrix& scratch) {
    if constexpr (std::is_same_v<T, float>) {
      const idx m = p_.sub[s].num_local_lambdas();
      scratch = la::DenseMatrix(m, m, la::Layout::ColMajor);
      return scratch.view();
    } else {
      return f_[s].view();
    }
  }

  /// Commits an assembled subdomain: the fp32 operator demotes the fp64
  /// scratch triangle into the persistent block; the fp64 one already
  /// assembled in place (no-op).
  void commit_f([[maybe_unused]] idx s,
                [[maybe_unused]] const la::DenseMatrix& scratch) {
    if constexpr (std::is_same_v<T, float>)
      la::demote_triangle(la::Uplo::Upper, scratch.cview(), f_[s].view());
  }

  std::vector<la::DenseMatrixT<T>> f_;
  std::vector<std::vector<T>> lam_, q_;
  std::vector<la::DenseMatrixT<T>> lam_blk_, q_blk_;
  idx blk_nrhs_ = 0;
};

/// expl mkl: augmented incomplete factorization (Schur path).
template <typename T>
class ExplicitCpuSchurDualOp final : public ExplicitCpuBaseT<T> {
  using Base = ExplicitCpuBaseT<T>;
  using Base::p_, Base::timings_;
  using UpdatePlan = DualOperator::UpdatePlan;

 public:
  ExplicitCpuSchurDualOp(const decomp::FetiProblem& p,
                         sparse::OrderingKind ordering, bool sparsity)
      : Base(p), ordering_(ordering), sparsity_(sparsity) {}

  void prepare() override {
    ScopedTimer t(timings_, "prepare");
    const idx nsub = p_.num_subdomains();
    solvers_.resize(static_cast<std::size_t>(nsub));
    if (sparsity_) {
      boundary_.resize(solvers_.size());
      e_b_.resize(solvers_.size());
    }
    this->alloc_dense_f();
    OmpExceptionGuard guard;
#pragma omp parallel for schedule(dynamic)
    for (idx s = 0; s < nsub; ++s) {
      guard.run([&, s] {
        solvers_[s] = std::make_unique<sparse::SupernodalCholesky>();
        if (sparsity_) {
          // Boundary-restricted Schur: the augmented factorization runs
          // against the nb-row selection E_b instead of the m-row B̃ᵢ.
          boundary_[s] = decomp::boundary_dofs(p_.sub[s]);
          e_b_[s] = decomp::boundary_selection(boundary_[s],
                                               p_.sub[s].ndof());
          if (boundary_[s].count() > 0)
            solvers_[s]->analyze_schur(p_.sub[s].k_reg, e_b_[s], ordering_);
          else
            solvers_[s]->analyze(p_.sub[s].k_reg, ordering_);
        } else {
          solvers_[s]->analyze_schur(p_.sub[s].k_reg, p_.sub[s].b,
                                     ordering_);
        }
      });
    }
    guard.rethrow();
  }

  void update_values() override {
    ScopedTimer t(timings_, "update_values");
    const UpdatePlan plan = this->begin_update();
    if (plan.skip()) return;
    const idx nd = static_cast<idx>(plan.dirty.size());
    OmpExceptionGuard guard;
#pragma omp parallel for schedule(dynamic)
    for (idx k = 0; k < nd; ++k) {
      guard.run([&, k] {
        const idx s = plan.dirty[static_cast<std::size_t>(k)];
        la::DenseMatrix scratch;
        la::DenseView target = this->assembly_target(s, scratch);
        if (sparsity_) {
          const idx nb = boundary_[s].count();
          if (nb == 0) {
            solvers_[s]->factorize(p_.sub[s].k_reg);
            la::set_zero(target);
          } else {
            la::DenseMatrix g(nb, nb, la::Layout::ColMajor);
            solvers_[s]->factorize_schur(p_.sub[s].k_reg, e_b_[s], g.view(),
                                         la::Uplo::Upper);
            decomp::expand_boundary(boundary_[s].b_b, g.view(),
                                    la::Uplo::Upper, target);
            this->solve_columns_.fetch_add(nb, std::memory_order_relaxed);
          }
        } else {
          solvers_[s]->factorize_schur(p_.sub[s].k_reg, p_.sub[s].b, target,
                                       la::Uplo::Upper);
          this->solve_columns_.fetch_add(p_.sub[s].num_local_lambdas(),
                                         std::memory_order_relaxed);
        }
        this->commit_f(s, scratch);
      });
    }
    guard.rethrow();
    this->end_update(plan);
  }

  void kplus_solve(idx sub, const double* b, double* x) const override {
    solvers_[sub]->solve(b, x);
  }

 private:
  sparse::OrderingKind ordering_;
  bool sparsity_;
  std::vector<std::unique_ptr<sparse::SupernodalCholesky>> solvers_;
  std::vector<decomp::BoundaryDofs> boundary_;  ///< sp only
  std::vector<la::Csr> e_b_;                    ///< sp only: selection E_b
};

/// expl cholmod: factor extraction, densified B̃ᵀ, TRSM + SYRK. The solve
/// panel's columns run in staircase order (la::staircase_order), so the
/// forward solve and the Gram product skip the zero staircase; the dense
/// variant un-permutes the Gram block into F̃ᵢ's λ order, the sp variant
/// numbers the boundary in that order and renumbers B_b's columns to match.
template <typename T>
class ExplicitCpuTrsmDualOp final : public ExplicitCpuBaseT<T> {
  using Base = ExplicitCpuBaseT<T>;
  using Base::p_, Base::timings_;
  using UpdatePlan = DualOperator::UpdatePlan;

 public:
  ExplicitCpuTrsmDualOp(const decomp::FetiProblem& p,
                        sparse::OrderingKind ordering, bool sparsity)
      : Base(p), ordering_(ordering), sparsity_(sparsity) {}

  void prepare() override {
    ScopedTimer t(timings_, "prepare");
    const idx nsub = p_.num_subdomains();
    solvers_.resize(static_cast<std::size_t>(nsub));
    bperm_.resize(solvers_.size());
    work_.resize(solvers_.size());
    if (sparsity_)
      b_b_.resize(solvers_.size());
    else
      pos_.resize(solvers_.size());
    this->alloc_dense_f();
    OmpExceptionGuard guard;
#pragma omp parallel for schedule(dynamic)
    for (idx s = 0; s < nsub; ++s) {
      guard.run([&, s] {
        const auto& fs = p_.sub[s];
        solvers_[s] = std::make_unique<sparse::SimplicialCholesky>();
        solvers_[s]->analyze(fs.k_reg, ordering_);
        const std::vector<idx>& perm = solvers_[s]->permutation();
        if (sparsity_) {
          // Boundary-restricted RHS: the forward solve runs against the
          // nb-column selection E_bᵀ instead of the m-column densified B̃ᵢᵀ.
          const decomp::BoundaryDofs boundary = decomp::boundary_dofs(fs);
          const la::Csr panel = la::permute_columns(
              decomp::boundary_selection(boundary, fs.ndof()), perm);
          const std::vector<idx> order = la::staircase_order(panel);
          bperm_[s] = la::permute_rows(panel, order);
          b_b_[s] = la::permute_columns(boundary.b_b, order);
        } else {
          const la::Csr panel = la::permute_columns(fs.b, perm);
          const std::vector<idx> order = la::staircase_order(panel);
          bperm_[s] = la::permute_rows(panel, order);
          pos_[s] = la::invert_permutation(order);
        }
        work_[s] = la::staircase_solve_work(
            solvers_[s]->factor_upper_structure(), bperm_[s]);
      });
    }
    guard.rethrow();
  }

  void update_values() override {
    ScopedTimer t(timings_, "update_values");
    const UpdatePlan plan = this->begin_update();
    if (plan.skip()) return;
    const idx nd = static_cast<idx>(plan.dirty.size());
    OmpExceptionGuard guard;
#pragma omp parallel for schedule(dynamic)
    for (idx k = 0; k < nd; ++k) {
      guard.run([&, k] {
        const idx s = plan.dirty[static_cast<std::size_t>(k)];
        const auto& fs = p_.sub[s];
        solvers_[s]->factorize(fs.k_reg);
        const la::Csr& u = solvers_[s]->factor_upper();
        // The solve panel: the sp variant restricts it to the nb boundary
        // columns (E_b Pᵀ)ᵀ; the dense one densifies all m columns of
        // (B̃ᵢ Pᵀ)ᵀ — the point the paper makes about this approach: the
        // sparsity of B̃ᵢ is not used.
        const la::Csr& panel = bperm_[s];
        const idx cols = panel.nrows();
        if (sparsity_ && cols == 0) {
          this->f_[s].set_zero();
          return;
        }
        la::DenseMatrix x(fs.ndof(), cols, la::Layout::RowMajor);
        for (idx r = 0; r < cols; ++r)
          for (idx e = panel.row_begin(r); e < panel.row_end(r); ++e)
            x.at(panel.col(e), r) = panel.val(e);
        // Forward solve L X = X (U^T X = X), then the Gram matrix X^T X in
        // staircase order: G_bb = E_b K⁻¹ E_bᵀ for sp, F̃ᵢ for dense.
        la::sp_trsm(la::Uplo::Upper, la::Trans::Yes, u, x.view());
        la::DenseMatrix g(cols, cols, la::Layout::ColMajor);
        la::syrk(la::Uplo::Upper, la::Trans::Yes, 1.0, x.cview(), 0.0,
                 g.view());
        if (sparsity_) {
          la::DenseMatrix scratch;
          la::DenseView target = this->assembly_target(s, scratch);
          decomp::expand_boundary(b_b_[s], g.view(), la::Uplo::Upper,
                                  target);
          this->commit_f(s, scratch);
        } else {
          la::unpermute_triangle(la::Uplo::Upper, pos_[s].data(), g.cview(),
                                 this->f_[s].view());
        }
        this->solve_columns_.fetch_add(cols, std::memory_order_relaxed);
        this->solve_work_.fetch_add(work_[s], std::memory_order_relaxed);
      });
    }
    guard.rethrow();
    this->end_update(plan);
  }

  void kplus_solve(idx sub, const double* b, double* x) const override {
    solvers_[sub]->solve(b, x);
  }

 private:
  sparse::OrderingKind ordering_;
  bool sparsity_;
  std::vector<std::unique_ptr<sparse::SimplicialCholesky>> solvers_;
  /// The staircase-ordered solve panel: (B̃ᵢ Pᵀ) rows for dense, (E_b Pᵀ)
  /// rows for sp.
  std::vector<la::Csr> bperm_;
  std::vector<long> work_;  ///< staircase_solve_work per refresh
  std::vector<std::vector<idx>> pos_;  ///< dense: λ -> staircase position
  /// sp: B_b with its columns in the panel's (elimination) order.
  std::vector<la::Csr> b_b_;
};

}  // namespace

std::unique_ptr<DualOperator> make_implicit_cpu(
    const decomp::FetiProblem& p, sparse::Backend backend,
    sparse::OrderingKind ordering) {
  return std::make_unique<ImplicitCpuDualOp>(p, backend, ordering);
}

std::unique_ptr<DualOperator> make_explicit_cpu_schur(
    const decomp::FetiProblem& p, sparse::OrderingKind ordering,
    Precision precision, bool sparsity) {
  if (precision == Precision::F32)
    return std::make_unique<ExplicitCpuSchurDualOp<float>>(p, ordering,
                                                           sparsity);
  return std::make_unique<ExplicitCpuSchurDualOp<double>>(p, ordering,
                                                          sparsity);
}

std::unique_ptr<DualOperator> make_explicit_cpu_trsm(
    const decomp::FetiProblem& p, sparse::OrderingKind ordering,
    Precision precision, bool sparsity) {
  if (precision == Precision::F32)
    return std::make_unique<ExplicitCpuTrsmDualOp<float>>(p, ordering,
                                                          sparsity);
  return std::make_unique<ExplicitCpuTrsmDualOp<double>>(p, ordering,
                                                         sparsity);
}

void register_cpu_dual_operators(DualOperatorRegistry& registry) {
  // The explicit families compose with the " sp" and " f32" axes; the
  // factories read both off the parsed key.
  registry.add(
      {"impl mkl", parse_axes("impl mkl"),
       "implicit application, supernodal (PARDISO-like) solver on the CPU"},
      [](const decomp::FetiProblem& p, const DualOpConfig& c,
         const ApproachAxes&, gpu::ExecutionContext*) {
        return make_implicit_cpu(p, sparse::Backend::Supernodal, c.ordering);
      });
  registry.add(
      {"impl cholmod", parse_axes("impl cholmod"),
       "implicit application, simplicial (CHOLMOD-like) solver on the CPU"},
      [](const decomp::FetiProblem& p, const DualOpConfig& c,
         const ApproachAxes&, gpu::ExecutionContext*) {
        return make_implicit_cpu(p, sparse::Backend::Simplicial, c.ordering);
      });
  registry.add(
      {"expl mkl", parse_axes("expl mkl"),
       "explicit F̃ via the augmented Schur complement on the CPU"},
      [](const decomp::FetiProblem& p, const DualOpConfig& c,
         const ApproachAxes& a, gpu::ExecutionContext*) {
        return make_explicit_cpu_schur(p, c.ordering, a.precision, a.sparsity);
      });
  registry.add(
      {"expl cholmod", parse_axes("expl cholmod"),
       "explicit F̃ via factor extraction + dense TRSM on the CPU"},
      [](const decomp::FetiProblem& p, const DualOpConfig& c,
         const ApproachAxes& a, gpu::ExecutionContext*) {
        return make_explicit_cpu_trsm(p, c.ordering, a.precision, a.sparsity);
      });
}

}  // namespace feti::core
