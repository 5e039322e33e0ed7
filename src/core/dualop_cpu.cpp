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
// The families share one base (CpuDualOpBase), the host mirror of the GPU
// families' GpuDualOpBase: it owns the per-subdomain loops of prepare() and
// update_values() and serves both apply hooks through the host apply path
// of core/host_dual_vectors.hpp, so a family writes only its algebra.
//
// register_cpu_dual_operators() at the bottom is this family's entry in
// the DualOperatorRegistry.

#include <type_traits>

#include "core/dualop_impls.hpp"
#include "core/dualop_registry.hpp"
#include "core/host_dual_vectors.hpp"
#include "decomp/boundary.hpp"
#include "la/blas_dense.hpp"
#include "la/blas_sparse.hpp"
#include "sparse/simplicial_cholesky.hpp"
#include "sparse/supernodal_cholesky.hpp"
#include "util/parallel.hpp"

namespace feti::core {

namespace {

// ---------------------------------------------------------------------------
// Shared scaffolding of the CPU families
// ---------------------------------------------------------------------------

/// Everything the implicit, Schur and TRSM CPU families share — the host
/// mirror of GpuDualOpBase. The lifecycle entry points and both apply hooks
/// are written once here; a family supplies its algebra through three
/// hooks:
///
///   prepare_sub(s)  — pattern-only setup of one subdomain;
///   refresh(s)      — numeric refresh of one dirty subdomain;
///   local_apply(s, lam, q) — the local kernel q = F̃ₛ lam on the host
///                     panels of core/host_dual_vectors.hpp. lam.cols == 1
///                     is the contiguous width-1 vector: families take
///                     their vector kernel there.
///
/// The first two run concurrently for distinct subdomains, so a family
/// sizes its per-subdomain containers at construction.
template <typename T>
class CpuDualOpBase : public DualOperator {
 public:
  void prepare() final {
    ScopedTimer t(timings_, "prepare");
    parallel_for(p_.num_subdomains(), [this](idx s) { prepare_sub(s); });
    vectors_.prepare(p_);
  }

  void update_values() final {
    ScopedTimer t(timings_, "update_values");
    const UpdatePlan plan = begin_update();
    if (plan.skip()) return;
    parallel_for(static_cast<idx>(plan.dirty.size()), [&](idx k) {
      refresh(plan.dirty[static_cast<std::size_t>(k)]);
    });
    end_update(plan);
  }

 protected:
  using DualOperator::DualOperator;

  virtual void prepare_sub(idx s) = 0;
  virtual void refresh(idx s) = 0;
  virtual void local_apply(idx s, la::ConstDenseViewT<T> lam,
                           la::DenseViewT<T> q) = 0;

  void apply_one(const double* x, double* y) final { apply_many(x, y, 1); }

  void apply_many(const double* x, double* y, idx nrhs) final {
    vectors_.apply(x, y, nrhs,
                   [this](idx s, la::DenseViewT<T> lam, la::DenseViewT<T> q) {
                     local_apply(s, lam, q);
                   });
  }

 private:
  HostDualVectorsT<T> vectors_;
};

// ---------------------------------------------------------------------------
// Implicit CPU (impl mkl / impl cholmod)
// ---------------------------------------------------------------------------

class ImplicitCpuDualOp final : public CpuDualOpBase<double> {
 public:
  ImplicitCpuDualOp(const decomp::FetiProblem& p, sparse::Backend backend,
                    sparse::OrderingKind ordering)
      : CpuDualOpBase(p), backend_(backend), ordering_(ordering),
        solvers_(p.sub.size()), rhs_(p.sub.size()), sol_(p.sub.size()) {}

  void kplus_solve(idx sub, const double* b, double* x) const override {
    solvers_[sub]->solve(b, x);
  }

 private:
  void prepare_sub(idx s) override {
    solvers_[s] = sparse::make_solver(backend_);
    solvers_[s]->analyze(p_.sub[s].k_reg, ordering_);
  }

  void refresh(idx s) override { solvers_[s]->factorize(p_.sub[s].k_reg); }

  /// SpMV(B̃ᵀ) → K⁺ solve → SpMV(B̃) at width 1; SpMM → multi-RHS solve →
  /// SpMM above, through grow-only n × capacity panels.
  void local_apply(idx s, la::ConstDenseView lam, la::DenseView q) override {
    const auto& fs = p_.sub[s];
    const la::DenseView rhs = grow_panel(rhs_[s], fs.ndof(), lam.cols);
    const la::DenseView sol = grow_panel(sol_[s], fs.ndof(), lam.cols);
    if (lam.cols == 1) {
      la::spmv_trans(1.0, fs.b, lam.data, 0.0, rhs.data);
      solvers_[s]->solve(rhs.data, sol.data);
      la::spmv(1.0, fs.b, sol.data, 0.0, q.data);
    } else {
      la::spmm(1.0, fs.b, la::Trans::Yes, lam, 0.0, rhs);
      solvers_[s]->solve_many(rhs, sol);
      la::spmm(1.0, fs.b, la::Trans::No, sol, 0.0, q);
    }
  }

  sparse::Backend backend_;
  sparse::OrderingKind ordering_;
  std::vector<std::unique_ptr<sparse::DirectSolver>> solvers_;
  std::vector<std::vector<double>> rhs_, sol_;
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
class ExplicitCpuBaseT : public CpuDualOpBase<T> {
 public:
  explicit ExplicitCpuBaseT(const decomp::FetiProblem& p)
      : CpuDualOpBase<T>(p), f_(p.sub.size()) {}

  [[nodiscard]] std::size_t apply_bytes() const override {
    std::size_t total = 0;
    for (const auto& f : f_) total += f.size() * sizeof(T);
    return total;
  }

 protected:
  using CpuDualOpBase<T>::p_;

  /// One SYMV per subdomain at width 1, one SYMM above — the BLAS-3 payoff
  /// of the explicit representation for block solvers.
  void local_apply(idx s, la::ConstDenseViewT<T> lam,
                   la::DenseViewT<T> q) final {
    if (lam.cols == 1)
      la::symv(la::Uplo::Upper, 1.0, f_[s].cview(), lam.data, 0.0, q.data);
    else
      la::symm(la::Uplo::Upper, 1.0, f_[s].cview(), lam, 0.0, q);
  }

  /// Allocates subdomain s's persistent m × m block.
  void alloc_f(idx s) {
    const idx m = p_.sub[s].num_local_lambdas();
    f_[s] = la::DenseMatrixT<T>(m, m, la::Layout::ColMajor);
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
};

/// expl mkl: augmented incomplete factorization (Schur path).
template <typename T>
class ExplicitCpuSchurDualOp final : public ExplicitCpuBaseT<T> {
  using Base = ExplicitCpuBaseT<T>;
  using Base::p_;

 public:
  ExplicitCpuSchurDualOp(const decomp::FetiProblem& p,
                         sparse::OrderingKind ordering, bool sparsity)
      : Base(p), ordering_(ordering), sparsity_(sparsity),
        solvers_(p.sub.size()), boundary_(sparsity ? p.sub.size() : 0),
        e_b_(boundary_.size()) {}

  void kplus_solve(idx sub, const double* b, double* x) const override {
    solvers_[sub]->solve(b, x);
  }

 private:
  void prepare_sub(idx s) override {
    this->alloc_f(s);
    solvers_[s] = std::make_unique<sparse::SupernodalCholesky>();
    if (sparsity_) {
      // Boundary-restricted Schur: the augmented factorization runs
      // against the nb-row selection E_b instead of the m-row B̃ᵢ.
      boundary_[s] = decomp::boundary_dofs(p_.sub[s]);
      e_b_[s] = decomp::boundary_selection(boundary_[s], p_.sub[s].ndof());
      if (boundary_[s].count() > 0)
        solvers_[s]->analyze_schur(p_.sub[s].k_reg, e_b_[s], ordering_);
      else
        solvers_[s]->analyze(p_.sub[s].k_reg, ordering_);
    } else {
      solvers_[s]->analyze_schur(p_.sub[s].k_reg, p_.sub[s].b, ordering_);
    }
  }

  void refresh(idx s) override {
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
        decomp::expand_boundary(boundary_[s].b_b, g.view(), la::Uplo::Upper,
                                target);
        this->solve_columns_.fetch_add(nb, std::memory_order_relaxed);
      }
    } else {
      solvers_[s]->factorize_schur(p_.sub[s].k_reg, p_.sub[s].b, target,
                                   la::Uplo::Upper);
      this->solve_columns_.fetch_add(p_.sub[s].num_local_lambdas(),
                                     std::memory_order_relaxed);
    }
    this->commit_f(s, scratch);
  }

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
  using Base::p_;

 public:
  ExplicitCpuTrsmDualOp(const decomp::FetiProblem& p,
                        sparse::OrderingKind ordering, bool sparsity)
      : Base(p), ordering_(ordering), sparsity_(sparsity),
        solvers_(p.sub.size()), bperm_(p.sub.size()), work_(p.sub.size()),
        pos_(sparsity ? 0 : p.sub.size()), b_b_(sparsity ? p.sub.size() : 0) {}

  void kplus_solve(idx sub, const double* b, double* x) const override {
    solvers_[sub]->solve(b, x);
  }

 private:
  void prepare_sub(idx s) override {
    this->alloc_f(s);
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
    work_[s] = la::staircase_solve_work(solvers_[s]->factor_upper_structure(),
                                        bperm_[s]);
  }

  void refresh(idx s) override {
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
    la::syrk(la::Uplo::Upper, la::Trans::Yes, 1.0, x.cview(), 0.0, g.view());
    if (sparsity_) {
      la::DenseMatrix scratch;
      la::DenseView target = this->assembly_target(s, scratch);
      decomp::expand_boundary(b_b_[s], g.view(), la::Uplo::Upper, target);
      this->commit_f(s, scratch);
    } else {
      la::unpermute_triangle(la::Uplo::Upper, pos_[s].data(), g.cview(),
                             this->f_[s].view());
    }
    this->solve_columns_.fetch_add(cols, std::memory_order_relaxed);
    this->solve_work_.fetch_add(work_[s], std::memory_order_relaxed);
  }

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
