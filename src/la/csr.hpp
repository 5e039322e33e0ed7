#pragma once

// Compressed sparse row matrices.
//
// Convention used throughout the library: a CSC matrix is represented as the
// Csr of its transpose. Functions that accept "factor order" parameters
// (row-major = CSR, col-major = CSC, per Table I of the paper) take a Csr
// plus a flag describing which interpretation applies.

#include <vector>

#include "la/dense.hpp"
#include "util/common.hpp"

namespace feti::la {

struct Triplet {
  idx row;
  idx col;
  double val;
};

/// Non-owning CSR view (used by the virtual GPU kernels, which operate on
/// raw device arrays).
struct CsrView {
  idx rows = 0;
  idx cols_ = 0;
  const idx* rowptr = nullptr;
  const idx* colidx = nullptr;
  const double* values = nullptr;

  [[nodiscard]] idx nrows() const { return rows; }
  [[nodiscard]] idx ncols() const { return cols_; }
  [[nodiscard]] idx nnz() const { return rowptr ? rowptr[rows] : 0; }
  [[nodiscard]] idx row_begin(idx r) const { return rowptr[r]; }
  [[nodiscard]] idx row_end(idx r) const { return rowptr[r + 1]; }
  [[nodiscard]] idx col(idx k) const { return colidx[k]; }
  [[nodiscard]] double val(idx k) const { return values[k]; }
};

class Csr {
 public:
  Csr() = default;
  /// Builds an empty (all-zero) matrix with the given shape.
  Csr(idx nrows, idx ncols)
      : nrows_(nrows), ncols_(ncols), rowptr_(static_cast<std::size_t>(nrows) + 1, 0) {}
  /// Takes ownership of pre-built arrays. Column indices must be sorted and
  /// unique within each row; validated in debug paths via validate().
  Csr(idx nrows, idx ncols, std::vector<idx> rowptr, std::vector<idx> colidx,
      std::vector<double> vals);

  [[nodiscard]] idx nrows() const { return nrows_; }
  [[nodiscard]] idx ncols() const { return ncols_; }
  [[nodiscard]] idx nnz() const {
    return rowptr_.empty() ? 0 : rowptr_.back();
  }

  [[nodiscard]] const std::vector<idx>& rowptr() const { return rowptr_; }
  [[nodiscard]] const std::vector<idx>& colidx() const { return colidx_; }
  [[nodiscard]] const std::vector<double>& vals() const { return vals_; }
  [[nodiscard]] std::vector<double>& vals() { return vals_; }

  [[nodiscard]] idx row_begin(idx r) const { return rowptr_[r]; }
  [[nodiscard]] idx row_end(idx r) const { return rowptr_[r + 1]; }
  [[nodiscard]] idx col(idx k) const { return colidx_[k]; }
  [[nodiscard]] double val(idx k) const { return vals_[k]; }

  /// Value at (r, c), zero if not stored. O(log nnz(row)).
  [[nodiscard]] double at(idx r, idx c) const;

  /// Builds from (row, col, value) triplets; duplicates are summed.
  static Csr from_triplets(idx nrows, idx ncols, std::vector<Triplet> t);

  /// Builds from a dense view, dropping exact zeros.
  static Csr from_dense(ConstDenseView a, double drop_tol = 0.0);

  [[nodiscard]] Csr transposed() const;

  /// Writes this matrix into `out` (must match shape); zero-fills first.
  void to_dense(DenseView out) const;
  [[nodiscard]] DenseMatrix to_dense(Layout layout = Layout::ColMajor) const;

  /// Returns the symmetric permutation P*A*P^T for pattern-symmetric A,
  /// where perm[new] = old. Requires square matrix.
  [[nodiscard]] Csr permuted_symmetric(const std::vector<idx>& perm) const;

  /// Keeps only the upper (or lower) triangle including the diagonal.
  [[nodiscard]] Csr triangle(Uplo uplo) const;

  /// Structural + ordering invariants; throws on violation (test helper).
  void validate() const;

  [[nodiscard]] CsrView view() const {
    return {nrows_, ncols_, rowptr_.data(), colidx_.data(), vals_.data()};
  }
  /// Implicit view conversion so Csr can be passed to CsrView kernels.
  operator CsrView() const { return view(); }  // NOLINT

 private:
  idx nrows_ = 0;
  idx ncols_ = 0;
  std::vector<idx> rowptr_{0};
  std::vector<idx> colidx_;
  std::vector<double> vals_;
};

/// Inverse of a permutation given as perm[new] = old.
std::vector<idx> invert_permutation(const std::vector<idx>& perm);

/// Column-permutes `b` by a solver's fill-reducing permutation (perm[new] =
/// old): (B P^T)(:, new) = B(:, perm[new]), so entry (r, j) moves to
/// (r, iperm[j]).
Csr permute_columns(const Csr& b, const std::vector<idx>& perm);

// ---- staircase order of a forward-solve panel ----
//
// The explicit assembly solves L X = panelᵀ, where each row of `panel`
// (B̃ Pᵀ or E_b Pᵀ) is one right-hand-side column. Column j of L⁻¹ panelᵀ
// is zero above the first stored entry of panel row j, so once the rows
// are sorted by first stored column the solution is zero above a
// staircase, and the solve and the Gram product can skip that region.

/// The stable order of `panel`'s rows by first stored column: order[k] is
/// the row placed k-th. Rows without entries go last. Pattern-only,
/// O(nrows + ncols + nnz).
std::vector<idx> staircase_order(const Csr& panel);

/// Row k of the result is row order[k] of `b` (order is a permutation).
Csr permute_rows(const Csr& b, const std::vector<idx>& order);

/// Counted work of the staircase-pruned forward solve L X = panelᵀ with
/// `upper` the pattern of U = Lᵀ (row k of U is column k of L): every
/// factor entry of column k times the live width at pivot k, one past the
/// last panel row whose first stored column is at most k. For a staircase-
/// ordered panel that is the number of columns not yet zero at k; the
/// unpruned solve would count nnz(L) × nrows(panel).
long staircase_solve_work(const Csr& upper, const Csr& panel);

}  // namespace feti::la
