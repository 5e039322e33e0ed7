#pragma once

// Sparse BLAS-like kernels on CSR operands: SpMV, SpMM, and sparse
// triangular solves with vector or dense right-hand sides. These are the
// sequential CPU reference implementations; the virtual GPU library provides
// the level-scheduled ("legacy") and generic-API ("modern") variants.

#include "la/csr.hpp"
#include "la/dense.hpp"

namespace feti::la {

/// y = alpha * A * x + beta * y.
void spmv(double alpha, CsrView a, const double* x, double beta,
          double* y);

/// y = alpha * A^T * x + beta * y.
void spmv_trans(double alpha, CsrView a, const double* x, double beta,
                double* y);

/// C = alpha * op(A) * B + beta * C with sparse A (CSR) and dense B, C.
void spmm(double alpha, CsrView a, Trans ta, ConstDenseView b, double beta,
          DenseView c);

/// In-place sparse triangular solve op(T) x = x. `uplo` names the triangle
/// the stored matrix occupies; rows must be sorted and the diagonal present.
void sp_trsv(Uplo uplo, Trans trans, CsrView t, double* x);

/// In-place sparse triangular solve with a dense multi-column RHS:
/// op(T) X = B, X overwriting B. Row-major B vectorizes across columns.
/// Both forward forms (stored lower without transpose, stored upper
/// transposed) prune a row-major B to its live width like la::trsm: the
/// scal/axpy of row r covers only [0, live), one past the last nonzero of
/// rows 0..r, skipping the zero staircase of a staircase-ordered panel
/// with bitwise-unchanged results.
void sp_trsm(Uplo uplo, Trans trans, CsrView t, DenseView b);

}  // namespace feti::la
