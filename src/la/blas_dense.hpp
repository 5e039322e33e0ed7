#pragma once

// Dense BLAS-like kernels operating on layout-aware views.
//
// These are the CPU reference kernels; the virtual GPU library (src/gpu)
// wraps them with stream semantics and cuBLAS-style calling conventions.
// All kernels accept any combination of row-/col-major operands because the
// paper's Table-I parameter space explicitly sweeps memory orders.

#include "la/dense.hpp"

namespace feti::la {

// ---- level 1 ----

double dot(idx n, const double* x, const double* y);
void axpy(idx n, double alpha, const double* x, double* y);
void scal(idx n, double alpha, double* x);
double nrm2(idx n, const double* x);

// ---- level 2 ----

/// y = alpha * op(A) * x + beta * y.
void gemv(double alpha, ConstDenseView a, Trans trans, const double* x,
          double beta, double* y);

/// y = alpha * A * x + beta * y for symmetric A with only the `uplo`
/// triangle stored/referenced. The stored triangle is read as contiguous
/// columns in either layout, so both layouts stream at the same speed.
void symv(Uplo uplo, double alpha, ConstDenseView a, const double* x,
          double beta, double* y);

/// Solves op(A) x = b in place; A triangular (`uplo` names A's stored
/// triangle before transposition).
void trsv(Uplo uplo, Trans trans, ConstDenseView a, double* x);

// ---- level 3 ----

/// C = alpha * op(A) * op(B) + beta * C.
void gemm(double alpha, ConstDenseView a, Trans ta, ConstDenseView b,
          Trans tb, double beta, DenseView c);

/// C = alpha * A * B + beta * C for symmetric A (left side) with only the
/// `uplo` triangle stored/referenced — the multi-column companion of symv:
/// every column of C rounds exactly like a symv of that column of B.
void symm(Uplo uplo, double alpha, ConstDenseView a, ConstDenseView b,
          double beta, DenseView c);

/// Symmetric rank-k update writing one triangle of C:
///   trans == No : C = alpha * A * A^T + beta * C   (A is n x k)
///   trans == Yes: C = alpha * A^T * A + beta * C   (A is k x n)
/// Only the `uplo` triangle of C is read or written, line by line in C's
/// storage order. Staircase pruning: when the rows of op(A) are contiguous,
/// each element is alpha times a dot product that starts at the later
/// first nonzero of its two rows; otherwise each element accumulates its
/// rank-1 terms (alpha·a_r)·a_j in ascending p, and the kernel keeps a
/// running live width (one past the last nonzero of the panel rows seen so
/// far) outside which it touches nothing. Both skip only exact-zero terms,
/// so a forward-solve panel in staircase order costs far less and the
/// result is bitwise that of the unpruned sum, whatever the panel order.
void syrk(Uplo uplo, Trans trans, double alpha, ConstDenseView a, double beta,
          DenseView c);

/// Solves op(A) * X = B in place of B (left side, unit diagonal not
/// supported — factors here always carry explicit diagonals). A forward
/// solve with a row-major B keeps a running live width — one past the last
/// nonzero of the rows reached so far — and runs its scal/axpy over
/// [0, live) only, so the zero upper-right staircase of a panel whose
/// columns are sorted by first nonzero (la::staircase_order) is skipped;
/// the result is bitwise unchanged, and unsorted panels only prune less.
void trsm(Uplo uplo, Trans trans, ConstDenseView a, DenseView b);

/// Dense Cholesky factorization A = L L^T in place (lower triangle holds L,
/// strict upper triangle is zeroed). Returns false if A is not positive
/// definite. Used for the FETI coarse problem G^T G.
bool potrf_lower(DenseView a);

/// Rank-revealing Cholesky with diagonal pivoting (LAPACK dpstrf shape):
/// P A Pᵀ = L Lᵀ for symmetric positive *semi*definite A. At each step the
/// largest remaining diagonal pivots; the factorization stops once that
/// pivot drops to `rel_tolerance` times the largest initial diagonal (or
/// below zero), and the achieved rank is returned. On exit the leading
/// rank×rank block of the lower triangle holds L in pivoted order and
/// `perm[k]` names the original index factored at step k (perm has size n).
/// Columns beyond the returned rank are numerically dependent on the kept
/// ones — block-PCPG deflates them instead of declaring breakdown.
idx potrf_pivoted_lower(DenseView a, idx* perm, double rel_tolerance);

// ---- mixed precision (fp32 storage) ----
//
// The apply-phase kernels of the mixed-precision explicit dual operators:
// fp32 instantiations of the same kernel bodies as the fp64 API above —
// half the bytes streamed. The fp64 accumulation of the mixed-precision
// design happens at the dual-vector reduction (the gather into the fp64
// cluster vector), not here.
// alpha/beta stay fp64 in the signature and are demoted on entry.

/// y = alpha * A * x + beta * y for symmetric fp32 A, one stored triangle.
void symv(Uplo uplo, double alpha, ConstDenseViewF32 a, const float* x,
          double beta, float* y);

/// y = alpha * op(A) * x + beta * y on fp32 storage.
void gemv(double alpha, ConstDenseViewF32 a, Trans trans, const float* x,
          double beta, float* y);

/// C = alpha * A * B + beta * C for symmetric fp32 A (left side).
void symm(Uplo uplo, double alpha, ConstDenseViewF32 a, ConstDenseViewF32 b,
          double beta, DenseViewF32 c);

/// C = alpha * op(A) * op(B) + beta * C on fp32 storage.
void gemm(double alpha, ConstDenseViewF32 a, Trans ta, ConstDenseViewF32 b,
          Trans tb, double beta, DenseViewF32 c);

}  // namespace feti::la
