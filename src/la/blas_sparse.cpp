#include "la/blas_sparse.hpp"

#include "la/scale.hpp"

#include "la/blas_dense.hpp"

namespace feti::la {

void spmv(double alpha, CsrView a, const double* x, double beta,
          double* y) {
  for (idx r = 0; r < a.nrows(); ++r) {
    double acc = 0.0;
    for (idx k = a.row_begin(r); k < a.row_end(r); ++k)
      acc += a.val(k) * x[a.col(k)];
    detail::store_scaled(beta, y[r]);
    y[r] += alpha * acc;
  }
}

void spmv_trans(double alpha, CsrView a, const double* x, double beta,
                double* y) {
  detail::scale_vec(a.ncols(), beta, y);
  for (idx r = 0; r < a.nrows(); ++r) {
    const double xr = alpha * x[r];
    if (xr == 0.0) continue;
    for (idx k = a.row_begin(r); k < a.row_end(r); ++k)
      y[a.col(k)] += a.val(k) * xr;
  }
}

void spmm(double alpha, CsrView a, Trans ta, ConstDenseView b, double beta,
          DenseView c) {
  const idx m = ta == Trans::No ? a.nrows() : a.ncols();
  const idx k = ta == Trans::No ? a.ncols() : a.nrows();
  check(b.rows == k, "spmm: inner dimension mismatch");
  check(c.rows == m && c.cols == b.cols, "spmm: output dimension mismatch");
  // Scale C by beta (beta == 0 overwrites without reading).
  for (idx r = 0; r < c.rows; ++r)
    for (idx j = 0; j < c.cols; ++j) detail::store_scaled(beta, c.at(r, j));

  if (ta == Trans::No) {
    if (c.layout == Layout::RowMajor && b.layout == Layout::RowMajor) {
      // Fast path: accumulate scaled B rows into C rows.
      for (idx r = 0; r < a.nrows(); ++r) {
        double* crow = c.data + static_cast<widx>(r) * c.ld;
        for (idx p = a.row_begin(r); p < a.row_end(r); ++p) {
          const double v = alpha * a.val(p);
          const double* brow = b.data + static_cast<widx>(a.col(p)) * b.ld;
          axpy(b.cols, v, brow, crow);
        }
      }
    } else {
      for (idx r = 0; r < a.nrows(); ++r)
        for (idx p = a.row_begin(r); p < a.row_end(r); ++p) {
          const double v = alpha * a.val(p);
          const idx bc = a.col(p);
          for (idx j = 0; j < b.cols; ++j) c.at(r, j) += v * b.at(bc, j);
        }
    }
  } else {
    // C = alpha * A^T * B: scatter row r of A into all C rows it touches.
    for (idx r = 0; r < a.nrows(); ++r)
      for (idx p = a.row_begin(r); p < a.row_end(r); ++p) {
        const double v = alpha * a.val(p);
        const idx cr = a.col(p);
        if (c.layout == Layout::RowMajor && b.layout == Layout::RowMajor) {
          axpy(b.cols, v, b.data + static_cast<widx>(r) * b.ld,
               c.data + static_cast<widx>(cr) * c.ld);
        } else {
          for (idx j = 0; j < b.cols; ++j) c.at(cr, j) += v * b.at(r, j);
        }
      }
  }
}

void sp_trsv(Uplo uplo, Trans trans, CsrView t, double* x) {
  DenseView b{x, t.nrows(), 1, t.nrows(), Layout::ColMajor};
  sp_trsm(uplo, trans, t, b);
}

namespace {

// The two forward forms prune a row-major RHS to its live width, as the
// dense forward TRSM does (la/blas_dense.cpp): row r is nonzero only in
// [0, live), one past the furthest nonzero of rows 0..r, so the scal and
// axpy work on a staircase-ordered panel skips its zero upper-right part.

/// Forward substitution, stored-lower CSR, no transpose. Diagonal is the
/// last entry of each row (rows sorted). Gather form.
void lower_notrans(CsrView t, DenseView b) {
  const idx n = t.nrows();
  const bool rm = b.layout == Layout::RowMajor;
  idx live = 0;
  for (idx r = 0; r < n; ++r) {
    const idx e = t.row_end(r) - 1;
    FETI_ASSERT(t.col(e) == r, "sp_trsm: missing diagonal");
    const double dinv = 1.0 / t.val(e);
    if (rm) {
      double* xr = b.data + static_cast<widx>(r) * b.ld;
      // The gathered rows are all earlier, so nonzero only in [0, live).
      for (idx k = t.row_begin(r); k < e; ++k)
        axpy(live, -t.val(k), b.data + static_cast<widx>(t.col(k)) * b.ld,
             xr);
      live = detail::extend_live(xr, b.cols, live);
      scal(live, dinv, xr);
    } else {
      for (idx j = 0; j < b.cols; ++j) {
        double acc = b.at(r, j);
        for (idx k = t.row_begin(r); k < e; ++k)
          acc -= t.val(k) * b.at(t.col(k), j);
        b.at(r, j) = acc * dinv;
      }
    }
  }
}

/// Backward substitution solving L^T x = b with stored-lower CSR. Scatter
/// form: once x_r is final, subtract L(r, c) * x_r from all c < r.
void lower_trans(CsrView t, DenseView b) {
  const idx n = t.nrows();
  const bool rm = b.layout == Layout::RowMajor;
  for (idx r = n - 1; r >= 0; --r) {
    const idx e = t.row_end(r) - 1;
    FETI_ASSERT(t.col(e) == r, "sp_trsm: missing diagonal");
    const double dinv = 1.0 / t.val(e);
    if (rm) {
      double* xr = b.data + static_cast<widx>(r) * b.ld;
      scal(b.cols, dinv, xr);
      for (idx k = t.row_begin(r); k < e; ++k)
        axpy(b.cols, -t.val(k), xr,
             b.data + static_cast<widx>(t.col(k)) * b.ld);
    } else {
      for (idx j = 0; j < b.cols; ++j) b.at(r, j) *= dinv;
      for (idx k = t.row_begin(r); k < e; ++k) {
        const double v = t.val(k);
        const idx c = t.col(k);
        for (idx j = 0; j < b.cols; ++j) b.at(c, j) -= v * b.at(r, j);
      }
    }
  }
}

/// Backward substitution, stored-upper CSR, no transpose. Diagonal first.
void upper_notrans(CsrView t, DenseView b) {
  const idx n = t.nrows();
  const bool rm = b.layout == Layout::RowMajor;
  for (idx r = n - 1; r >= 0; --r) {
    const idx s = t.row_begin(r);
    FETI_ASSERT(t.col(s) == r, "sp_trsm: missing diagonal");
    const double dinv = 1.0 / t.val(s);
    if (rm) {
      double* xr = b.data + static_cast<widx>(r) * b.ld;
      for (idx k = s + 1; k < t.row_end(r); ++k)
        axpy(b.cols, -t.val(k), b.data + static_cast<widx>(t.col(k)) * b.ld,
             xr);
      scal(b.cols, dinv, xr);
    } else {
      for (idx j = 0; j < b.cols; ++j) {
        double acc = b.at(r, j);
        for (idx k = s + 1; k < t.row_end(r); ++k)
          acc -= t.val(k) * b.at(t.col(k), j);
        b.at(r, j) = acc * dinv;
      }
    }
  }
}

/// Forward substitution solving U^T x = b with stored-upper CSR.
void upper_trans(CsrView t, DenseView b) {
  const idx n = t.nrows();
  const bool rm = b.layout == Layout::RowMajor;
  idx live = 0;
  for (idx r = 0; r < n; ++r) {
    const idx s = t.row_begin(r);
    FETI_ASSERT(t.col(s) == r, "sp_trsm: missing diagonal");
    const double dinv = 1.0 / t.val(s);
    if (rm) {
      double* xr = b.data + static_cast<widx>(r) * b.ld;
      live = detail::extend_live(xr, b.cols, live);
      scal(live, dinv, xr);
      for (idx k = s + 1; k < t.row_end(r); ++k)
        axpy(live, -t.val(k), xr,
             b.data + static_cast<widx>(t.col(k)) * b.ld);
    } else {
      for (idx j = 0; j < b.cols; ++j) b.at(r, j) *= dinv;
      for (idx k = s + 1; k < t.row_end(r); ++k) {
        const double v = t.val(k);
        const idx c = t.col(k);
        for (idx j = 0; j < b.cols; ++j) b.at(c, j) -= v * b.at(r, j);
      }
    }
  }
}

}  // namespace

void sp_trsm(Uplo uplo, Trans trans, CsrView t, DenseView b) {
  check(t.nrows() == t.ncols(), "sp_trsm: factor must be square");
  check(t.nrows() == b.rows, "sp_trsm: dimension mismatch");
  if (t.nrows() == 0 || b.cols == 0) return;
  if (uplo == Uplo::Lower) {
    if (trans == Trans::No)
      lower_notrans(t, b);
    else
      lower_trans(t, b);
  } else {
    if (trans == Trans::No)
      upper_notrans(t, b);
    else
      upper_trans(t, b);
  }
}

}  // namespace feti::la
