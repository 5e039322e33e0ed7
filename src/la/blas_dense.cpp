#include "la/blas_dense.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "la/scale.hpp"

namespace feti::la {

namespace {

/// Strides for reading op(A) element (i, j) as data[i*s_i + j*s_j]. A
/// transposed read of one layout equals an untransposed read of the other,
/// so four (layout, trans) combinations collapse into two stride patterns.
template <typename T>
struct StridedT {
  const T* data;
  widx si;
  widx sj;
  [[nodiscard]] T at(idx i, idx j) const {
    return data[static_cast<widx>(i) * si + static_cast<widx>(j) * sj];
  }
};

using Strided = StridedT<double>;

template <typename T>
StridedT<T> make_op(ConstDenseViewT<T> a, Trans trans) {
  const bool row_like =
      (a.layout == Layout::RowMajor) != (trans == Trans::Yes);
  if (row_like) return {a.data, static_cast<widx>(a.ld), 1};
  return {a.data, 1, static_cast<widx>(a.ld)};
}

using detail::scale_vec;
using detail::store_scaled;

template <typename T>
T dot_t(idx n, const T* x, const T* y) {
  T s = T(0);
  for (idx i = 0; i < n; ++i) s += x[i] * y[i];
  return s;
}

template <typename T>
void axpy_t(idx n, T alpha, const T* x, T* y) {
  for (idx i = 0; i < n; ++i) y[i] += alpha * x[i];
}

// The level-2/3 kernel bodies are scalar-templated: the public fp64 API
// instantiates T = double, and the mixed-precision fp32 entry points at the
// bottom instantiate T = float — the same bodies in both precisions, half
// the bytes streamed in fp32.

template <typename T>
void gemv_impl(T alpha, ConstDenseViewT<T> a, Trans trans, const T* x,
               T beta, T* y) {
  const idx m = trans == Trans::No ? a.rows : a.cols;
  const idx n = trans == Trans::No ? a.cols : a.rows;
  const StridedT<T> op = make_op(a, trans);
  if (op.sj == 1) {
    // op(A) rows are contiguous: dot-product form.
    for (idx i = 0; i < m; ++i) {
      const T* row = op.data + static_cast<widx>(i) * op.si;
      store_scaled(beta, y[i]);
      y[i] += alpha * dot_t(n, row, x);
    }
    return;
  }
  // op(A) columns are contiguous: axpy form, four columns per sweep so y
  // is streamed once per four columns. Each y[i] still receives its column
  // terms one by one in column order, exactly as single-column axpys would
  // add them.
  scale_vec(m, beta, y);
  auto col = [&](idx j) { return op.data + static_cast<widx>(j) * op.sj; };
  idx j = 0;
  for (; j + 4 <= n; j += 4) {
    const T* c0 = col(j);
    const T* c1 = col(j + 1);
    const T* c2 = col(j + 2);
    const T* c3 = col(j + 3);
    const T a0 = alpha * x[j], a1 = alpha * x[j + 1];
    const T a2 = alpha * x[j + 2], a3 = alpha * x[j + 3];
    for (idx i = 0; i < m; ++i) {
      T yi = y[i];
      yi += a0 * c0[i];
      yi += a1 * c1[i];
      yi += a2 * c2[i];
      yi += a3 * c3[i];
      y[i] = yi;
    }
  }
  for (; j < n; ++j) axpy_t(m, alpha * x[j], col(j), y);
}

// ---- symmetric kernels ----
//
// A column-major Upper triangle is the same memory as a row-major Lower one
// (and column-major Lower the same as row-major Upper), so SYMV and SYMM
// read every stored triangle as contiguous columns of a column-major
// matrix. Column j holds rows 0..j when `upper`, rows j..n-1 otherwise.
// Columns are swept four at a time: the rows the four columns share (all
// rows above the 4x4 diagonal block, or all below it) stream x and y once
// for the four columns, then the diagonal block and any remainder columns
// run one column at a time. Per stored entry a(i, j), i != j, a column
// contributes a(i, j)·(alpha x_j) to y_i and accumulates a(i, j)·x_i into
// its own dot, which lands as y_j += alpha·dot after the column. SYMM runs
// this SYMV once per right-hand side.

constexpr int kSweep = 4;  ///< stored columns per sweep

template <typename T>
struct SymColsT {
  const T* data;
  widx ld;
  idx n;
  bool upper;
  [[nodiscard]] const T* col(idx j) const {
    return data + static_cast<widx>(j) * ld;
  }
  /// Rows [shared_begin, shared_end) of the `width` columns starting at
  /// j0 that lie outside their diagonal block.
  [[nodiscard]] idx shared_begin(idx j0, idx width) const {
    return upper ? 0 : j0 + width;
  }
  [[nodiscard]] idx shared_end(idx j0) const { return upper ? j0 : n; }
  /// Off-diagonal rows [block_begin, block_end) of column j inside the
  /// diagonal block of the `width` columns starting at j0.
  [[nodiscard]] idx block_begin(idx j0, idx j) const {
    return upper ? j0 : j + 1;
  }
  [[nodiscard]] idx block_end(idx j0, idx j, idx width) const {
    return upper ? j : j0 + width;
  }
};

template <typename T>
SymColsT<T> sym_cols(Uplo uplo, ConstDenseViewT<T> a) {
  check(a.rows == a.cols, "symmetric kernel: matrix must be square");
  return {a.data, static_cast<widx>(a.ld), a.rows,
          (a.layout == Layout::ColMajor) == (uplo == Uplo::Upper)};
}

/// y += alpha·A(:, j0:j0+K)·x(j0:j0+K) plus the mirrored terms of those K
/// stored columns.
template <int K, typename T>
void symv_cols(const SymColsT<T>& a, idx j0, T alpha, const T* x, T* y) {
  const T* c[K];
  T ax[K];
  T acc[K];
  for (int k = 0; k < K; ++k) {
    c[k] = a.col(j0 + k);
    ax[k] = alpha * x[j0 + k];
    acc[k] = T(0);
  }
  const idx hi = a.shared_end(j0);
  for (idx i = a.shared_begin(j0, K); i < hi; ++i) {
    const T xi = x[i];
    T yi = y[i];
    for (int k = 0; k < K; ++k) {
      yi += c[k][i] * ax[k];
      acc[k] += c[k][i] * xi;
    }
    y[i] = yi;
  }
  for (int k = 0; k < K; ++k) {
    const idx j = j0 + k;
    const idx e = a.block_end(j0, j, K);
    for (idx i = a.block_begin(j0, j); i < e; ++i) {
      y[i] += c[k][i] * ax[k];
      acc[k] += c[k][i] * x[i];
    }
    acc[k] += c[k][j] * x[j];
  }
  for (int k = 0; k < K; ++k) y[j0 + k] += alpha * acc[k];
}

template <typename T>
void symv_impl(Uplo uplo, T alpha, ConstDenseViewT<T> a, const T* x, T beta,
               T* y) {
  const SymColsT<T> s = sym_cols(uplo, a);
  scale_vec(s.n, beta, y);
  idx j = 0;
  for (; j + kSweep <= s.n; j += kSweep)
    symv_cols<kSweep>(s, j, alpha, x, y);
  for (; j < s.n; ++j) symv_cols<1>(s, j, alpha, x, y);
}

template <typename T>
void symm_impl(Uplo uplo, T alpha, ConstDenseViewT<T> a, ConstDenseViewT<T> b,
               T beta, DenseViewT<T> c) {
  check(a.rows == a.cols, "symm: matrix must be square");
  check(b.rows == a.cols && c.rows == a.rows && c.cols == b.cols,
        "symm: dimension mismatch");
  const idx n = a.rows, w = b.cols;
  // One SYMV per right-hand side, through contiguous copies of row-major
  // panel columns: every panel layout streams the stored triangle as
  // columns, and every column of C rounds exactly like a SYMV.
  const bool gather_b = b.layout == Layout::RowMajor;
  const bool gather_c = c.layout == Layout::RowMajor;
  std::vector<T> xbuf(gather_b ? n : 0), ybuf(gather_c ? n : 0);
  for (idx j = 0; j < w; ++j) {
    const T* x = b.data + static_cast<widx>(j) * b.ld;
    if (gather_b) {
      for (idx i = 0; i < n; ++i) xbuf[i] = b.at(i, j);
      x = xbuf.data();
    }
    T* y = c.data + static_cast<widx>(j) * c.ld;
    if (gather_c) {
      // beta == 0 overwrites, so the old column is read only when it counts.
      if (beta != T(0))
        for (idx i = 0; i < n; ++i) ybuf[i] = c.at(i, j);
      y = ybuf.data();
    }
    symv_impl(uplo, alpha, a, x, beta, y);
    if (gather_c)
      for (idx i = 0; i < n; ++i) c.at(i, j) = ybuf[i];
  }
}

template <typename T>
void gemm_impl(T alpha, ConstDenseViewT<T> a, Trans ta, ConstDenseViewT<T> b,
               Trans tb, T beta, DenseViewT<T> c) {
  const idx m = ta == Trans::No ? a.rows : a.cols;
  const idx k = ta == Trans::No ? a.cols : a.rows;
  const idx kb = tb == Trans::No ? b.rows : b.cols;
  const idx n = tb == Trans::No ? b.cols : b.rows;
  check(k == kb, "gemm: inner dimension mismatch");
  check(c.rows == m && c.cols == n, "gemm: output dimension mismatch");
  const StridedT<T> oa = make_op(a, ta);
  const StridedT<T> ob = make_op(b, tb);
  // Simple ikj loop with C row accumulation; adequate for the modest GEMM
  // sizes in this library (projector setup, tests).
  for (idx i = 0; i < m; ++i) {
    for (idx j = 0; j < n; ++j) store_scaled(beta, c.at(i, j));
    for (idx p = 0; p < k; ++p) {
      const T av = alpha * oa.at(i, p);
      if (av == T(0)) continue;
      for (idx j = 0; j < n; ++j) c.at(i, j) += av * ob.at(p, j);
    }
  }
}

}  // namespace

double dot(idx n, const double* x, const double* y) {
  return dot_t(n, x, y);
}

void axpy(idx n, double alpha, const double* x, double* y) {
  axpy_t(n, alpha, x, y);
}

void scal(idx n, double alpha, double* x) {
  for (idx i = 0; i < n; ++i) x[i] *= alpha;
}

double nrm2(idx n, const double* x) { return std::sqrt(dot(n, x, x)); }

void gemv(double alpha, ConstDenseView a, Trans trans, const double* x,
          double beta, double* y) {
  gemv_impl<double>(alpha, a, trans, x, beta, y);
}

void symv(Uplo uplo, double alpha, ConstDenseView a, const double* x,
          double beta, double* y) {
  symv_impl<double>(uplo, alpha, a, x, beta, y);
}

void symm(Uplo uplo, double alpha, ConstDenseView a, ConstDenseView b,
          double beta, DenseView c) {
  symm_impl<double>(uplo, alpha, a, b, beta, c);
}

void gemm(double alpha, ConstDenseView a, Trans ta, ConstDenseView b,
          Trans tb, double beta, DenseView c) {
  gemm_impl<double>(alpha, a, ta, b, tb, beta, c);
}

namespace {

// ---- SYRK ----
//
// The stored triangle of the n×n output is swept as contiguous lines: line
// l is column l of a column-major C or row l of a row-major one, and holds
// the offsets [0, l] (`head`: column-major Upper, row-major Lower) or
// [l, n). Element (r, j) sits at offset r of line j (column-major) or
// offset j of line r (row-major). Both forms prune the zero staircase of a
// forward-solve panel: the dot-product form starts each dot at the later
// first nonzero of its two operand rows, and the rank-update form keeps a
// running live width, so rows and columns of C that every term so far
// leaves at zero are never touched. The skipped terms are exact zeros, so
// every element keeps the value of the unpruned sum.

struct TriLines {
  double* data;
  widx ld;
  idx n;
  bool head;
  bool col_major;
  [[nodiscard]] double* line(idx l) const {
    return data + static_cast<widx>(l) * ld;
  }
  [[nodiscard]] idx begin(idx l) const { return head ? 0 : l; }
  [[nodiscard]] idx end(idx l) const { return head ? l + 1 : n; }
};

constexpr int kSyrkRows = 4;  ///< operand rows per rank-update sweep

/// Adds the rank-1 terms of the K contiguous panel rows x[0..K) to every
/// stored element (r, j) with r, j below the live width, which it first
/// extends over those rows and then returns: each element receives
/// (alpha·x_i[r])·x_i[j] for i = 0..K-1 in order, loaded and stored once
/// per K terms. `ax_buf` holds K·n scratch doubles.
template <int K>
idx syrk_sweep(const TriLines& c, double alpha, const double* const* x,
               idx live, double* ax_buf) {
  for (int i = 0; i < K; ++i) live = detail::extend_live(x[i], c.n, live);
  const double* ax[K];
  for (int i = 0; i < K; ++i) {
    double* axi = ax_buf + static_cast<widx>(i) * c.n;
    for (idx r = 0; r < live; ++r) axi[r] = alpha * x[i][r];
    ax[i] = axi;
  }
  // Column-major line j: the line scalar is x_i[j], the vector alpha·x_i;
  // row-major line r: the scalar is alpha·x_i[r], the vector x_i.
  const double* const* scal_src = c.col_major ? x : ax;
  const double* const* vec = c.col_major ? ax : x;
  for (idx l = 0; l < live; ++l) {
    double s[K];
    for (int i = 0; i < K; ++i) s[i] = scal_src[i][l];
    double* cl = c.line(l);
    const idx e = std::min(c.end(l), live);
    for (idx q = c.begin(l); q < e; ++q) {
      double v = cl[q];
      for (int i = 0; i < K; ++i) v += vec[i][q] * s[i];
      cl[q] = v;
    }
  }
  return live;
}

}  // namespace

void syrk(Uplo uplo, Trans trans, double alpha, ConstDenseView a, double beta,
          DenseView c) {
  const idx n = trans == Trans::No ? a.rows : a.cols;
  const idx k = trans == Trans::No ? a.cols : a.rows;
  check(c.rows == n && c.cols == n, "syrk: output dimension mismatch");
  // op(A)(i, p): row i of the logical n x k operand.
  const Strided op = make_op<double>(a, trans);
  const bool col_major = c.layout == Layout::ColMajor;
  const TriLines tri{c.data, static_cast<widx>(c.ld), n,
                     col_major == (uplo == Uplo::Upper), col_major};

  for (idx l = 0; l < n; ++l) {
    double* cl = tri.line(l);
    for (idx q = tri.begin(l); q < tri.end(l); ++q)
      detail::store_scaled(beta, cl[q]);
  }

  if (op.sj == 1) {
    // Rows of op(A) are contiguous: dot products, each starting at the
    // later first nonzero of its two rows.
    auto row = [&](idx i) { return op.data + static_cast<widx>(i) * op.si; };
    std::vector<idx> first(static_cast<std::size_t>(n));
    for (idx i = 0; i < n; ++i) {
      const double* x = row(i);
      idx f = 0;
      while (f < k && x[f] == 0.0) ++f;
      first[i] = f;
    }
    for (idx l = 0; l < n; ++l) {
      double* cl = tri.line(l);
      for (idx q = tri.begin(l); q < tri.end(l); ++q) {
        const idx p0 = std::max(first[l], first[q]);
        cl[q] += alpha * dot(k - p0, row(l) + p0, row(q) + p0);
      }
    }
    return;
  }

  // Columns of op(A) (rows of the panel) are contiguous: rank-1 updates,
  // kSyrkRows panel rows per sweep over the live part of the triangle.
  std::vector<double> ax_buf(static_cast<std::size_t>(kSyrkRows) * n);
  const double* x[kSyrkRows];
  idx live = 0;
  idx p = 0;
  for (; p + kSyrkRows <= k; p += kSyrkRows) {
    for (int i = 0; i < kSyrkRows; ++i)
      x[i] = op.data + static_cast<widx>(p + i) * op.sj;
    live = syrk_sweep<kSyrkRows>(tri, alpha, x, live, ax_buf.data());
  }
  for (; p < k; ++p) {
    x[0] = op.data + static_cast<widx>(p) * op.sj;
    live = syrk_sweep<1>(tri, alpha, x, live, ax_buf.data());
  }
}

namespace {

/// Core triangular solve: solves T x = b column-by-column where T is the
/// logical triangular operand accessed through strides. `lower` refers to
/// the effective (post-transpose) triangle.
template <bool Lower>
void trsm_cols(const Strided& t, idx n, DenseView b) {
  for (idx j = 0; j < b.cols; ++j) {
    if (b.layout == Layout::ColMajor) {
      double* x = b.data + static_cast<widx>(j) * b.ld;
      if constexpr (Lower) {
        for (idx kk = 0; kk < n; ++kk) {
          const double xk = (x[kk] /= t.at(kk, kk));
          if (xk != 0.0)
            for (idx i = kk + 1; i < n; ++i) x[i] -= t.at(i, kk) * xk;
        }
      } else {
        for (idx kk = n - 1; kk >= 0; --kk) {
          const double xk = (x[kk] /= t.at(kk, kk));
          if (xk != 0.0)
            for (idx i = 0; i < kk; ++i) x[i] -= t.at(i, kk) * xk;
        }
      }
    } else {
      // Row-major single column: strided; handled by the vectorized
      // all-columns path below instead.
      FETI_ASSERT(false, "trsm_cols: row-major handled elsewhere");
    }
  }
}

/// Row-major RHS path: rows of B are contiguous, so the update
/// row_i -= T(i,k) * row_k vectorizes across all right-hand sides at once.
template <bool Lower>
void trsm_rows(const Strided& t, idx n, DenseView b) {
  const idx w = b.cols;
  auto row = [&](idx i) { return b.data + static_cast<widx>(i) * b.ld; };
  if constexpr (Lower) {
    // Forward substitution, pruned to the live width: row kk is nonzero
    // only in [0, live), because no earlier row reached further and its
    // own input ends there. A staircase-ordered panel stays narrow for
    // most pivots; any other panel is still solved exactly.
    idx live = 0;
    for (idx kk = 0; kk < n; ++kk) {
      double* rk = row(kk);
      live = detail::extend_live(rk, w, live);
      if (live == 0) continue;
      scal(live, 1.0 / t.at(kk, kk), rk);
      for (idx i = kk + 1; i < n; ++i) {
        const double f = t.at(i, kk);
        if (f != 0.0) axpy(live, -f, rk, row(i));
      }
    }
  } else {
    for (idx kk = n - 1; kk >= 0; --kk) {
      scal(w, 1.0 / t.at(kk, kk), row(kk));
      const double* rk = row(kk);
      for (idx i = 0; i < kk; ++i) {
        const double f = t.at(i, kk);
        if (f != 0.0) axpy(w, -f, rk, row(i));
      }
    }
  }
}

}  // namespace

void trsm(Uplo uplo, Trans trans, ConstDenseView a, DenseView b) {
  check(a.rows == a.cols, "trsm: factor must be square");
  check(a.rows == b.rows, "trsm: dimension mismatch");
  const idx n = a.rows;
  if (n == 0 || b.cols == 0) return;
  const Strided t = make_op<double>(a, trans);
  const bool lower_eff =
      (uplo == Uplo::Lower) != (trans == Trans::Yes);
  if (b.layout == Layout::RowMajor) {
    if (lower_eff)
      trsm_rows<true>(t, n, b);
    else
      trsm_rows<false>(t, n, b);
  } else {
    if (lower_eff)
      trsm_cols<true>(t, n, b);
    else
      trsm_cols<false>(t, n, b);
  }
}

void trsv(Uplo uplo, Trans trans, ConstDenseView a, double* x) {
  DenseView b{x, a.rows, 1, a.rows, Layout::ColMajor};
  trsm(uplo, trans, a, b);
}

bool potrf_lower(DenseView a) {
  check(a.rows == a.cols, "potrf_lower: matrix must be square");
  const idx n = a.rows;
  for (idx j = 0; j < n; ++j) {
    double d = a.at(j, j);
    for (idx k = 0; k < j; ++k) d -= a.at(j, k) * a.at(j, k);
    if (d <= 0.0) return false;
    d = std::sqrt(d);
    a.at(j, j) = d;
    for (idx i = j + 1; i < n; ++i) {
      double v = a.at(i, j);
      for (idx k = 0; k < j; ++k) v -= a.at(i, k) * a.at(j, k);
      a.at(i, j) = v / d;
    }
    for (idx i = 0; i < j; ++i) a.at(i, j) = 0.0;
  }
  return true;
}

idx potrf_pivoted_lower(DenseView a, idx* perm, double rel_tolerance) {
  check(a.rows == a.cols, "potrf_pivoted_lower: matrix must be square");
  check(rel_tolerance >= 0.0, "potrf_pivoted_lower: negative tolerance");
  const idx n = a.rows;
  for (idx i = 0; i < n; ++i) perm[i] = i;
  if (n == 0) return 0;

  double max_diag = 0.0;
  for (idx i = 0; i < n; ++i) max_diag = std::max(max_diag, a.at(i, i));
  // A numerically zero Gram matrix has rank 0 regardless of tolerance.
  if (max_diag <= 0.0) return 0;
  const double floor = rel_tolerance * max_diag;

  for (idx j = 0; j < n; ++j) {
    // Pick the largest remaining updated diagonal as the next pivot.
    idx piv = j;
    double best = a.at(j, j);
    for (idx i = j + 1; i < n; ++i)
      if (a.at(i, i) > best) {
        best = a.at(i, i);
        piv = i;
      }
    if (best <= floor || best <= 0.0) return j;
    if (piv != j) {
      std::swap(perm[j], perm[piv]);
      // Symmetric row/column swap, restricted to the lower triangle the
      // factorization reads: columns < j hold finished L rows, the j..n
      // block holds the updated trailing matrix.
      for (idx k = 0; k < j; ++k) std::swap(a.at(j, k), a.at(piv, k));
      std::swap(a.at(j, j), a.at(piv, piv));
      for (idx i = j + 1; i < n; ++i) {
        if (i == piv) continue;
        double& lo = i < piv ? a.at(piv, i) : a.at(i, piv);
        double& hi = a.at(i, j);
        std::swap(lo, hi);
      }
    }
    const double d = std::sqrt(a.at(j, j));
    a.at(j, j) = d;
    for (idx i = j + 1; i < n; ++i) a.at(i, j) /= d;
    // Rank-1 update of the trailing diagonal+lower block.
    for (idx c = j + 1; c < n; ++c)
      for (idx i = c; i < n; ++i) a.at(i, c) -= a.at(i, j) * a.at(c, j);
    for (idx i = 0; i < j; ++i) a.at(i, j) = 0.0;
  }
  return n;
}

// ---------------------------------------------------------------------------
// Mixed precision: fp32 storage entry points
// ---------------------------------------------------------------------------
//
// The fp32 instantiations of the templated kernel bodies above — the
// cublasS* analogues behind the mixed-precision explicit dual operators.
// Arithmetic runs in fp32: half the bytes streamed. SYMV's per-column dots
// are in-order reductions, so it does not gain SIMD width over fp64. The
// fp64 accumulation the mixed-precision design relies on happens at
// the dual-vector reduction (the gather back into the fp64 cluster
// vector), not inside these kernels. alpha/beta stay fp64 in the signature
// for API symmetry and are demoted on entry.

void symv(Uplo uplo, double alpha, ConstDenseViewF32 a, const float* x,
          double beta, float* y) {
  symv_impl<float>(uplo, static_cast<float>(alpha), a, x,
                   static_cast<float>(beta), y);
}

void gemv(double alpha, ConstDenseViewF32 a, Trans trans, const float* x,
          double beta, float* y) {
  gemv_impl<float>(static_cast<float>(alpha), a, trans, x,
                   static_cast<float>(beta), y);
}

void symm(Uplo uplo, double alpha, ConstDenseViewF32 a, ConstDenseViewF32 b,
          double beta, DenseViewF32 c) {
  symm_impl<float>(uplo, static_cast<float>(alpha), a, b,
                   static_cast<float>(beta), c);
}

void gemm(double alpha, ConstDenseViewF32 a, Trans ta, ConstDenseViewF32 b,
          Trans tb, double beta, DenseViewF32 c) {
  gemm_impl<float>(static_cast<float>(alpha), a, ta, b, tb,
                   static_cast<float>(beta), c);
}

}  // namespace feti::la
