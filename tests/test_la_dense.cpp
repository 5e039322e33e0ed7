// Tests for dense containers and BLAS kernels across every combination of
// memory layout, transposition, and triangle the Table-I parameter space can
// produce. Reference results come from naive triple loops.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "la/blas_dense.hpp"
#include "la/dense.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace feti::la {
namespace {

using testing::Stair;
using testing::staircase_panel;

/// (rows, columns) of the staircase panels the pruned kernels are checked
/// on: single rows and columns, and widths off the kernels' 4-wide sweeps.
constexpr std::pair<idx, idx> kStairShapes[] = {
    {1, 1}, {1, 6}, {9, 1}, {13, 7}, {26, 11}};

DenseMatrix random_matrix(idx rows, idx cols, Layout layout,
                          std::uint64_t seed) {
  DenseMatrix m(rows, cols, layout);
  Rng rng(seed);
  for (idx r = 0; r < rows; ++r)
    for (idx c = 0; c < cols; ++c) m.at(r, c) = rng.uniform(-1.0, 1.0);
  return m;
}

/// Well-conditioned triangular factor with dominant diagonal.
DenseMatrix random_triangular(idx n, Uplo uplo, Layout layout,
                              std::uint64_t seed) {
  DenseMatrix m(n, n, layout);
  Rng rng(seed);
  for (idx r = 0; r < n; ++r) {
    for (idx c = 0; c < n; ++c) {
      const bool stored = uplo == Uplo::Lower ? c <= r : c >= r;
      if (!stored) continue;
      m.at(r, c) = r == c ? 2.0 + rng.uniform(0.0, 1.0)
                          : rng.uniform(-0.5, 0.5);
    }
  }
  return m;
}

std::vector<double> random_vector(idx n, std::uint64_t seed) {
  std::vector<double> v(static_cast<std::size_t>(n));
  Rng rng(seed);
  for (auto& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

double ref_op_at(ConstDenseView a, Trans t, idx i, idx j) {
  return t == Trans::No ? a.at(i, j) : a.at(j, i);
}

TEST(DenseMatrix, StorageRoundTripBothLayouts) {
  for (Layout layout : {Layout::RowMajor, Layout::ColMajor}) {
    DenseMatrix m(3, 4, layout);
    double v = 1.0;
    for (idx r = 0; r < 3; ++r)
      for (idx c = 0; c < 4; ++c) m.at(r, c) = v++;
    v = 1.0;
    for (idx r = 0; r < 3; ++r)
      for (idx c = 0; c < 4; ++c) EXPECT_EQ(m.at(r, c), v++);
  }
}

TEST(DenseMatrix, LeadingDimensionMatchesLayout) {
  DenseMatrix rm(3, 5, Layout::RowMajor);
  EXPECT_EQ(rm.ld(), 5);
  DenseMatrix cm(3, 5, Layout::ColMajor);
  EXPECT_EQ(cm.ld(), 3);
}

TEST(DenseCopy, ConvertsBetweenLayouts) {
  DenseMatrix a = random_matrix(7, 5, Layout::RowMajor, 1);
  DenseMatrix b(7, 5, Layout::ColMajor);
  copy(a.cview(), b.view());
  EXPECT_EQ(max_abs_diff(a.cview(), b.cview()), 0.0);
}

TEST(DenseSymmetrize, MirrorsUpperToLower) {
  DenseMatrix a = random_matrix(6, 6, Layout::ColMajor, 2);
  symmetrize_from(a.view(), Uplo::Upper);
  for (idx r = 0; r < 6; ++r)
    for (idx c = 0; c < 6; ++c) EXPECT_EQ(a.at(r, c), a.at(c, r));
}

TEST(Level1, DotAxpyScalNrm2) {
  auto x = random_vector(100, 3);
  auto y = random_vector(100, 4);
  double ref = 0.0;
  for (int i = 0; i < 100; ++i) ref += x[i] * y[i];
  EXPECT_NEAR(dot(100, x.data(), y.data()), ref, 1e-12);

  auto y2 = y;
  axpy(100, 0.5, x.data(), y2.data());
  for (int i = 0; i < 100; ++i) EXPECT_NEAR(y2[i], y[i] + 0.5 * x[i], 1e-14);

  scal(100, 2.0, y2.data());
  for (int i = 0; i < 100; ++i)
    EXPECT_NEAR(y2[i], 2.0 * (y[i] + 0.5 * x[i]), 1e-14);

  EXPECT_NEAR(nrm2(100, x.data()), std::sqrt(dot(100, x.data(), x.data())),
              1e-12);
}

class GemvParam
    : public ::testing::TestWithParam<std::tuple<Layout, Trans>> {};

TEST_P(GemvParam, MatchesReference) {
  const auto [layout, trans] = GetParam();
  const idx rows = 13, cols = 9;
  DenseMatrix a = random_matrix(rows, cols, layout, 5);
  const idx m = trans == Trans::No ? rows : cols;
  const idx n = trans == Trans::No ? cols : rows;
  auto x = random_vector(n, 6);
  auto y = random_vector(m, 7);
  auto ref = y;
  for (idx i = 0; i < m; ++i) {
    double acc = 0.0;
    for (idx j = 0; j < n; ++j)
      acc += ref_op_at(a.cview(), trans, i, j) * x[j];
    ref[i] = 1.5 * acc + 0.25 * ref[i];
  }
  gemv(1.5, a.cview(), trans, x.data(), 0.25, y.data());
  for (idx i = 0; i < m; ++i) EXPECT_NEAR(y[i], ref[i], 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, GemvParam,
    ::testing::Combine(::testing::Values(Layout::RowMajor, Layout::ColMajor),
                       ::testing::Values(Trans::No, Trans::Yes)));

TEST(Gemv, ColumnSweepRoundsLikeSingleColumnAxpys) {
  // The axpy form adds four columns per sweep, but each y entry still
  // receives its column terms one at a time in column order.
  for (const idx n : {1, 3, 4, 5, 8, 9, 31}) {
    const idx m = 37;
    DenseMatrix a = random_matrix(m, n, Layout::ColMajor, 700 + n);
    const std::vector<double> x = random_vector(n, 800 + n);
    std::vector<double> y = random_vector(m, 900 + n);
    std::vector<double> ref = y;
    scal(m, 0.25, ref.data());
    for (idx j = 0; j < n; ++j)
      axpy(m, 1.5 * x[j], a.data() + static_cast<widx>(j) * m, ref.data());
    gemv(1.5, a.cview(), Trans::No, x.data(), 0.25, y.data());
    EXPECT_TRUE(y == ref) << "n " << n;
  }
}

// ---------------------------------------------------------------------------
// Symmetric kernels
// ---------------------------------------------------------------------------
//
// SYMV/SYMM sweep the stored triangle four columns at a time, so the sizes
// cover n < 4 (remainder only), n = 4..9 (one or two four-column sweeps
// plus remainders and their diagonal blocks) and larger n with every
// remainder 0..3 (31, 64, 283). Everything outside the stored triangle is
// NaN, so any read of it poisons the result; the packed variant uses the
// (m+1)-leading-dimension triangle packing of the explicit operators.

constexpr idx kSymSizes[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 31, 64, 283};

template <typename T>
constexpr T kNaN = std::numeric_limits<T>::quiet_NaN();

/// One stored triangle of a symmetric matrix in NaN-filled storage.
template <typename T>
struct StoredTriangle {
  std::vector<T> buf;
  ConstDenseViewT<T> view;
};

/// Stores the `uplo` triangle of `full` as `layout`. Packed storage uses
/// ld = n + 1 and the offset the packing gives this triangle: the one that
/// reads as column-major Upper sits at offset 0, the other at offset 1.
template <typename T>
StoredTriangle<T> store_triangle(const DenseMatrix& full, Layout layout,
                                 Uplo uplo, bool packed) {
  const idx n = full.rows();
  const idx ld = packed ? n + 1 : n;
  const bool col_upper = (layout == Layout::ColMajor) == (uplo == Uplo::Upper);
  StoredTriangle<T> st;
  st.buf.assign(static_cast<std::size_t>(ld) * n + 1, kNaN<T>);
  DenseViewT<T> v{st.buf.data() + (packed && !col_upper ? 1 : 0), n, n, ld,
                  layout};
  for (idx r = 0; r < n; ++r)
    for (idx c = 0; c < n; ++c)
      if (uplo == Uplo::Upper ? c >= r : c <= r)
        v.at(r, c) = static_cast<T>(full.at(r, c));
  st.view = v;
  return st;
}

DenseMatrix random_symmetric(idx n, std::uint64_t seed) {
  DenseMatrix full = random_matrix(n, n, Layout::ColMajor, seed);
  symmetrize_from(full.view(), Uplo::Upper);
  return full;
}

/// Checks entry i of alpha·A·x + beta·y0 computed in T against an fp64
/// reference from the same T-rounded operands, within the
/// recursive-summation bound (n + 4)·eps_T·Σ|terms|.
template <typename T>
void expect_sym_entry(const DenseMatrix& full, idx i, double alpha,
                      const std::vector<T>& x, double beta, T y0, T got) {
  const idx n = full.rows();
  double ref = beta != 0.0 ? beta * static_cast<double>(y0) : 0.0;
  double abs_sum = std::fabs(ref);
  for (idx k = 0; k < n; ++k) {
    const double t = alpha *
                     static_cast<double>(static_cast<T>(full.at(i, k))) *
                     static_cast<double>(x[k]);
    ref += t;
    abs_sum += std::fabs(t);
  }
  EXPECT_NEAR(static_cast<double>(got), ref,
              static_cast<double>(n + 4) * std::numeric_limits<T>::epsilon() *
                  abs_sum)
      << "n " << n << " row " << i << " beta " << beta;
}

template <typename T>
void check_symv(Layout layout, Uplo uplo, bool packed) {
  const double alpha = 1.3;
  for (const idx n : kSymSizes) {
    for (const double beta : {0.0, 0.7}) {
      const DenseMatrix full = random_symmetric(n, 100 + n);
      const StoredTriangle<T> a =
          store_triangle<T>(full, layout, uplo, packed);
      const std::vector<double> xd = random_vector(n, 200 + n);
      const std::vector<double> yd = random_vector(n, 300 + n);
      const std::vector<T> x(xd.begin(), xd.end());
      // beta == 0 must overwrite: start from NaN so a read shows.
      std::vector<T> y(static_cast<std::size_t>(n), kNaN<T>);
      if (beta != 0.0) y.assign(yd.begin(), yd.end());
      const std::vector<T> y0 = y;
      symv(uplo, alpha, a.view, x.data(), beta, y.data());
      for (idx i = 0; i < n; ++i)
        expect_sym_entry<T>(full, i, alpha, x, beta, y0[i], y[i]);
    }
  }
}

class SymvParam
    : public ::testing::TestWithParam<std::tuple<Layout, Uplo, bool>> {};

TEST_P(SymvParam, MatchesFullProduct) {
  const auto [layout, uplo, packed] = GetParam();
  check_symv<double>(layout, uplo, packed);
  check_symv<float>(layout, uplo, packed);
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, SymvParam,
    ::testing::Combine(::testing::Values(Layout::RowMajor, Layout::ColMajor),
                       ::testing::Values(Uplo::Upper, Uplo::Lower),
                       ::testing::Bool()));

/// SYMM against the full product on B/C panels with padded leading
/// dimensions, and every column of C equal bit for bit to a SYMV of that
/// column of B.
template <typename T>
void check_symm(Layout la_, Layout lb, Layout lc, Uplo uplo, double beta,
                bool packed) {
  const double alpha = 1.3;
  const idx w = 5;
  auto panel = [&](std::vector<T>& buf, idx n, Layout layout) {
    const bool rows = layout == Layout::RowMajor;
    const idx ld = (rows ? w : n) + 2;
    buf.assign(static_cast<std::size_t>(ld) * (rows ? n : w), kNaN<T>);
    return DenseViewT<T>{buf.data(), n, w, ld, layout};
  };
  for (const idx n : kSymSizes) {
    const DenseMatrix full = random_symmetric(n, 400 + n);
    const StoredTriangle<T> a = store_triangle<T>(full, la_, uplo, packed);
    const DenseMatrix bd = random_matrix(n, w, Layout::ColMajor, 500 + n);
    const DenseMatrix cd = random_matrix(n, w, Layout::ColMajor, 600 + n);
    std::vector<T> bbuf, cbuf;
    const DenseViewT<T> b = panel(bbuf, n, lb);
    const DenseViewT<T> c = panel(cbuf, n, lc);
    for (idx i = 0; i < n; ++i)
      for (idx j = 0; j < w; ++j) {
        b.at(i, j) = static_cast<T>(bd.at(i, j));
        // beta == 0 must overwrite: C stays NaN so a read shows.
        if (beta != 0.0) c.at(i, j) = static_cast<T>(cd.at(i, j));
      }
    const std::vector<T> c0buf = cbuf;
    const ConstDenseViewT<T> c0{c0buf.data(), n, w, c.ld, lc};
    symm(uplo, alpha, a.view, ConstDenseViewT<T>(b), beta, c);
    for (idx j = 0; j < w; ++j) {
      std::vector<T> x(static_cast<std::size_t>(n)), y(x);
      for (idx i = 0; i < n; ++i) {
        x[i] = b.at(i, j);
        y[i] = c0.at(i, j);
      }
      symv(uplo, alpha, a.view, x.data(), beta, y.data());
      bool same = true;
      for (idx i = 0; i < n; ++i) {
        same = same && y[i] == c.at(i, j);
        expect_sym_entry<T>(full, i, alpha, x, beta, c0.at(i, j), c.at(i, j));
      }
      EXPECT_TRUE(same) << "n " << n << ": column " << j
                        << " differs from symv";
    }
  }
}

// symm across A/B/C layouts and both triangles, with beta == 0 (must
// overwrite, not read) and beta != 0 (must accumulate).
class SymmParam : public ::testing::TestWithParam<
                      std::tuple<Layout, Layout, Layout, Uplo, double>> {};

TEST_P(SymmParam, MatchesFullProduct) {
  const auto [la_, lb, lc, uplo, beta] = GetParam();
  for (const bool packed : {false, true}) {
    check_symm<double>(la_, lb, lc, uplo, beta, packed);
    check_symm<float>(la_, lb, lc, uplo, beta, packed);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, SymmParam,
    ::testing::Combine(::testing::Values(Layout::RowMajor, Layout::ColMajor),
                       ::testing::Values(Layout::RowMajor, Layout::ColMajor),
                       ::testing::Values(Layout::RowMajor, Layout::ColMajor),
                       ::testing::Values(Uplo::Upper, Uplo::Lower),
                       ::testing::Values(0.0, 0.7)));

class GemmParam : public ::testing::TestWithParam<
                      std::tuple<Layout, Layout, Layout, Trans, Trans>> {};

TEST_P(GemmParam, MatchesReference) {
  const auto [la_, lb, lc, ta, tb] = GetParam();
  const idx m = 7, k = 5, n = 6;
  DenseMatrix a = random_matrix(ta == Trans::No ? m : k,
                                ta == Trans::No ? k : m, la_, 10);
  DenseMatrix b = random_matrix(tb == Trans::No ? k : n,
                                tb == Trans::No ? n : k, lb, 11);
  DenseMatrix c = random_matrix(m, n, lc, 12);
  DenseMatrix ref(m, n, Layout::ColMajor);
  for (idx i = 0; i < m; ++i)
    for (idx j = 0; j < n; ++j) {
      double acc = 0.0;
      for (idx p = 0; p < k; ++p)
        acc += ref_op_at(a.cview(), ta, i, p) * ref_op_at(b.cview(), tb, p, j);
      ref.at(i, j) = 2.0 * acc - 1.0 * c.at(i, j);
    }
  gemm(2.0, a.cview(), ta, b.cview(), tb, -1.0, c.view());
  EXPECT_LT(max_abs_diff(c.cview(), ref.cview()), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, GemmParam,
    ::testing::Combine(::testing::Values(Layout::RowMajor, Layout::ColMajor),
                       ::testing::Values(Layout::RowMajor, Layout::ColMajor),
                       ::testing::Values(Layout::RowMajor, Layout::ColMajor),
                       ::testing::Values(Trans::No, Trans::Yes),
                       ::testing::Values(Trans::No, Trans::Yes)));

class SyrkParam : public ::testing::TestWithParam<
                      std::tuple<Layout, Layout, Trans, Uplo>> {};

TEST_P(SyrkParam, MatchesReference) {
  const auto [la_, lc, trans, uplo] = GetParam();
  const idx n = 8, k = 12;
  DenseMatrix a = random_matrix(trans == Trans::No ? n : k,
                                trans == Trans::No ? k : n, la_, 13);
  DenseMatrix c = random_matrix(n, n, lc, 14);
  DenseMatrix ref(n, n, Layout::ColMajor);
  for (idx i = 0; i < n; ++i)
    for (idx j = 0; j < n; ++j) {
      double acc = 0.0;
      for (idx p = 0; p < k; ++p)
        acc += ref_op_at(a.cview(), trans, i, p) *
               ref_op_at(a.cview(), trans, j, p);
      ref.at(i, j) = 0.5 * acc + 2.0 * c.at(i, j);
    }
  syrk(uplo, trans, 0.5, a.cview(), 2.0, c.view());
  for (idx i = 0; i < n; ++i)
    for (idx j = 0; j < n; ++j) {
      const bool stored = uplo == Uplo::Upper ? j >= i : j <= i;
      if (stored) {
        EXPECT_NEAR(c.at(i, j), ref.at(i, j), 1e-12);
      }
    }
}

// The staircase-pruned SYRK must equal, bit for bit, a naive sum in the
// kernel's own order: for an operand in contiguous rows, a dot product
// over p scaled by alpha once; otherwise rank-1 terms (alpha·x_r)·x_j added
// in ascending p. NaN poison outside the stored triangle must survive, and
// beta == 0 must overwrite poison inside it.
TEST_P(SyrkParam, StaircasePanelsMatchNaiveOrderBitwise) {
  const auto [la_, lc, trans, uplo] = GetParam();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double alpha = 0.75;
  for (Stair shape : {Stair::Sorted, Stair::Shuffled, Stair::ZeroLines})
    for (const auto& [k, n] : kStairShapes)
      for (double beta : {0.0, 2.0}) {
        // The operand rows are contiguous in one layout per trans, and in
        // both when n == 1 (leading dimension 1).
        const bool dot_form =
            (la_ == Layout::RowMajor) == (trans == Trans::No) || n == 1;
        SCOPED_TRACE(std::string(testing::to_string(shape)) + " k=" +
                     std::to_string(k) + " n=" + std::to_string(n) +
                     " beta=" + std::to_string(beta));
        // x(i, p): entry p of operand row i, a column of the k × n panel.
        const DenseMatrix panel =
            staircase_panel(k, n, shape, Layout::ColMajor, 40 + k + n);
        auto x = [&](idx i, idx p) { return panel.at(p, i); };
        DenseMatrix a(trans == Trans::Yes ? k : n, trans == Trans::Yes ? n : k,
                      la_);
        for (idx r = 0; r < a.rows(); ++r)
          for (idx c = 0; c < a.cols(); ++c)
            a.at(r, c) = trans == Trans::Yes ? x(c, r) : x(r, c);
        auto stored = [&](idx i, idx j) {
          return uplo == Uplo::Upper ? j >= i : j <= i;
        };
        DenseMatrix c(n, n, lc);
        Rng rng(41);
        for (idx i = 0; i < n; ++i)
          for (idx j = 0; j < n; ++j)
            c.at(i, j) = stored(i, j) && beta != 0.0 ? rng.uniform(-1.0, 1.0)
                                                     : nan;
        DenseMatrix ref(n, n, Layout::ColMajor);
        for (idx i = 0; i < n; ++i)
          for (idx j = 0; j < n; ++j) {
            if (!stored(i, j)) continue;
            double v = beta == 0.0 ? 0.0 : beta * c.at(i, j);
            if (dot_form) {
              double s = 0.0;
              for (idx p = 0; p < k; ++p) s += x(i, p) * x(j, p);
              v += alpha * s;
            } else {
              for (idx p = 0; p < k; ++p) v += (alpha * x(i, p)) * x(j, p);
            }
            ref.at(i, j) = v;
          }
        syrk(uplo, trans, alpha, a.cview(), beta, c.view());
        for (idx i = 0; i < n; ++i)
          for (idx j = 0; j < n; ++j) {
            if (stored(i, j))
              EXPECT_EQ(c.at(i, j), ref.at(i, j)) << i << "," << j;
            else
              EXPECT_TRUE(std::isnan(c.at(i, j))) << i << "," << j;
          }
      }
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, SyrkParam,
    ::testing::Combine(::testing::Values(Layout::RowMajor, Layout::ColMajor),
                       ::testing::Values(Layout::RowMajor, Layout::ColMajor),
                       ::testing::Values(Trans::No, Trans::Yes),
                       ::testing::Values(Uplo::Upper, Uplo::Lower)));

class TrsmParam : public ::testing::TestWithParam<
                      std::tuple<Layout, Layout, Uplo, Trans>> {};

TEST_P(TrsmParam, SolvesAgainstMultiply) {
  const auto [lt, lb, uplo, trans] = GetParam();
  const idx n = 10, w = 4;
  DenseMatrix t = random_triangular(n, uplo, lt, 15);
  DenseMatrix x_true = random_matrix(n, w, lb, 16);
  // B = op(T) * X.
  DenseMatrix b(n, w, lb);
  for (idx i = 0; i < n; ++i)
    for (idx j = 0; j < w; ++j) {
      double acc = 0.0;
      for (idx p = 0; p < n; ++p)
        acc += ref_op_at(t.cview(), trans, i, p) * x_true.at(p, j);
      b.at(i, j) = acc;
    }
  trsm(uplo, trans, t.cview(), b.view());
  EXPECT_LT(max_abs_diff(b.cview(), x_true.cview()), 1e-10);
}

// The pruned forward solve (and every other form) must equal, bit for bit,
// a column-by-column substitution in the kernel's order: a row-major panel
// scales each pivot by the reciprocal of the diagonal, a column-major one
// divides by it.
TEST_P(TrsmParam, StaircasePanelsMatchNaiveOrderBitwise) {
  const auto [lt, lb, uplo, trans] = GetParam();
  const bool lower_eff = (uplo == Uplo::Lower) != (trans == Trans::Yes);
  for (Stair shape : {Stair::Sorted, Stair::Shuffled, Stair::ZeroLines})
    for (const auto& [n, w] : kStairShapes) {
      SCOPED_TRACE(std::string(testing::to_string(shape)) + " n=" +
                   std::to_string(n) + " w=" + std::to_string(w));
      const DenseMatrix t = random_triangular(n, uplo, lt, 50 + n);
      DenseMatrix b = staircase_panel(n, w, shape, lb, 60 + n + w);
      DenseMatrix ref(n, w, Layout::ColMajor);
      copy(b.cview(), ref.view());
      for (idx j = 0; j < w; ++j)
        for (idx step = 0; step < n; ++step) {
          const idx kk = lower_eff ? step : n - 1 - step;
          const double d = ref_op_at(t.cview(), trans, kk, kk);
          double& xk = ref.at(kk, j);
          xk = lb == Layout::RowMajor ? xk * (1.0 / d) : xk / d;
          const idx lo = lower_eff ? kk + 1 : 0;
          const idx hi = lower_eff ? n : kk;
          for (idx i = lo; i < hi; ++i)
            ref.at(i, j) -= ref_op_at(t.cview(), trans, i, kk) * xk;
        }
      trsm(uplo, trans, t.cview(), b.view());
      for (idx i = 0; i < n; ++i)
        for (idx j = 0; j < w; ++j)
          EXPECT_EQ(b.at(i, j), ref.at(i, j)) << i << "," << j;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, TrsmParam,
    ::testing::Combine(::testing::Values(Layout::RowMajor, Layout::ColMajor),
                       ::testing::Values(Layout::RowMajor, Layout::ColMajor),
                       ::testing::Values(Uplo::Upper, Uplo::Lower),
                       ::testing::Values(Trans::No, Trans::Yes)));

TEST(Trsv, MatchesTrsm) {
  const idx n = 9;
  DenseMatrix t = random_triangular(n, Uplo::Lower, Layout::ColMajor, 17);
  auto b = random_vector(n, 18);
  auto b2 = b;
  trsv(Uplo::Lower, Trans::No, t.cview(), b.data());
  DenseView bv{b2.data(), n, 1, n, Layout::ColMajor};
  trsm(Uplo::Lower, Trans::No, t.cview(), bv);
  for (idx i = 0; i < n; ++i) EXPECT_NEAR(b[i], b2[i], 1e-13);
}

TEST(Trsm, EmptyRhsIsNoop) {
  DenseMatrix t = random_triangular(4, Uplo::Upper, Layout::ColMajor, 19);
  DenseMatrix b(4, 0, Layout::ColMajor);
  EXPECT_NO_THROW(trsm(Uplo::Upper, Trans::No, t.cview(), b.view()));
}

TEST(Gemm, DimensionMismatchThrows) {
  DenseMatrix a(3, 4), b(5, 2), c(3, 2);
  EXPECT_THROW(
      gemm(1.0, a.cview(), Trans::No, b.cview(), Trans::No, 0.0, c.view()),
      std::invalid_argument);
}


TEST(PaddedViews, KernelsHonorNonNaturalLeadingDimension) {
  // The symmetric triangle packing stores two m x m triangles in one
  // m x (m+1) buffer, so every kernel must respect ld > rows.
  const idx m = 7;
  std::vector<double> buf(static_cast<std::size_t>(m) * (m + 1), -7.0);
  DenseView packed_upper{buf.data(), m, m, m + 1, Layout::ColMajor};
  DenseView packed_lower{buf.data() + 1, m, m, m + 1, Layout::ColMajor};

  DenseMatrix a = random_matrix(12, m, Layout::RowMajor, 71);
  DenseMatrix b = random_matrix(12, m, Layout::RowMajor, 72);
  syrk(Uplo::Upper, Trans::Yes, 1.0, a.cview(), 0.0, packed_upper);
  syrk(Uplo::Lower, Trans::Yes, 1.0, b.cview(), 0.0, packed_lower);

  // Reference results in plain storage.
  DenseMatrix ra(m, m), rb(m, m);
  syrk(Uplo::Upper, Trans::Yes, 1.0, a.cview(), 0.0, ra.view());
  syrk(Uplo::Lower, Trans::Yes, 1.0, b.cview(), 0.0, rb.view());
  for (idx r = 0; r < m; ++r)
    for (idx c = 0; c < m; ++c) {
      if (c >= r) {
        EXPECT_NEAR(packed_upper.at(r, c), ra.at(r, c), 1e-13);
      }
      if (c <= r) {
        EXPECT_NEAR(packed_lower.at(r, c), rb.at(r, c), 1e-13);
      }
    }

  // SYMV through both packed views must match the plain ones.
  auto x = random_vector(m, 73);
  std::vector<double> y1(m, 0.0), y2(m, 0.0);
  symv(Uplo::Upper, 1.0, ConstDenseView(packed_upper), x.data(), 0.0,
       y1.data());
  symv(Uplo::Upper, 1.0, ra.cview(), x.data(), 0.0, y2.data());
  for (idx i = 0; i < m; ++i) EXPECT_NEAR(y1[i], y2[i], 1e-13);
  std::vector<double> y3(m, 0.0), y4(m, 0.0);
  symv(Uplo::Lower, 1.0, ConstDenseView(packed_lower), x.data(), 0.0,
       y3.data());
  symv(Uplo::Lower, 1.0, rb.cview(), x.data(), 0.0, y4.data());
  for (idx i = 0; i < m; ++i) EXPECT_NEAR(y3[i], y4[i], 1e-13);
}

TEST(PaddedViews, PackedTrianglesDoNotOverlap) {
  const idx m = 9;
  std::vector<double> buf(static_cast<std::size_t>(m) * (m + 1), 0.0);
  DenseView up{buf.data(), m, m, m + 1, Layout::ColMajor};
  DenseView lo{buf.data() + 1, m, m, m + 1, Layout::ColMajor};
  for (idx r = 0; r < m; ++r)
    for (idx c = r; c < m; ++c) up.at(r, c) = 1.0;
  for (idx r = 0; r < m; ++r)
    for (idx c = 0; c <= r; ++c) lo.at(r, c) = 2.0;
  // The upper triangle written first must be intact.
  for (idx r = 0; r < m; ++r)
    for (idx c = r; c < m; ++c) EXPECT_EQ(up.at(r, c), 1.0);
}

}  // namespace
}  // namespace feti::la
