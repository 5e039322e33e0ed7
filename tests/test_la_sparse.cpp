// Tests for CSR containers and sparse kernels (SpMV/SpMM/sparse triangular
// solves) against dense references.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "la/blas_dense.hpp"
#include "la/blas_sparse.hpp"
#include "la/csr.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace feti::la {
namespace {

Csr random_sparse(idx rows, idx cols, double density, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Triplet> t;
  for (idx r = 0; r < rows; ++r)
    for (idx c = 0; c < cols; ++c)
      if (rng.uniform() < density) t.push_back({r, c, rng.uniform(-1.0, 1.0)});
  return Csr::from_triplets(rows, cols, std::move(t));
}

/// Sparse triangular matrix with full diagonal, ~density off-diagonal.
Csr random_sparse_triangular(idx n, Uplo uplo, double density,
                             std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Triplet> t;
  for (idx r = 0; r < n; ++r) {
    t.push_back({r, r, 2.0 + rng.uniform(0.0, 1.0)});
    for (idx c = 0; c < n; ++c) {
      const bool off = uplo == Uplo::Lower ? c < r : c > r;
      if (off && rng.uniform() < density)
        t.push_back({r, c, rng.uniform(-0.4, 0.4)});
    }
  }
  return Csr::from_triplets(n, n, std::move(t));
}

std::vector<double> random_vector(idx n, std::uint64_t seed) {
  std::vector<double> v(static_cast<std::size_t>(n));
  Rng rng(seed);
  for (auto& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

TEST(Csr, FromTripletsSumsDuplicatesAndSorts) {
  Csr m = Csr::from_triplets(
      2, 3, {{1, 2, 1.0}, {0, 1, 2.0}, {1, 2, 3.0}, {1, 0, 5.0}});
  m.validate();
  EXPECT_EQ(m.nnz(), 3);
  EXPECT_DOUBLE_EQ(m.at(1, 2), 4.0);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m.at(1, 0), 5.0);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 0.0);
}

TEST(Csr, OutOfRangeTripletThrows) {
  EXPECT_THROW(Csr::from_triplets(2, 2, {{2, 0, 1.0}}),
               std::invalid_argument);
}

TEST(Csr, TransposeRoundTrip) {
  Csr a = random_sparse(15, 9, 0.3, 21);
  Csr att = a.transposed().transposed();
  att.validate();
  EXPECT_EQ(att.nnz(), a.nnz());
  for (idx r = 0; r < a.nrows(); ++r)
    for (idx k = a.row_begin(r); k < a.row_end(r); ++k)
      EXPECT_DOUBLE_EQ(att.at(r, a.col(k)), a.val(k));
}

TEST(Csr, TransposeSwapsEntries) {
  Csr a = random_sparse(8, 12, 0.25, 22);
  Csr at = a.transposed();
  at.validate();
  EXPECT_EQ(at.nrows(), 12);
  EXPECT_EQ(at.ncols(), 8);
  for (idx r = 0; r < a.nrows(); ++r)
    for (idx k = a.row_begin(r); k < a.row_end(r); ++k)
      EXPECT_DOUBLE_EQ(at.at(a.col(k), r), a.val(k));
}

TEST(Csr, DenseRoundTrip) {
  Csr a = random_sparse(6, 7, 0.4, 23);
  for (Layout layout : {Layout::RowMajor, Layout::ColMajor}) {
    DenseMatrix d = a.to_dense(layout);
    Csr back = Csr::from_dense(d.cview());
    back.validate();
    EXPECT_EQ(back.nnz(), a.nnz());
    for (idx r = 0; r < a.nrows(); ++r)
      for (idx c = 0; c < a.ncols(); ++c)
        EXPECT_DOUBLE_EQ(back.at(r, c), a.at(r, c));
  }
}

TEST(Csr, PermutedSymmetricPreservesValues) {
  // Symmetric pattern matrix.
  Csr a = random_sparse(10, 10, 0.3, 24);
  DenseMatrix d = a.to_dense();
  DenseMatrix sym(10, 10);
  for (idx r = 0; r < 10; ++r)
    for (idx c = 0; c < 10; ++c) sym.at(r, c) = d.at(r, c) + d.at(c, r);
  Csr s = Csr::from_dense(sym.cview());
  std::vector<idx> perm = {3, 1, 4, 0, 9, 8, 6, 7, 2, 5};  // perm[new]=old
  Csr p = s.permuted_symmetric(perm);
  p.validate();
  for (idx r = 0; r < 10; ++r)
    for (idx c = 0; c < 10; ++c)
      EXPECT_DOUBLE_EQ(p.at(r, c), s.at(perm[r], perm[c]));
}

TEST(Csr, TriangleExtraction) {
  Csr a = random_sparse(9, 9, 0.5, 25);
  Csr up = a.triangle(Uplo::Upper);
  Csr lo = a.triangle(Uplo::Lower);
  up.validate();
  lo.validate();
  for (idx r = 0; r < 9; ++r)
    for (idx c = 0; c < 9; ++c) {
      if (c > r) {
        EXPECT_DOUBLE_EQ(up.at(r, c), a.at(r, c));
        EXPECT_DOUBLE_EQ(lo.at(r, c), 0.0);
      } else if (c < r) {
        EXPECT_DOUBLE_EQ(lo.at(r, c), a.at(r, c));
        EXPECT_DOUBLE_EQ(up.at(r, c), 0.0);
      } else {
        EXPECT_DOUBLE_EQ(up.at(r, c), a.at(r, c));
        EXPECT_DOUBLE_EQ(lo.at(r, c), a.at(r, c));
      }
    }
}

TEST(InvertPermutation, RoundTrips) {
  std::vector<idx> perm = {2, 0, 3, 1};
  auto inv = invert_permutation(perm);
  for (idx i = 0; i < 4; ++i) EXPECT_EQ(inv[perm[i]], i);
  EXPECT_THROW(invert_permutation({0, 0, 1}), std::invalid_argument);
}

TEST(Spmv, MatchesDense) {
  Csr a = random_sparse(14, 10, 0.3, 26);
  DenseMatrix d = a.to_dense();
  auto x = random_vector(10, 27);
  auto y = random_vector(14, 28);
  auto ref = y;
  gemv(1.3, d.cview(), Trans::No, x.data(), 0.7, ref.data());
  spmv(1.3, a, x.data(), 0.7, y.data());
  for (idx i = 0; i < 14; ++i) EXPECT_NEAR(y[i], ref[i], 1e-12);
}

TEST(SpmvTrans, MatchesDense) {
  Csr a = random_sparse(14, 10, 0.3, 29);
  DenseMatrix d = a.to_dense();
  auto x = random_vector(14, 30);
  auto y = random_vector(10, 31);
  auto ref = y;
  gemv(-0.5, d.cview(), Trans::Yes, x.data(), 2.0, ref.data());
  spmv_trans(-0.5, a, x.data(), 2.0, y.data());
  for (idx i = 0; i < 10; ++i) EXPECT_NEAR(y[i], ref[i], 1e-12);
}

class SpmmParam : public ::testing::TestWithParam<
                      std::tuple<Layout, Layout, Trans>> {};

TEST_P(SpmmParam, MatchesDenseGemm) {
  const auto [lb, lc, trans] = GetParam();
  Csr a = random_sparse(11, 8, 0.35, 32);
  const idx m = trans == Trans::No ? 11 : 8;
  const idx k = trans == Trans::No ? 8 : 11;
  DenseMatrix b(k, 5, lb);
  Rng rng(33);
  for (idx r = 0; r < k; ++r)
    for (idx c = 0; c < 5; ++c) b.at(r, c) = rng.uniform(-1.0, 1.0);
  DenseMatrix c(m, 5, lc);
  for (idx r = 0; r < m; ++r)
    for (idx j = 0; j < 5; ++j) c.at(r, j) = rng.uniform(-1.0, 1.0);
  DenseMatrix ref(m, 5, Layout::ColMajor);
  copy(c.cview(), ref.view());
  DenseMatrix ad = a.to_dense();
  gemm(1.1, ad.cview(), trans, b.cview(), Trans::No, 0.3, ref.view());
  spmm(1.1, a, trans, b.cview(), 0.3, c.view());
  EXPECT_LT(max_abs_diff(c.cview(), ref.cview()), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, SpmmParam,
    ::testing::Combine(::testing::Values(Layout::RowMajor, Layout::ColMajor),
                       ::testing::Values(Layout::RowMajor, Layout::ColMajor),
                       ::testing::Values(Trans::No, Trans::Yes)));

class LaSpTrsmParam : public ::testing::TestWithParam<
                        std::tuple<Layout, Uplo, Trans>> {};

TEST_P(LaSpTrsmParam, SolvesAgainstDense) {
  const auto [lb, uplo, trans] = GetParam();
  const idx n = 20, w = 3;
  Csr t = random_sparse_triangular(n, uplo, 0.2, 34);
  DenseMatrix td = t.to_dense();
  DenseMatrix x_true(n, w, lb);
  Rng rng(35);
  for (idx r = 0; r < n; ++r)
    for (idx c = 0; c < w; ++c) x_true.at(r, c) = rng.uniform(-1.0, 1.0);
  // B = op(T) * X.
  DenseMatrix b(n, w, lb);
  for (idx i = 0; i < n; ++i)
    for (idx j = 0; j < w; ++j) {
      double acc = 0.0;
      for (idx p = 0; p < n; ++p) {
        const double tv =
            trans == Trans::No ? td.at(i, p) : td.at(p, i);
        acc += tv * x_true.at(p, j);
      }
      b.at(i, j) = acc;
    }
  sp_trsm(uplo, trans, t, b.view());
  EXPECT_LT(max_abs_diff(b.cview(), x_true.cview()), 1e-10);
}

// The pruned forward forms (and the backward ones) must equal, bit for
// bit, a column-by-column substitution in the kernel's order: gather forms
// subtract each stored off-diagonal term in row order and then scale by
// the reciprocal diagonal, scatter forms scale first and then subtract the
// pivot's multiples from later unknowns.
TEST_P(LaSpTrsmParam, StaircasePanelsMatchNaiveOrderBitwise) {
  const auto [lb, uplo, trans] = GetParam();
  for (testing::Stair shape : {testing::Stair::Sorted,
                               testing::Stair::Shuffled,
                               testing::Stair::ZeroLines})
    for (const auto& [n, w] :
         {std::pair<idx, idx>{1, 1}, {1, 5}, {15, 1}, {20, 6}, {30, 9}}) {
      SCOPED_TRACE(std::string(testing::to_string(shape)) + " n=" +
                   std::to_string(n) + " w=" + std::to_string(w));
      const Csr t = random_sparse_triangular(n, uplo, 0.3, 70 + n);
      DenseMatrix b = testing::staircase_panel(n, w, shape, lb, 80 + n + w);
      DenseMatrix ref(n, w, Layout::ColMajor);
      copy(b.cview(), ref.view());
      const bool gather = trans == Trans::No;
      const bool forward = (uplo == Uplo::Lower) != (trans == Trans::Yes);
      for (idx j = 0; j < w; ++j)
        for (idx step = 0; step < n; ++step) {
          const idx r = forward ? step : n - 1 - step;
          // Lower rows keep the diagonal last, upper rows first.
          const idx d = uplo == Uplo::Lower ? t.row_end(r) - 1 : t.row_begin(r);
          const idx ob = uplo == Uplo::Lower ? t.row_begin(r) : d + 1;
          const idx oe = uplo == Uplo::Lower ? d : t.row_end(r);
          const double dinv = 1.0 / t.val(d);
          if (gather) {
            double v = ref.at(r, j);
            for (idx e = ob; e < oe; ++e) v -= t.val(e) * ref.at(t.col(e), j);
            ref.at(r, j) = v * dinv;
          } else {
            ref.at(r, j) *= dinv;
            for (idx e = ob; e < oe; ++e)
              ref.at(t.col(e), j) -= t.val(e) * ref.at(r, j);
          }
        }
      sp_trsm(uplo, trans, t, b.view());
      for (idx i = 0; i < n; ++i)
        for (idx j = 0; j < w; ++j)
          EXPECT_EQ(b.at(i, j), ref.at(i, j)) << i << "," << j;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, LaSpTrsmParam,
    ::testing::Combine(::testing::Values(Layout::RowMajor, Layout::ColMajor),
                       ::testing::Values(Uplo::Upper, Uplo::Lower),
                       ::testing::Values(Trans::No, Trans::Yes)));

TEST(SpTrsv, MatchesSpTrsm) {
  const idx n = 16;
  Csr t = random_sparse_triangular(n, Uplo::Lower, 0.25, 36);
  auto b = random_vector(n, 37);
  auto b2 = b;
  sp_trsv(Uplo::Lower, Trans::Yes, t, b.data());
  DenseView bv{b2.data(), n, 1, n, Layout::ColMajor};
  sp_trsm(Uplo::Lower, Trans::Yes, t, bv);
  for (idx i = 0; i < n; ++i) EXPECT_NEAR(b[i], b2[i], 1e-13);
}

TEST(Csr, StaircaseOrderIsStableAndSortedByFirstColumn) {
  // First stored columns 3, (empty), 1, 3, 0, 1.
  const Csr panel = Csr::from_triplets(
      6, 5,
      {{0, 3, 1.0}, {0, 4, 2.0}, {2, 1, 3.0}, {3, 3, 4.0}, {4, 0, 5.0},
       {4, 2, 6.0}, {5, 1, 7.0}});
  const std::vector<idx> order = staircase_order(panel);
  EXPECT_EQ(order, (std::vector<idx>{4, 2, 5, 0, 3, 1}));

  const Csr sorted = permute_rows(panel, order);
  sorted.validate();
  for (idx k = 0; k < sorted.nrows(); ++k)
    for (idx c = 0; c < panel.ncols(); ++c)
      EXPECT_EQ(sorted.at(k, c), panel.at(order[k], c));

  // A random panel: a stable permutation, nondecreasing in first column.
  const Csr random = random_sparse(40, 25, 0.05, 90);
  const std::vector<idx> ro = staircase_order(random);
  EXPECT_EQ(invert_permutation(invert_permutation(ro)), ro);
  auto first = [&](idx r) {
    return random.row_begin(r) < random.row_end(r)
               ? random.col(random.row_begin(r))
               : random.ncols();
  };
  for (std::size_t k = 1; k < ro.size(); ++k) {
    EXPECT_LE(first(ro[k - 1]), first(ro[k]));
    if (first(ro[k - 1]) == first(ro[k])) {
      EXPECT_LT(ro[k - 1], ro[k]);
    }
  }

  // No rows (m = 0), and rows over no columns (nb = 0): all rows empty.
  EXPECT_TRUE(staircase_order(Csr(0, 7)).empty());
  EXPECT_EQ(staircase_order(Csr(3, 0)), (std::vector<idx>{0, 1, 2}));
}

TEST(Csr, StaircaseSolveWorkCountsLiveColumnsPerPivot) {
  // U = Lᵀ with row lengths 3, 2, 2, 1: nnz(L) = 8.
  const Csr u = Csr::from_triplets(4, 4,
                                   {{0, 0, 1.0}, {0, 1, 1.0}, {0, 3, 1.0},
                                    {1, 1, 1.0}, {1, 2, 1.0}, {2, 2, 1.0},
                                    {2, 3, 1.0}, {3, 3, 1.0}});
  // Panel rows starting at columns 2 and 0: in this order the second row
  // is live from pivot 0, so both columns count everywhere (8 × 2).
  const Csr panel =
      Csr::from_triplets(2, 4, {{0, 2, 1.0}, {1, 0, 1.0}, {1, 3, 1.0}});
  EXPECT_EQ(staircase_solve_work(u, panel), 16);
  // Staircase order: one live column at pivots 0-1 (3 + 2 entries), two
  // at pivots 2-3 (2 + 1 entries).
  EXPECT_EQ(staircase_solve_work(u, permute_rows(panel,
                                                 staircase_order(panel))),
            11);
  EXPECT_EQ(staircase_solve_work(u, Csr(0, 4)), 0);
}

TEST(Csr, EmptyMatrixBehaves) {
  Csr m(0, 0);
  m.validate();
  EXPECT_EQ(m.nnz(), 0);
  Csr t = m.transposed();
  EXPECT_EQ(t.nrows(), 0);
}

}  // namespace
}  // namespace feti::la
