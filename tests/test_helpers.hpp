#pragma once

// Shared generators for tests: random SPD sparse matrices, grid Laplacians,
// and dense reference factorizations.

#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "la/blas_dense.hpp"
#include "la/csr.hpp"
#include "util/rng.hpp"

namespace feti::testing {

/// Random symmetric positive definite sparse matrix: symmetric random
/// pattern with diagonal dominance.
inline la::Csr random_spd(idx n, double density, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<la::Triplet> t;
  std::vector<double> rowsum(static_cast<std::size_t>(n), 0.0);
  for (idx r = 0; r < n; ++r)
    for (idx c = r + 1; c < n; ++c)
      if (rng.uniform() < density) {
        const double v = rng.uniform(-1.0, 1.0);
        t.push_back({r, c, v});
        t.push_back({c, r, v});
        rowsum[r] += std::fabs(v);
        rowsum[c] += std::fabs(v);
      }
  for (idx r = 0; r < n; ++r) t.push_back({r, r, rowsum[r] + 1.0});
  return la::Csr::from_triplets(n, n, std::move(t));
}

/// 5-point Laplacian on an nx-by-ny grid (SPD after adding eps to diagonal).
inline la::Csr grid_laplacian(idx nx, idx ny, double diag_shift = 1e-3) {
  auto id = [nx](idx i, idx j) { return j * nx + i; };
  std::vector<la::Triplet> t;
  for (idx j = 0; j < ny; ++j)
    for (idx i = 0; i < nx; ++i) {
      double d = diag_shift;
      auto link = [&](idx i2, idx j2) {
        if (i2 < 0 || i2 >= nx || j2 < 0 || j2 >= ny) return;
        t.push_back({id(i, j), id(i2, j2), -1.0});
        d += 1.0;
      };
      link(i - 1, j);
      link(i + 1, j);
      link(i, j - 1);
      link(i, j + 1);
      t.push_back({id(i, j), id(i, j), d});
    }
  return la::Csr::from_triplets(nx * ny, nx * ny, std::move(t));
}

/// Dense Cholesky (lower) for reference comparisons. Returns false if the
/// matrix is not positive definite.
inline bool dense_cholesky_lower(la::DenseMatrix& a) {
  const idx n = a.rows();
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

inline std::vector<double> random_vector(idx n, std::uint64_t seed) {
  std::vector<double> v(static_cast<std::size_t>(n));
  Rng rng(seed);
  for (auto& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

/// Random sparse rectangular matrix (for B in Schur tests).
inline la::Csr random_sparse(idx rows, idx cols, double density,
                             std::uint64_t seed) {
  Rng rng(seed);
  std::vector<la::Triplet> t;
  for (idx r = 0; r < rows; ++r) {
    bool any = false;
    for (idx c = 0; c < cols; ++c)
      if (rng.uniform() < density) {
        t.push_back({r, c, rng.uniform(-1.0, 1.0)});
        any = true;
      }
    if (!any)  // keep every row non-empty so S has full structure
      t.push_back({r, static_cast<idx>(rng.integer(0, cols - 1)),
                   rng.uniform(-1.0, 1.0)});
  }
  return la::Csr::from_triplets(rows, cols, std::move(t));
}

/// Shapes of a forward-solve panel for the staircase-pruned kernels.
enum class Stair : std::uint8_t { Sorted, Shuffled, ZeroLines };

inline const char* to_string(Stair s) {
  return s == Stair::Sorted     ? "sorted"
         : s == Stair::Shuffled ? "shuffled"
                                : "zero lines";
}

/// An n × w panel that is zero above a staircase: the column placed j-th
/// starts at row j·n/w. Sorted keeps that order, Shuffled permutes the
/// columns, ZeroLines zeroes every third column and every fourth row of the
/// sorted panel.
inline la::DenseMatrix staircase_panel(idx n, idx w, Stair shape,
                                       la::Layout layout,
                                       std::uint64_t seed) {
  Rng rng(seed);
  std::vector<idx> col(static_cast<std::size_t>(w));
  for (idx j = 0; j < w; ++j) col[j] = j;
  if (shape == Stair::Shuffled)
    for (idx j = w - 1; j > 0; --j)
      std::swap(col[j], col[rng.integer(0, j)]);
  la::DenseMatrix m(n, w, layout);
  for (idx j = 0; j < w; ++j)
    for (idx r = j * n / w; r < n; ++r) {
      const bool zero =
          shape == Stair::ZeroLines && (j % 3 == 1 || r % 4 == 2);
      m.at(r, col[j]) = zero ? 0.0 : rng.uniform(-1.0, 1.0);
    }
  return m;
}

}  // namespace feti::testing
