#pragma once

// Shared helpers for the BLAS-like kernels: beta scaling and the live
// width of the staircase-pruned solves.
//
// BLAS beta semantics: beta == 0 must OVERWRITE the destination without
// reading it — the output may be uninitialized memory (e.g. freshly
// allocated device buffers), and 0 * NaN would otherwise poison the result
// permanently.

#include "la/dense.hpp"

namespace feti::la::detail {

/// y = beta * y, without reading y when beta == 0.
template <typename T>
inline void store_scaled(T beta, T& y) {
  if (beta == T(0))
    y = T(0);
  else if (beta != T(1))
    y *= beta;
}

template <typename T>
inline void scale_vec(idx n, T beta, T* y) {
  if (beta == T(0)) {
    for (idx i = 0; i < n; ++i) y[i] = T(0);
  } else if (beta != T(1)) {
    for (idx i = 0; i < n; ++i) y[i] *= beta;
  }
}

/// The live width of a staircase-pruned kernel after it reaches `row`
/// (length w): the larger of `live` and one past the row's last nonzero.
/// Only [live, w) is scanned — the kernels have touched nothing there yet.
template <typename T>
inline idx extend_live(const T* row, idx w, idx live) {
  for (idx j = w; j > live; --j)
    if (row[j - 1] != T(0)) return j;
  return live;
}

}  // namespace feti::la::detail
