#include "la/dense.hpp"

#include <cmath>

namespace feti::la {

void copy(ConstDenseView src, DenseView dst) {
  check(src.rows == dst.rows && src.cols == dst.cols,
        "copy: dimension mismatch");
  if (src.layout == dst.layout && src.ld == dst.ld &&
      ((src.layout == Layout::RowMajor && src.ld == src.cols) ||
       (src.layout == Layout::ColMajor && src.ld == src.rows))) {
    std::copy_n(src.data,
                static_cast<widx>(src.rows) * src.cols, dst.data);
    return;
  }
  // Iterate in destination-contiguous order for write locality.
  if (dst.layout == Layout::RowMajor) {
    for (idx r = 0; r < dst.rows; ++r)
      for (idx c = 0; c < dst.cols; ++c) dst.at(r, c) = src.at(r, c);
  } else {
    for (idx c = 0; c < dst.cols; ++c)
      for (idx r = 0; r < dst.rows; ++r) dst.at(r, c) = src.at(r, c);
  }
}

void set_zero(DenseView a) {
  const bool rm = a.layout == Layout::RowMajor;
  const idx lines = rm ? a.rows : a.cols;
  const idx len = rm ? a.cols : a.rows;
  for (idx l = 0; l < lines; ++l)
    std::fill_n(a.data + static_cast<widx>(l) * a.ld, len, 0.0);
}

double max_abs_diff(ConstDenseView a, ConstDenseView b) {
  check(a.rows == b.rows && a.cols == b.cols,
        "max_abs_diff: dimension mismatch");
  double m = 0.0;
  for (idx r = 0; r < a.rows; ++r)
    for (idx c = 0; c < a.cols; ++c)
      m = std::max(m, std::fabs(a.at(r, c) - b.at(r, c)));
  return m;
}

void demote(ConstDenseView src, DenseViewF32 dst) {
  check(src.rows == dst.rows && src.cols == dst.cols,
        "demote: dimension mismatch");
  if (dst.layout == Layout::RowMajor) {
    for (idx r = 0; r < dst.rows; ++r)
      for (idx c = 0; c < dst.cols; ++c)
        dst.at(r, c) = static_cast<float>(src.at(r, c));
  } else {
    for (idx c = 0; c < dst.cols; ++c)
      for (idx r = 0; r < dst.rows; ++r)
        dst.at(r, c) = static_cast<float>(src.at(r, c));
  }
}

void demote_triangle(Uplo uplo, ConstDenseView src, DenseViewF32 dst) {
  check(src.rows == dst.rows && src.cols == dst.cols,
        "demote_triangle: dimension mismatch");
  check(dst.rows == dst.cols, "demote_triangle: matrix must be square");
  if (uplo == Uplo::Upper) {
    for (idx c = 0; c < dst.cols; ++c)
      for (idx r = 0; r <= c; ++r)
        dst.at(r, c) = static_cast<float>(src.at(r, c));
  } else {
    for (idx c = 0; c < dst.cols; ++c)
      for (idx r = c; r < dst.rows; ++r)
        dst.at(r, c) = static_cast<float>(src.at(r, c));
  }
}

namespace {

template <typename T>
void unpermute_triangle_t(Uplo uplo, const idx* pos, ConstDenseView src,
                          DenseViewT<T> dst) {
  check(src.rows == src.cols && dst.rows == dst.cols &&
            src.rows == dst.rows,
        "unpermute_triangle: dimension mismatch");
  const idx n = dst.rows;
  // Line l of dst is column l (column-major) or row l (row-major); its
  // stored part is the head [0, l] when the line runs down an Upper
  // column or along a Lower row, the tail [l, n) otherwise.
  const bool rm = dst.layout == Layout::RowMajor;
  const bool head = rm == (uplo == Uplo::Lower);
  for (idx l = 0; l < n; ++l) {
    T* line = dst.data + static_cast<widx>(l) * dst.ld;
    const idx pl = pos[l];
    const idx begin = head ? 0 : l;
    const idx end = head ? l + 1 : n;
    for (idx q = begin; q < end; ++q) {
      const idx pq = pos[q];
      line[q] = static_cast<T>(pq <= pl ? src.at(pq, pl) : src.at(pl, pq));
    }
  }
}

}  // namespace

void unpermute_triangle(Uplo uplo, const idx* pos, ConstDenseView src,
                        DenseView dst) {
  unpermute_triangle_t(uplo, pos, src, dst);
}

void unpermute_triangle(Uplo uplo, const idx* pos, ConstDenseView src,
                        DenseViewF32 dst) {
  unpermute_triangle_t(uplo, pos, src, dst);
}

void symmetrize_from(DenseView a, Uplo stored) {
  check(a.rows == a.cols, "symmetrize_from: matrix must be square");
  if (stored == Uplo::Upper) {
    for (idx c = 0; c < a.cols; ++c)
      for (idx r = 0; r < c; ++r) a.at(c, r) = a.at(r, c);
  } else {
    for (idx c = 0; c < a.cols; ++c)
      for (idx r = 0; r < c; ++r) a.at(r, c) = a.at(c, r);
  }
}

}  // namespace feti::la
