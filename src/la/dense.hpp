#pragma once

// Dense matrix containers and views.
//
// The paper's assembly parameter space (Table I) includes the memory order of
// the dense factor and of the right-hand side, so layout is a runtime
// property here, and every dense kernel in la/blas_dense.hpp handles both
// orders (with specialized fast paths where it matters).
//
// Views and containers are templated on the scalar type: fp64 is the
// assembly/solve precision everywhere, and fp32 aliases exist for the
// mixed-precision storage of the explicit dual operators (F̃ assembled in
// fp64, demoted to fp32 storage, applied with fp64 accumulation — see the
// mixed-precision kernels in la/blas_dense.hpp).

#include <algorithm>
#include <vector>

#include "util/common.hpp"

namespace feti::la {

enum class Layout : std::uint8_t { RowMajor, ColMajor };

inline const char* to_string(Layout l) {
  return l == Layout::RowMajor ? "row-major" : "col-major";
}

/// Which triangle of a symmetric/triangular matrix is referenced.
enum class Uplo : std::uint8_t { Lower, Upper };

enum class Trans : std::uint8_t { No, Yes };

/// Non-owning mutable view of a dense matrix.
template <typename T>
struct DenseViewT {
  T* data = nullptr;
  idx rows = 0;
  idx cols = 0;
  idx ld = 0;  ///< leading dimension: row stride (RowMajor) or column stride
  Layout layout = Layout::ColMajor;

  [[nodiscard]] T& at(idx r, idx c) const {
    return layout == Layout::RowMajor ? data[static_cast<widx>(r) * ld + c]
                                      : data[static_cast<widx>(c) * ld + r];
  }
  [[nodiscard]] bool empty() const { return rows == 0 || cols == 0; }
};

/// Non-owning read-only view of a dense matrix.
template <typename T>
struct ConstDenseViewT {
  const T* data = nullptr;
  idx rows = 0;
  idx cols = 0;
  idx ld = 0;
  Layout layout = Layout::ColMajor;

  ConstDenseViewT() = default;
  ConstDenseViewT(const T* d, idx r, idx c, idx l, Layout lay)
      : data(d), rows(r), cols(c), ld(l), layout(lay) {}
  /// Implicit widening from a mutable view.
  ConstDenseViewT(const DenseViewT<T>& v)  // NOLINT(google-explicit-constructor)
      : data(v.data), rows(v.rows), cols(v.cols), ld(v.ld), layout(v.layout) {}

  [[nodiscard]] T at(idx r, idx c) const {
    return layout == Layout::RowMajor ? data[static_cast<widx>(r) * ld + c]
                                      : data[static_cast<widx>(c) * ld + r];
  }
  [[nodiscard]] bool empty() const { return rows == 0 || cols == 0; }
};

using DenseView = DenseViewT<double>;
using ConstDenseView = ConstDenseViewT<double>;
using DenseViewF32 = DenseViewT<float>;
using ConstDenseViewF32 = ConstDenseViewT<float>;

/// Owning dense matrix. Storage is zero-initialized.
template <typename T>
class DenseMatrixT {
 public:
  DenseMatrixT() = default;
  DenseMatrixT(idx rows, idx cols, Layout layout = Layout::ColMajor)
      : rows_(rows), cols_(cols), layout_(layout),
        ld_(layout == Layout::RowMajor ? cols : rows),
        data_(static_cast<std::size_t>(
                  std::max<widx>(1, static_cast<widx>(ld_)) *
                  (layout == Layout::RowMajor ? rows : cols)),
              T(0)) {
    check(rows >= 0 && cols >= 0, "DenseMatrix: negative dimension");
  }

  [[nodiscard]] idx rows() const { return rows_; }
  [[nodiscard]] idx cols() const { return cols_; }
  [[nodiscard]] Layout layout() const { return layout_; }
  [[nodiscard]] idx ld() const { return ld_; }

  [[nodiscard]] T& at(idx r, idx c) { return view().at(r, c); }
  [[nodiscard]] T at(idx r, idx c) const { return cview().at(r, c); }

  [[nodiscard]] DenseViewT<T> view() {
    return {data_.data(), rows_, cols_, ld_, layout_};
  }
  [[nodiscard]] ConstDenseViewT<T> cview() const {
    return {data_.data(), rows_, cols_, ld_, layout_};
  }

  [[nodiscard]] T* data() { return data_.data(); }
  [[nodiscard]] const T* data() const { return data_.data(); }
  [[nodiscard]] std::size_t size() const { return data_.size(); }

  void set_zero() { std::fill(data_.begin(), data_.end(), T(0)); }

 private:
  idx rows_ = 0;
  idx cols_ = 0;
  Layout layout_ = Layout::ColMajor;
  idx ld_ = 0;
  std::vector<T> data_;
};

using DenseMatrix = DenseMatrixT<double>;
using DenseMatrixF32 = DenseMatrixT<float>;

/// Copies `src` into `dst` element-wise (layouts may differ).
void copy(ConstDenseView src, DenseView dst);

/// Zeroes every element of `a`, one contiguous line (column of a
/// column-major view, row of a row-major one) at a time.
void set_zero(DenseView a);

/// Max-abs difference between two equally sized views (test helper).
double max_abs_diff(ConstDenseView a, ConstDenseView b);

/// Mirrors the stored triangle of a symmetric matrix to the other triangle.
void symmetrize_from(DenseView a, Uplo stored);

/// Demotes fp64 storage to fp32: dst(i, j) = float(src(i, j)) over the full
/// rectangle (layouts/leading dimensions may differ).
void demote(ConstDenseView src, DenseViewF32 dst);

/// Triangle-only demotion for symmetric-packed storage: only the `uplo`
/// triangle (diagonal included) of `dst` is written, so two matrices
/// sharing one allocation with opposite triangles stay disjoint.
void demote_triangle(Uplo uplo, ConstDenseView src, DenseViewF32 dst);

/// Writes the `uplo` triangle (diagonal included) of a symmetric matrix in
/// its original order from a copy held in another order: dst(i, j) =
/// src(pos[i], pos[j]), reading only src's Upper triangle. This is the
/// un-permute of the staircase-ordered explicit assembly (pos[i] is the
/// staircase position of local dual unknown i); the fp32 overload demotes
/// on the way. dst is written line by line in its storage order, and
/// nothing outside its `uplo` triangle is touched.
void unpermute_triangle(Uplo uplo, const idx* pos, ConstDenseView src,
                        DenseView dst);
void unpermute_triangle(Uplo uplo, const idx* pos, ConstDenseView src,
                        DenseViewF32 dst);

}  // namespace feti::la
