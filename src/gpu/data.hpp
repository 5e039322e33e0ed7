#pragma once

// Device-resident matrix descriptors and upload helpers.
//
// Device memory is host memory here (see gpu/runtime.hpp), but every buffer
// below is allocated through Device::alloc and filled through stream-ordered
// copies, preserving the persistent-allocation discipline and transfer
// points of the paper's implementation.
//
// Dense descriptors are templated on the scalar: fp64 everywhere, plus the
// fp32 instantiation used by the mixed-precision explicit operators (F̃
// assembled in fp64, demoted to fp32 device storage — see
// gpu::kernels::demote).

#include "gpu/runtime.hpp"
#include "la/csr.hpp"
#include "la/dense.hpp"

namespace feti::gpu {

/// Dense matrix in device memory (descriptor; owner frees via free_dense).
template <typename T>
struct DeviceDenseT {
  T* data = nullptr;
  idx rows = 0;
  idx cols = 0;
  idx ld = 0;
  la::Layout layout = la::Layout::ColMajor;

  [[nodiscard]] la::DenseViewT<T> view() const {
    return {data, rows, cols, ld, layout};
  }
  [[nodiscard]] la::ConstDenseViewT<T> cview() const {
    return {data, rows, cols, ld, layout};
  }
  [[nodiscard]] std::size_t bytes() const {
    const widx span = layout == la::Layout::RowMajor
                          ? static_cast<widx>(rows) * ld
                          : static_cast<widx>(cols) * ld;
    return static_cast<std::size_t>(span) * sizeof(T);
  }
};

using DeviceDense = DeviceDenseT<double>;
using DeviceDenseF32 = DeviceDenseT<float>;

template <typename T>
DeviceDenseT<T> alloc_dense_t(Device& dev, idx rows, idx cols,
                              la::Layout layout) {
  DeviceDenseT<T> d;
  d.rows = rows;
  d.cols = cols;
  d.layout = layout;
  d.ld = layout == la::Layout::RowMajor ? cols : rows;
  d.data = dev.alloc_n<T>(static_cast<std::size_t>(
      std::max<widx>(1, static_cast<widx>(rows) * cols)));
  return d;
}

template <typename T>
void free_dense(Device& dev, DeviceDenseT<T>& d) {
  dev.free(d.data);
  d = DeviceDenseT<T>{};
}

inline DeviceDense alloc_dense(Device& dev, idx rows, idx cols,
                               la::Layout layout) {
  return alloc_dense_t<double>(dev, rows, cols, layout);
}

/// CSR matrix in device memory.
struct DeviceCsr {
  idx nrows = 0;
  idx ncols = 0;
  idx nnz = 0;
  idx* rowptr = nullptr;
  idx* colidx = nullptr;
  double* vals = nullptr;
};

/// Allocates and uploads a full CSR matrix (structure + values).
DeviceCsr upload_csr(Device& dev, Stream& s, const la::Csr& m);
/// Stream-ordered value refresh (structure must match).
void update_csr_values(Stream& s, const DeviceCsr& d, const la::Csr& m);
void free_csr(Device& dev, DeviceCsr& d);

/// Uploads a plain array.
template <typename T>
T* upload_array(Device& dev, Stream& s, const std::vector<T>& host) {
  T* p = dev.alloc_n<T>(host.size());
  s.memcpy_h2d(p, host.data(), host.size() * sizeof(T));
  return p;
}

}  // namespace feti::gpu
