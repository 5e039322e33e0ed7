#include "gpu/kernels.hpp"

#include <algorithm>

#include "la/blas_dense.hpp"

namespace feti::gpu::kernels {

// The scatter/gather kernels are header templates (instantiated for the
// fp64 and fp32 local-panel scalars); only the non-template utilities and
// the demotion and un-permute kernels live here.

void fill_zero(Stream& s, double* data, idx n) {
  s.submit([data, n] { std::fill_n(data, n, 0.0); });
}

void demote(Stream& s, DeviceDense src, DeviceDenseF32 dst) {
  s.submit([src, dst] { la::demote(src.cview(), dst.view()); });
}

void unpermute_triangle(Stream& s, la::Uplo uplo, const idx* pos,
                        DeviceDense src, DeviceDense dst) {
  s.submit([uplo, pos, src, dst] {
    la::unpermute_triangle(uplo, pos, src.cview(), dst.view());
  });
}

void unpermute_triangle(Stream& s, la::Uplo uplo, const idx* pos,
                        DeviceDense src, DeviceDenseF32 dst) {
  s.submit([uplo, pos, src, dst] {
    la::unpermute_triangle(uplo, pos, src.cview(), dst.view());
  });
}

void symmetrize(Stream& s, la::Uplo stored, DeviceDense a) {
  s.submit([stored, a] { la::symmetrize_from(a.view(), stored); });
}

}  // namespace feti::gpu::kernels
