#pragma once

// vcuSPARSE: sparse kernels with stream semantics — the cuSPARSE
// substitute, in two API flavours mirroring the paper's "legacy" (CUDA
// 11.7) and "modern" (CUDA 12.4 generic API) libraries:
//
//  * Legacy sparse TRSM: level-scheduled block algorithm; solves row-major
//    right-hand sides natively (vectorized across RHS columns); a
//    column-major RHS costs a temporary row-major copy of the RHS, and a
//    factor supplied in the non-native order costs a persistent value-
//    permutation buffer of the size of the factor — both effects the paper
//    reports for legacy cuSPARSE.
//  * Modern SpSM: generic implementation that always normalizes the factor
//    into an internal copy and stages the RHS through a persistently
//    allocated dense workspace, then solves column-by-column without
//    cross-RHS vectorization. This reproduces both observations of the
//    paper: the modern sparse TRSM is much slower, and it "requires very
//    large persistently allocated memory buffers".
//
// Factor order convention (Table I): RowMajor = CSR of the lower factor L;
// ColMajor = CSC of L, which equals CSR of U = L^T and is the orientation
// our simplicial solver exports natively.

#include <string_view>

#include "gpu/data.hpp"
#include "gpu/runtime.hpp"

namespace feti::gpu::sparse {

enum class Api : std::uint8_t { Legacy, Modern };

const char* to_string(Api a);

/// Inverse of to_string ("legacy" / "modern"). Throws std::invalid_argument
/// on unknown names.
Api parse_api(std::string_view s);

/// Persistent analysis object for a triangular solve with dense RHS
/// (cusparse csrsm2 / SpSM analogue). Creation performs the persistent
/// allocations and structure uploads; values are refreshed per time step.
class SpTrsmPlan {
 public:
  SpTrsmPlan() = default;
  /// `host_upper` is U = L^T in CSR with the diagonal first per row.
  /// `forward` selects L x = b (true) or L^T x = b (false).
  SpTrsmPlan(Device& dev, Stream& s, Api api, const la::Csr& host_upper,
             la::Layout factor_order, bool forward, la::Layout rhs_layout,
             idx max_rhs_cols);
  ~SpTrsmPlan();

  SpTrsmPlan(SpTrsmPlan&& o) noexcept;
  SpTrsmPlan& operator=(SpTrsmPlan&& o) noexcept;
  SpTrsmPlan(const SpTrsmPlan&) = delete;
  SpTrsmPlan& operator=(const SpTrsmPlan&) = delete;

  /// Stream-ordered refresh of the factor values from a new numeric
  /// factorization (same structure).
  void update_values(Stream& s, const la::Csr& host_upper);

  /// Solves op(factor) X = B in place of the device matrix `b`. `workspace`
  /// must point to at least workspace_bytes(b.cols) of temporary device
  /// memory for the legacy API (modern uses its persistent buffers);
  /// may be null when workspace_bytes is 0.
  void solve(Stream& s, DeviceDense b, void* workspace) const;

  /// Temporary workspace required per call (legacy col-major RHS).
  [[nodiscard]] std::size_t workspace_bytes(idx rhs_cols) const;
  /// Persistent device memory held by this plan.
  [[nodiscard]] std::size_t persistent_bytes() const {
    return persistent_bytes_;
  }
  /// Depth of the level schedule (legacy analysis introspection).
  [[nodiscard]] idx level_count() const { return levels_; }
  [[nodiscard]] bool valid() const { return dev_ != nullptr; }

 private:
  void release();

  Device* dev_ = nullptr;
  Api api_ = Api::Legacy;
  bool forward_ = true;
  la::Layout factor_order_ = la::Layout::ColMajor;
  la::Layout rhs_layout_ = la::Layout::RowMajor;
  idx n_ = 0;
  idx nnz_ = 0;
  idx max_cols_ = 0;
  DeviceCsr factor_;           ///< oriented factor (legacy) / lower (modern)
  double* staging_ = nullptr;  ///< uploaded U values (when reordering)
  idx* valperm_ = nullptr;     ///< U-value index -> factor value index
  double* modern_work_ = nullptr;  ///< persistent dense RHS workspace
  idx levels_ = 0;
  std::size_t persistent_bytes_ = 0;
};

/// y = alpha * op(A) x + beta * y.
void spmv(Stream& s, double alpha, DeviceCsr a, la::Trans trans,
          const double* x, double beta, double* y);

/// C = alpha * op(A) * B + beta * C (A sparse, B/C dense device).
void spmm(Stream& s, double alpha, DeviceCsr a, la::Trans trans,
          DeviceDense b, double beta, DeviceDense c);

/// Dense conversion on the device (zero-fills first, in the output's
/// storage order).
void csr_to_dense(Stream& s, DeviceCsr a, DeviceDense out);
/// out = A^T as dense (builds the dense RHS B̃ᵀ directly from B̃).
void csr_to_dense_transposed(Stream& s, DeviceCsr a, DeviceDense out);

}  // namespace feti::gpu::sparse
