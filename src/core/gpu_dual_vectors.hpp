#pragma once

// The device apply path shared by every GPU dual operator and the GPU
// block preconditioners: a cluster-wide dual block is scattered into
// per-subdomain device panels, one local kernel runs per subdomain across
// the worker streams, and the panels gather back into the cluster block
// (Section IV-B/C and Fig. 4 of the paper). This header owns every decision
// about that round trip — staging, panel layout, width-1 contiguity and the
// stream fan-out — so the callers only supply their local kernel.
//
// Two scatter/gather placements (the paper's SgLocation axis):
//  * GPU: one H2D copy of the cluster block (none when the caller's block
//    is already device-resident), one batched scatter kernel, the local
//    kernels over the worker streams, one batched gather kernel and one
//    D2H copy — a batch of nrhs columns costs the submissions of one;
//  * CPU: host-side scatter into per-subdomain staging panels, one H2D and
//    one D2H panel copy around each local kernel on its worker stream, and
//    a host-side gather — more submissions, more copy/compute overlap.
// Both move the same values in the same accumulation order, so they agree
// bitwise.
//
// Width-1 applies hand the local kernel the contiguous m×1 vectors
// (ld = m), wider ones the first nrhs columns of grow-only row-major
// m × capacity panels, so a family can pick SYMV/GEMV/SpMV on
// lam.cols == 1 and SYMM/GEMM/SpMM otherwise. Both round every column
// alike, so column j of a batch is bitwise equal to a width-1 apply of
// column j, and a host apply equals a device apply of the same width.
//
// Optional per-subdomain weight diagonals D turn the round trip into the
// scaled restriction/prolongation Σᵢ B̃ᵢ D (·) D B̃ᵢᵀ of the block
// preconditioners (GPU placement only). Unweighted callers scale by 1.0,
// which is exact.

#include <algorithm>
#include <vector>

#include "core/host_dual_vectors.hpp"
#include "decomp/feti_problem.hpp"
#include "gpu/data.hpp"
#include "gpu/kernels.hpp"
#include "gpu/runtime.hpp"

namespace feti::core {

/// Where the caller's cluster block lives: host memory (the GPU placement
/// stages it through device buffers) or the device (no staging copies).
enum class ClusterMemory : bool { Host, Device };

/// Per-subdomain device dual vectors and panels, cluster staging buffers and
/// maps over every subdomain of the problem, and the two scatter/gather
/// bodies. Subdomains without multipliers (m = 0) are skipped.
///
/// `T` is the local-panel scalar: fp64 for the default operators, fp32 for
/// the mixed-precision explicit families. The cluster-wide dual vectors
/// always stay fp64 — the fp32 instantiation downcasts on scatter and the
/// gather accumulates the fp32 locals into the fp64 cluster vector.
template <typename T>
class GpuDualVectorsT {
 public:
  /// The m × nrhs device views a local kernel reads (lam) and writes (q).
  using Panel = gpu::DeviceDenseT<T>;

  GpuDualVectorsT() = default;
  GpuDualVectorsT(const GpuDualVectorsT&) = delete;
  GpuDualVectorsT& operator=(const GpuDualVectorsT&) = delete;

  ~GpuDualVectorsT() {
    if (dev_ == nullptr) return;
    for (auto& sv : subs_) {
      dev_->free(sv.lam);
      dev_->free(sv.q);
      dev_->free(sv.lam_blk);
      dev_->free(sv.q_blk);
      dev_->free(sv.weight);
      dev_->free(const_cast<idx*>(sv.map));
    }
    dev_->free(d_x_);
    dev_->free(d_y_);
    dev_->free(d_x_blk_);
    dev_->free(d_y_blk_);
  }

  /// Allocates the width-1 vectors, uploads the maps (stream-ordered on
  /// `s`) and, when `weighted`, allocates the weight diagonals that
  /// upload_weights() fills.
  void prepare(gpu::Device& dev, gpu::Stream& s, const decomp::FetiProblem& p,
               bool weighted = false) {
    dev_ = &dev;
    p_ = &p;
    nlambda_ = p.num_lambdas;
    weighted_ = weighted;
    subs_.resize(p.sub.size());
    host_lam_.resize(subs_.size());
    host_q_.resize(subs_.size());
    for (std::size_t k = 0; k < subs_.size(); ++k) {
      const auto& fs = p.sub[k];
      const idx m = fs.num_local_lambdas();
      subs_[k].n = m;
      if (m == 0) continue;
      subs_[k].lam = dev.alloc_n<T>(static_cast<std::size_t>(m));
      subs_[k].q = dev.alloc_n<T>(static_cast<std::size_t>(m));
      subs_[k].map = gpu::upload_array(dev, s, fs.lm_l2c);
      if (weighted)
        subs_[k].weight = dev.alloc_n<double>(static_cast<std::size_t>(m));
    }
    d_x_ = dev.alloc_n<double>(static_cast<std::size_t>(nlambda_));
    d_y_ = dev.alloc_n<double>(static_cast<std::size_t>(nlambda_));
  }

  /// Stream-ordered upload of the weight diagonals (`w` is indexed by
  /// subdomain; `w[s]` must stay alive until `s` drains). Requires
  /// prepare(..., weighted = true).
  void upload_weights(gpu::Stream& s,
                      const std::vector<std::vector<double>>& w) {
    for (std::size_t k = 0; k < subs_.size(); ++k)
      if (subs_[k].weight != nullptr)
        s.memcpy_h2d(subs_[k].weight, w[k].data(),
                     static_cast<std::size_t>(subs_[k].n) * sizeof(double));
  }

  /// GPU scatter/gather placement. `x`/`y` hold nrhs contiguous cluster
  /// columns (leading dimension num_lambdas) in `memory`; `local(s, stream,
  /// lam, q)` receives the subdomain index and submits q = Aₛ lam on
  /// `stream`. Synchronous: the result is complete on return.
  template <typename Local>
  void apply_gpu(gpu::Stream& main, std::vector<gpu::Stream>& streams,
                 const double* x, double* y, idx nrhs, ClusterMemory memory,
                 Local&& local) {
    if (nrhs > 1) ensure_batch(nrhs);
    const std::size_t bytes = static_cast<std::size_t>(nlambda_) *
                              static_cast<std::size_t>(nrhs) * sizeof(double);
    const double* cx = x;
    double* cy = y;
    if (memory == ClusterMemory::Host) {
      double* staged = nrhs == 1 ? d_x_ : d_x_blk_;
      main.memcpy_h2d(staged, x, bytes);
      cx = staged;
      cy = nrhs == 1 ? d_y_ : d_y_blk_;
    }
    gpu::kernels::scatter_batch(main, cx, nlambda_, nrhs, layout(nrhs),
                                jobs(nrhs, /*output=*/false));
    const gpu::Event scattered = main.record();

    const std::size_t nstreams = streams.size();
    std::vector<bool> used(nstreams, false);
    for (std::size_t k = 0; k < subs_.size(); ++k) {
      if (subs_[k].n == 0) continue;
      gpu::Stream& st = streams[k % nstreams];
      if (!used[k % nstreams]) {
        st.wait(scattered);
        used[k % nstreams] = true;
      }
      local(static_cast<idx>(k), st, lam_panel(k, nrhs), q_panel(k, nrhs));
    }
    for (std::size_t k = 0; k < nstreams; ++k)
      if (used[k]) main.wait(streams[k].record());

    gpu::kernels::gather_batch(main, cy, nlambda_, nlambda_, nrhs,
                               layout(nrhs), jobs(nrhs, /*output=*/true));
    if (memory == ClusterMemory::Host) main.memcpy_d2h(y, cy, bytes);
    main.synchronize();
  }

  /// CPU scatter/gather placement over host cluster columns `x`/`y` (same
  /// layout and `local` contract as apply_gpu). Unweighted only.
  template <typename Local>
  void apply_cpu(std::vector<gpu::Stream>& streams, const double* x,
                 double* y, idx nrhs, Local&& local) {
    check(!weighted_,
          "GpuDualVectors: weights need the GPU scatter/gather placement");
    if (nrhs > 1) ensure_batch(nrhs);
    const std::size_t nstreams = streams.size();
    const std::size_t stride = static_cast<std::size_t>(nlambda_);
    for (std::size_t k = 0; k < subs_.size(); ++k) {
      if (subs_[k].n == 0) continue;
      const Panel lam = lam_panel(k, nrhs);
      const Panel q = q_panel(k, nrhs);
      const std::size_t span = panel_span(lam);
      // Host staging mirrors the device panel; resize is a no-op once grown.
      if (host_lam_[k].size() < span) {
        host_lam_[k].resize(span);
        host_q_[k].resize(span);
      }
      HostDualVectorsT<T>::scatter(p_->sub[k].lm_l2c, x, stride, nullptr,
                                   {host_lam_[k].data(), lam.rows, lam.cols,
                                    lam.ld, lam.layout});
      gpu::Stream& st = streams[k % nstreams];
      st.memcpy_h2d(lam.data, host_lam_[k].data(), span * sizeof(T));
      local(static_cast<idx>(k), st, lam, q);
      st.memcpy_d2h(host_q_[k].data(), q.data, span * sizeof(T));
    }
    for (auto& st : streams) st.synchronize();
    std::fill_n(y, stride * static_cast<std::size_t>(nrhs), 0.0);
    for (std::size_t k = 0; k < subs_.size(); ++k) {
      if (subs_[k].n == 0) continue;
      const Panel q = q_panel(k, nrhs);
      HostDualVectorsT<T>::gather_add(
          p_->sub[k].lm_l2c,
          {host_q_[k].data(), q.rows, q.cols, q.ld, q.layout}, nullptr, y,
          stride);
    }
  }

 private:
  struct SubVec {
    T* lam = nullptr;      ///< contiguous m-vector (width-1 apply)
    T* q = nullptr;        ///< contiguous m-vector (width-1 apply)
    T* lam_blk = nullptr;  ///< m × batch_cap_ row-major panel
    T* q_blk = nullptr;    ///< m × batch_cap_ row-major panel
    double* weight = nullptr;  ///< optional diagonal D, length m
    const idx* map = nullptr;
    idx n = 0;
  };

  [[nodiscard]] static la::Layout layout(idx nrhs) {
    return nrhs == 1 ? la::Layout::ColMajor : la::Layout::RowMajor;
  }

  [[nodiscard]] Panel panel(const SubVec& sv, T* vec, T* blk,
                            idx nrhs) const {
    if (nrhs == 1) return {vec, sv.n, 1, sv.n, la::Layout::ColMajor};
    return {blk, sv.n, nrhs, batch_cap_, la::Layout::RowMajor};
  }
  [[nodiscard]] Panel lam_panel(std::size_t k, idx nrhs) const {
    return panel(subs_[k], subs_[k].lam, subs_[k].lam_blk, nrhs);
  }
  [[nodiscard]] Panel q_panel(std::size_t k, idx nrhs) const {
    return panel(subs_[k], subs_[k].q, subs_[k].q_blk, nrhs);
  }

  /// Elements of the contiguous span covering a panel's live entries
  /// (row-major panels interleave stale columns, so the span runs to the
  /// last row's live entry).
  [[nodiscard]] static std::size_t panel_span(const Panel& v) {
    const widx span = v.layout == la::Layout::RowMajor
                          ? static_cast<widx>(v.rows - 1) * v.ld + v.cols
                          : static_cast<widx>(v.cols - 1) * v.ld + v.rows;
    return static_cast<std::size_t>(span);
  }

  /// The scatter (output = false) or gather job list of one apply.
  [[nodiscard]] std::vector<gpu::kernels::DualMapBlockT<T>> jobs(
      idx nrhs, bool output) const {
    std::vector<gpu::kernels::DualMapBlockT<T>> out;
    out.reserve(subs_.size());
    for (std::size_t k = 0; k < subs_.size(); ++k) {
      if (subs_[k].n == 0) continue;
      const Panel v = output ? q_panel(k, nrhs) : lam_panel(k, nrhs);
      out.push_back({subs_[k].map, subs_[k].n, v.data, v.ld, subs_[k].weight});
    }
    return out;
  }

  /// Grow-only multi-RHS state: cluster-wide device blocks (num_lambdas ×
  /// cap) and per-subdomain panels (m × cap). Persistent across applies —
  /// batched apply sits in the PCPG per-iteration hot path, and a draining
  /// lockstep batch shrinks without triggering reallocation.
  void ensure_batch(idx nrhs) {
    if (batch_cap_ >= nrhs) return;
    // Invalidate the capacity up front and null every pointer between free
    // and realloc: a bad_alloc mid-growth must leave no dangling panel
    // behind (the destructor frees, and a caller may retry narrower, which
    // now forces a full rebuild instead of reusing freed buffers).
    batch_cap_ = 0;
    for (auto& sv : subs_) {
      if (sv.n == 0) continue;
      dev_->free(sv.lam_blk);
      sv.lam_blk = nullptr;
      dev_->free(sv.q_blk);
      sv.q_blk = nullptr;
      const std::size_t panel =
          static_cast<std::size_t>(sv.n) * static_cast<std::size_t>(nrhs);
      sv.lam_blk = dev_->alloc_n<T>(panel);
      sv.q_blk = dev_->alloc_n<T>(panel);
    }
    dev_->free(d_x_blk_);
    d_x_blk_ = nullptr;
    dev_->free(d_y_blk_);
    d_y_blk_ = nullptr;
    const std::size_t cluster =
        static_cast<std::size_t>(nlambda_) * static_cast<std::size_t>(nrhs);
    d_x_blk_ = dev_->alloc_n<double>(cluster);
    d_y_blk_ = dev_->alloc_n<double>(cluster);
    batch_cap_ = nrhs;
  }

  gpu::Device* dev_ = nullptr;
  const decomp::FetiProblem* p_ = nullptr;
  std::vector<SubVec> subs_;
  std::vector<std::vector<T>> host_lam_, host_q_;  ///< CPU-placement staging
  double* d_x_ = nullptr;
  double* d_y_ = nullptr;
  double* d_x_blk_ = nullptr;
  double* d_y_blk_ = nullptr;
  idx nlambda_ = 0;
  idx batch_cap_ = 0;
  bool weighted_ = false;
};

using GpuDualVectors = GpuDualVectorsT<double>;

}  // namespace feti::core
