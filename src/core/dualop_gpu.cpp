// GPU dual-operator implementations (Section IV of the paper):
//
//  * ExplicitGpuDualOp — the paper's contribution: assembly of the local
//    dual operators F̃ᵢ on the (virtual) GPU with the full Table-I
//    parameter space (path, factor storage/order per solve, RHS order,
//    scatter/gather location), worker streams drawn from the execution
//    context, persistent vs temporary memory discipline, and CPU-GPU
//    overlap (numeric factorization of subdomain i+1 runs while the GPU
//    assembles i).
//  * ImplicitGpuDualOp — factors from the simplicial (CHOLMOD-like)
//    solver copied to the device; application via SpMV + two sparse
//    triangular solves + SpMV per subdomain.
//  * HybridDualOp — the prior-work baseline: assembly via the CPU Schur
//    path ("expl mkl"), application on the GPU.
//  * ShardedDualOp — multi-GPU sharding: subdomains partitioned across the
//    per-shard contexts of a gpu::DevicePool, one partial operator per
//    shard; dual results merge by summation because the dual gather is
//    additive. Registered for all three families ("expl legacy x2",
//    "impl modern x4", "expl hybrid x2", ...); whole batches are forwarded
//    to every shard, so the sharded path reaches the same device-side
//    batched apply as the single-device operators.
//
// All operators receive their execution resources (device, stream pool,
// workspace policy) through gpu::ExecutionContext instead of creating and
// clamping their own stream vectors.

#include <omp.h>

#include <exception>
#include <map>
#include <numeric>
#include <thread>
#include <type_traits>

#include "core/dualop_impls.hpp"
#include "core/dualop_registry.hpp"
#include "decomp/boundary.hpp"
#include "util/omp_guard.hpp"
#include "gpu/blas.hpp"
#include "gpu/kernels.hpp"
#include "gpu/sparse.hpp"
#include "la/blas_dense.hpp"
#include "la/blas_sparse.hpp"
#include "sparse/simplicial_cholesky.hpp"
#include "sparse/supernodal_cholesky.hpp"

namespace feti::core {

namespace {

la::Csr permute_columns(const la::Csr& b, const std::vector<idx>& perm) {
  const std::vector<idx> iperm = la::invert_permutation(perm);
  std::vector<la::Triplet> t;
  t.reserve(static_cast<std::size_t>(b.nnz()));
  for (idx r = 0; r < b.nrows(); ++r)
    for (idx k = b.row_begin(r); k < b.row_end(r); ++k)
      t.push_back({r, iperm[b.col(k)], b.val(k)});
  return la::Csr::from_triplets(b.nrows(), b.ncols(), std::move(t));
}

/// Host-side boundary expansion of the sparsity-aware hybrid operator
/// (same algebra as the CPU sp families): mirrors the one-triangle
/// boundary Gram block G_bb = E_b K_reg⁻¹ E_bᵀ and multiplies
/// F̃ = B_b G_bb B_bᵀ through two SpMMs — the transposed view of the
/// row-major intermediate serves as the second operand, so no explicit
/// transpose is formed. Writes the full m×m target.
void expand_boundary(const la::Csr& b_b, la::DenseView g, la::Uplo stored,
                     la::DenseView target) {
  la::symmetrize_from(g, stored);
  const idx m = target.rows;
  const idx nb = g.rows;
  la::DenseMatrix t(m, nb, la::Layout::RowMajor);
  la::spmm(1.0, b_b, la::Trans::No, la::ConstDenseView(g), 0.0, t.view());
  const la::ConstDenseView t_trans{t.data(), nb, m, t.ld(),
                                   la::Layout::ColMajor};
  la::spmm(1.0, b_b, la::Trans::No, t_trans, 0.0, target);
}

/// The subdomains an operator is responsible for: the explicit subset when
/// given, otherwise all of them.
std::vector<idx> resolve_owned(const decomp::FetiProblem& p,
                               std::vector<idx> owned) {
  if (owned.empty()) {
    owned.resize(static_cast<std::size_t>(p.num_subdomains()));
    std::iota(owned.begin(), owned.end(), 0);
  }
  return owned;
}

/// Per-subdomain device dual vectors + cluster vectors + maps, and the two
/// scatter/gather application strategies of Section IV-C. Operates on the
/// owned subdomain subset only: the gathered cluster vector holds the
/// contributions of the owned subdomains and zero elsewhere, so partial
/// results of disjoint subsets sum to the full application.
///
/// `T` is the local-panel scalar: fp64 for the default operators, fp32 for
/// the mixed-precision explicit families. The cluster-wide dual vectors
/// always stay fp64 — the fp32 instantiation downcasts on scatter and the
/// gather accumulates the fp32 locals into the fp64 cluster vector.
template <typename T>
class GpuDualVectorsT {
 public:
  void prepare(gpu::Device& dev, gpu::Stream& s, const decomp::FetiProblem& p,
               const std::vector<idx>& owned) {
    dev_ = &dev;
    p_ = &p;
    owned_ = owned;
    subs_.resize(owned_.size());
    host_lam_.resize(subs_.size());
    host_q_.resize(subs_.size());
    for (std::size_t k = 0; k < owned_.size(); ++k) {
      const auto& fs = p.sub[owned_[k]];
      const idx m = fs.num_local_lambdas();
      subs_[k].n = m;
      subs_[k].lam = dev.alloc_n<T>(static_cast<std::size_t>(m));
      subs_[k].q = dev.alloc_n<T>(static_cast<std::size_t>(m));
      subs_[k].map = gpu::upload_array(dev, s, fs.lm_l2c);
      host_lam_[k].resize(static_cast<std::size_t>(m));
      host_q_[k].resize(static_cast<std::size_t>(m));
    }
    d_x_ = dev.alloc_n<double>(static_cast<std::size_t>(p.num_lambdas));
    d_y_ = dev.alloc_n<double>(static_cast<std::size_t>(p.num_lambdas));
    nlambda_ = p.num_lambdas;
    s.synchronize();
  }

  ~GpuDualVectorsT() {
    if (dev_ == nullptr) return;
    for (auto& sv : subs_) {
      dev_->free(sv.lam);
      dev_->free(sv.q);
      dev_->free(sv.lam_blk);
      dev_->free(sv.q_blk);
      dev_->free(const_cast<idx*>(sv.map));
    }
    dev_->free(d_x_);
    dev_->free(d_y_);
    dev_->free(d_x_blk_);
    dev_->free(d_y_blk_);
  }

  struct SubVec {
    T* lam = nullptr;
    T* q = nullptr;
    T* lam_blk = nullptr;  ///< m × batch_cap_ panel (multi-RHS apply)
    T* q_blk = nullptr;    ///< m × batch_cap_ panel (multi-RHS apply)
    idx blk_ld = 0;
    const idx* map = nullptr;
    idx n = 0;
  };

  /// Grow-only multi-RHS state: cluster-wide device blocks (num_lambdas ×
  /// cap) and per-subdomain panels (m × cap) in `layout`. Persistent across
  /// applies — batched apply sits in the PCPG per-iteration hot path, and a
  /// draining lockstep batch shrinks without triggering reallocation.
  void ensure_batch(idx nrhs, la::Layout layout) {
    if (batch_cap_ >= nrhs && layout == batch_layout_) return;
    const idx cap = std::max(nrhs, batch_cap_);
    // Invalidate the capacity up front and null every pointer between free
    // and realloc: a bad_alloc mid-growth must leave no dangling panel
    // behind (the destructor frees, and a caller may retry narrower, which
    // now forces a full rebuild instead of reusing freed buffers).
    batch_cap_ = 0;
    for (auto& sv : subs_) {
      dev_->free(sv.lam_blk);
      sv.lam_blk = nullptr;
      dev_->free(sv.q_blk);
      sv.q_blk = nullptr;
      const std::size_t panel =
          static_cast<std::size_t>(sv.n) * static_cast<std::size_t>(cap);
      sv.lam_blk = dev_->alloc_n<T>(std::max<std::size_t>(1, panel));
      sv.q_blk = dev_->alloc_n<T>(std::max<std::size_t>(1, panel));
      sv.blk_ld = layout == la::Layout::RowMajor ? cap : sv.n;
    }
    dev_->free(d_x_blk_);
    d_x_blk_ = nullptr;
    dev_->free(d_y_blk_);
    d_y_blk_ = nullptr;
    const std::size_t cluster =
        static_cast<std::size_t>(nlambda_) * static_cast<std::size_t>(cap);
    d_x_blk_ = dev_->alloc_n<double>(std::max<std::size_t>(1, cluster));
    d_y_blk_ = dev_->alloc_n<double>(std::max<std::size_t>(1, cluster));
    batch_cap_ = cap;
    batch_layout_ = layout;
  }

  [[nodiscard]] idx batch_capacity() const { return batch_cap_; }

  /// First-nrhs-columns device view of subdomain k's lambda/q panel.
  [[nodiscard]] gpu::DeviceDenseT<T> lam_panel(std::size_t k,
                                               idx nrhs) const {
    const SubVec& sv = subs_[k];
    return {sv.lam_blk, sv.n, nrhs, sv.blk_ld, batch_layout_};
  }
  [[nodiscard]] gpu::DeviceDenseT<T> q_panel(std::size_t k, idx nrhs) const {
    const SubVec& sv = subs_[k];
    return {sv.q_blk, sv.n, nrhs, sv.blk_ld, batch_layout_};
  }

  /// GPU scatter/gather: one H2D copy + a single scatter kernel, the
  /// per-subdomain kernels, a single gather kernel + one D2H copy.
  /// `submit_local` receives the *global* subdomain index.
  template <typename SubmitLocal>
  void apply_sg_gpu(gpu::Stream& main, std::vector<gpu::Stream>& streams,
                    const double* x, double* y, SubmitLocal&& submit_local) {
    main.memcpy_h2d(d_x_, x, static_cast<std::size_t>(nlambda_) *
                                 sizeof(double));
    std::vector<gpu::kernels::DualMapT<T>> scatter_jobs;
    scatter_jobs.reserve(subs_.size());
    for (auto& sv : subs_) scatter_jobs.push_back({sv.map, sv.n, sv.lam});
    gpu::kernels::scatter_batch(main, d_x_, std::move(scatter_jobs));
    gpu::Event scattered = main.record();

    const std::size_t nstreams = streams.size();
    std::vector<bool> used(nstreams, false);
    for (std::size_t k = 0; k < subs_.size(); ++k) {
      gpu::Stream& st = streams[k % nstreams];
      if (!used[k % nstreams]) {
        st.wait(scattered);
        used[k % nstreams] = true;
      }
      submit_local(owned_[k], st, subs_[k].lam, subs_[k].q);
    }
    for (std::size_t k = 0; k < nstreams; ++k)
      if (used[k]) main.wait(streams[k].record());

    std::vector<gpu::kernels::DualMapT<T>> gather_jobs;
    gather_jobs.reserve(subs_.size());
    for (auto& sv : subs_) gather_jobs.push_back({sv.map, sv.n, sv.q});
    gpu::kernels::gather_batch(main, d_y_, nlambda_, std::move(gather_jobs));
    main.memcpy_d2h(y, d_y_, static_cast<std::size_t>(nlambda_) *
                                 sizeof(double));
    main.synchronize();
  }

  /// Multi-RHS GPU scatter/gather: one H2D copy of the whole RHS block +
  /// a single multi-RHS scatter kernel, one block kernel per subdomain, a
  /// single multi-RHS gather kernel + one D2H copy — a batch costs the same
  /// number of submissions as a single apply. Requires ensure_batch(nrhs).
  /// `submit_local` receives the *global* subdomain index and the
  /// first-nrhs-columns device panels.
  template <typename SubmitLocal>
  void apply_sg_gpu_many(gpu::Stream& main, std::vector<gpu::Stream>& streams,
                         const double* x, double* y, idx nrhs,
                         SubmitLocal&& submit_local) {
    main.memcpy_h2d(d_x_blk_, x,
                    static_cast<std::size_t>(nlambda_) *
                        static_cast<std::size_t>(nrhs) * sizeof(double));
    std::vector<gpu::kernels::DualMapBlockT<T>> scatter_jobs;
    scatter_jobs.reserve(subs_.size());
    for (auto& sv : subs_)
      scatter_jobs.push_back({sv.map, sv.n, sv.lam_blk, sv.blk_ld});
    gpu::kernels::scatter_batch(main, d_x_blk_, nlambda_, nrhs, batch_layout_,
                                std::move(scatter_jobs));
    gpu::Event scattered = main.record();

    const std::size_t nstreams = streams.size();
    std::vector<bool> used(nstreams, false);
    for (std::size_t k = 0; k < subs_.size(); ++k) {
      gpu::Stream& st = streams[k % nstreams];
      if (!used[k % nstreams]) {
        st.wait(scattered);
        used[k % nstreams] = true;
      }
      submit_local(owned_[k], st, lam_panel(k, nrhs), q_panel(k, nrhs));
    }
    for (std::size_t k = 0; k < nstreams; ++k)
      if (used[k]) main.wait(streams[k].record());

    std::vector<gpu::kernels::DualMapBlockT<T>> gather_jobs;
    gather_jobs.reserve(subs_.size());
    for (auto& sv : subs_)
      gather_jobs.push_back({sv.map, sv.n, sv.q_blk, sv.blk_ld});
    gpu::kernels::gather_batch(main, d_y_blk_, nlambda_, nlambda_, nrhs,
                               batch_layout_, std::move(gather_jobs));
    main.memcpy_d2h(y, d_y_blk_,
                    static_cast<std::size_t>(nlambda_) *
                        static_cast<std::size_t>(nrhs) * sizeof(double));
    main.synchronize();
  }

  /// Device-resident single-RHS application: identical to apply_sg_gpu but
  /// the cluster vectors are caller-owned *device* pointers, so the H2D/D2H
  /// staging pair disappears — the scatter reads d_x and the gather writes
  /// d_y directly. Same kernels in the same order as the host-pointer path
  /// (the copies it drops are pure memcpys), so the result is bit-identical
  /// whatever scatter/gather placement the host path was configured for.
  template <typename SubmitLocal>
  void apply_sg_gpu_dev(gpu::Stream& main, std::vector<gpu::Stream>& streams,
                        const double* d_x, double* d_y,
                        SubmitLocal&& submit_local) {
    std::vector<gpu::kernels::DualMapT<T>> scatter_jobs;
    scatter_jobs.reserve(subs_.size());
    for (auto& sv : subs_) scatter_jobs.push_back({sv.map, sv.n, sv.lam});
    gpu::kernels::scatter_batch(main, d_x, std::move(scatter_jobs));
    gpu::Event scattered = main.record();

    const std::size_t nstreams = streams.size();
    std::vector<bool> used(nstreams, false);
    for (std::size_t k = 0; k < subs_.size(); ++k) {
      gpu::Stream& st = streams[k % nstreams];
      if (!used[k % nstreams]) {
        st.wait(scattered);
        used[k % nstreams] = true;
      }
      submit_local(owned_[k], st, subs_[k].lam, subs_[k].q);
    }
    for (std::size_t k = 0; k < nstreams; ++k)
      if (used[k]) main.wait(streams[k].record());

    std::vector<gpu::kernels::DualMapT<T>> gather_jobs;
    gather_jobs.reserve(subs_.size());
    for (auto& sv : subs_) gather_jobs.push_back({sv.map, sv.n, sv.q});
    gpu::kernels::gather_batch(main, d_y, nlambda_, std::move(gather_jobs));
    main.synchronize();
  }

  /// Device-resident multi-RHS application (see apply_sg_gpu_dev): caller
  /// device panels of contiguous cluster columns (leading dimension
  /// num_lambdas) replace the staged d_x_blk_/d_y_blk_ round trip.
  /// Requires ensure_batch(nrhs).
  template <typename SubmitLocal>
  void apply_sg_gpu_many_dev(gpu::Stream& main,
                             std::vector<gpu::Stream>& streams,
                             const double* d_x, double* d_y, idx nrhs,
                             SubmitLocal&& submit_local) {
    std::vector<gpu::kernels::DualMapBlockT<T>> scatter_jobs;
    scatter_jobs.reserve(subs_.size());
    for (auto& sv : subs_)
      scatter_jobs.push_back({sv.map, sv.n, sv.lam_blk, sv.blk_ld});
    gpu::kernels::scatter_batch(main, d_x, nlambda_, nrhs, batch_layout_,
                                std::move(scatter_jobs));
    gpu::Event scattered = main.record();

    const std::size_t nstreams = streams.size();
    std::vector<bool> used(nstreams, false);
    for (std::size_t k = 0; k < subs_.size(); ++k) {
      gpu::Stream& st = streams[k % nstreams];
      if (!used[k % nstreams]) {
        st.wait(scattered);
        used[k % nstreams] = true;
      }
      submit_local(owned_[k], st, lam_panel(k, nrhs), q_panel(k, nrhs));
    }
    for (std::size_t k = 0; k < nstreams; ++k)
      if (used[k]) main.wait(streams[k].record());

    std::vector<gpu::kernels::DualMapBlockT<T>> gather_jobs;
    gather_jobs.reserve(subs_.size());
    for (auto& sv : subs_)
      gather_jobs.push_back({sv.map, sv.n, sv.q_blk, sv.blk_ld});
    gpu::kernels::gather_batch(main, d_y, nlambda_, nlambda_, nrhs,
                               batch_layout_, std::move(gather_jobs));
    main.synchronize();
  }

  /// Multi-RHS CPU scatter/gather: per-subdomain H2D/D2H panel copies
  /// around each block kernel. Requires ensure_batch(nrhs).
  template <typename SubmitLocal>
  void apply_sg_cpu_many(std::vector<gpu::Stream>& streams, const double* x,
                         double* y, idx nrhs, SubmitLocal&& submit_local) {
    // Host staging panels are sized here (not in ensure_batch): only this
    // scatter/gather placement uses them, and resize is a no-op once grown.
    host_lam_blk_.resize(subs_.size());
    host_q_blk_.resize(subs_.size());
    for (std::size_t k = 0; k < subs_.size(); ++k) {
      const std::size_t panel = static_cast<std::size_t>(subs_[k].n) *
                                static_cast<std::size_t>(batch_cap_);
      if (host_lam_blk_[k].size() < panel) {
        host_lam_blk_[k].resize(panel);
        host_q_blk_[k].resize(panel);
      }
    }
    const std::size_t nstreams = streams.size();
    const std::size_t stride = static_cast<std::size_t>(nlambda_);
    for (std::size_t k = 0; k < subs_.size(); ++k) {
      const SubVec& sv = subs_[k];
      const auto& map = p_->sub[owned_[k]].lm_l2c;
      la::DenseViewT<T> lam{host_lam_blk_[k].data(), sv.n, nrhs, sv.blk_ld,
                            batch_layout_};
      for (std::size_t i = 0; i < map.size(); ++i)
        for (idx j = 0; j < nrhs; ++j)
          lam.at(static_cast<idx>(i), j) = static_cast<T>(
              x[map[i] + static_cast<std::size_t>(j) * stride]);
      gpu::Stream& st = streams[k % nstreams];
      const std::size_t bytes = panel_bytes(sv, nrhs);
      st.memcpy_h2d(sv.lam_blk, host_lam_blk_[k].data(), bytes);
      submit_local(owned_[k], st, lam_panel(k, nrhs), q_panel(k, nrhs));
      st.memcpy_d2h(host_q_blk_[k].data(), sv.q_blk, bytes);
    }
    for (auto& st : streams) st.synchronize();
    std::fill_n(y, stride * static_cast<std::size_t>(nrhs), 0.0);
    for (std::size_t k = 0; k < subs_.size(); ++k) {
      const SubVec& sv = subs_[k];
      const auto& map = p_->sub[owned_[k]].lm_l2c;
      la::ConstDenseViewT<T> q(host_q_blk_[k].data(), sv.n, nrhs, sv.blk_ld,
                               batch_layout_);
      for (std::size_t i = 0; i < map.size(); ++i)
        for (idx j = 0; j < nrhs; ++j)
          y[map[i] + static_cast<std::size_t>(j) * stride] +=
              static_cast<double>(q.at(static_cast<idx>(i), j));
    }
  }

  /// CPU scatter/gather: per-subdomain H2D/D2H copies around each kernel —
  /// more submissions (overhead) but more copy/compute concurrency.
  template <typename SubmitLocal>
  void apply_sg_cpu(std::vector<gpu::Stream>& streams, const double* x,
                    double* y, SubmitLocal&& submit_local) {
    const std::size_t nstreams = streams.size();
    for (std::size_t k = 0; k < subs_.size(); ++k) {
      const auto& map = p_->sub[owned_[k]].lm_l2c;
      for (std::size_t i = 0; i < map.size(); ++i)
        host_lam_[k][i] = static_cast<T>(x[map[i]]);
      gpu::Stream& st = streams[k % nstreams];
      st.memcpy_h2d(subs_[k].lam, host_lam_[k].data(),
                    host_lam_[k].size() * sizeof(T));
      submit_local(owned_[k], st, subs_[k].lam, subs_[k].q);
      st.memcpy_d2h(host_q_[k].data(), subs_[k].q,
                    host_q_[k].size() * sizeof(T));
    }
    for (auto& st : streams) st.synchronize();
    std::fill_n(y, nlambda_, 0.0);
    for (std::size_t k = 0; k < subs_.size(); ++k) {
      const auto& map = p_->sub[owned_[k]].lm_l2c;
      for (std::size_t i = 0; i < map.size(); ++i)
        y[map[i]] += static_cast<double>(host_q_[k][i]);
    }
  }

 private:
  /// Contiguous byte span covering the first nrhs columns of a panel
  /// (row-major panels interleave stale columns, so the span runs to the
  /// last row's live entry).
  [[nodiscard]] std::size_t panel_bytes(const SubVec& sv, idx nrhs) const {
    if (sv.n == 0 || nrhs == 0) return 0;
    const widx span =
        batch_layout_ == la::Layout::RowMajor
            ? static_cast<widx>(sv.n - 1) * sv.blk_ld + nrhs
            : static_cast<widx>(nrhs - 1) * sv.blk_ld + sv.n;
    return static_cast<std::size_t>(span) * sizeof(T);
  }

  gpu::Device* dev_ = nullptr;
  const decomp::FetiProblem* p_ = nullptr;
  std::vector<idx> owned_;
  std::vector<SubVec> subs_;
  std::vector<std::vector<T>> host_lam_, host_q_;
  std::vector<std::vector<T>> host_lam_blk_, host_q_blk_;
  double* d_x_ = nullptr;
  double* d_y_ = nullptr;
  double* d_x_blk_ = nullptr;
  double* d_y_blk_ = nullptr;
  idx nlambda_ = 0;
  idx batch_cap_ = 0;
  la::Layout batch_layout_ = la::Layout::RowMajor;
};

using GpuDualVectors = GpuDualVectorsT<double>;

// ---------------------------------------------------------------------------
// Explicit GPU (the contribution)
// ---------------------------------------------------------------------------

/// `T` is the persistent F̃ storage scalar: double for the paper's fp64
/// operators, float for the mixed-precision variants ("expl legacy f32",
/// ...). Assembly always runs in fp64 — the float instantiation assembles
/// each F̃ᵢ into a temporary fp64 buffer and demotes it into the persistent
/// fp32 block, so only the apply phase (and the storage footprint) changes.
template <typename T>
class ExplicitGpuDualOpT final : public DualOperator {
 public:
  ExplicitGpuDualOpT(const decomp::FetiProblem& p, gpu::sparse::Api api,
                     const ExplicitGpuOptions& opt,
                     sparse::OrderingKind ordering, gpu::ExecutionContext& ctx,
                     std::vector<idx> owned, bool sparsity)
      : DualOperator(p), api_(api), opt_(opt), ordering_(ordering),
        ctx_(ctx), dev_(ctx.device()),
        owned_(resolve_owned(p, std::move(owned))), sparsity_(sparsity) {}

  ~ExplicitGpuDualOpT() override {
    dev_.synchronize();
    for (auto& b : bperm_dev_) gpu::free_csr(dev_, b);
    for (auto& e : eperm_dev_) gpu::free_csr(dev_, e);
    for (auto& b : bb_dev_) gpu::free_csr(dev_, b);
    for (auto& f : factor_dev_) gpu::free_csr(dev_, f);
    // packed_ stays empty if prepare() failed before allocate_f().
    for (std::size_t s = 0; s < f_.size(); ++s)
      if (s >= packed_.size() || !packed_[s]) gpu::free_dense(dev_, f_[s]);
    for (T* buf : pack_buffers_) dev_.free(buf);
  }

  void prepare() override {
    ScopedTimer t(timings_, "prepare");
    const std::size_t nsub = static_cast<std::size_t>(p_.num_subdomains());
    main_stream_ = ctx_.main_stream();
    streams_ = ctx_.stream_span(opt_.streams);

    // Per-subdomain state is indexed globally; only owned entries are
    // populated (the sharded wrapper routes each subdomain to its owner).
    solvers_.resize(nsub);
    bperm_host_.resize(nsub);
    bperm_dev_.resize(nsub);
    boundary_.resize(nsub);
    eperm_host_.resize(nsub);
    eperm_dev_.resize(nsub);
    bb_dev_.resize(nsub);
    factor_dev_.resize(nsub);
    fwd_plan_.resize(nsub);
    bwd_plan_.resize(nsub);
    f_.resize(nsub);

    // The sparsity-aware assembly never runs a backward solve (F̃ comes out
    // of the boundary Gram block via SYRK), so its only dense-factor
    // consumer is a Dense forward storage.
    const bool need_dense_factor =
        opt_.fwd_storage == FactorStorage::Dense ||
        (!sparsity_ && opt_.path == Path::Trsm &&
         opt_.bwd_storage == FactorStorage::Dense);

    const idx nown = static_cast<idx>(owned_.size());
    OmpExceptionGuard guard;
#pragma omp parallel for schedule(dynamic)
    for (idx k = 0; k < nown; ++k) {
      guard.run([&, k] {
        const idx s = owned_[static_cast<std::size_t>(k)];
        const auto& fs = p_.sub[s];
        gpu::Stream st = streams_[static_cast<std::size_t>(k) % streams_.size()];
        // Symbolic factorization on the CPU.
        solvers_[s] = std::make_unique<sparse::SimplicialCholesky>();
        solvers_[s]->analyze(fs.k_reg, ordering_);
        const la::Csr& u = solvers_[s]->factor_upper_structure();
        if (need_dense_factor) factor_dev_[s] = gpu::upload_csr(dev_, st, u);
        const idx m = fs.num_local_lambdas();
        if (sparsity_) {
          // Constant data of the boundary-restricted assembly: the
          // (column-permuted) boundary selection E_b as the solve RHS and
          // the column-compressed gluing matrix B_b for the expansion.
          boundary_[s] = decomp::boundary_dofs(fs);
          const idx nb = boundary_[s].count();
          if (nb > 0) {
            eperm_host_[s] = permute_columns(
                decomp::boundary_selection(boundary_[s], fs.ndof()),
                solvers_[s]->permutation());
            eperm_dev_[s] = gpu::upload_csr(dev_, st, eperm_host_[s]);
            bb_dev_[s] = gpu::upload_csr(dev_, st, boundary_[s].b_b);
            if (opt_.fwd_storage == FactorStorage::Sparse)
              fwd_plan_[s] = gpu::sparse::SpTrsmPlan(
                  dev_, st, api_, u, opt_.fwd_order, /*forward=*/true,
                  opt_.rhs_order, nb);
          }
        } else {
          // Constant data to the device: the (column-permuted) gluing
          // matrix and the factor structure.
          bperm_host_[s] = permute_columns(fs.b, solvers_[s]->permutation());
          bperm_dev_[s] = gpu::upload_csr(dev_, st, bperm_host_[s]);
          if (opt_.fwd_storage == FactorStorage::Sparse)
            fwd_plan_[s] = gpu::sparse::SpTrsmPlan(
                dev_, st, api_, u, opt_.fwd_order, /*forward=*/true,
                opt_.rhs_order, m);
          if (opt_.path == Path::Trsm &&
              opt_.bwd_storage == FactorStorage::Sparse)
            bwd_plan_[s] = gpu::sparse::SpTrsmPlan(
                dev_, st, api_, u, opt_.bwd_order, /*forward=*/false,
                opt_.rhs_order, m);
        }
      });
    }
    guard.rethrow();
    allocate_f();
    vectors_.prepare(dev_, main_stream_, p_, owned_);
    dev_.synchronize();
    // Remaining device memory feeds the temporary-buffer pool (Sec. IV-A).
    ctx_.ensure_workspace();
  }

  void update_values() override {
    ScopedTimer t(timings_, "update_values");
    const UpdatePlan plan = begin_update(owned_);
    if (plan.skip()) return;
    auto& temp = ctx_.workspace();
    const idx nd = static_cast<idx>(plan.dirty.size());
    OmpExceptionGuard guard;
#pragma omp parallel for schedule(dynamic)
    for (idx k = 0; k < nd; ++k) {
      guard.run([&, k] {
        const idx s = plan.dirty[static_cast<std::size_t>(k)];
        const auto& fs = p_.sub[s];
        gpu::Stream st = streams_[static_cast<std::size_t>(k) % streams_.size()];
        const idx n = fs.ndof();
        const idx m = fs.num_local_lambdas();

        // Numeric factorization on the CPU; overlaps with the GPU work of
        // previously submitted subdomains.
        solvers_[s]->factorize(fs.k_reg);
        const la::Csr& u = solvers_[s]->factor_upper();
        if (fwd_plan_[s].valid()) fwd_plan_[s].update_values(st, u);
        if (bwd_plan_[s].valid()) bwd_plan_[s].update_values(st, u);
        if (factor_dev_[s].vals != nullptr)
          gpu::update_csr_values(st, factor_dev_[s], u);

        if (sparsity_) {
          assemble_boundary(s, st, temp);
          return;
        }

        // Temporary buffers for this subdomain (blocking pool allocator).
        auto* x_buf = static_cast<double*>(
            temp.alloc(sizeof(double) * static_cast<std::size_t>(n) * m));
        gpu::DeviceDense x{x_buf, n, m,
                           opt_.rhs_order == la::Layout::RowMajor ? m : n,
                           opt_.rhs_order};
        double* dense_fwd = nullptr;
        double* dense_bwd = nullptr;
        void* ws_fwd = nullptr;
        void* ws_bwd = nullptr;

        // The fp64 assembly target: the persistent block itself for the
        // fp64 operator, a temporary fp64 buffer for the fp32 one (demoted
        // into the persistent block below).
        double* f_scratch = nullptr;
        gpu::DeviceDense f_target;
        if constexpr (std::is_same_v<T, float>) {
          f_scratch = static_cast<double*>(temp.alloc(
              sizeof(double) * static_cast<std::size_t>(m) * m));
          f_target = gpu::DeviceDense{f_scratch, m, m, m,
                                      la::Layout::ColMajor};
        } else {
          f_target = f_[s];
        }

        // Dense RHS X = (B̃ᵢ P^T)^T, converted on the device.
        gpu::sparse::csr_to_dense_transposed(st, bperm_dev_[s], x);

        // Forward solve L X = X.
        if (opt_.fwd_storage == FactorStorage::Sparse) {
          const std::size_t wb = fwd_plan_[s].workspace_bytes(m);
          if (wb > 0) ws_fwd = temp.alloc(wb);
          fwd_plan_[s].solve(st, x, ws_fwd);
        } else {
          dense_fwd = static_cast<double*>(
              temp.alloc(sizeof(double) * static_cast<std::size_t>(n) * n));
          gpu::DeviceDense df{dense_fwd, n, n, n, opt_.fwd_order};
          gpu::sparse::csr_to_dense(st, factor_dev_[s], df);
          gpu::blas::trsm(st, la::Uplo::Upper, la::Trans::Yes, df, x);
        }

        if (opt_.path == Path::Syrk) {
          // F̃ᵢ = X^T X; the stored triangle is per-subdomain when triangle
          // packing is active (footnote 1).
          gpu::blas::syrk(st, uplo_[s], la::Trans::Yes, 1.0, x, 0.0,
                          f_target);
        } else {
          // Backward solve U Y = X, then F̃ᵢ = B̃ᵢ Y (SpMM).
          if (opt_.bwd_storage == FactorStorage::Sparse) {
            const std::size_t wb = bwd_plan_[s].workspace_bytes(m);
            if (wb > 0) ws_bwd = temp.alloc(wb);
            bwd_plan_[s].solve(st, x, ws_bwd);
          } else {
            if (opt_.fwd_storage == FactorStorage::Dense &&
                opt_.bwd_order == opt_.fwd_order) {
              // Reuse the forward dense factor.
              gpu::DeviceDense df{dense_fwd, n, n, n, opt_.bwd_order};
              gpu::blas::trsm(st, la::Uplo::Upper, la::Trans::No, df, x);
            } else {
              dense_bwd = static_cast<double*>(temp.alloc(
                  sizeof(double) * static_cast<std::size_t>(n) * n));
              gpu::DeviceDense df{dense_bwd, n, n, n, opt_.bwd_order};
              gpu::sparse::csr_to_dense(st, factor_dev_[s], df);
              gpu::blas::trsm(st, la::Uplo::Upper, la::Trans::No, df, x);
            }
          }
          gpu::sparse::spmm(st, 1.0, bperm_dev_[s], la::Trans::No, x, 0.0,
                            f_target);
        }
        solve_columns_.fetch_add(m, std::memory_order_relaxed);

        // fp32 storage: demote the assembled fp64 block into the
        // persistent fp32 one. The SYRK path wrote only one triangle (and
        // the packed pairs share an allocation), so the demotion is
        // triangle-only there; the TRSM path stores F̃ᵢ full.
        if constexpr (std::is_same_v<T, float>) {
          if (opt_.path == Path::Syrk)
            gpu::kernels::demote_triangle(st, uplo_[s], f_target, f_[s]);
          else
            gpu::kernels::demote(st, f_target, f_[s]);
        }

        // Stream-ordered release of the temporaries: they are freed once the
        // kernels of this subdomain have executed.
        st.submit([&temp, x_buf, dense_fwd, dense_bwd, ws_fwd, ws_bwd,
                   f_scratch] {
          temp.free(x_buf);
          if (dense_fwd != nullptr) temp.free(dense_fwd);
          if (dense_bwd != nullptr) temp.free(dense_bwd);
          if (ws_fwd != nullptr) temp.free(ws_fwd);
          if (ws_bwd != nullptr) temp.free(ws_bwd);
          if (f_scratch != nullptr) temp.free(f_scratch);
        });
      });
    }
    guard.rethrow();
    dev_.synchronize();
    end_update(plan);
  }

  void apply_one(const double* x, double* y) override {
    const bool symmetric = opt_.path == Path::Syrk;
    auto submit_local = [this, symmetric](idx s, gpu::Stream& st,
                                          const T* lam, T* q) {
      if (symmetric)
        gpu::blas::symv(st, uplo_[s], 1.0, f_[s], lam, 0.0, q);
      else
        gpu::blas::gemv(st, 1.0, f_[s], la::Trans::No, lam, 0.0, q);
    };
    if (opt_.scatter_gather == SgLocation::Gpu)
      vectors_.apply_sg_gpu(main_stream_, streams_, x, y, submit_local);
    else
      vectors_.apply_sg_cpu(streams_, x, y, submit_local);
  }

  void apply_many(const double* x, double* y, idx nrhs) override {
    // Device-side batching: one SYMM (or GEMM on the TRSM path, where F̃ᵢ is
    // stored full) per subdomain serves the whole block of right-hand
    // sides — the BLAS-3 payoff that the CPU explicit operators already
    // had. Panels are row-major so the kernels stream contiguously over
    // the RHS columns.
    const bool symmetric = opt_.path == Path::Syrk;
    auto submit_local = [this, symmetric](idx s, gpu::Stream& st,
                                          gpu::DeviceDenseT<T> lam,
                                          gpu::DeviceDenseT<T> q) {
      if (symmetric)
        gpu::blas::symm(st, uplo_[s], 1.0, f_[s], lam, 0.0, q);
      else
        gpu::blas::gemm(st, 1.0, f_[s], la::Trans::No, lam, la::Trans::No,
                        0.0, q);
    };
    vectors_.ensure_batch(nrhs, la::Layout::RowMajor);
    if (opt_.scatter_gather == SgLocation::Gpu)
      vectors_.apply_sg_gpu_many(main_stream_, streams_, x, y, nrhs,
                                 submit_local);
    else
      vectors_.apply_sg_cpu_many(streams_, x, y, nrhs, submit_local);
  }

  [[nodiscard]] gpu::ExecutionContext* device_context() override {
    return &ctx_;
  }

  void apply_many_device(const double* d_x, double* d_y,
                         idx nrhs) override {
    // Device-resident application: always GPU scatter/gather (the CPU
    // placement is a staging strategy — pointless when the cluster vectors
    // never leave the device), dispatching through the same SYMV/SYMM
    // kernels as the host-pointer path of the same width.
    const bool symmetric = opt_.path == Path::Syrk;
    if (nrhs == 1) {
      auto submit_local = [this, symmetric](idx s, gpu::Stream& st,
                                            const T* lam, T* q) {
        if (symmetric)
          gpu::blas::symv(st, uplo_[s], 1.0, f_[s], lam, 0.0, q);
        else
          gpu::blas::gemv(st, 1.0, f_[s], la::Trans::No, lam, 0.0, q);
      };
      vectors_.apply_sg_gpu_dev(main_stream_, streams_, d_x, d_y,
                                submit_local);
      return;
    }
    auto submit_local = [this, symmetric](idx s, gpu::Stream& st,
                                          gpu::DeviceDenseT<T> lam,
                                          gpu::DeviceDenseT<T> q) {
      if (symmetric)
        gpu::blas::symm(st, uplo_[s], 1.0, f_[s], lam, 0.0, q);
      else
        gpu::blas::gemm(st, 1.0, f_[s], la::Trans::No, lam, la::Trans::No,
                        0.0, q);
    };
    vectors_.ensure_batch(nrhs, la::Layout::RowMajor);
    vectors_.apply_sg_gpu_many_dev(main_stream_, streams_, d_x, d_y, nrhs,
                                   submit_local);
  }

  void kplus_solve(idx sub, const double* b, double* x) const override {
    check(solvers_[sub] != nullptr,
          "ExplicitGpuDualOp: subdomain not owned by this operator");
    solvers_[sub]->solve(b, x);
  }

  /// Bytes of device memory held by the F̃ᵢ matrices (packing ablation and
  /// the fp32-vs-fp64 storage comparison).
  [[nodiscard]] std::size_t f_storage_bytes() const {
    std::size_t total = 0;
    for (std::size_t s = 0; s < f_.size(); ++s)
      if (s >= packed_.size() || !packed_[s]) total += f_[s].bytes();
    for (std::size_t i = 0; i < pack_buffers_.size(); ++i)
      total += pack_sizes_[i];
    return total;
  }

  [[nodiscard]] std::size_t apply_bytes() const override {
    return f_storage_bytes();
  }

 private:
  /// Allocates the persistent F̃ᵢ buffers for the owned subdomains. With
  /// the SYRK path and symmetric_pack enabled, equally sized subdomains are
  /// paired and the upper triangle of one shares a (m+1)-leading-dimension
  /// allocation with the lower triangle of the other (paper footnote 1):
  /// A's (i,j), i<=j, lives at i + j(m+1), B's (i,j), i>=j, at
  /// 1 + i + j(m+1) — disjoint.
  void allocate_f() {
    const std::size_t nsub = static_cast<std::size_t>(p_.num_subdomains());
    f_.resize(nsub);
    uplo_.assign(nsub, la::Uplo::Upper);
    packed_.assign(nsub, false);
    // The sparsity-aware assembly writes the full m×m block (the two-SpMM
    // expansion has no triangle-only form), so the footnote-1 triangle
    // pairing is incompatible with it.
    const bool pack =
        opt_.symmetric_pack && opt_.path == Path::Syrk && !sparsity_;

    std::map<idx, std::vector<idx>> by_size;
    for (idx s : owned_)
      by_size[p_.sub[s].num_local_lambdas()].push_back(s);

    for (auto& [m, subs] : by_size) {
      std::size_t i = 0;
      if (pack) {
        for (; i + 1 < subs.size(); i += 2) {
          const idx a = subs[i], b = subs[i + 1];
          const std::size_t bytes =
              sizeof(T) * static_cast<std::size_t>(m) * (m + 1);
          auto* buf = static_cast<T*>(dev_.alloc(bytes));
          pack_buffers_.push_back(buf);
          pack_sizes_.push_back(bytes);
          f_[a] = gpu::DeviceDenseT<T>{buf, m, m, m + 1,
                                       la::Layout::ColMajor};
          f_[b] = gpu::DeviceDenseT<T>{buf + 1, m, m, m + 1,
                                       la::Layout::ColMajor};
          uplo_[a] = la::Uplo::Upper;
          uplo_[b] = la::Uplo::Lower;
          packed_[a] = packed_[b] = true;
        }
      }
      for (; i < subs.size(); ++i)
        f_[subs[i]] = gpu::alloc_dense_t<T>(dev_, m, m, la::Layout::ColMajor);
    }
  }

  /// Sparsity-aware refresh of one subdomain (the " sp" keys): the forward
  /// solve runs against the nb boundary columns E_bᵀ instead of the m dual
  /// columns B̃ᵢᵀ, the boundary Gram block G_bb = E_b K_reg⁻¹ E_bᵀ comes out
  /// of one SYRK, and F̃ᵢ = B_b G_bb B_bᵀ expands through two SpMMs. The
  /// full m×m block is written (never triangle-packed), so the symmetric
  /// apply against the stored Upper triangle stays valid.
  void assemble_boundary(idx s, gpu::Stream& st, gpu::TempAllocator& temp) {
    const auto& fs = p_.sub[s];
    const idx n = fs.ndof();
    const idx m = fs.num_local_lambdas();
    const idx nb = boundary_[s].count();

    // The fp64 assembly target: the persistent block itself for the fp64
    // operator, a temporary fp64 buffer for the fp32 one.
    double* f_scratch = nullptr;
    gpu::DeviceDense f_target;
    if constexpr (std::is_same_v<T, float>) {
      f_scratch = static_cast<double*>(
          temp.alloc(sizeof(double) * static_cast<std::size_t>(m) * m));
      f_target = gpu::DeviceDense{f_scratch, m, m, m, la::Layout::ColMajor};
    } else {
      f_target = f_[s];
    }

    if (nb == 0) {
      // No boundary coupling: the local dual operator is identically zero.
      gpu::kernels::fill_zero(st, f_target.data, m * m);
      if constexpr (std::is_same_v<T, float>)
        gpu::kernels::demote(st, f_target, f_[s]);
      if (f_scratch != nullptr)
        st.submit([&temp, f_scratch] { temp.free(f_scratch); });
      return;
    }

    // Boundary-restricted dense RHS W = (E_b P^T)^T, converted on the
    // device: n × nb instead of the dense path's n × m.
    auto* w_buf = static_cast<double*>(
        temp.alloc(sizeof(double) * static_cast<std::size_t>(n) * nb));
    gpu::DeviceDense w{w_buf, n, nb,
                       opt_.rhs_order == la::Layout::RowMajor ? nb : n,
                       opt_.rhs_order};
    gpu::sparse::csr_to_dense_transposed(st, eperm_dev_[s], w);

    // Forward solve L W = W.
    double* dense_fwd = nullptr;
    void* ws_fwd = nullptr;
    if (opt_.fwd_storage == FactorStorage::Sparse) {
      const std::size_t wb = fwd_plan_[s].workspace_bytes(nb);
      if (wb > 0) ws_fwd = temp.alloc(wb);
      fwd_plan_[s].solve(st, w, ws_fwd);
    } else {
      dense_fwd = static_cast<double*>(
          temp.alloc(sizeof(double) * static_cast<std::size_t>(n) * n));
      gpu::DeviceDense df{dense_fwd, n, n, n, opt_.fwd_order};
      gpu::sparse::csr_to_dense(st, factor_dev_[s], df);
      gpu::blas::trsm(st, la::Uplo::Upper, la::Trans::Yes, df, w);
    }

    // G_bb = WᵀW (one SYRK over the boundary panel), mirrored to the full
    // symmetric operand of the expansion SpMMs.
    auto* g_buf = static_cast<double*>(
        temp.alloc(sizeof(double) * static_cast<std::size_t>(nb) * nb));
    gpu::DeviceDense g{g_buf, nb, nb, nb, la::Layout::ColMajor};
    gpu::blas::syrk(st, la::Uplo::Upper, la::Trans::Yes, 1.0, w, 0.0, g);
    gpu::kernels::symmetrize(st, la::Uplo::Upper, g);

    // F̃ᵢ = B_b G_bb B_bᵀ: T = B_b G (m × nb, row-major), then the
    // column-major reinterpretation of T's buffer is Tᵀ, so the second
    // SpMM needs no explicit transpose.
    auto* t_buf = static_cast<double*>(
        temp.alloc(sizeof(double) * static_cast<std::size_t>(m) * nb));
    gpu::DeviceDense t{t_buf, m, nb, nb, la::Layout::RowMajor};
    gpu::sparse::spmm(st, 1.0, bb_dev_[s], la::Trans::No, g, 0.0, t);
    const gpu::DeviceDense t_trans{t_buf, nb, m, nb, la::Layout::ColMajor};
    gpu::sparse::spmm(st, 1.0, bb_dev_[s], la::Trans::No, t_trans, 0.0,
                      f_target);

    // fp32 storage: the sp expansion wrote the full block, so the demotion
    // is full-rectangle (sp blocks are never triangle-packed).
    if constexpr (std::is_same_v<T, float>)
      gpu::kernels::demote(st, f_target, f_[s]);

    solve_columns_.fetch_add(nb, std::memory_order_relaxed);

    st.submit([&temp, w_buf, dense_fwd, ws_fwd, g_buf, t_buf, f_scratch] {
      temp.free(w_buf);
      if (dense_fwd != nullptr) temp.free(dense_fwd);
      if (ws_fwd != nullptr) temp.free(ws_fwd);
      temp.free(g_buf);
      temp.free(t_buf);
      if (f_scratch != nullptr) temp.free(f_scratch);
    });
  }

  gpu::sparse::Api api_;
  ExplicitGpuOptions opt_;
  sparse::OrderingKind ordering_;
  gpu::ExecutionContext& ctx_;
  gpu::Device& dev_;
  std::vector<idx> owned_;
  bool sparsity_ = false;  ///< boundary-restricted assembly (" sp" keys)
  gpu::Stream main_stream_;
  std::vector<gpu::Stream> streams_;
  std::vector<std::unique_ptr<sparse::SimplicialCholesky>> solvers_;
  std::vector<la::Csr> bperm_host_;
  std::vector<gpu::DeviceCsr> bperm_dev_;
  /// sp-only state: per-subdomain boundary DOF sets (boundary_[s].b_b is
  /// the host column-compressed gluing matrix behind bb_dev_[s]), the
  /// permuted boundary selection E_b on host and device.
  std::vector<decomp::BoundaryDofs> boundary_;
  std::vector<la::Csr> eperm_host_;
  std::vector<gpu::DeviceCsr> eperm_dev_;
  std::vector<gpu::DeviceCsr> bb_dev_;
  std::vector<gpu::DeviceCsr> factor_dev_;
  std::vector<gpu::sparse::SpTrsmPlan> fwd_plan_, bwd_plan_;
  std::vector<gpu::DeviceDenseT<T>> f_;
  std::vector<la::Uplo> uplo_;
  std::vector<bool> packed_;
  std::vector<T*> pack_buffers_;
  std::vector<std::size_t> pack_sizes_;
  GpuDualVectorsT<T> vectors_;
};

using ExplicitGpuDualOp = ExplicitGpuDualOpT<double>;

// ---------------------------------------------------------------------------
// Implicit GPU
// ---------------------------------------------------------------------------

class ImplicitGpuDualOp final : public DualOperator {
 public:
  ImplicitGpuDualOp(const decomp::FetiProblem& p, gpu::sparse::Api api,
                    sparse::OrderingKind ordering, gpu::ExecutionContext& ctx,
                    int streams, std::vector<idx> owned)
      : DualOperator(p), api_(api), ordering_(ordering), ctx_(ctx),
        dev_(ctx.device()), requested_streams_(streams),
        owned_(resolve_owned(p, std::move(owned))) {}

  ~ImplicitGpuDualOp() override {
    dev_.synchronize();
    for (auto& b : bperm_dev_) gpu::free_csr(dev_, b);
    for (auto* t : tmp_dev_) dev_.free(t);
    for (auto* t : tmpblk_dev_) dev_.free(t);
  }

  void prepare() override {
    ScopedTimer t(timings_, "prepare");
    const std::size_t nsub = static_cast<std::size_t>(p_.num_subdomains());
    main_stream_ = ctx_.main_stream();
    streams_ = ctx_.stream_span(requested_streams_);
    solvers_.resize(nsub);
    bperm_host_.resize(nsub);
    bperm_dev_.resize(nsub);
    fwd_plan_.resize(nsub);
    bwd_plan_.resize(nsub);
    batch_fwd_plan_.resize(nsub);
    batch_bwd_plan_.resize(nsub);
    tmp_dev_.resize(nsub);
    tmpblk_dev_.resize(nsub);
    const idx nown = static_cast<idx>(owned_.size());
    OmpExceptionGuard guard;
#pragma omp parallel for schedule(dynamic)
    for (idx k = 0; k < nown; ++k) {
      guard.run([&, k] {
        const idx s = owned_[static_cast<std::size_t>(k)];
        const auto& fs = p_.sub[s];
        gpu::Stream st = streams_[static_cast<std::size_t>(k) % streams_.size()];
        solvers_[s] = std::make_unique<sparse::SimplicialCholesky>();
        solvers_[s]->analyze(fs.k_reg, ordering_);
        bperm_host_[s] = permute_columns(fs.b, solvers_[s]->permutation());
        bperm_dev_[s] = gpu::upload_csr(dev_, st, bperm_host_[s]);
        const la::Csr& u = solvers_[s]->factor_upper_structure();
        fwd_plan_[s] = gpu::sparse::SpTrsmPlan(dev_, st, api_,
                                               u, la::Layout::ColMajor,
                                               /*forward=*/true,
                                               la::Layout::ColMajor, 1);
        bwd_plan_[s] = gpu::sparse::SpTrsmPlan(dev_, st, api_,
                                               u, la::Layout::ColMajor,
                                               /*forward=*/false,
                                               la::Layout::ColMajor, 1);
        tmp_dev_[s] = dev_.alloc_n<double>(static_cast<std::size_t>(fs.ndof()));
      });
    }
    guard.rethrow();
    vectors_.prepare(dev_, main_stream_, p_, owned_);
    dev_.synchronize();
    ctx_.ensure_workspace();
  }

  void update_values() override {
    // Implicit preprocessing = numeric factorization + factor copies.
    ScopedTimer t(timings_, "update_values");
    const UpdatePlan plan = begin_update(owned_);
    if (plan.skip()) return;
    const idx nd = static_cast<idx>(plan.dirty.size());
    OmpExceptionGuard guard;
#pragma omp parallel for schedule(dynamic)
    for (idx k = 0; k < nd; ++k) {
      guard.run([&, k] {
        const idx s = plan.dirty[static_cast<std::size_t>(k)];
        gpu::Stream st = streams_[static_cast<std::size_t>(k) % streams_.size()];
        solvers_[s]->factorize(p_.sub[s].k_reg);
        const la::Csr& u = solvers_[s]->factor_upper();
        fwd_plan_[s].update_values(st, u);
        bwd_plan_[s].update_values(st, u);
        if (batch_fwd_plan_[s].valid()) batch_fwd_plan_[s].update_values(st, u);
        if (batch_bwd_plan_[s].valid()) batch_bwd_plan_[s].update_values(st, u);
      });
    }
    guard.rethrow();
    dev_.synchronize();
    end_update(plan);
  }

  void apply_one(const double* x, double* y) override {
    auto& temp = ctx_.workspace();
    auto submit_local = [this, &temp](idx s, gpu::Stream& st,
                                      const double* lam, double* q) {
      const idx n = p_.sub[s].ndof();
      gpu::DeviceCsr b = bperm_dev_[s];
      double* tvec = tmp_dev_[s];
      gpu::sparse::spmv(st, 1.0, b, la::Trans::Yes, lam, 0.0, tvec);
      gpu::DeviceDense tview{tvec, n, 1, n, la::Layout::ColMajor};
      void* ws_f = nullptr;
      void* ws_b = nullptr;
      const std::size_t wf = fwd_plan_[s].workspace_bytes(1);
      const std::size_t wb = bwd_plan_[s].workspace_bytes(1);
      if (wf > 0) ws_f = temp.alloc(wf);
      fwd_plan_[s].solve(st, tview, ws_f);
      if (wb > 0) ws_b = temp.alloc(wb);
      bwd_plan_[s].solve(st, tview, ws_b);
      gpu::sparse::spmv(st, 1.0, b, la::Trans::No, tvec, 0.0, q);
      if (ws_f != nullptr || ws_b != nullptr)
        st.submit([&temp, ws_f, ws_b] {
          if (ws_f != nullptr) temp.free(ws_f);
          if (ws_b != nullptr) temp.free(ws_b);
        });
    };
    vectors_.apply_sg_gpu(main_stream_, streams_, x, y, submit_local);
  }

  void apply_many(const double* x, double* y, idx nrhs) override {
    // Device-side batching for the implicit family: per subdomain one SpMM
    // (B̃ᵀ against the whole lambda panel), two block triangular solves
    // through wide-RHS plans, and one SpMM back — nrhs right-hand sides for
    // the submission count of one.
    ensure_batch(nrhs);
    auto& temp = ctx_.workspace();
    const idx cap = batch_cols_;
    auto submit_local = [this, &temp, nrhs, cap](idx s, gpu::Stream& st,
                                                 gpu::DeviceDense lam,
                                                 gpu::DeviceDense q) {
      const idx n = p_.sub[s].ndof();
      gpu::DeviceCsr b = bperm_dev_[s];
      gpu::DeviceDense t{tmpblk_dev_[s], n, nrhs, cap, la::Layout::RowMajor};
      gpu::sparse::spmm(st, 1.0, b, la::Trans::Yes, lam, 0.0, t);
      void* ws_f = nullptr;
      void* ws_b = nullptr;
      const std::size_t wf = batch_fwd_plan_[s].workspace_bytes(nrhs);
      const std::size_t wb = batch_bwd_plan_[s].workspace_bytes(nrhs);
      if (wf > 0) ws_f = temp.alloc(wf);
      batch_fwd_plan_[s].solve(st, t, ws_f);
      if (wb > 0) ws_b = temp.alloc(wb);
      batch_bwd_plan_[s].solve(st, t, ws_b);
      gpu::sparse::spmm(st, 1.0, b, la::Trans::No, t, 0.0, q);
      if (ws_f != nullptr || ws_b != nullptr)
        st.submit([&temp, ws_f, ws_b] {
          if (ws_f != nullptr) temp.free(ws_f);
          if (ws_b != nullptr) temp.free(ws_b);
        });
    };
    vectors_.ensure_batch(nrhs, la::Layout::RowMajor);
    vectors_.apply_sg_gpu_many(main_stream_, streams_, x, y, nrhs,
                               submit_local);
  }

  [[nodiscard]] gpu::ExecutionContext* device_context() override {
    return &ctx_;
  }

  void apply_many_device(const double* d_x, double* d_y,
                         idx nrhs) override {
    // Same SpMV/solve/SpMV (nrhs == 1) or SpMM/block-solve/SpMM kernels as
    // the host-pointer paths; only the cluster staging copies disappear.
    auto& temp = ctx_.workspace();
    if (nrhs == 1) {
      auto submit_local = [this, &temp](idx s, gpu::Stream& st,
                                        const double* lam, double* q) {
        const idx n = p_.sub[s].ndof();
        gpu::DeviceCsr b = bperm_dev_[s];
        double* tvec = tmp_dev_[s];
        gpu::sparse::spmv(st, 1.0, b, la::Trans::Yes, lam, 0.0, tvec);
        gpu::DeviceDense tview{tvec, n, 1, n, la::Layout::ColMajor};
        void* ws_f = nullptr;
        void* ws_b = nullptr;
        const std::size_t wf = fwd_plan_[s].workspace_bytes(1);
        const std::size_t wb = bwd_plan_[s].workspace_bytes(1);
        if (wf > 0) ws_f = temp.alloc(wf);
        fwd_plan_[s].solve(st, tview, ws_f);
        if (wb > 0) ws_b = temp.alloc(wb);
        bwd_plan_[s].solve(st, tview, ws_b);
        gpu::sparse::spmv(st, 1.0, b, la::Trans::No, tvec, 0.0, q);
        if (ws_f != nullptr || ws_b != nullptr)
          st.submit([&temp, ws_f, ws_b] {
            if (ws_f != nullptr) temp.free(ws_f);
            if (ws_b != nullptr) temp.free(ws_b);
          });
      };
      vectors_.apply_sg_gpu_dev(main_stream_, streams_, d_x, d_y,
                                submit_local);
      return;
    }
    ensure_batch(nrhs);
    const idx cap = batch_cols_;
    auto submit_local = [this, &temp, nrhs, cap](idx s, gpu::Stream& st,
                                                 gpu::DeviceDense lam,
                                                 gpu::DeviceDense q) {
      const idx n = p_.sub[s].ndof();
      gpu::DeviceCsr b = bperm_dev_[s];
      gpu::DeviceDense t{tmpblk_dev_[s], n, nrhs, cap, la::Layout::RowMajor};
      gpu::sparse::spmm(st, 1.0, b, la::Trans::Yes, lam, 0.0, t);
      void* ws_f = nullptr;
      void* ws_b = nullptr;
      const std::size_t wf = batch_fwd_plan_[s].workspace_bytes(nrhs);
      const std::size_t wb = batch_bwd_plan_[s].workspace_bytes(nrhs);
      if (wf > 0) ws_f = temp.alloc(wf);
      batch_fwd_plan_[s].solve(st, t, ws_f);
      if (wb > 0) ws_b = temp.alloc(wb);
      batch_bwd_plan_[s].solve(st, t, ws_b);
      gpu::sparse::spmm(st, 1.0, b, la::Trans::No, t, 0.0, q);
      if (ws_f != nullptr || ws_b != nullptr)
        st.submit([&temp, ws_f, ws_b] {
          if (ws_f != nullptr) temp.free(ws_f);
          if (ws_b != nullptr) temp.free(ws_b);
        });
    };
    vectors_.ensure_batch(nrhs, la::Layout::RowMajor);
    vectors_.apply_sg_gpu_many_dev(main_stream_, streams_, d_x, d_y, nrhs,
                                   submit_local);
  }

  void kplus_solve(idx sub, const double* b, double* x) const override {
    check(solvers_[sub] != nullptr,
          "ImplicitGpuDualOp: subdomain not owned by this operator");
    solvers_[sub]->solve(b, x);
  }

 private:
  /// Grow-only wide-RHS solve plans and temporary panels. Valid only after
  /// update_values() (the plans are seeded from the current numeric
  /// factor); refactorizations refresh live batch plans in place.
  void ensure_batch(idx nrhs) {
    if (batch_cols_ >= nrhs) return;
    const idx cap = nrhs;
    for (std::size_t k = 0; k < owned_.size(); ++k) {
      const idx s = owned_[k];
      const idx n = p_.sub[s].ndof();
      // Same local-index stream assignment as every other per-subdomain
      // loop; plan construction is synchronous (the SpTrsmPlan constructor
      // drains its stream), so the plans are complete when this returns.
      gpu::Stream st = streams_[k % streams_.size()];
      const la::Csr& u = solvers_[s]->factor_upper();
      batch_fwd_plan_[s] = gpu::sparse::SpTrsmPlan(
          dev_, st, api_, u, la::Layout::ColMajor, /*forward=*/true,
          la::Layout::RowMajor, cap);
      batch_bwd_plan_[s] = gpu::sparse::SpTrsmPlan(
          dev_, st, api_, u, la::Layout::ColMajor, /*forward=*/false,
          la::Layout::RowMajor, cap);
      dev_.free(tmpblk_dev_[s]);
      tmpblk_dev_[s] = nullptr;
      tmpblk_dev_[s] = dev_.alloc_n<double>(static_cast<std::size_t>(n) *
                                            static_cast<std::size_t>(cap));
    }
    batch_cols_ = cap;
  }

  gpu::sparse::Api api_;
  sparse::OrderingKind ordering_;
  gpu::ExecutionContext& ctx_;
  gpu::Device& dev_;
  int requested_streams_;
  std::vector<idx> owned_;
  gpu::Stream main_stream_;
  std::vector<gpu::Stream> streams_;
  std::vector<std::unique_ptr<sparse::SimplicialCholesky>> solvers_;
  std::vector<la::Csr> bperm_host_;
  std::vector<gpu::DeviceCsr> bperm_dev_;
  std::vector<gpu::sparse::SpTrsmPlan> fwd_plan_, bwd_plan_;
  std::vector<gpu::sparse::SpTrsmPlan> batch_fwd_plan_, batch_bwd_plan_;
  std::vector<double*> tmp_dev_;
  std::vector<double*> tmpblk_dev_;
  idx batch_cols_ = 0;
  GpuDualVectors vectors_;
};

// ---------------------------------------------------------------------------
// Hybrid (assembly on CPU via Schur, application on GPU)
// ---------------------------------------------------------------------------

/// `T` is the device-side F̃ storage scalar (see ExplicitGpuDualOpT): the
/// CPU Schur assembly always produces fp64 blocks; the float instantiation
/// demotes them host-side before the upload, so the device holds — and the
/// apply phase streams — half the bytes.
template <typename T>
class HybridDualOpT final : public DualOperator {
 public:
  HybridDualOpT(const decomp::FetiProblem& p, const ExplicitGpuOptions& opt,
                sparse::OrderingKind ordering, gpu::ExecutionContext& ctx,
                std::vector<idx> owned, bool sparsity)
      : DualOperator(p), opt_(opt), ordering_(ordering), ctx_(ctx),
        dev_(ctx.device()), owned_(resolve_owned(p, std::move(owned))),
        sparsity_(sparsity) {}

  ~HybridDualOpT() override {
    dev_.synchronize();
    for (auto& f : f_dev_) gpu::free_dense(dev_, f);
  }

  void prepare() override {
    ScopedTimer t(timings_, "prepare");
    const std::size_t nsub = static_cast<std::size_t>(p_.num_subdomains());
    main_stream_ = ctx_.main_stream();
    streams_ = ctx_.stream_span(opt_.streams);
    solvers_.resize(nsub);
    boundary_.resize(nsub);
    e_b_.resize(nsub);
    f_host_.resize(nsub);
    f_dev_.resize(nsub);
    if constexpr (std::is_same_v<T, float>) f_host32_.resize(nsub);
    const idx nown = static_cast<idx>(owned_.size());
    OmpExceptionGuard guard;
#pragma omp parallel for schedule(dynamic)
    for (idx k = 0; k < nown; ++k) {
      guard.run([&, k] {
        const idx s = owned_[static_cast<std::size_t>(k)];
        const auto& fs = p_.sub[s];
        solvers_[s] = std::make_unique<sparse::SupernodalCholesky>();
        if (sparsity_) {
          // Boundary-restricted Schur analysis: the dense Schur target
          // shrinks from the m dual rows of B̃ᵢ to the nb boundary rows of
          // the selection E_b. A subdomain with no boundary coupling falls
          // back to a plain factorization (its F̃ᵢ is identically zero but
          // kplus_solve must still work).
          boundary_[s] = decomp::boundary_dofs(fs);
          e_b_[s] = decomp::boundary_selection(boundary_[s], fs.ndof());
          if (boundary_[s].count() > 0)
            solvers_[s]->analyze_schur(fs.k_reg, e_b_[s], ordering_);
          else
            solvers_[s]->analyze(fs.k_reg, ordering_);
        } else {
          solvers_[s]->analyze_schur(fs.k_reg, fs.b, ordering_);
        }
        const idx m = fs.num_local_lambdas();
        f_host_[s] = la::DenseMatrix(m, m, la::Layout::ColMajor);
        if constexpr (std::is_same_v<T, float>)
          f_host32_[s] = la::DenseMatrixF32(m, m, la::Layout::ColMajor);
        f_dev_[s] = gpu::alloc_dense_t<T>(dev_, m, m, la::Layout::ColMajor);
      });
    }
    guard.rethrow();
    vectors_.prepare(dev_, main_stream_, p_, owned_);
    dev_.synchronize();
    ctx_.ensure_workspace();
  }

  void update_values() override {
    ScopedTimer t(timings_, "update_values");
    const UpdatePlan plan = begin_update(owned_);
    if (plan.skip()) return;
    const idx nd = static_cast<idx>(plan.dirty.size());
    OmpExceptionGuard guard;
#pragma omp parallel for schedule(dynamic)
    for (idx k = 0; k < nd; ++k) {
      guard.run([&, k] {
        const idx s = plan.dirty[static_cast<std::size_t>(k)];
        const auto& fs = p_.sub[s];
        gpu::Stream st = streams_[static_cast<std::size_t>(k) % streams_.size()];
        if (sparsity_) {
          const idx nb = boundary_[s].count();
          if (nb == 0) {
            solvers_[s]->factorize(fs.k_reg);
            la::DenseView fv = f_host_[s].view();
            for (idx c = 0; c < fv.cols; ++c)
              for (idx r = 0; r < fv.rows; ++r) fv.at(r, c) = 0.0;
          } else {
            la::DenseMatrix g(nb, nb, la::Layout::ColMajor);
            solvers_[s]->factorize_schur(fs.k_reg, e_b_[s], g.view(),
                                         la::Uplo::Upper);
            expand_boundary(boundary_[s].b_b, g.view(), la::Uplo::Upper,
                            f_host_[s].view());
            solve_columns_.fetch_add(nb, std::memory_order_relaxed);
          }
        } else {
          solvers_[s]->factorize_schur(fs.k_reg, fs.b, f_host_[s].view(),
                                       la::Uplo::Upper);
          solve_columns_.fetch_add(fs.num_local_lambdas(),
                                   std::memory_order_relaxed);
        }
        if constexpr (std::is_same_v<T, float>) {
          // Host-side demotion of the refreshed block, then an upload of
          // half the bytes.
          la::demote_triangle(la::Uplo::Upper, f_host_[s].cview(),
                              f_host32_[s].view());
          st.memcpy_h2d(f_dev_[s].data, f_host32_[s].data(),
                        f_host32_[s].size() * sizeof(float));
        } else {
          st.memcpy_h2d(f_dev_[s].data, f_host_[s].data(),
                        f_host_[s].size() * sizeof(double));
        }
      });
    }
    guard.rethrow();
    dev_.synchronize();
    end_update(plan);
  }

  void apply_one(const double* x, double* y) override {
    auto submit_local = [this](idx s, gpu::Stream& st, const T* lam, T* q) {
      gpu::blas::symv(st, la::Uplo::Upper, 1.0, f_dev_[s], lam, 0.0, q);
    };
    if (opt_.scatter_gather == SgLocation::Gpu)
      vectors_.apply_sg_gpu(main_stream_, streams_, x, y, submit_local);
    else
      vectors_.apply_sg_cpu(streams_, x, y, submit_local);
  }

  void apply_many(const double* x, double* y, idx nrhs) override {
    // Application runs on the GPU here, so the batch does too: one SYMM per
    // subdomain against the CPU-assembled F̃ᵢ.
    auto submit_local = [this](idx s, gpu::Stream& st,
                               gpu::DeviceDenseT<T> lam,
                               gpu::DeviceDenseT<T> q) {
      gpu::blas::symm(st, la::Uplo::Upper, 1.0, f_dev_[s], lam, 0.0, q);
    };
    vectors_.ensure_batch(nrhs, la::Layout::RowMajor);
    if (opt_.scatter_gather == SgLocation::Gpu)
      vectors_.apply_sg_gpu_many(main_stream_, streams_, x, y, nrhs,
                                 submit_local);
    else
      vectors_.apply_sg_cpu_many(streams_, x, y, nrhs, submit_local);
  }

  [[nodiscard]] gpu::ExecutionContext* device_context() override {
    return &ctx_;
  }

  void apply_many_device(const double* d_x, double* d_y,
                         idx nrhs) override {
    // The hybrid operator applies on the GPU already — device-resident
    // input just drops the cluster staging copies around the same SYMV/SYMM.
    if (nrhs == 1) {
      auto submit_local = [this](idx s, gpu::Stream& st, const T* lam,
                                 T* q) {
        gpu::blas::symv(st, la::Uplo::Upper, 1.0, f_dev_[s], lam, 0.0, q);
      };
      vectors_.apply_sg_gpu_dev(main_stream_, streams_, d_x, d_y,
                                submit_local);
      return;
    }
    auto submit_local = [this](idx s, gpu::Stream& st,
                               gpu::DeviceDenseT<T> lam,
                               gpu::DeviceDenseT<T> q) {
      gpu::blas::symm(st, la::Uplo::Upper, 1.0, f_dev_[s], lam, 0.0, q);
    };
    vectors_.ensure_batch(nrhs, la::Layout::RowMajor);
    vectors_.apply_sg_gpu_many_dev(main_stream_, streams_, d_x, d_y, nrhs,
                                   submit_local);
  }

  void kplus_solve(idx sub, const double* b, double* x) const override {
    check(solvers_[sub] != nullptr,
          "HybridDualOp: subdomain not owned by this operator");
    solvers_[sub]->solve(b, x);
  }

  [[nodiscard]] std::size_t apply_bytes() const override {
    std::size_t total = 0;
    for (const auto& f : f_dev_) total += f.bytes();
    return total;
  }

 private:
  ExplicitGpuOptions opt_;
  sparse::OrderingKind ordering_;
  gpu::ExecutionContext& ctx_;
  gpu::Device& dev_;
  std::vector<idx> owned_;
  bool sparsity_ = false;  ///< boundary-restricted assembly (" sp" keys)
  gpu::Stream main_stream_;
  std::vector<gpu::Stream> streams_;
  std::vector<std::unique_ptr<sparse::SupernodalCholesky>> solvers_;
  std::vector<decomp::BoundaryDofs> boundary_;  ///< sp-only
  std::vector<la::Csr> e_b_;                    ///< sp-only: selection E_b
  std::vector<la::DenseMatrix> f_host_;
  std::vector<la::DenseMatrixF32> f_host32_;  ///< float staging (T == float)
  std::vector<gpu::DeviceDenseT<T>> f_dev_;
  GpuDualVectorsT<T> vectors_;
};

using HybridDualOp = HybridDualOpT<double>;

// ---------------------------------------------------------------------------
// Sharded multi-device wrapper
// ---------------------------------------------------------------------------

/// Partitions the subdomains across the shards of a gpu::DevicePool and
/// delegates to one partial operator per shard. Each partial operator
/// produces the contributions of its own subdomains (zero elsewhere), so
/// the cluster-wide dual result is the sum of the per-shard results.
class ShardedDualOp final : public DualOperator {
 public:
  ShardedDualOp(const decomp::FetiProblem& p,
                std::unique_ptr<gpu::DevicePool> pool,
                const ShardFactory& make_inner)
      : DualOperator(p), pool_(std::move(pool)) {
    const idx nsub = p.num_subdomains();
    inner_.reserve(pool_->size());
    for (std::size_t shard = 0; shard < pool_->size(); ++shard) {
      std::vector<idx> owned = pool_->owned_subdomains(shard, nsub);
      // A shard beyond the subdomain count owns nothing; an empty list
      // must not reach the inner factory, whose empty-subset convention
      // means "all subdomains".
      if (owned.empty()) break;
      inner_.push_back(make_inner(pool_->context(shard), std::move(owned)));
    }
  }

  ~ShardedDualOp() override {
    for (std::size_t k = 0; k < partial_dev_.size(); ++k)
      if (partial_dev_[k] != nullptr) {
        pool_->context(k).device().synchronize();
        pool_->context(k).device().free(partial_dev_[k]);
      }
  }

  void prepare() override {
    ScopedTimer t(timings_, "prepare");
    // Sequential: preparation is dominated by one-time CPU symbolic work
    // that already parallelizes across subdomains within each shard.
    for (auto& op : inner_) op->prepare();
  }

  void update_values() override {
    // Every shard filters its own owned subset against the problem's value
    // versions, so a clean step costs one near-free pass per shard. The
    // wrapper aggregates the per-shard skip decisions: the step counts as
    // skipped only when no shard refreshed anything.
    ScopedTimer t(timings_, "update_values");
    const long before = inner_refreshed_total();
    parallel_over_shards([&](std::size_t k) { inner_[k]->update_values(); });
    ++cache_stats_.steps;
    if (inner_refreshed_total() == before) ++cache_stats_.skipped_steps;
  }

  void kplus_solve(idx sub, const double* b, double* x) const override {
    inner_[pool_->shard_of(sub)]->kplus_solve(sub, b, x);
  }

  /// A shard that served a batch through the base-class loop counts here:
  /// the wrapper forwards whole batches, so its own counter stays 0 and
  /// the aggregate exposes the inner operators' behaviour.
  [[nodiscard]] long loop_fallback_count() const override {
    long total = DualOperator::loop_fallback_count();
    for (const auto& op : inner_) total += op->loop_fallback_count();
    return total;
  }

  /// Steps and whole-step skips are wrapper-level (each update_values()
  /// call above is one step regardless of shard count); the per-subdomain
  /// counts sum over the disjoint shard subsets, so refreshed + skipped
  /// per step still adds up to the subdomain count.
  [[nodiscard]] CacheStats cache_stats() const override {
    CacheStats total;
    total.steps = cache_stats_.steps;
    total.skipped_steps = cache_stats_.skipped_steps;
    for (const auto& op : inner_) {
      const CacheStats inner = op->cache_stats();
      total.refreshed_subdomains += inner.refreshed_subdomains;
      total.skipped_subdomains += inner.skipped_subdomains;
    }
    return total;
  }

  /// Sum of the shards' persistent apply-state bytes (disjoint subdomain
  /// subsets, so the sum is the whole operator's F̃ footprint).
  [[nodiscard]] std::size_t apply_bytes() const override {
    std::size_t total = 0;
    for (const auto& op : inner_) total += op->apply_bytes();
    return total;
  }

  /// Sum of the shards' assembly solve-column counters (disjoint subdomain
  /// subsets, so the sum is the whole operator's solve-panel work).
  [[nodiscard]] long solve_columns() const override {
    long total = 0;
    for (const auto& op : inner_) total += op->solve_columns();
    return total;
  }

  /// Shard 0's context anchors the device-resident solver state; the other
  /// shards' partial applications write into buffers that the merge kernel
  /// (submitted on shard 0's stream) sums — legal in the virtual runtime,
  /// where every device's memory is process memory.
  [[nodiscard]] gpu::ExecutionContext* device_context() override {
    return &pool_->context(0);
  }

 protected:
  void apply_one(const double* x, double* y) override { merge_apply(x, y, 1); }

  void apply_many(const double* x, double* y, idx nrhs) override {
    merge_apply(x, y, nrhs);
  }

  void apply_many_device(const double* d_x, double* d_y,
                         idx nrhs) override {
    const std::size_t len = static_cast<std::size_t>(p_.num_lambdas) *
                            static_cast<std::size_t>(nrhs);
    ensure_partial_dev(len);
    // d_x is produced on the anchor context's stream (the device_context()
    // the caller iterates on); shards 1+ read it from their own devices, so
    // the anchor queue must drain before the fan-out.
    pool_->context(0).main_stream().synchronize();
    // Each shard's partial application is synchronous (the inner device
    // paths drain their main stream before returning), so the merge below
    // sees complete partials once the shard threads have joined.
    parallel_over_shards([&](std::size_t k) {
      inner_[k]->apply_device(d_x, partial_dev_[k], nrhs);
    });
    gpu::Stream main = pool_->context(0).main_stream();
    std::vector<const double*> parts(partial_dev_.begin(),
                                     partial_dev_.end());
    main.submit([d_y, parts = std::move(parts), len] {
      std::fill_n(d_y, len, 0.0);
      for (const double* part : parts)
        for (std::size_t i = 0; i < len; ++i) d_y[i] += part[i];
    });
    main.synchronize();
  }

 private:
  /// Grow-only per-shard device partial buffers for apply_many_device,
  /// allocated on each shard's own device (matching that shard's memory
  /// accounting, like the inner operators' state).
  void ensure_partial_dev(std::size_t len) {
    partial_dev_.resize(inner_.size(), nullptr);
    if (partial_cap_ >= len) return;
    for (std::size_t k = 0; k < inner_.size(); ++k) {
      gpu::Device& dev = pool_->context(k).device();
      if (partial_dev_[k] != nullptr) dev.free(partial_dev_[k]);
      partial_dev_[k] = nullptr;
      partial_dev_[k] = dev.alloc_n<double>(len);
    }
    partial_cap_ = len;
  }
  /// Runs every shard's partial application concurrently (one host thread
  /// per shard — each shard owns a separate virtual device), then sums the
  /// partial cluster vectors. The partial buffers persist across calls:
  /// apply sits in the PCPG per-iteration hot path.
  void merge_apply(const double* x, double* y, idx nrhs) {
    const std::size_t len =
        static_cast<std::size_t>(p_.num_lambdas) * static_cast<std::size_t>(nrhs);
    partial_.resize(inner_.size());
    parallel_over_shards([&](std::size_t k) {
      partial_[k].resize(len);
      inner_[k]->apply(x, partial_[k].data(), nrhs);
    });
    std::fill_n(y, len, 0.0);
    for (const auto& part : partial_)
      for (std::size_t i = 0; i < len; ++i) y[i] += part[i];
  }

  [[nodiscard]] long inner_refreshed_total() const {
    long total = 0;
    for (const auto& op : inner_) total += op->cache_stats().refreshed_subdomains;
    return total;
  }

  template <typename F>
  void parallel_over_shards(F&& f) {
    std::vector<std::exception_ptr> errors(inner_.size());
    std::vector<std::thread> threads;
    threads.reserve(inner_.size());
    for (std::size_t k = 0; k < inner_.size(); ++k)
      threads.emplace_back([&, k] {
        try {
          f(k);
        } catch (...) {
          errors[k] = std::current_exception();
        }
      });
    for (auto& t : threads) t.join();
    for (auto& e : errors)
      if (e) std::rethrow_exception(e);
  }

  // pool_ outlives inner_ (members destroy in reverse declaration order):
  // the partial operators hold references into the pool's contexts.
  std::unique_ptr<gpu::DevicePool> pool_;
  std::vector<std::unique_ptr<DualOperator>> inner_;
  std::vector<std::vector<double>> partial_;
  std::vector<double*> partial_dev_;  ///< per-shard device partials
  std::size_t partial_cap_ = 0;       ///< allocated length of each partial
};

}  // namespace

std::unique_ptr<DualOperator> make_implicit_gpu(
    const decomp::FetiProblem& p, gpu::sparse::Api api,
    sparse::OrderingKind ordering, gpu::ExecutionContext& context, int streams,
    std::vector<idx> owned) {
  return std::make_unique<ImplicitGpuDualOp>(p, api, ordering, context,
                                             streams, std::move(owned));
}

std::unique_ptr<DualOperator> make_explicit_gpu(
    const decomp::FetiProblem& p, gpu::sparse::Api api,
    const ExplicitGpuOptions& options, sparse::OrderingKind ordering,
    gpu::ExecutionContext& context, std::vector<idx> owned,
    Precision precision, bool sparsity) {
  if (precision == Precision::F32)
    return std::make_unique<ExplicitGpuDualOpT<float>>(
        p, api, options, ordering, context, std::move(owned), sparsity);
  return std::make_unique<ExplicitGpuDualOp>(p, api, options, ordering,
                                             context, std::move(owned),
                                             sparsity);
}

std::unique_ptr<DualOperator> make_hybrid(const decomp::FetiProblem& p,
                                          const ExplicitGpuOptions& options,
                                          sparse::OrderingKind ordering,
                                          gpu::ExecutionContext& context,
                                          std::vector<idx> owned,
                                          Precision precision, bool sparsity) {
  if (precision == Precision::F32)
    return std::make_unique<HybridDualOpT<float>>(
        p, options, ordering, context, std::move(owned), sparsity);
  return std::make_unique<HybridDualOp>(p, options, ordering, context,
                                        std::move(owned), sparsity);
}

std::unique_ptr<DualOperator> make_sharded(const decomp::FetiProblem& p,
                                           int shards,
                                           gpu::ExecutionContext& context,
                                           const ShardFactory& make_shard) {
  auto pool = std::make_unique<gpu::DevicePool>(
      shards, gpu::DevicePool::split_config(context.device().config(), shards));
  return std::make_unique<ShardedDualOp>(p, std::move(pool), make_shard);
}

void register_gpu_dual_operators(DualOperatorRegistry& registry) {
  // The factories read the sparse API generation (and, for the explicit
  // families, sparsity and precision) off the parsed key; the registry
  // shards every family here for " xN".
  for (const char* key : {"impl legacy", "impl modern"}) {
    const ApproachAxes axes = parse_axes(key);
    registry.add(
        {key, axes,
         std::string("implicit application on the GPU, ") +
             gpu::sparse::to_string(axes.api) +
             " sparse API, simplicial factors"},
        [](const decomp::FetiProblem& p, const DualOpConfig& c,
           const ApproachAxes& a, gpu::ExecutionContext* ctx,
           std::vector<idx> owned) {
          return make_implicit_gpu(p, a.api, c.ordering, *ctx, c.gpu.streams,
                                   std::move(owned));
        });
  }
  for (const char* key : {"expl legacy", "expl modern"}) {
    const ApproachAxes axes = parse_axes(key);
    registry.add(
        {key, axes,
         std::string("explicit F̃ assembled on the GPU, ") +
             gpu::sparse::to_string(axes.api) + " sparse API"},
        [](const decomp::FetiProblem& p, const DualOpConfig& c,
           const ApproachAxes& a, gpu::ExecutionContext* ctx,
           std::vector<idx> owned) {
          return make_explicit_gpu(p, a.api, c.gpu, c.ordering, *ctx,
                                   std::move(owned), a.precision, a.sparsity);
        });
  }
  registry.add(
      {"expl hybrid", parse_axes("expl hybrid"),
       "explicit F̃ assembled on the CPU (Schur path), applied on the GPU"},
      [](const decomp::FetiProblem& p, const DualOpConfig& c,
         const ApproachAxes& a, gpu::ExecutionContext* ctx,
         std::vector<idx> owned) {
        return make_hybrid(p, c.gpu, c.ordering, *ctx, std::move(owned),
                           a.precision, a.sparsity);
      });
}

}  // namespace feti::core
