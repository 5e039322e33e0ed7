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
//
// Each operator runs all of its subdomains on one device. The three
// families share one base (GpuDualOpBase): it owns the execution context,
// the streams and the per-subdomain loop of prepare()/update_values(), and
// serves every apply entry point (host or device cluster vectors, any
// width, either scatter/gather placement) through the one device apply
// path of core/gpu_dual_vectors.hpp. A family writes only its algebra: its
// pattern-only setup, its per-subdomain numeric refresh, and one local
// kernel.
//
// All operators receive their execution resources (device, stream pool,
// workspace policy) through gpu::ExecutionContext instead of creating and
// clamping their own stream vectors.

#include <map>
#include <numeric>
#include <type_traits>

#include "core/dualop_impls.hpp"
#include "core/dualop_registry.hpp"
#include "core/gpu_dual_vectors.hpp"
#include "decomp/boundary.hpp"
#include "gpu/blas.hpp"
#include "gpu/kernels.hpp"
#include "gpu/sparse.hpp"
#include "la/blas_dense.hpp"
#include "sparse/simplicial_cholesky.hpp"
#include "sparse/supernodal_cholesky.hpp"
#include "util/parallel.hpp"

namespace feti::core {

namespace {

// ---------------------------------------------------------------------------
// Shared scaffolding of the GPU families
// ---------------------------------------------------------------------------

/// Everything the explicit, implicit and hybrid GPU families share. The
/// lifecycle entry points are written once here; a family supplies its
/// algebra through three hooks (plus reserve_batch when wide applies need
/// state of their own):
///
///   prepare_family() — pattern-only setup, between stream acquisition and
///                      the dual-vector allocation;
///   refresh(s, st)   — numeric refresh of one dirty subdomain on its
///                      worker stream;
///   local_apply(s, st, lam, q) — the local kernel q = F̃ₛ lam, submitted
///                      on `st`. lam.cols == 1 is the contiguous width-1
///                      vector: families take their vector kernel there
///                      and their block kernel above, which rounds every
///                      column like the vector kernel.
///
/// `T` is the local-panel scalar (see GpuDualVectorsT).
template <typename T>
class GpuDualOpBase : public DualOperator {
 public:
  void prepare() final {
    ScopedTimer t(timings_, "prepare");
    main_stream_ = ctx_.main_stream();
    streams_ = ctx_.stream_span(requested_streams_);
    prepare_family();
    vectors_.prepare(dev_, main_stream_, p_);
    dev_.synchronize();
    // Remaining device memory feeds the temporary-buffer pool (Sec. IV-A).
    ctx_.ensure_workspace();
  }

  void update_values() final {
    ScopedTimer t(timings_, "update_values");
    const UpdatePlan plan = begin_update();
    if (plan.skip()) return;
    for_each_subdomain(plan.dirty,
                       [this](idx s, gpu::Stream& st) { refresh(s, st); });
    dev_.synchronize();
    end_update(plan);
  }

  [[nodiscard]] gpu::ExecutionContext* device_context() final {
    return &ctx_;
  }

 protected:
  using Panel = gpu::DeviceDenseT<T>;

  GpuDualOpBase(const decomp::FetiProblem& p, gpu::ExecutionContext& ctx,
                int streams, SgLocation scatter_gather)
      : DualOperator(p), ctx_(ctx), dev_(ctx.device()),
        requested_streams_(streams), scatter_gather_(scatter_gather) {}

  virtual void prepare_family() = 0;
  virtual void refresh(idx s, gpu::Stream& st) = 0;
  virtual void local_apply(idx s, gpu::Stream& st, Panel lam, Panel q) = 0;
  /// Called with the width of every apply before anything is submitted.
  virtual void reserve_batch(idx /*nrhs*/) {}

  /// Runs f(s, stream) for every subdomain of `subs` through parallel_for;
  /// entry k runs on worker stream k % streams.
  template <typename F>
  void for_each_subdomain(const std::vector<idx>& subs, F&& f) {
    parallel_for(static_cast<idx>(subs.size()), [&](idx k) {
      gpu::Stream st = streams_[static_cast<std::size_t>(k) % streams_.size()];
      f(subs[static_cast<std::size_t>(k)], st);
    });
  }

  /// for_each_subdomain over every subdomain (the pattern-only setup).
  template <typename F>
  void for_each_subdomain(F&& f) {
    std::vector<idx> all(static_cast<std::size_t>(p_.num_subdomains()));
    std::iota(all.begin(), all.end(), 0);
    for_each_subdomain(all, std::forward<F>(f));
  }

  void apply_one(const double* x, double* y) final { apply_host(x, y, 1); }

  void apply_many(const double* x, double* y, idx nrhs) final {
    apply_host(x, y, nrhs);
  }

  void apply_many_device(const double* d_x, double* d_y, idx nrhs) final {
    // Always GPU scatter/gather: the CPU placement is a staging strategy,
    // pointless when the cluster vectors never leave the device. Same
    // kernels in the same order as the host path of the same width, so the
    // result is bit-identical whatever placement that path uses.
    reserve_batch(nrhs);
    vectors_.apply_gpu(main_stream_, streams_, d_x, d_y, nrhs,
                       ClusterMemory::Device, local());
  }

  gpu::ExecutionContext& ctx_;
  gpu::Device& dev_;
  std::vector<gpu::Stream> streams_;

 private:
  void apply_host(const double* x, double* y, idx nrhs) {
    reserve_batch(nrhs);
    if (scatter_gather_ == SgLocation::Gpu)
      vectors_.apply_gpu(main_stream_, streams_, x, y, nrhs,
                         ClusterMemory::Host, local());
    else
      vectors_.apply_cpu(streams_, x, y, nrhs, local());
  }

  auto local() {
    return [this](idx s, gpu::Stream& st, Panel lam, Panel q) {
      local_apply(s, st, lam, q);
    };
  }

  gpu::Stream main_stream_;
  int requested_streams_;
  SgLocation scatter_gather_;
  GpuDualVectorsT<T> vectors_;
};

// ---------------------------------------------------------------------------
// Explicit GPU (the contribution)
// ---------------------------------------------------------------------------

/// `T` is the persistent F̃ storage scalar: double for the paper's fp64
/// operators, float for the mixed-precision variants ("expl legacy f32",
/// ...). Assembly always runs in fp64 — the float instantiation assembles
/// each F̃ᵢ into a temporary fp64 buffer and demotes it into the persistent
/// fp32 block, so only the apply phase (and the storage footprint) changes.
template <typename T>
class ExplicitGpuDualOpT final : public GpuDualOpBase<T> {
  using Base = GpuDualOpBase<T>;
  using typename Base::Panel;
  using Base::ctx_;
  using Base::dev_;
  using Base::p_;
  using Base::solve_columns_;
  using Base::solve_work_;

 public:
  ExplicitGpuDualOpT(const decomp::FetiProblem& p, gpu::sparse::Api api,
                     const ExplicitGpuOptions& opt,
                     sparse::OrderingKind ordering, gpu::ExecutionContext& ctx,
                     bool sparsity)
      : Base(p, ctx, opt.streams, opt.scatter_gather),
        api_(api), opt_(opt), ordering_(ordering), sparsity_(sparsity) {}

  ~ExplicitGpuDualOpT() override {
    dev_.synchronize();
    for (auto& b : bperm_dev_) gpu::free_csr(dev_, b);
    for (auto& b : bb_dev_) gpu::free_csr(dev_, b);
    for (idx* pos : pos_dev_) dev_.free(pos);
    for (auto& f : factor_dev_) gpu::free_csr(dev_, f);
    // packed_ stays empty if prepare() failed before allocate_f().
    for (std::size_t s = 0; s < f_.size(); ++s)
      if (s >= packed_.size() || !packed_[s]) gpu::free_dense(dev_, f_[s]);
    for (T* buf : pack_buffers_) dev_.free(buf);
  }

  void kplus_solve(idx sub, const double* b, double* x) const override {
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
  void prepare_family() override {
    const std::size_t nsub = static_cast<std::size_t>(p_.num_subdomains());
    solvers_.resize(nsub);
    bperm_host_.resize(nsub);
    bperm_dev_.resize(nsub);
    pos_host_.resize(nsub);
    pos_dev_.assign(nsub, nullptr);
    work_.assign(nsub, 0);
    bb_host_.resize(nsub);
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
    this->for_each_subdomain([&](idx s, gpu::Stream& st) {
      const auto& fs = p_.sub[s];
      // Symbolic factorization on the CPU.
      solvers_[s] = std::make_unique<sparse::SimplicialCholesky>();
      solvers_[s]->analyze(fs.k_reg, ordering_);
      const la::Csr& u = solvers_[s]->factor_upper_structure();
      if (need_dense_factor) factor_dev_[s] = gpu::upload_csr(dev_, st, u);
      const idx m = fs.num_local_lambdas();
      const std::vector<idx>& perm = solvers_[s]->permutation();
      if (sparsity_) {
        // Constant data of the boundary-restricted assembly: the
        // (column-permuted) boundary selection E_b as the solve RHS, its
        // rows in staircase order, which numbers the boundary in
        // elimination order, and the column-compressed gluing matrix B_b
        // with its columns renumbered to match, for the expansion.
        const decomp::BoundaryDofs boundary = decomp::boundary_dofs(fs);
        const idx nb = boundary.count();
        if (nb > 0) {
          const la::Csr panel = la::permute_columns(
              decomp::boundary_selection(boundary, fs.ndof()), perm);
          const std::vector<idx> order = la::staircase_order(panel);
          bperm_host_[s] = la::permute_rows(panel, order);
          bb_host_[s] = la::permute_columns(boundary.b_b, order);
          bperm_dev_[s] = gpu::upload_csr(dev_, st, bperm_host_[s]);
          bb_dev_[s] = gpu::upload_csr(dev_, st, bb_host_[s]);
          if (opt_.fwd_storage == FactorStorage::Sparse)
            fwd_plan_[s] = gpu::sparse::SpTrsmPlan(
                dev_, st, api_, u, opt_.fwd_order, /*forward=*/true,
                opt_.rhs_order, nb);
        }
      } else {
        // Constant data to the device: the (column-permuted) gluing
        // matrix and the factor structure. The SYRK path solves its
        // columns in staircase order and un-permutes F̃ᵢ once at the end
        // through pos (λ -> staircase position); the TRSM path's SpMM
        // needs B̃ᵢ in λ order and keeps it.
        bperm_host_[s] = la::permute_columns(fs.b, perm);
        if (opt_.path == Path::Syrk) {
          const std::vector<idx> order = la::staircase_order(bperm_host_[s]);
          bperm_host_[s] = la::permute_rows(bperm_host_[s], order);
          pos_host_[s] = la::invert_permutation(order);
          pos_dev_[s] = gpu::upload_array(dev_, st, pos_host_[s]);
        }
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
      work_[s] = la::staircase_solve_work(u, bperm_host_[s]);
    });
    allocate_f();
  }

  void refresh(idx s, gpu::Stream& st) override {
    gpu::TempAllocator& temp = ctx_.workspace();
    const auto& fs = p_.sub[s];
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

    // An fp64 m×m scratch: the staircase-ordered Gram block of the SYRK
    // path, and the fp32 TRSM path's assembly target (demoted below). The
    // fp64 TRSM path assembles into the persistent block itself.
    double* f_buf = nullptr;
    if (opt_.path == Path::Syrk || std::is_same_v<T, float>)
      f_buf = static_cast<double*>(temp.alloc(
          sizeof(double) * static_cast<std::size_t>(m) * m));
    const gpu::DeviceDense f_scratch{f_buf, m, m, m, la::Layout::ColMajor};

    // Dense RHS X = (B̃ᵢ P^T)^T, converted on the device (its columns in
    // staircase order on the SYRK path).
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
      // F̃ᵢ = X^T X in staircase order, then one kernel writes the stored
      // triangle in λ order — per-subdomain when triangle packing is
      // active (footnote 1) — demoting it for fp32 storage.
      gpu::blas::syrk(st, la::Uplo::Upper, la::Trans::Yes, 1.0, x, 0.0,
                      f_scratch);
      gpu::kernels::unpermute_triangle(st, uplo_[s], pos_dev_[s], f_scratch,
                                       f_[s]);
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
      // fp32 storage: assemble the full fp64 block, then demote it.
      if constexpr (std::is_same_v<T, float>) {
        gpu::sparse::spmm(st, 1.0, bperm_dev_[s], la::Trans::No, x, 0.0,
                          f_scratch);
        gpu::kernels::demote(st, f_scratch, f_[s]);
      } else {
        gpu::sparse::spmm(st, 1.0, bperm_dev_[s], la::Trans::No, x, 0.0,
                          f_[s]);
      }
    }
    solve_columns_.fetch_add(m, std::memory_order_relaxed);
    solve_work_.fetch_add(work_[s], std::memory_order_relaxed);

    // Stream-ordered release of the temporaries: they are freed once the
    // kernels of this subdomain have executed.
    st.submit([&temp, x_buf, dense_fwd, dense_bwd, ws_fwd, ws_bwd, f_buf] {
      temp.free(x_buf);
      if (dense_fwd != nullptr) temp.free(dense_fwd);
      if (dense_bwd != nullptr) temp.free(dense_bwd);
      if (ws_fwd != nullptr) temp.free(ws_fwd);
      if (ws_bwd != nullptr) temp.free(ws_bwd);
      if (f_buf != nullptr) temp.free(f_buf);
    });
  }

  void local_apply(idx s, gpu::Stream& st, Panel lam, Panel q) override {
    // The SYRK path stores one (possibly packed) triangle of F̃ᵢ, the TRSM
    // path the full block. A batch is one SYMM (or GEMM) per subdomain over
    // the whole row-major panel — the BLAS-3 payoff the CPU explicit
    // operators already had.
    const bool symmetric = opt_.path == Path::Syrk;
    if (lam.cols == 1) {
      if (symmetric)
        gpu::blas::symv(st, uplo_[s], 1.0, f_[s], lam.data, 0.0, q.data);
      else
        gpu::blas::gemv(st, 1.0, f_[s], la::Trans::No, lam.data, 0.0, q.data);
    } else if (symmetric) {
      gpu::blas::symm(st, uplo_[s], 1.0, f_[s], lam, 0.0, q);
    } else {
      gpu::blas::gemm(st, 1.0, f_[s], la::Trans::No, lam, la::Trans::No, 0.0,
                      q);
    }
  }

  /// Allocates the persistent F̃ᵢ buffers. With the SYRK path and
  /// symmetric_pack enabled, equally sized subdomains are paired and the
  /// upper triangle of one shares a (m+1)-leading-dimension allocation
  /// with the lower triangle of the other (paper footnote 1):
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
    for (idx s = 0; s < p_.num_subdomains(); ++s)
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
    const idx nb = bperm_host_[s].nrows();

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
    // device: n × nb instead of the dense path's n × m, its columns (the
    // boundary DOFs) in staircase order.
    auto* w_buf = static_cast<double*>(
        temp.alloc(sizeof(double) * static_cast<std::size_t>(n) * nb));
    gpu::DeviceDense w{w_buf, n, nb,
                       opt_.rhs_order == la::Layout::RowMajor ? nb : n,
                       opt_.rhs_order};
    gpu::sparse::csr_to_dense_transposed(st, bperm_dev_[s], w);

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
    solve_work_.fetch_add(work_[s], std::memory_order_relaxed);

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
  bool sparsity_ = false;  ///< boundary-restricted assembly (" sp" keys)
  std::vector<std::unique_ptr<sparse::SimplicialCholesky>> solvers_;
  /// The solve panel on host and device: B̃ᵢ Pᵀ, or E_b Pᵀ for sp, its
  /// rows in staircase order except on the TRSM path.
  std::vector<la::Csr> bperm_host_;
  std::vector<gpu::DeviceCsr> bperm_dev_;
  /// Dense SYRK path: λ -> staircase position, the un-permute's map.
  std::vector<std::vector<idx>> pos_host_;
  std::vector<idx*> pos_dev_;
  std::vector<long> work_;  ///< staircase_solve_work per refresh
  /// sp-only: the column-compressed gluing matrix B_b of the expansion,
  /// its columns in the panel's staircase order, on host and device.
  std::vector<la::Csr> bb_host_;
  std::vector<gpu::DeviceCsr> bb_dev_;
  std::vector<gpu::DeviceCsr> factor_dev_;
  std::vector<gpu::sparse::SpTrsmPlan> fwd_plan_, bwd_plan_;
  std::vector<gpu::DeviceDenseT<T>> f_;
  std::vector<la::Uplo> uplo_;
  std::vector<bool> packed_;
  std::vector<T*> pack_buffers_;
  std::vector<std::size_t> pack_sizes_;
};

using ExplicitGpuDualOp = ExplicitGpuDualOpT<double>;

// ---------------------------------------------------------------------------
// Implicit GPU
// ---------------------------------------------------------------------------

/// The implicit family takes no Table-I options: its scatter/gather always
/// runs on the GPU.
class ImplicitGpuDualOp final : public GpuDualOpBase<double> {
 public:
  ImplicitGpuDualOp(const decomp::FetiProblem& p, gpu::sparse::Api api,
                    sparse::OrderingKind ordering, gpu::ExecutionContext& ctx,
                    int streams)
      : GpuDualOpBase(p, ctx, streams, SgLocation::Gpu),
        api_(api), ordering_(ordering) {}

  ~ImplicitGpuDualOp() override {
    dev_.synchronize();
    for (auto& b : bperm_dev_) gpu::free_csr(dev_, b);
    for (auto* t : tmp_dev_) dev_.free(t);
    for (auto* t : tmpblk_dev_) dev_.free(t);
  }

  void kplus_solve(idx sub, const double* b, double* x) const override {
    solvers_[sub]->solve(b, x);
  }

 private:
  void prepare_family() override {
    const std::size_t nsub = static_cast<std::size_t>(p_.num_subdomains());
    solvers_.resize(nsub);
    bperm_host_.resize(nsub);
    bperm_dev_.resize(nsub);
    fwd_plan_.resize(nsub);
    bwd_plan_.resize(nsub);
    batch_fwd_plan_.resize(nsub);
    batch_bwd_plan_.resize(nsub);
    tmp_dev_.resize(nsub);
    tmpblk_dev_.resize(nsub);
    for_each_subdomain([&](idx s, gpu::Stream& st) {
      const auto& fs = p_.sub[s];
      solvers_[s] = std::make_unique<sparse::SimplicialCholesky>();
      solvers_[s]->analyze(fs.k_reg, ordering_);
      bperm_host_[s] = la::permute_columns(fs.b, solvers_[s]->permutation());
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

  void refresh(idx s, gpu::Stream& st) override {
    // Implicit preprocessing = numeric factorization + factor copies.
    solvers_[s]->factorize(p_.sub[s].k_reg);
    const la::Csr& u = solvers_[s]->factor_upper();
    fwd_plan_[s].update_values(st, u);
    bwd_plan_[s].update_values(st, u);
    if (batch_fwd_plan_[s].valid()) batch_fwd_plan_[s].update_values(st, u);
    if (batch_bwd_plan_[s].valid()) batch_bwd_plan_[s].update_values(st, u);
  }

  void local_apply(idx s, gpu::Stream& st, gpu::DeviceDense lam,
                   gpu::DeviceDense q) override {
    // SpMV(B̃ᵀ), forward and backward triangular solve, SpMV(B̃). A batch
    // runs the same sweep as one SpMM, two block solves through the
    // wide-RHS plans and one SpMM — nrhs right-hand sides for the
    // submission count of one.
    const bool single = lam.cols == 1;
    const idx n = p_.sub[s].ndof();
    gpu::DeviceCsr b = bperm_dev_[s];
    gpu::sparse::SpTrsmPlan& fwd = single ? fwd_plan_[s] : batch_fwd_plan_[s];
    gpu::sparse::SpTrsmPlan& bwd = single ? bwd_plan_[s] : batch_bwd_plan_[s];
    const gpu::DeviceDense t =
        single ? gpu::DeviceDense{tmp_dev_[s], n, 1, n, la::Layout::ColMajor}
               : gpu::DeviceDense{tmpblk_dev_[s], n, lam.cols, batch_cols_,
                                  la::Layout::RowMajor};
    if (single)
      gpu::sparse::spmv(st, 1.0, b, la::Trans::Yes, lam.data, 0.0, t.data);
    else
      gpu::sparse::spmm(st, 1.0, b, la::Trans::Yes, lam, 0.0, t);
    auto& temp = ctx_.workspace();
    void* ws_f = nullptr;
    void* ws_b = nullptr;
    const std::size_t wf = fwd.workspace_bytes(lam.cols);
    const std::size_t wb = bwd.workspace_bytes(lam.cols);
    if (wf > 0) ws_f = temp.alloc(wf);
    fwd.solve(st, t, ws_f);
    if (wb > 0) ws_b = temp.alloc(wb);
    bwd.solve(st, t, ws_b);
    if (single)
      gpu::sparse::spmv(st, 1.0, b, la::Trans::No, t.data, 0.0, q.data);
    else
      gpu::sparse::spmm(st, 1.0, b, la::Trans::No, t, 0.0, q);
    if (ws_f != nullptr || ws_b != nullptr)
      st.submit([&temp, ws_f, ws_b] {
        if (ws_f != nullptr) temp.free(ws_f);
        if (ws_b != nullptr) temp.free(ws_b);
      });
  }

  /// Grow-only wide-RHS solve plans and temporary panels. Valid only after
  /// update_values() (the plans are seeded from the current numeric
  /// factor); refactorizations refresh live batch plans in place.
  void reserve_batch(idx nrhs) override {
    if (nrhs == 1 || batch_cols_ >= nrhs) return;
    const idx cap = nrhs;
    batch_cols_ = 0;  // a bad_alloc below leaves a full rebuild pending
    for (idx s = 0; s < p_.num_subdomains(); ++s) {
      const idx n = p_.sub[s].ndof();
      // Same stream assignment as every other per-subdomain loop; plan
      // construction is synchronous (the SpTrsmPlan constructor drains its
      // stream), so the plans are complete when this returns.
      gpu::Stream st =
          streams_[static_cast<std::size_t>(s) % streams_.size()];
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
  std::vector<std::unique_ptr<sparse::SimplicialCholesky>> solvers_;
  std::vector<la::Csr> bperm_host_;
  std::vector<gpu::DeviceCsr> bperm_dev_;
  std::vector<gpu::sparse::SpTrsmPlan> fwd_plan_, bwd_plan_;
  std::vector<gpu::sparse::SpTrsmPlan> batch_fwd_plan_, batch_bwd_plan_;
  std::vector<double*> tmp_dev_;
  std::vector<double*> tmpblk_dev_;
  idx batch_cols_ = 0;
};

// ---------------------------------------------------------------------------
// Hybrid (assembly on CPU via Schur, application on GPU)
// ---------------------------------------------------------------------------

/// `T` is the device-side F̃ storage scalar (see ExplicitGpuDualOpT): the
/// CPU Schur assembly always produces fp64 blocks; the float instantiation
/// demotes them host-side before the upload, so the device holds — and the
/// apply phase streams — half the bytes.
template <typename T>
class HybridDualOpT final : public GpuDualOpBase<T> {
  using Base = GpuDualOpBase<T>;
  using typename Base::Panel;
  using Base::dev_;
  using Base::p_;
  using Base::solve_columns_;

 public:
  HybridDualOpT(const decomp::FetiProblem& p, const ExplicitGpuOptions& opt,
                sparse::OrderingKind ordering, gpu::ExecutionContext& ctx,
                bool sparsity)
      : Base(p, ctx, opt.streams, opt.scatter_gather),
        ordering_(ordering), sparsity_(sparsity) {}

  ~HybridDualOpT() override {
    dev_.synchronize();
    for (auto& f : f_dev_) gpu::free_dense(dev_, f);
  }

  void kplus_solve(idx sub, const double* b, double* x) const override {
    solvers_[sub]->solve(b, x);
  }

  [[nodiscard]] std::size_t apply_bytes() const override {
    std::size_t total = 0;
    for (const auto& f : f_dev_) total += f.bytes();
    return total;
  }

 private:
  void prepare_family() override {
    const std::size_t nsub = static_cast<std::size_t>(p_.num_subdomains());
    solvers_.resize(nsub);
    boundary_.resize(nsub);
    e_b_.resize(nsub);
    f_host_.resize(nsub);
    f_dev_.resize(nsub);
    if constexpr (std::is_same_v<T, float>) f_host32_.resize(nsub);
    this->for_each_subdomain([&](idx s, gpu::Stream&) {
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

  void refresh(idx s, gpu::Stream& st) override {
    const auto& fs = p_.sub[s];
    if (sparsity_) {
      const idx nb = boundary_[s].count();
      if (nb == 0) {
        solvers_[s]->factorize(fs.k_reg);
        f_host_[s].set_zero();
      } else {
        la::DenseMatrix g(nb, nb, la::Layout::ColMajor);
        solvers_[s]->factorize_schur(fs.k_reg, e_b_[s], g.view(),
                                     la::Uplo::Upper);
        decomp::expand_boundary(boundary_[s].b_b, g.view(), la::Uplo::Upper,
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
  }

  void local_apply(idx s, gpu::Stream& st, Panel lam, Panel q) override {
    // Application runs on the GPU here, so the batch does too: one SYMM per
    // subdomain against the CPU-assembled F̃ᵢ.
    if (lam.cols == 1)
      gpu::blas::symv(st, la::Uplo::Upper, 1.0, f_dev_[s], lam.data, 0.0,
                      q.data);
    else
      gpu::blas::symm(st, la::Uplo::Upper, 1.0, f_dev_[s], lam, 0.0, q);
  }

  sparse::OrderingKind ordering_;
  bool sparsity_ = false;  ///< boundary-restricted assembly (" sp" keys)
  std::vector<std::unique_ptr<sparse::SupernodalCholesky>> solvers_;
  std::vector<decomp::BoundaryDofs> boundary_;  ///< sp-only
  std::vector<la::Csr> e_b_;                    ///< sp-only: selection E_b
  std::vector<la::DenseMatrix> f_host_;
  std::vector<la::DenseMatrixF32> f_host32_;  ///< float staging (T == float)
  std::vector<gpu::DeviceDenseT<T>> f_dev_;
};

using HybridDualOp = HybridDualOpT<double>;

}  // namespace

std::unique_ptr<DualOperator> make_implicit_gpu(
    const decomp::FetiProblem& p, gpu::sparse::Api api,
    sparse::OrderingKind ordering, gpu::ExecutionContext& context,
    int streams) {
  return std::make_unique<ImplicitGpuDualOp>(p, api, ordering, context,
                                             streams);
}

std::unique_ptr<DualOperator> make_explicit_gpu(
    const decomp::FetiProblem& p, gpu::sparse::Api api,
    const ExplicitGpuOptions& options, sparse::OrderingKind ordering,
    gpu::ExecutionContext& context, Precision precision, bool sparsity) {
  if (precision == Precision::F32)
    return std::make_unique<ExplicitGpuDualOpT<float>>(
        p, api, options, ordering, context, sparsity);
  return std::make_unique<ExplicitGpuDualOp>(p, api, options, ordering,
                                             context, sparsity);
}

std::unique_ptr<DualOperator> make_hybrid(const decomp::FetiProblem& p,
                                          const ExplicitGpuOptions& options,
                                          sparse::OrderingKind ordering,
                                          gpu::ExecutionContext& context,
                                          Precision precision, bool sparsity) {
  if (precision == Precision::F32)
    return std::make_unique<HybridDualOpT<float>>(p, options, ordering,
                                                  context, sparsity);
  return std::make_unique<HybridDualOp>(p, options, ordering, context,
                                        sparsity);
}

void register_gpu_dual_operators(DualOperatorRegistry& registry) {
  // The factories read the sparse API generation (and, for the explicit
  // families, sparsity and precision) off the parsed key.
  for (const char* key : {"impl legacy", "impl modern"}) {
    const ApproachAxes axes = parse_axes(key);
    registry.add(
        {key, axes,
         std::string("implicit application on the GPU, ") +
             gpu::sparse::to_string(axes.api) +
             " sparse API, simplicial factors"},
        [](const decomp::FetiProblem& p, const DualOpConfig& c,
           const ApproachAxes& a, gpu::ExecutionContext* ctx) {
          return make_implicit_gpu(p, a.api, c.ordering, *ctx, c.gpu.streams);
        });
  }
  for (const char* key : {"expl legacy", "expl modern"}) {
    const ApproachAxes axes = parse_axes(key);
    registry.add(
        {key, axes,
         std::string("explicit F̃ assembled on the GPU, ") +
             gpu::sparse::to_string(axes.api) + " sparse API"},
        [](const decomp::FetiProblem& p, const DualOpConfig& c,
           const ApproachAxes& a, gpu::ExecutionContext* ctx) {
          return make_explicit_gpu(p, a.api, c.gpu, c.ordering, *ctx,
                                   a.precision, a.sparsity);
        });
  }
  registry.add(
      {"expl hybrid", parse_axes("expl hybrid"),
       "explicit F̃ assembled on the CPU (Schur path), applied on the GPU"},
      [](const decomp::FetiProblem& p, const DualOpConfig& c,
         const ApproachAxes& a, gpu::ExecutionContext* ctx) {
        return make_hybrid(p, c.gpu, c.ordering, *ctx, a.precision,
                           a.sparsity);
      });
}

}  // namespace feti::core
