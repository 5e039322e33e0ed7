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
// The three single-device families share one base (GpuDualOpBase): it owns
// the execution context, the owned subdomain subset, the streams and the
// per-subdomain loop of prepare()/update_values(), and serves every apply
// entry point (host or device cluster vectors, any width, either
// scatter/gather placement) through the one device apply path of
// core/gpu_dual_vectors.hpp. A family writes only its algebra: its
// pattern-only setup, its per-subdomain numeric refresh, and one local
// kernel.
//
// All operators receive their execution resources (device, stream pool,
// workspace policy) through gpu::ExecutionContext instead of creating and
// clamping their own stream vectors.

#include <omp.h>

#include <exception>
#include <map>
#include <thread>
#include <type_traits>

#include "core/dualop_impls.hpp"
#include "core/dualop_registry.hpp"
#include "core/gpu_dual_vectors.hpp"
#include "decomp/boundary.hpp"
#include "util/omp_guard.hpp"
#include "gpu/blas.hpp"
#include "gpu/kernels.hpp"
#include "gpu/sparse.hpp"
#include "la/blas_dense.hpp"
#include "sparse/simplicial_cholesky.hpp"
#include "sparse/supernodal_cholesky.hpp"

namespace feti::core {

namespace {

// ---------------------------------------------------------------------------
// Shared scaffolding of the single-device GPU families
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
///                      (SYMV vs SYMM differ bitwise, and apply_device of a
///                      width must equal apply of the same width).
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
    vectors_.prepare(dev_, main_stream_, p_, owned_);
    dev_.synchronize();
    // Remaining device memory feeds the temporary-buffer pool (Sec. IV-A).
    ctx_.ensure_workspace();
  }

  void update_values() final {
    ScopedTimer t(timings_, "update_values");
    const UpdatePlan plan = begin_update(owned_);
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
                std::vector<idx> owned, int streams,
                SgLocation scatter_gather)
      : DualOperator(p), ctx_(ctx), dev_(ctx.device()),
        owned_(resolve_owned(p, std::move(owned))),
        requested_streams_(streams), scatter_gather_(scatter_gather) {}

  virtual void prepare_family() = 0;
  virtual void refresh(idx s, gpu::Stream& st) = 0;
  virtual void local_apply(idx s, gpu::Stream& st, Panel lam, Panel q) = 0;
  /// Called with the width of every apply before anything is submitted.
  virtual void reserve_batch(idx /*nrhs*/) {}

  /// Runs f(s, stream) for every subdomain of `subs` in an OpenMP-guarded
  /// parallel loop; entry k runs on worker stream k % streams.
  template <typename F>
  void for_each_subdomain(const std::vector<idx>& subs, F&& f) {
    const idx n = static_cast<idx>(subs.size());
    OmpExceptionGuard guard;
#pragma omp parallel for schedule(dynamic)
    for (idx k = 0; k < n; ++k) {
      guard.run([&, k] {
        gpu::Stream st =
            streams_[static_cast<std::size_t>(k) % streams_.size()];
        f(subs[static_cast<std::size_t>(k)], st);
      });
    }
    guard.rethrow();
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
  std::vector<idx> owned_;
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
  using Base::owned_;
  using Base::p_;
  using Base::solve_columns_;

 public:
  ExplicitGpuDualOpT(const decomp::FetiProblem& p, gpu::sparse::Api api,
                     const ExplicitGpuOptions& opt,
                     sparse::OrderingKind ordering, gpu::ExecutionContext& ctx,
                     std::vector<idx> owned, bool sparsity)
      : Base(p, ctx, std::move(owned), opt.streams, opt.scatter_gather),
        api_(api), opt_(opt), ordering_(ordering), sparsity_(sparsity) {}

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
  void prepare_family() override {
    const std::size_t nsub = static_cast<std::size_t>(p_.num_subdomains());
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
    this->for_each_subdomain(owned_, [&](idx s, gpu::Stream& st) {
      const auto& fs = p_.sub[s];
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
          eperm_host_[s] = la::permute_columns(
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
        bperm_host_[s] = la::permute_columns(fs.b, solvers_[s]->permutation());
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
  bool sparsity_ = false;  ///< boundary-restricted assembly (" sp" keys)
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
                    int streams, std::vector<idx> owned)
      : GpuDualOpBase(p, ctx, std::move(owned), streams, SgLocation::Gpu),
        api_(api), ordering_(ordering) {}

  ~ImplicitGpuDualOp() override {
    dev_.synchronize();
    for (auto& b : bperm_dev_) gpu::free_csr(dev_, b);
    for (auto* t : tmp_dev_) dev_.free(t);
    for (auto* t : tmpblk_dev_) dev_.free(t);
  }

  void kplus_solve(idx sub, const double* b, double* x) const override {
    check(solvers_[sub] != nullptr,
          "ImplicitGpuDualOp: subdomain not owned by this operator");
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
    for_each_subdomain(owned_, [&](idx s, gpu::Stream& st) {
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
  using Base::owned_;
  using Base::p_;
  using Base::solve_columns_;

 public:
  HybridDualOpT(const decomp::FetiProblem& p, const ExplicitGpuOptions& opt,
                sparse::OrderingKind ordering, gpu::ExecutionContext& ctx,
                std::vector<idx> owned, bool sparsity)
      : Base(p, ctx, std::move(owned), opt.streams, opt.scatter_gather),
        ordering_(ordering), sparsity_(sparsity) {}

  ~HybridDualOpT() override {
    dev_.synchronize();
    for (auto& f : f_dev_) gpu::free_dense(dev_, f);
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
  void prepare_family() override {
    const std::size_t nsub = static_cast<std::size_t>(p_.num_subdomains());
    solvers_.resize(nsub);
    boundary_.resize(nsub);
    e_b_.resize(nsub);
    f_host_.resize(nsub);
    f_dev_.resize(nsub);
    if constexpr (std::is_same_v<T, float>) f_host32_.resize(nsub);
    this->for_each_subdomain(owned_, [&](idx s, gpu::Stream&) {
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
        la::DenseView fv = f_host_[s].view();
        for (idx c = 0; c < fv.cols; ++c)
          for (idx r = 0; r < fv.rows; ++r) fv.at(r, c) = 0.0;
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
