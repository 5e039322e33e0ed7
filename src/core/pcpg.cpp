#include "core/pcpg.hpp"

#include <algorithm>
#include <limits>
#include <new>
#include <optional>

#include "core/krylov_recycler.hpp"
#include "gpu/context.hpp"
#include "gpu/runtime.hpp"
#include "la/blas_dense.hpp"
#include "precond/precond_registry.hpp"

namespace feti::core {

namespace {

/// Finalization floor for the initial projected-residual norm: below it the
/// right-hand side is numerically zero for this system and λ₀ already
/// solves it. Scaled to the problem (n·ε·‖d‖) with an absolute denormal
/// guard — a bit-exact-zero test alone lets a 1e-300-scaled RHS divide by
/// a denormal w₀ and spin to max_iterations on NaN step lengths.
double w0_floor(idx n, double d_norm) {
  constexpr double eps = std::numeric_limits<double>::epsilon();
  constexpr double denormal_guard = std::numeric_limits<double>::min() / eps;
  return static_cast<double>(n) * eps * d_norm + denormal_guard;
}

/// Rank-revealing Gram-system solver of the block step: factors the small
/// PᵀFP matrix once per iteration with pivoted Cholesky and solves for the
/// per-system step/conjugation coefficients. Panel columns beyond the
/// revealed rank are numerically dependent on the kept ones and get zero
/// coefficients — column deflation instead of the per-system `pq <= 0`
/// breakdown of the lockstep step.
class GramSolver {
 public:
  void factor(const la::DenseMatrix& gram, double rel_tolerance) {
    l_ = gram;  // factored in place on the copy
    perm_.resize(static_cast<std::size_t>(gram.rows()));
    rank_ = la::potrf_pivoted_lower(l_.view(), perm_.data(), rel_tolerance);
  }
  [[nodiscard]] idx rank() const { return rank_; }

  /// b (length = panel width) → x with Gram x = b on the kept columns and
  /// x = 0 on the deflated ones, in place.
  void solve(double* b) const {
    std::vector<double> t(static_cast<std::size_t>(rank_));
    for (idx k = 0; k < rank_; ++k) t[static_cast<std::size_t>(k)] = b[perm_[k]];
    const la::ConstDenseView lead(l_.data(), rank_, rank_, l_.ld(),
                                  la::Layout::ColMajor);
    la::trsv(la::Uplo::Lower, la::Trans::No, lead, t.data());
    la::trsv(la::Uplo::Lower, la::Trans::Yes, lead, t.data());
    std::fill_n(b, l_.rows(), 0.0);
    for (idx k = 0; k < rank_; ++k) b[perm_[k]] = t[static_cast<std::size_t>(k)];
  }

 private:
  la::DenseMatrix l_;
  std::vector<idx> perm_;
  idx rank_ = 0;
};

/// Where the PCPG loop state lives and where its fused vector operations
/// run. The host backend keeps the state in host memory and runs every
/// operation body inline; the device backend keeps it in one allocation on
/// the dual operator's device and submits the *same* bodies to the
/// context's main stream, reading back only scalar blocks. One body per
/// operation is what makes the two bit-identical (device memory is host
/// memory in the virtual runtime, so the same la:: calls see the same
/// operands in the same per-system order).
///
/// State: per system the n-vectors λ, r, w, y and p; shared by the systems
/// the search panel P (packed when wider than one), Q = F·P, the
/// preconditioner staging panels, and the Gram, coefficient and scalar
/// blocks.
class Backend {
 public:
  /// Host state.
  Backend(idx n, std::size_t nsys) : n_(n), host_(slab_size(n, nsys)) {
    bind(host_.data(), nsys);
  }
  /// Device state on `ctx`'s device, freed (after draining the device) on
  /// every exit path — including the std::bad_alloc unwinding behind the
  /// Auto-mode host fallback.
  Backend(idx n, std::size_t nsys, gpu::ExecutionContext& ctx)
      : n_(n), ctx_(&ctx), stream_(ctx.main_stream()) {
    bind(ctx.device().alloc_n<double>(slab_size(n, nsys)), nsys);
  }
  ~Backend() {
    if (ctx_ == nullptr) return;
    ctx_->device().synchronize();
    ctx_->device().free(base_);
  }
  Backend(const Backend&) = delete;
  Backend& operator=(const Backend&) = delete;

  std::vector<double*> lambda, r, w, y, p;
  double* xpanel = nullptr;  ///< packed search panel P
  double* ypanel = nullptr;  ///< Q = F·P
  double* tin = nullptr;     ///< preconditioner staging, in
  double* tout = nullptr;    ///< preconditioner staging, out
  double* gram = nullptr;    ///< PᵀFP block
  double* coeff = nullptr;   ///< per-system Gram coefficient columns
  double* out = nullptr;     ///< scalar return block, 2 × nsys

  /// Runs an operation body inline (host) or stream-ordered on the device.
  template <class Body>
  void run(Body body) {
    if (ctx_ == nullptr)
      body();
    else
      stream_.submit(std::move(body));
  }

  /// `count` doubles of backend memory → host memory, stream-ordered: the
  /// values are complete after the next synchronize().
  void fetch(double* dst, const double* src, std::size_t count) {
    if (ctx_ == nullptr)
      std::copy_n(src, count, dst);
    else
      stream_.memcpy_d2h(dst, src, count * sizeof(double));
  }
  /// `count` doubles of backend memory → host memory (D2H + drain).
  void read(double* dst, const double* src, std::size_t count) {
    fetch(dst, src, count);
    synchronize();
  }
  /// `count` doubles of host memory → backend memory (stream-ordered H2D).
  void write(double* dst, const double* src, std::size_t count) {
    if (ctx_ == nullptr)
      std::copy_n(src, count, dst);
    else
      stream_.memcpy_h2d(dst, src, count * sizeof(double));
  }
  void synchronize() {
    if (ctx_ != nullptr) stream_.synchronize();
  }

  /// o[b] = ‖xs[b]‖₂ for every column (o in backend memory).
  void nrm2_into(std::vector<const double*> xs, double* o) {
    run([xs, n = n_, o] {
      for (std::size_t b = 0; b < xs.size(); ++b) o[b] = la::nrm2(n, xs[b]);
    });
  }
  /// o[b] = xs[b]ᵀys[b] for every column (o in backend memory).
  void dot_into(std::vector<const double*> xs, std::vector<const double*> ys,
                double* o) {
    run([xs, ys, n = n_, o] {
      for (std::size_t b = 0; b < xs.size(); ++b)
        o[b] = la::dot(n, xs[b], ys[b]);
    });
  }
  /// ‖xs[b]‖₂ for every column, read back as one scalar block.
  std::vector<double> nrm2_many(std::vector<const double*> xs) {
    const std::size_t count = xs.size();
    nrm2_into(std::move(xs), out);
    return scalars(count);
  }
  /// xs[b]ᵀys[b] for every column, read back as one scalar block.
  std::vector<double> dot_many(std::vector<const double*> xs,
                               std::vector<const double*> ys) {
    const std::size_t count = xs.size();
    dot_into(std::move(xs), std::move(ys), out);
    return scalars(count);
  }
  /// ys[b] += alphas[b] · xs[b].
  void axpy_many(std::vector<double> alphas, std::vector<const double*> xs,
                 std::vector<double*> ys) {
    run([alphas, xs, ys, n = n_] {
      for (std::size_t b = 0; b < xs.size(); ++b)
        la::axpy(n, alphas[b], xs[b], ys[b]);
    });
  }
  /// ps[b] = ys[b] + betas[b] · ps[b] (Algorithm 1, line 14).
  void xpby_many(std::vector<const double*> ys, std::vector<double> betas,
                 std::vector<double*> ps) {
    run([ys, betas, ps, n = n_] {
      for (std::size_t b = 0; b < ys.size(); ++b)
        for (idx i = 0; i < n; ++i) ps[b][i] = ys[b][i] + betas[b] * ps[b][i];
    });
  }
  /// dsts[b] = srcs[b].
  void copy_many(std::vector<const double*> srcs, std::vector<double*> dsts) {
    run([srcs, dsts, n = n_] {
      for (std::size_t b = 0; b < srcs.size(); ++b)
        std::copy_n(srcs[b], n, dsts[b]);
    });
  }
  /// Panel column b (leading dimension n) = srcs[b].
  void pack(std::vector<const double*> srcs, double* panel) {
    run([srcs, panel, n = n_] {
      for (std::size_t b = 0; b < srcs.size(); ++b)
        std::copy_n(srcs[b], n, panel + b * static_cast<std::size_t>(n));
    });
  }

  /// Y = F X over `width` contiguous columns.
  void apply(DualOperator& f, const double* x, double* y, idx width) {
    if (ctx_ == nullptr)
      f.apply(x, y, width);
    else
      f.apply_device(x, y, width);
  }
  /// Y = M⁻¹ X over `width` contiguous columns.
  void apply(precond::Preconditioner& m, const double* x, double* y,
             idx width) {
    if (ctx_ == nullptr) {
      m.apply(x, y, width);
      return;
    }
    // A preconditioner on a different execution context than the operator
    // submits on streams with no ordering against the main queue — drain
    // it first so the preconditioner reads complete inputs. Same-context
    // preconditioners share the in-order main queue and need no fence.
    if (m.device_context() != ctx_) stream_.synchronize();
    m.apply_device(x, y, width);
  }
  /// ys[b] = P xs[b].
  void project(const Projector& projector,
               const std::vector<const double*>& xs,
               const std::vector<double*>& ys) {
    if (ctx_ != nullptr) {
      projector.apply_device(ctx_->device(), stream_, xs, ys);
      return;
    }
    for (std::size_t b = 0; b < xs.size(); ++b) projector.apply(xs[b], ys[b]);
  }
  /// ys[b] ← (I − U (UᵀFU)⁻¹ (FU)ᵀ) ys[b] for the recycled panel U.
  void project_out(const KrylovRecycler& recycler,
                   const std::vector<double*>& ys) {
    if (ctx_ != nullptr) {
      recycler.project_out_device(ctx_->device(), stream_, ys);
      return;
    }
    for (double* yb : ys) recycler.project_out(yb, 1);
  }

 private:
  static std::size_t slab_size(idx n, std::size_t nsys) {
    return static_cast<std::size_t>(n) * 9 * nsys + 2 * nsys * nsys +
           2 * nsys;
  }
  void bind(double* base, std::size_t nsys) {
    base_ = base;
    const std::size_t vn = static_cast<std::size_t>(n_);
    double* next = base;
    for (std::vector<double*>* v : {&lambda, &r, &w, &y, &p})
      for (std::size_t j = 0; j < nsys; ++j, next += vn) v->push_back(next);
    for (double** panel : {&xpanel, &ypanel, &tin, &tout}) {
      *panel = next;
      next += vn * nsys;
    }
    gram = next;
    coeff = gram + nsys * nsys;
    out = coeff + nsys * nsys;
  }
  std::vector<double> scalars(std::size_t count) {
    std::vector<double> host(count);
    read(host.data(), out, count);
    return host;
  }

  idx n_;
  gpu::ExecutionContext* ctx_ = nullptr;  ///< null = host backend
  gpu::Stream stream_;
  std::vector<double> host_;
  double* base_ = nullptr;
};

/// One PCPG solve (Algorithm 1) of several dual systems over a backend.
/// Setup and finalization run on the host; the iteration runs on the loop
/// backend — the host state itself, or a device copy uploaded once after
/// setup and downloaded per system at finalization. Lockstep and block are
/// two step functions of the same loop: a width-1 block panel solves its
/// Gram system where lockstep divides by pᵀq, a different rounding path.
class Engine {
 public:
  Engine(DualOperator& f, const Projector& projector,
         precond::Preconditioner* m, KrylovRecycler* recycler,
         const PcpgOptions& options, const std::vector<double>* const* d,
         std::size_t nsys)
      : f_(f), projector_(projector), m_(m), recycler_(recycler),
        options_(options), d_(d), n_(f.problem().num_lambdas),
        sys_(nsys), results_(nsys) {}

  /// Runs the solve with the loop state on `ctx`'s device, or on the host
  /// when `ctx` is null.
  std::vector<PcpgResult> solve(gpu::ExecutionContext* ctx) {
    // The device state is allocated first, so an out-of-memory fallback
    // happens before any operator application is spent.
    std::optional<Backend> device;
    if (ctx != nullptr) device.emplace(n_, sys_.size(), *ctx);
    Backend host(n_, sys_.size());
    host_ = loop_ = &host;
    const std::vector<std::size_t> pending = setup();
    if (device) {
      for (std::size_t j : pending) {
        device->write(device->lambda[j], host.lambda[j], vec());
        device->write(device->r[j], host.r[j], vec());
        device->write(device->w[j], host.w[j], vec());
        device->write(device->y[j], host.y[j], vec());
        device->write(device->p[j], host.p[j], vec());
      }
      device->synchronize();
      loop_ = &*device;
    }
    for (std::vector<std::size_t> batch = scan(); !batch.empty();
         batch = scan()) {
      // Line 7 for the still-active systems: Q = F P through one batched
      // apply. A width-1 panel (single-system solve, or the tail of a
      // draining batch) aliases the system's own search direction.
      Backend& be = *loop_;
      const idx width = static_cast<idx>(batch.size());
      const double* panel = be.p[batch.front()];
      if (width > 1) {
        be.pack(pick(be.p, batch), be.xpanel);
        panel = be.xpanel;
      }
      be.apply(f_, panel, be.ypanel, width);
      if (options_.block.enabled)
        block_step(batch, panel);
      else
        lockstep_step(batch);
    }
    return std::move(results_);
  }

 private:
  struct System {
    double w0_norm = 0.0;
    double wy = 0.0;  ///< wᵀy of the lockstep recurrence
    double rel = 1.0;
    int iterations = 0;
    int deflation_dim = 0;
    bool active = true;
  };

  [[nodiscard]] std::size_t vec() const { return static_cast<std::size_t>(n_); }

  /// The vectors of systems `js`, read-only unless T = double.
  template <class T = const double>
  static std::vector<T*> pick(const std::vector<double*>& v,
                              const std::vector<std::size_t>& js) {
    std::vector<T*> out;
    for (std::size_t j : js) out.push_back(v[j]);
    return out;
  }

  /// Lines 1-5 on the host state: λ₀, the projected residual, the zero-RHS
  /// floor, the Galerkin warm start from a recycled space, and the first
  /// search direction. Returns the systems still to iterate.
  std::vector<std::size_t> setup() {
    Backend& h = *host_;
    // λ₀ and F λ₀ depend on the problem only — computed once, shared.
    lambda0_.resize(vec());
    projector_.initial_lambda(lambda0_.data());
    q0_.resize(vec());
    f_.apply(lambda0_.data(), q0_.data());

    std::vector<std::size_t> pending;
    for (std::size_t j = 0; j < sys_.size(); ++j) {
      System& s = sys_[j];
      const std::vector<double>& dj = *d_[j];
      std::copy_n(lambda0_.data(), n_, h.lambda[j]);
      for (idx i = 0; i < n_; ++i) h.r[j][i] = dj[i] - q0_[i];
      projector_.apply(h.r[j], h.w[j]);
      // w₀ is measured before the deflation correction, so a warm start is
      // judged against the same baseline a cold solve would be — that is
      // what lets a recycled step finish in (near) zero iterations.
      s.w0_norm = la::nrm2(n_, h.w[j]);
      if (s.w0_norm <= w0_floor(n_, la::nrm2(n_, dj.data()))) {
        s.rel = 0.0;
        finalize(j, /*converged=*/true);
        continue;
      }
      if (recycler_ != nullptr && recycler_->dim() > 0) {
        s.deflation_dim = static_cast<int>(
            recycler_->deflate_initial(h.lambda[j], h.r[j]));
        projector_.apply(h.r[j], h.w[j]);
      }
      pending.push_back(j);
    }
    precondition(pending);
    h.copy_many(pick(h.y, pending), pick<double>(h.p, pending));
    if (!options_.block.enabled) {
      const std::vector<double> wy =
          h.dot_many(pick(h.w, pending), pick(h.y, pending));
      for (std::size_t b = 0; b < pending.size(); ++b)
        sys_[pending[b]].wy = wy[b];
    }
    return pending;
  }

  /// The convergence test of every active system on one scalar block;
  /// finalizes converged and exhausted systems, returns the rest.
  std::vector<std::size_t> scan() {
    Backend& be = *loop_;
    std::vector<std::size_t> active, batch;
    for (std::size_t j = 0; j < sys_.size(); ++j)
      if (sys_[j].active) active.push_back(j);
    if (active.empty()) return batch;
    // The previous step fetched these norms with its last scalar read when
    // its systems are still the active set; otherwise read them now.
    const std::vector<double> norms = norm_systems_ == active
                                          ? std::move(next_norms_)
                                          : be.nrm2_many(pick(be.w, active));
    norm_systems_.clear();
    for (std::size_t b = 0; b < active.size(); ++b) {
      const std::size_t j = active[b];
      System& s = sys_[j];
      s.rel = norms[b] / s.w0_norm;
      if (s.rel <= options_.rel_tolerance)
        finalize(j, /*converged=*/true);
      else if (s.iterations >= options_.max_iterations)
        finalize(j, /*converged=*/false);
      else
        batch.push_back(j);
    }
    return batch;
  }

  /// Lines 8-14 per system: every system steps along its own direction
  /// with its own scalars; Q(:,b) = F p of batch[b].
  void lockstep_step(const std::vector<std::size_t>& batch) {
    Backend& be = *loop_;
    const std::vector<double> pq = be.dot_many(
        pick(be.p, batch), panel_columns(be.ypanel, batch.size()));
    std::vector<std::size_t> pending;
    std::vector<double> deltas;
    std::vector<const double*> qs;
    for (std::size_t b = 0; b < batch.size(); ++b) {
      const std::size_t j = batch[b];
      System& s = sys_[j];
      if (pq[b] <= 0.0) {
        // Breakdown. One ill-conditioned system must not discard the
        // others' results, and its reported state must be consistent:
        // λ/r/w are untouched by the failed step, so the scan's rel (and
        // the α finalize() derives from r) describe exactly that state; the
        // F apply this iteration spent is counted though it was discarded.
        ++s.iterations;
        finalize(j, /*converged=*/false, /*breakdown=*/true);
        continue;
      }
      deltas.push_back(s.wy / pq[b]);                            // line 8
      qs.push_back(be.ypanel + b * vec());
      pending.push_back(j);
    }
    if (pending.empty()) return;
    be.axpy_many(deltas, pick(be.p, pending),
                 pick<double>(be.lambda, pending));                // line 9
    for (double& delta : deltas) delta = -delta;
    be.axpy_many(deltas, qs, pick<double>(be.r, pending));         // line 10
    be.project(projector_, pick(be.r, pending),
               pick<double>(be.w, pending));                       // line 11
    precondition(pending);                                        // line 12
    const std::size_t k = pending.size();
    std::vector<double> wy(k);
    be.dot_into(pick(be.w, pending), pick(be.y, pending), be.out);
    be.fetch(wy.data(), be.out, k);
    fetch_norms(pending, be.out + k);
    be.synchronize();
    std::vector<double> betas;
    for (std::size_t b = 0; b < pending.size(); ++b) {
      System& s = sys_[pending[b]];
      betas.push_back(wy[b] / s.wy);                              // line 13
      s.wy = wy[b];
      ++s.iterations;
    }
    be.xpby_many(pick(be.y, pending), betas,
                 pick<double>(be.p, pending));                     // line 14
  }

  /// The shared-panel step: every system advances through the union of the
  /// block's search directions, with its step and conjugation coefficients
  /// from the rank-revealing PᵀFP Gram solve.
  void block_step(const std::vector<std::size_t>& batch, const double* panel) {
    Backend& be = *loop_;
    const idx n = n_;
    const idx width = static_cast<idx>(batch.size());
    const std::size_t cw = batch.size();
    const double* q = be.ypanel;
    double* c = be.coeff;

    // Gram system PᵀFP with rank-revealing pivoting: a nearly dependent
    // column is deflated (zero coefficient) instead of breaking the solve.
    la::DenseMatrix gram_mat(width, width, la::Layout::ColMajor);
    be.run([panel, q, g = be.gram, n, width] {
      la::gemm(1.0, la::ConstDenseView(panel, n, width, n, la::Layout::ColMajor),
               la::Trans::Yes,
               la::ConstDenseView(q, n, width, n, la::Layout::ColMajor),
               la::Trans::No, 0.0,
               la::DenseView{g, width, width, width, la::Layout::ColMajor});
    });
    // Pᵀw (= Pᵀr for projected panels) rides the Gram block's round trip.
    const std::vector<const double*> ws = pick(be.w, batch);
    fetch_coefficients(panel, ws);
    be.fetch(gram_mat.data(), be.gram, cw * cw);
    be.synchronize();
    gram_.factor(gram_mat, options_.block.pivot_rel_tolerance);
    if (gram_.rank() == 0) {
      // The whole panel lost positive definiteness — nothing can advance.
      // Same consistent-final-state contract as the lockstep breakdown.
      for (std::size_t j : batch) {
        ++sys_[j].iterations;
        finalize(j, /*converged=*/false, /*breakdown=*/true);
      }
      return;
    }

    // Step: α = Gram⁻¹ Pᵀw, λ += P α, r −= Q α.
    const std::vector<double*> lams = pick<double>(be.lambda, batch);
    const std::vector<double*> rs = pick<double>(be.r, batch);
    solve_coefficients(cw, /*negate=*/false);
    be.run([panel, q, c, n, width, cw, lams, rs] {
      const la::ConstDenseView pv(panel, n, width, n, la::Layout::ColMajor);
      const la::ConstDenseView qv(q, n, width, n, la::Layout::ColMajor);
      for (std::size_t b = 0; b < lams.size(); ++b) {
        la::gemv(1.0, pv, la::Trans::No, c + b * cw, 1.0, lams[b]);
        la::gemv(-1.0, qv, la::Trans::No, c + b * cw, 1.0, rs[b]);
      }
    });
    be.project(projector_, pick(be.r, batch), pick<double>(be.w, batch));
    for (std::size_t j : batch) ++sys_[j].iterations;

    // Next panel: Y = deflated-preconditioned residuals, conjugated
    // against the current panel via β = −Gram⁻¹ QᵀY.
    precondition(batch);
    fetch_coefficients(q, pick(be.y, batch));
    fetch_norms(batch, be.out);
    be.synchronize();
    solve_coefficients(cw, /*negate=*/true);
    if (width == 1) {
      // The panel aliases p here: conjugate in place on y, then swap the
      // buffers so p becomes the new direction without ever overwriting
      // the aliased panel.
      const std::size_t j = batch.front();
      be.run([panel, c, n, yj = be.y[j]] {
        la::gemv(1.0, la::ConstDenseView(panel, n, 1, n, la::Layout::ColMajor),
                 la::Trans::No, c, 1.0, yj);
      });
      std::swap(be.p[j], be.y[j]);
    } else {
      be.run([panel, c, n, width, cw, ys = pick(be.y, batch),
              ps = pick<double>(be.p, batch)] {
        const la::ConstDenseView pv(panel, n, width, n, la::Layout::ColMajor);
        for (std::size_t b = 0; b < ps.size(); ++b) {
          std::copy_n(ys[b], n, ps[b]);
          la::gemv(1.0, pv, la::Trans::No, c + b * cw, 1.0, ps[b]);
        }
      });
    }
  }

  /// coeff(:,b) = Vᵀ xs[b] for the width-column panel V in one fused gemv
  /// sweep, fetched for solve_coefficients() after the caller's
  /// synchronize().
  void fetch_coefficients(const double* v, std::vector<const double*> xs) {
    Backend& be = *loop_;
    const idx width = static_cast<idx>(xs.size());
    const std::size_t cw = xs.size();
    be.run([v, xs, c = be.coeff, n = n_, width, cw] {
      const la::ConstDenseView vv(v, n, width, n, la::Layout::ColMajor);
      for (std::size_t b = 0; b < xs.size(); ++b)
        la::gemv(1.0, vv, la::Trans::Yes, xs[b], 0.0, c + b * cw);
    });
    coeff_host_.resize(cw * cw);
    be.fetch(coeff_host_.data(), be.coeff, coeff_host_.size());
  }
  /// coeff(:,b) = ±Gram⁻¹ coeff(:,b): the host-side Gram solves on the
  /// fetched block, uploaded back.
  void solve_coefficients(std::size_t cw, bool negate) {
    Backend& be = *loop_;
    for (std::size_t b = 0; b < cw; ++b) {
      gram_.solve(coeff_host_.data() + b * cw);
      if (negate)
        la::scal(static_cast<idx>(cw), -1.0, coeff_host_.data() + b * cw);
    }
    be.write(be.coeff, coeff_host_.data(), coeff_host_.size());
  }

  /// ‖w‖ of the systems `js` into backend memory `at`, fetched with the
  /// step's last scalar read: the next scan() takes them from there instead
  /// of a round trip of its own (the same nrm2 body on the same w).
  void fetch_norms(const std::vector<std::size_t>& js, double* at) {
    Backend& be = *loop_;
    be.nrm2_into(pick(be.w, js), at);
    next_norms_.resize(js.size());
    be.fetch(next_norms_.data(), at, js.size());
    norm_systems_ = js;
  }

  /// Line 12 for a set of systems at once: y = P M⁻¹ w through one batched
  /// M⁻¹ application (a single system skips the pack), then — with a
  /// recycled panel attached — the F-orthogonal deflation projection that
  /// keeps every new direction out of the recycled space. Without a
  /// preconditioner y = w (w is already projected).
  void precondition(const std::vector<std::size_t>& js) {
    if (js.empty()) return;
    Backend& be = *loop_;
    const std::vector<const double*> ws = pick(be.w, js);
    const std::vector<double*> ys = pick<double>(be.y, js);
    if (m_ == nullptr) {
      be.copy_many(ws, ys);
    } else {
      const double* src = ws.front();
      if (js.size() > 1) {
        be.pack(ws, be.tin);
        src = be.tin;
      }
      be.apply(*m_, src, be.tout, static_cast<idx>(js.size()));
      be.project(projector_, panel_columns(be.tout, js.size()), ys);
    }
    if (recycler_ != nullptr && recycler_->dim() > 0)
      be.project_out(*recycler_, ys);
  }

  [[nodiscard]] std::vector<const double*> panel_columns(
      const double* panel, std::size_t count) const {
    std::vector<const double*> out;
    for (std::size_t b = 0; b < count; ++b) out.push_back(panel + b * vec());
    return out;
  }

  /// Reports system j from its host state (downloaded once from a device
  /// loop) and, for a converged iterating solve with recycling on, offers
  /// its step increment to the recycler.
  void finalize(std::size_t j, bool converged, bool breakdown = false) {
    Backend& h = *host_;
    if (loop_ != host_) {
      loop_->read(h.lambda[j], loop_->lambda[j], vec());
      loop_->read(h.r[j], loop_->r[j], vec());
    }
    System& s = sys_[j];
    if (converged && recycler_ != nullptr && s.iterations > 0) {
      // Harvest the converged step increment λ − λ₀ for the next step's
      // deflation space; its operator product F(λ − λ₀) = (d − r) − Fλ₀
      // falls out of the maintained residual — no extra apply. Recycling
      // the increment (rather than the raw search directions) matters
      // numerically: reconstructing it direction-by-direction from Uᵀr₀
      // bottoms out at the cold solve's residual-orthogonality loss
      // (~1e-5·‖r₀‖ here), while the increment is a single well-scaled
      // column whose Galerkin coefficient is O(1).
      std::vector<double> inc(vec()), finc(vec());
      const std::vector<double>& dj = *d_[j];
      for (idx i = 0; i < n_; ++i) {
        inc[i] = h.lambda[j][i] - lambda0_[i];
        finc[i] = dj[i] - h.r[j][i] - q0_[i];
      }
      recycler_->absorb(inc.data(), finc.data());
    }
    PcpgResult& res = results_[j];
    res.iterations = s.iterations;
    res.rel_residual = s.rel;
    res.converged = converged;
    res.breakdown = breakdown;
    res.deflation_dim = s.deflation_dim;
    res.alpha = projector_.alpha(h.r[j]);
    res.lambda.assign(h.lambda[j], h.lambda[j] + n_);
    s.active = false;
  }

  DualOperator& f_;
  const Projector& projector_;
  precond::Preconditioner* m_;
  KrylovRecycler* recycler_;  ///< null unless block recycling is on
  const PcpgOptions& options_;
  const std::vector<double>* const* d_;
  idx n_;
  std::vector<System> sys_;
  std::vector<PcpgResult> results_;
  std::vector<double> lambda0_, q0_;  ///< λ₀ and F λ₀, shared
  GramSolver gram_;
  /// Host side of the coefficient round trip; outlives the (stream-ordered)
  /// upload. The next fetch into it is ordered after that upload on the
  /// stream, and the host rewrites it only after a synchronize().
  std::vector<double> coeff_host_;
  /// ‖w‖ of `norm_systems_`, fetched by the last step for the next scan.
  std::vector<double> next_norms_;
  std::vector<std::size_t> norm_systems_;
  Backend* host_ = nullptr;  ///< setup and finalization state
  Backend* loop_ = nullptr;  ///< iteration state (host_ or a device copy)
};

}  // namespace

void check_breakdown(bool breakdown) {
  check(!breakdown, "Pcpg: operator lost positive definiteness");
}

Pcpg::Pcpg(DualOperator& f, const Projector& projector, PcpgOptions options,
           precond::Preconditioner* m)
    : f_(f), projector_(projector), options_(std::move(options)), m_(m) {
  const std::string key = precond::normalize_key(options_.preconditioner);
  if (m_ == nullptr && key != "none") {
    // Self-managed fallback for callers that only set the key: a CPU
    // instance, prepared and value-updated here. Lifecycle-aware callers
    // (FetiSolver, the service layer) pass their pooled instance instead —
    // the only route for GPU keys, since Pcpg holds no execution context.
    auto& registry = precond::PreconditionerRegistry::instance();
    check(!registry.uses_gpu(key),
          "Pcpg: GPU preconditioner '" + key +
              "' requires a caller-supplied prepared instance");
    owned_m_ = registry.create(key, f_.problem());
    owned_m_->prepare();
    owned_m_->update_values();
    m_ = owned_m_.get();
  }
}

Pcpg::~Pcpg() = default;

PcpgResult Pcpg::solve(const std::vector<double>& d) {
  const std::vector<double>* dp = &d;
  PcpgResult result = std::move(run(&dp, 1).front());
  check_breakdown(result.breakdown);
  return result;
}

std::vector<PcpgResult> Pcpg::solve_many(
    const std::vector<std::vector<double>>& d) {
  std::vector<const std::vector<double>*> ptrs;
  ptrs.reserve(d.size());
  for (const auto& di : d) ptrs.push_back(&di);
  return solve_many_ptrs(ptrs);
}

std::vector<PcpgResult> Pcpg::solve_many_ptrs(
    const std::vector<const std::vector<double>*>& d) {
  return run(d.data(), d.size());
}

bool Pcpg::device_eligible() {
  using DS = PcpgOptions::DeviceState;
  if (options_.device_state == DS::Off) return false;
  const bool f_ok = f_.device_context() != nullptr;
  const bool m_ok = m_ == nullptr || m_->device_context() != nullptr;
  if (options_.device_state == DS::On) {
    check(f_ok, "Pcpg: device_state=on but the dual operator has no device "
                "context (host-only operator key)");
    check(m_ok, "Pcpg: device_state=on but the preconditioner has no device "
                "context (use a 'gpu' preconditioner key)");
  }
  return f_ok && m_ok;
}

std::vector<PcpgResult> Pcpg::run(const std::vector<double>* const* d,
                                  std::size_t nsys) {
  for (std::size_t j = 0; j < nsys; ++j)
    check(d[j]->size() == static_cast<std::size_t>(f_.problem().num_lambdas),
          "Pcpg: rhs size mismatch");
  if (nsys == 0) return {};
  KrylovRecycler* recycler =
      options_.block.enabled && options_.block.recycle ? recycler_ : nullptr;
  if (device_eligible()) {
    try {
      return Engine(f_, projector_, m_, recycler, options_, d, nsys)
          .solve(f_.device_context());
    } catch (const std::bad_alloc&) {
      // Device memory exhausted. Auto degrades to the host backend (a
      // re-run from scratch is safe: the device solve only mutates device
      // state plus the recycler, and a duplicate absorb of the same
      // increment is dropped by its F-orthogonalization floor).
      if (options_.device_state == PcpgOptions::DeviceState::On) throw;
    }
  }
  return Engine(f_, projector_, m_, recycler, options_, d, nsys)
      .solve(nullptr);
}

}  // namespace feti::core
