// The built-in block preconditioners: per-subdomain dual blocks
// M̃ᵢ (lumped / superlumped / dirichlet) assembled on the CPU, applied as
// M⁻¹ x = Σᵢ scatterᵀ D M̃ᵢ D scatter x either host-side (one SYMV/SYMM per
// subdomain) or device-side (one vcuBLAS SYMV/SYMM per subdomain on the
// weighted device apply path the GPU dual operators use). Registration of
// all key-grammar points lives at the bottom.

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/gpu_dual_vectors.hpp"
#include "core/host_dual_vectors.hpp"
#include "decomp/boundary.hpp"
#include "gpu/blas.hpp"
#include "gpu/context.hpp"
#include "gpu/data.hpp"
#include "la/blas_dense.hpp"
#include "la/blas_sparse.hpp"
#include "precond/precond_registry.hpp"
#include "precond/preconditioner.hpp"
#include "sparse/supernodal_cholesky.hpp"
#include "util/parallel.hpp"

namespace feti::precond {

namespace {

// ---------------------------------------------------------------------------
// Identity ("none")
// ---------------------------------------------------------------------------

class IdentityPreconditioner final : public Preconditioner {
 public:
  using Preconditioner::Preconditioner;

  void prepare() override {}
  void update_values() override {
    // Nothing cached, but the lifecycle counters still tick so callers see
    // uniform cache_stats() across every registered key.
    end_update(begin_update());
  }
  [[nodiscard]] const char* key() const override { return "none"; }

 protected:
  void apply_one(const double* x, double* y) override {
    std::copy_n(x, static_cast<std::size_t>(p_.num_lambdas), y);
  }
  void apply_many(const double* x, double* y, idx nrhs) override {
    std::copy_n(x,
                static_cast<std::size_t>(p_.num_lambdas) *
                    static_cast<std::size_t>(nrhs),
                y);
  }
};

// ---------------------------------------------------------------------------
// Block assemblers (shared by the CPU and GPU appliers)
// ---------------------------------------------------------------------------

/// Strategy producing the per-subdomain dual block M̃ᵢ (m × m fp64, full
/// symmetric). prepare() analyzes the fixed pattern once; assemble() must
/// fully overwrite `out` from the problem's *current* K values and must be
/// safe to call concurrently for distinct subdomains.
class BlockAssembler {
 public:
  virtual ~BlockAssembler() = default;
  virtual void prepare(const decomp::FetiProblem& p) = 0;
  virtual void assemble(const decomp::FetiProblem& p, idx s,
                        la::DenseView out) = 0;
};

/// M̃ᵢ = B̃ᵢ Kᵢ B̃ᵢᵀ with the original (singular) subdomain stiffness.
class LumpedAssembler final : public BlockAssembler {
 public:
  void prepare(const decomp::FetiProblem& p) override {
    bt_.resize(p.sub.size());
    for (std::size_t s = 0; s < p.sub.size(); ++s)
      bt_[s] = p.sub[s].b.transposed();
  }

  void assemble(const decomp::FetiProblem& p, idx s,
                la::DenseView out) override {
    la::set_zero(out);
    const auto& fs = p.sub[static_cast<std::size_t>(s)];
    const la::Csr& b = fs.b;
    const la::Csr& k = fs.sys.k;
    const la::Csr& bt = bt_[static_cast<std::size_t>(s)];
    for (idx r = 0; r < b.nrows(); ++r)
      for (idx e1 = b.row_begin(r); e1 < b.row_end(r); ++e1) {
        const idx j = b.col(e1);
        const double v1 = b.val(e1);
        for (idx e2 = k.row_begin(j); e2 < k.row_end(j); ++e2) {
          const double kv = v1 * k.val(e2);
          const idx l = k.col(e2);
          for (idx e3 = bt.row_begin(l); e3 < bt.row_end(l); ++e3)
            out.at(r, bt.col(e3)) += kv * bt.val(e3);
        }
      }
  }

 private:
  std::vector<la::Csr> bt_;  ///< B̃ᵢᵀ, pattern-fixed
};

/// The diagonal-of-K approximation: M̃ᵢ(r,c) = Σⱼ B(r,j) Kⱼⱼ B(c,j).
class SuperlumpedAssembler final : public BlockAssembler {
 public:
  void prepare(const decomp::FetiProblem& p) override {
    bt_.resize(p.sub.size());
    for (std::size_t s = 0; s < p.sub.size(); ++s)
      bt_[s] = p.sub[s].b.transposed();
  }

  void assemble(const decomp::FetiProblem& p, idx s,
                la::DenseView out) override {
    la::set_zero(out);
    const auto& fs = p.sub[static_cast<std::size_t>(s)];
    const la::Csr& b = fs.b;
    const la::Csr& k = fs.sys.k;
    const la::Csr& bt = bt_[static_cast<std::size_t>(s)];
    for (idx r = 0; r < b.nrows(); ++r)
      for (idx e1 = b.row_begin(r); e1 < b.row_end(r); ++e1) {
        const idx j = b.col(e1);
        const double kd = b.val(e1) * k.at(j, j);
        for (idx e3 = bt.row_begin(j); e3 < bt.row_end(j); ++e3)
          out.at(r, bt.col(e3)) += kd * bt.val(e3);
      }
  }

 private:
  std::vector<la::Csr> bt_;
};

/// M̃ᵢ = B_b Sᵢ B_bᵀ with Sᵢ = K_bb − K_bi K_ii⁻¹ K_ib the Schur complement
/// of the subdomain stiffness onto the boundary DOFs (the column support of
/// B̃ᵢ — in Total FETI that includes the Dirichlet-constrained DOFs, which
/// is what keeps K_ii SPD despite K being singular). The K_bi K_ii⁻¹ K_ib
/// term reuses the supernodal augmented-Schur path of the explicit dual
/// operators; patterns and the symbolic analysis are fixed at prepare(),
/// assemble() refreshes values and runs the numeric factorization.
class DirichletAssembler final : public BlockAssembler {
 public:
  void prepare(const decomp::FetiProblem& p) override {
    subs_.resize(p.sub.size());
    for (std::size_t s = 0; s < p.sub.size(); ++s) prepare_sub(p, s);
  }

  void assemble(const decomp::FetiProblem& p, idx s,
                la::DenseView out) override {
    Sub& sub = subs_[static_cast<std::size_t>(s)];
    const auto& fs = p.sub[static_cast<std::size_t>(s)];
    const idx m = fs.num_local_lambdas();
    const idx nb = static_cast<idx>(sub.boundary.size());
    if (m == 0 || nb == 0) {
      la::set_zero(out);
      return;
    }
    refresh(sub.kbb, sub.kbb_map, fs.sys.k);
    la::DenseMatrix sdense(nb, nb, la::Layout::ColMajor);
    sub.kbb.to_dense(sdense.view());
    if (sub.solver) {
      refresh(sub.kii, sub.kii_map, fs.sys.k);
      refresh(sub.kbi, sub.kbi_map, fs.sys.k);
      la::DenseMatrix schur(nb, nb, la::Layout::ColMajor);
      // The augmented partial factorization returns +K_bi K_ii⁻¹ K_ib in
      // the requested triangle.
      sub.solver->factorize_schur(sub.kii, sub.kbi, schur.view(),
                                  la::Uplo::Upper);
      la::symmetrize_from(schur.view(), la::Uplo::Upper);
      for (std::size_t i = 0; i < sdense.size(); ++i)
        sdense.data()[i] -= schur.data()[i];
    }
    // M̃ = B_b S B_bᵀ: T = B_b S (row-major m × nb), then reuse T's storage
    // as the col-major view of Tᵀ = S B_bᵀ for the second sparse multiply.
    la::DenseMatrix t(m, nb, la::Layout::RowMajor);
    la::spmm(1.0, sub.b_b, la::Trans::No, sdense.cview(), 0.0, t.view());
    const la::ConstDenseView t_trans{t.data(), nb, m, t.ld(),
                                     la::Layout::ColMajor};
    la::spmm(1.0, sub.b_b, la::Trans::No, t_trans, 0.0, out);
  }

 private:
  struct Sub {
    std::vector<idx> boundary;  ///< ascending local DOFs in supp(B̃ᵢᵀ)
    la::Csr b_b;                ///< B̃ᵢ restricted to boundary columns
    la::Csr kii, kbi, kbb;      ///< K blocks (patterns fixed)
    std::vector<idx> kii_map, kbi_map, kbb_map;  ///< entry -> K value index
    std::unique_ptr<sparse::SupernodalCholesky> solver;  ///< null if ni == 0
  };

  /// Extracts the (rmap, cmap)-selected block of `k` plus the map from the
  /// block's value slots back into k.vals() (for per-step refreshes).
  /// rmap/cmap hold the local index per selected global DOF, -1 otherwise;
  /// monotone selections keep the column order sorted.
  static void extract_block(const la::Csr& k, const std::vector<idx>& rmap,
                            const std::vector<idx>& cmap, idx nr, idx nc,
                            la::Csr& out, std::vector<idx>& vmap) {
    std::vector<idx> rowptr(static_cast<std::size_t>(nr) + 1, 0);
    std::vector<idx> colidx;
    std::vector<double> vals;
    vmap.clear();
    for (idx r = 0; r < k.nrows(); ++r) {
      if (rmap[static_cast<std::size_t>(r)] < 0) continue;
      const idx lr = rmap[static_cast<std::size_t>(r)];
      for (idx e = k.row_begin(r); e < k.row_end(r); ++e) {
        const idx lc = cmap[static_cast<std::size_t>(k.col(e))];
        if (lc < 0) continue;
        ++rowptr[static_cast<std::size_t>(lr) + 1];
        colidx.push_back(lc);
        vals.push_back(k.val(e));
        vmap.push_back(e);
      }
    }
    for (idx r = 0; r < nr; ++r)
      rowptr[static_cast<std::size_t>(r) + 1] +=
          rowptr[static_cast<std::size_t>(r)];
    out = la::Csr(nr, nc, std::move(rowptr), std::move(colidx),
                  std::move(vals));
  }

  static void refresh(la::Csr& block, const std::vector<idx>& vmap,
                      const la::Csr& k) {
    for (std::size_t t = 0; t < vmap.size(); ++t)
      block.vals()[t] = k.val(vmap[t]);
  }

  void prepare_sub(const decomp::FetiProblem& p, std::size_t s) {
    Sub& sub = subs_[s];
    const auto& fs = p.sub[s];
    const la::Csr& k = fs.sys.k;
    const idx n = fs.ndof();

    // Boundary support of B̃ᵢ — shared with the sparsity-aware explicit
    // dual operators (same ascending boundary-local ordering).
    decomp::BoundaryDofs bd = decomp::boundary_dofs(fs);
    const idx nb = bd.count();
    sub.boundary = std::move(bd.dofs);
    sub.b_b = std::move(bd.b_b);
    const std::vector<idx>& bmap = bd.map;
    std::vector<idx> imap(static_cast<std::size_t>(n), -1);
    idx ni = 0;
    for (idx d = 0; d < n; ++d)
      if (bmap[static_cast<std::size_t>(d)] < 0)
        imap[static_cast<std::size_t>(d)] = ni++;

    extract_block(k, bmap, bmap, nb, nb, sub.kbb, sub.kbb_map);
    if (ni > 0 && nb > 0) {
      extract_block(k, imap, imap, ni, ni, sub.kii, sub.kii_map);
      extract_block(k, bmap, imap, nb, ni, sub.kbi, sub.kbi_map);
      sub.solver = std::make_unique<sparse::SupernodalCholesky>();
      sub.solver->analyze_schur(sub.kii, sub.kbi);
    }
  }

  std::vector<Sub> subs_;
};

std::unique_ptr<BlockAssembler> make_assembler(Kind kind) {
  switch (kind) {
    case Kind::Lumped: return std::make_unique<LumpedAssembler>();
    case Kind::Superlumped: return std::make_unique<SuperlumpedAssembler>();
    case Kind::Dirichlet: return std::make_unique<DirichletAssembler>();
    case Kind::None: break;
  }
  check(false, "make_assembler: kind has no block assembler");
  return nullptr;
}

// ---------------------------------------------------------------------------
// CPU applier
// ---------------------------------------------------------------------------

class CpuBlockPreconditioner final : public Preconditioner {
 public:
  CpuBlockPreconditioner(const decomp::FetiProblem& p, std::string key,
                         Kind kind, Scaling scaling)
      : Preconditioner(p), key_(std::move(key)),
        assembler_(make_assembler(kind)), scaling_(scaling) {}

  void prepare() override {
    ScopedTimer t(timings_, "prepare");
    assembler_->prepare(p_);
    blocks_.resize(p_.sub.size());
    for (std::size_t s = 0; s < blocks_.size(); ++s) {
      const idx m = p_.sub[s].num_local_lambdas();
      blocks_[s] = la::DenseMatrix(m, m, la::Layout::ColMajor);
    }
    vectors_.prepare(p_);
    // Multiplicity weights are pattern-only; stiffness weights track K and
    // are (re)computed inside update_values().
    if (scaling_ == Scaling::Multiplicity)
      vectors_.set_weights(compute_scaling_weights(p_, scaling_));
  }

  void update_values() override {
    ScopedTimer t(timings_, "update_values");
    const UpdatePlan plan = begin_update();
    if (plan.skip()) return;
    parallel_for(static_cast<idx>(plan.dirty.size()), [&](idx k) {
      const idx s = plan.dirty[static_cast<std::size_t>(k)];
      assembler_->assemble(p_, s, blocks_[static_cast<std::size_t>(s)].view());
    });
    // Stiffness weights mix every sharing subdomain's K diagonal, so any
    // refresh invalidates all of them; they are never baked into the
    // cached blocks above.
    if (scaling_ == Scaling::Stiffness)
      vectors_.set_weights(compute_scaling_weights(p_, scaling_));
    end_update(plan);
  }

  [[nodiscard]] const char* key() const override { return key_.c_str(); }

 protected:
  void apply_one(const double* x, double* y) override {
    apply_many(x, y, 1);
  }

  /// One SYMV per subdomain at width 1, one SYMM per subdomain above.
  void apply_many(const double* x, double* y, idx nrhs) override {
    vectors_.apply(x, y, nrhs, [this](idx s, la::DenseView lam,
                                      la::DenseView q) {
      const la::ConstDenseView m = blocks_[static_cast<std::size_t>(s)].cview();
      if (lam.cols == 1)
        la::symv(la::Uplo::Upper, 1.0, m, lam.data, 0.0, q.data);
      else
        la::symm(la::Uplo::Upper, 1.0, m, lam, 0.0, q);
    });
  }

 private:
  std::string key_;
  std::unique_ptr<BlockAssembler> assembler_;
  Scaling scaling_;
  std::vector<la::DenseMatrix> blocks_;
  core::HostDualVectors vectors_;
};

// ---------------------------------------------------------------------------
// GPU applier
// ---------------------------------------------------------------------------

/// Assembles on the CPU (same assemblers as above), keeps the M̃ᵢ blocks and
/// the scaling diagonals resident on the context's device, and serves M⁻¹
/// through the device apply path of the GPU dual operators
/// (core/gpu_dual_vectors.hpp): weighted batched scatter → one SYMV/SYMM
/// per subdomain across the context's worker streams → weighted batched
/// gather, one H2D and one D2H per apply (none for device-resident
/// columns).
class GpuBlockPreconditioner final : public Preconditioner {
 public:
  GpuBlockPreconditioner(const decomp::FetiProblem& p, std::string key,
                         Kind kind, Scaling scaling,
                         gpu::ExecutionContext& ctx)
      : Preconditioner(p), key_(std::move(key)),
        assembler_(make_assembler(kind)), scaling_(scaling), ctx_(ctx),
        dev_(ctx.device()) {}

  ~GpuBlockPreconditioner() override {
    dev_.synchronize();
    for (auto& d : m_dev_) gpu::free_dense(dev_, d);
  }

  void prepare() override {
    ScopedTimer t(timings_, "prepare");
    main_stream_ = ctx_.main_stream();
    streams_ = ctx_.stream_span(kStreams);
    assembler_->prepare(p_);
    const std::size_t nsub = p_.sub.size();
    m_host_.resize(nsub);
    m_dev_.resize(nsub);
    for (std::size_t s = 0; s < nsub; ++s) {
      const idx m = p_.sub[s].num_local_lambdas();
      if (m == 0) continue;
      m_host_[s] = la::DenseMatrix(m, m, la::Layout::ColMajor);
      m_dev_[s] = gpu::alloc_dense(dev_, m, m, la::Layout::ColMajor);
    }
    vectors_.prepare(dev_, main_stream_, p_,
                     /*weighted=*/scaling_ != Scaling::None);
    if (scaling_ == Scaling::Multiplicity) {
      weights_ = compute_scaling_weights(p_, scaling_);
      vectors_.upload_weights(main_stream_, weights_);
    }
    dev_.synchronize();
    ctx_.ensure_workspace();
  }

  void update_values() override {
    ScopedTimer t(timings_, "update_values");
    const UpdatePlan plan = begin_update();
    if (plan.skip()) return;
    parallel_for(static_cast<idx>(plan.dirty.size()), [&](idx k) {
      const idx s = plan.dirty[static_cast<std::size_t>(k)];
      if (p_.sub[static_cast<std::size_t>(s)].num_local_lambdas() == 0)
        return;
      la::DenseMatrix& host = m_host_[static_cast<std::size_t>(s)];
      assembler_->assemble(p_, s, host.view());
      gpu::Stream st = streams_[static_cast<std::size_t>(k) % streams_.size()];
      st.memcpy_h2d(m_dev_[static_cast<std::size_t>(s)].data, host.data(),
                    host.size() * sizeof(double));
    });
    if (scaling_ == Scaling::Stiffness) {
      // Neighbor K values feed these diagonals, so every weight refreshes
      // whenever any subdomain does.
      weights_ = compute_scaling_weights(p_, scaling_);
      vectors_.upload_weights(main_stream_, weights_);
    }
    dev_.synchronize();
    end_update(plan);
  }

  [[nodiscard]] const char* key() const override { return key_.c_str(); }

  [[nodiscard]] gpu::ExecutionContext* device_context() override {
    return &ctx_;
  }

 protected:
  void apply_one(const double* x, double* y) override {
    apply_blocks(x, y, 1, core::ClusterMemory::Host);
  }

  void apply_many(const double* x, double* y, idx nrhs) override {
    apply_blocks(x, y, nrhs, core::ClusterMemory::Host);
  }

  void apply_many_device(const double* d_x, double* d_y, idx nrhs) override {
    apply_blocks(d_x, d_y, nrhs, core::ClusterMemory::Device);
  }

 private:
  static constexpr int kStreams = 4;

  /// One SYMV per subdomain at width 1, one SYMM per subdomain above.
  void apply_blocks(const double* x, double* y, idx nrhs,
                    core::ClusterMemory memory) {
    vectors_.apply_gpu(
        main_stream_, streams_, x, y, nrhs, memory,
        [this](idx s, gpu::Stream& st, gpu::DeviceDense lam,
               gpu::DeviceDense q) {
          if (lam.cols == 1)
            gpu::blas::symv(st, la::Uplo::Upper, 1.0, m_dev_[s], lam.data,
                            0.0, q.data);
          else
            gpu::blas::symm(st, la::Uplo::Upper, 1.0, m_dev_[s], lam, 0.0, q);
        });
  }

  std::string key_;
  std::unique_ptr<BlockAssembler> assembler_;
  Scaling scaling_;
  gpu::ExecutionContext& ctx_;
  gpu::Device& dev_;
  gpu::Stream main_stream_;
  std::vector<gpu::Stream> streams_;
  std::vector<la::DenseMatrix> m_host_;
  std::vector<gpu::DeviceDense> m_dev_;
  std::vector<std::vector<double>> weights_;  ///< host copy of the diagonals
  core::GpuDualVectors vectors_;
};

}  // namespace

// ---------------------------------------------------------------------------
// Registration
// ---------------------------------------------------------------------------

void register_block_preconditioners(PreconditionerRegistry& registry) {
  registry.add(
      {"none", Kind::None, Scaling::None, false,
       "identity — plain projected CG"},
      [](const decomp::FetiProblem& p, gpu::ExecutionContext*) {
        return std::make_unique<IdentityPreconditioner>(p);
      });

  struct KindRow {
    Kind kind;
    const char* summary;
  };
  const KindRow kinds[] = {
      {Kind::Lumped, "M̃ᵢ = B̃ᵢ Kᵢ B̃ᵢᵀ (lumped)"},
      {Kind::Superlumped, "M̃ᵢ from diag(Kᵢ) (superlumped)"},
      {Kind::Dirichlet, "M̃ᵢ = B_b Sᵢ B_bᵀ, boundary Schur (dirichlet)"},
  };
  const Scaling scalings[] = {Scaling::None, Scaling::Multiplicity,
                              Scaling::Stiffness};
  for (const KindRow& row : kinds) {
    for (Scaling scaling : scalings) {
      for (bool gpu : {false, true}) {
        std::string key = to_string(row.kind);
        if (scaling != Scaling::None)
          key += std::string(" ") + to_string(scaling);
        if (gpu) key += " gpu";
        std::string summary = row.summary;
        if (scaling != Scaling::None)
          summary += std::string(", ") + to_string(scaling) + " scaling";
        if (gpu) summary += ", device-side apply";
        const Kind kind = row.kind;
        PreconditionerFactory factory;
        if (gpu) {
          factory = [kind, scaling, key](const decomp::FetiProblem& p,
                                         gpu::ExecutionContext* ctx) {
            check(ctx != nullptr,
                  "preconditioner '" + key +
                      "' requires a GPU execution context");
            return std::unique_ptr<Preconditioner>(
                std::make_unique<GpuBlockPreconditioner>(p, key, kind,
                                                         scaling, *ctx));
          };
        } else {
          factory = [kind, scaling, key](const decomp::FetiProblem& p,
                                         gpu::ExecutionContext*) {
            return std::unique_ptr<Preconditioner>(
                std::make_unique<CpuBlockPreconditioner>(p, key, kind,
                                                         scaling));
          };
        }
        registry.add({key, kind, scaling, gpu, std::move(summary)},
                     std::move(factory));
      }
    }
  }
}

}  // namespace feti::precond
