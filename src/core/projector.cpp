#include "core/projector.hpp"

#include <cmath>

#include "core/krylov_recycler.hpp"
#include "gpu/blas.hpp"
#include "gpu/kernels.hpp"
#include "gpu/runtime.hpp"
#include "la/blas_dense.hpp"
#include "la/blas_sparse.hpp"

namespace feti::core {

Projector::Projector(const decomp::FetiProblem& p) : p_(p) {
  const idx nl = p.num_lambdas;
  const idx rt = p.total_kernel_dim();
  g_ = la::DenseMatrix(nl, rt, la::Layout::ColMajor);

  idx off = 0;
  for (const auto& fs : p.sub) {
    const idx r = fs.kernel_dim();
    std::vector<double> brj(static_cast<std::size_t>(fs.num_local_lambdas()));
    for (idx j = 0; j < r; ++j) {
      const double* rcol = fs.r.data() + static_cast<widx>(j) * fs.ndof();
      la::spmv(1.0, fs.b, rcol, 0.0, brj.data());
      double* gcol = g_.data() + static_cast<widx>(off + j) * nl;
      for (std::size_t i = 0; i < fs.lm_l2c.size(); ++i)
        gcol[fs.lm_l2c[i]] += brj[i];
    }
    off += r;
  }

  gtg_ = la::DenseMatrix(rt, rt, la::Layout::ColMajor);
  la::gemm(1.0, g_.cview(), la::Trans::Yes, g_.cview(), la::Trans::No, 0.0,
           gtg_.view());
  check(la::potrf_lower(gtg_.view()),
        "Projector: G^T G is singular — check subdomain kernels");
}

Projector::~Projector() {
  if (dev_ == nullptr) return;
  dev_->synchronize();
  dev_->free(g_dev_);
  if (s_dev_ != nullptr) dev_->free(s_dev_);
}

void Projector::coarse_solve(la::ConstDenseView l, double* s) {
  la::trsv(la::Uplo::Lower, la::Trans::No, l, s);
  la::trsv(la::Uplo::Lower, la::Trans::Yes, l, s);
}

void Projector::ensure_device(gpu::Device& dev, gpu::Stream& s,
                              std::size_t cols) const {
  check(dev_ == nullptr || dev_ == &dev,
        "Projector: device mirror already bound to another device");
  const std::size_t rt = static_cast<std::size_t>(g_.cols());
  if (dev_ == nullptr) {
    // G and the factor share one allocation: l_dev_ = g_dev_ + |G|.
    g_dev_ = dev.alloc_n<double>(g_.size() + gtg_.size());
    l_dev_ = g_dev_ + g_.size();
    dev_ = &dev;
    s.memcpy_h2d(g_dev_, g_.data(), g_.size() * sizeof(double));
    s.memcpy_h2d(l_dev_, gtg_.data(), gtg_.size() * sizeof(double));
  }
  if (s_cap_ < cols) {
    if (s_dev_ != nullptr) {
      dev.synchronize();
      dev.free(s_dev_);
      s_dev_ = nullptr;
      s_cap_ = 0;
    }
    s_dev_ = dev.alloc_n<double>(rt * cols);
    s_cap_ = cols;
  }
}

void Projector::apply_device(gpu::Device& dev, gpu::Stream& s,
                             const std::vector<const double*>& xs,
                             const std::vector<double*>& ys) const {
  check(xs.size() == ys.size(), "Projector: apply_device size mismatch");
  if (xs.empty()) return;
  const idx nl = p_.num_lambdas;
  const idx rt = g_.cols();
  ensure_device(dev, s, xs.size());
  const gpu::DeviceDense g{g_dev_, nl, rt, nl, la::Layout::ColMajor};
  const gpu::DeviceDense l{l_dev_, rt, rt, rt, la::Layout::ColMajor};

  // One fused submission per call: the coarse blocks sᵦ = (GᵀG)⁻¹ Gᵀ xᵦ of
  // every column first, then the rank-rt updates yᵦ = xᵦ − G sᵦ — the same
  // la:: calls per column as the host apply.
  double* s_dev = s_dev_;
  s.submit([g, l, s_dev, nl, rt, xs, ys] {
    for (std::size_t b = 0; b < xs.size(); ++b) {
      double* sb = s_dev + b * static_cast<std::size_t>(rt);
      la::gemv(1.0, g.cview(), la::Trans::Yes, xs[b], 0.0, sb);
      coarse_solve(l.cview(), sb);
    }
    for (std::size_t b = 0; b < ys.size(); ++b) {
      std::copy_n(xs[b], nl, ys[b]);
      la::gemv(-1.0, g.cview(), la::Trans::No,
               s_dev + b * static_cast<std::size_t>(rt), 1.0, ys[b]);
    }
  });
}

void Projector::apply(const double* x, double* y) const {
  const idx nl = p_.num_lambdas;
  std::vector<double> s(static_cast<std::size_t>(g_.cols()));
  la::gemv(1.0, g_.cview(), la::Trans::Yes, x, 0.0, s.data());
  coarse_solve(gtg_.cview(), s.data());
  std::copy_n(x, nl, y);
  la::gemv(-1.0, g_.cview(), la::Trans::No, s.data(), 1.0, y);
}

void Projector::apply_deflated(const double* x, double* y,
                               const KrylovRecycler& recycler) const {
  apply(x, y);
  if (recycler.dim() == 0) return;
  check(recycler.n() == p_.num_lambdas,
        "Projector: deflation panel dimension mismatch");
  recycler.project_out(y, 1);
}

std::vector<double> Projector::compute_e() const {
  std::vector<double> e(static_cast<std::size_t>(g_.cols()), 0.0);
  idx off = 0;
  for (const auto& fs : p_.sub) {
    for (idx j = 0; j < fs.kernel_dim(); ++j) {
      const double* rcol = fs.r.data() + static_cast<widx>(j) * fs.ndof();
      e[off + j] = la::dot(fs.ndof(), rcol, fs.sys.f.data());
    }
    off += fs.kernel_dim();
  }
  return e;
}

void Projector::initial_lambda(double* lambda0) const {
  std::vector<double> s = compute_e();
  coarse_solve(gtg_.cview(), s.data());
  std::fill_n(lambda0, p_.num_lambdas, 0.0);
  la::gemv(1.0, g_.cview(), la::Trans::No, s.data(), 1.0, lambda0);
}

std::vector<double> Projector::alpha(const double* r) const {
  std::vector<double> s(static_cast<std::size_t>(g_.cols()));
  la::gemv(-1.0, g_.cview(), la::Trans::Yes, r, 0.0, s.data());
  coarse_solve(gtg_.cview(), s.data());
  return s;
}

double Projector::gt_norm(const double* x) const {
  std::vector<double> s(static_cast<std::size_t>(g_.cols()));
  la::gemv(1.0, g_.cview(), la::Trans::Yes, x, 0.0, s.data());
  double m = 0.0;
  for (double v : s) m = std::max(m, std::fabs(v));
  return m;
}

}  // namespace feti::core
