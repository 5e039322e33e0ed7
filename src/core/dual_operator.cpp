#include "core/dual_operator.hpp"

#include "core/dualop_registry.hpp"
#include "core/host_dual_vectors.hpp"
#include "la/blas_dense.hpp"
#include "la/blas_sparse.hpp"
#include "util/parallel.hpp"

namespace feti::core {

void DualOperator::apply(const double* x, double* y) {
  ScopedTimer t(timings_, "apply");
  apply_one(x, y);
}

void DualOperator::apply(const double* x, double* y, idx nrhs) {
  check(nrhs >= 0, "DualOperator::apply: negative nrhs");
  if (nrhs == 0) return;
  ScopedTimer t(timings_, "apply");
  if (nrhs == 1) {
    apply_one(x, y);
  } else {
    apply_many(x, y, nrhs);
  }
}

void DualOperator::apply_device(const double* d_x, double* d_y, idx nrhs) {
  check(nrhs >= 0, "DualOperator::apply_device: negative nrhs");
  if (nrhs == 0) return;
  ScopedTimer t(timings_, "apply");
  apply_many_device(d_x, d_y, nrhs);
}

void DualOperator::apply_many_device(const double*, double*, idx) {
  check(false, std::string(name()) +
                   ": no device-resident apply (device_context() is null)");
}

void DualOperator::apply_many(const double* x, double* y, idx nrhs) {
  // Fallback: one single-vector application per column. Every built-in
  // implementation overrides this with a real block path; the counter lets
  // tests (and callers) detect an operator that silently degrades a batch
  // into nrhs full passes.
  ++loop_fallbacks_;
  const std::size_t stride = static_cast<std::size_t>(p_.num_lambdas);
  for (idx j = 0; j < nrhs; ++j)
    apply_one(x + static_cast<std::size_t>(j) * stride,
              y + static_cast<std::size_t>(j) * stride);
}

DualOperator::UpdatePlan DualOperator::begin_update() {
  return tracker_.begin(p_, cache_stats_);
}

void DualOperator::end_update(const UpdatePlan& plan) {
  tracker_.end(p_, plan, cache_stats_);
}

void DualOperator::compute_d(double* d) const {
  const idx nsub = p_.num_subdomains();
  std::vector<std::vector<double>> q(static_cast<std::size_t>(nsub));
  parallel_for(nsub, [&](idx s) {
    const auto& fs = p_.sub[s];
    std::vector<double> x(static_cast<std::size_t>(fs.ndof()));
    kplus_solve(s, fs.sys.f.data(), x.data());
    q[s].assign(static_cast<std::size_t>(fs.num_local_lambdas()), 0.0);
    la::spmv(1.0, fs.b, x.data(), 0.0, q[s].data());
  });
  for (idx j = 0; j < p_.num_lambdas; ++j) d[j] = -p_.c[j];
  for (idx s = 0; s < nsub; ++s) {
    const idx m = p_.sub[s].num_local_lambdas();
    HostDualVectors::gather_add(
        p_.sub[s].lm_l2c, {q[s].data(), m, 1, m, la::Layout::ColMajor},
        nullptr, d, static_cast<std::size_t>(p_.num_lambdas));
  }
}

void DualOperator::primal_solution(
    const double* lambda, const std::vector<double>& alpha,
    std::vector<std::vector<double>>& u) const {
  const idx nsub = p_.num_subdomains();
  check(alpha.size() == static_cast<std::size_t>(p_.total_kernel_dim()),
        "primal_solution: alpha size mismatch");
  u.resize(static_cast<std::size_t>(nsub));
  std::vector<idx> alpha_offset(static_cast<std::size_t>(nsub) + 1, 0);
  for (idx s = 0; s < nsub; ++s)
    alpha_offset[s + 1] = alpha_offset[s] + p_.sub[s].kernel_dim();
  parallel_for(nsub, [&](idx s) {
    const auto& fs = p_.sub[s];
    const idx m = fs.num_local_lambdas();
    std::vector<double> lam(static_cast<std::size_t>(m));
    HostDualVectors::scatter(fs.lm_l2c, lambda,
                             static_cast<std::size_t>(p_.num_lambdas),
                             nullptr,
                             {lam.data(), m, 1, m, la::Layout::ColMajor});
    std::vector<double> rhs(fs.sys.f);
    la::spmv_trans(-1.0, fs.b, lam.data(), 1.0, rhs.data());
    u[s].assign(static_cast<std::size_t>(fs.ndof()), 0.0);
    kplus_solve(s, rhs.data(), u[s].data());
    // + Rᵢ αᵢ.
    la::gemv(1.0, fs.r.cview(), la::Trans::No,
             alpha.data() + alpha_offset[s], 1.0, u[s].data());
  });
}

std::unique_ptr<DualOperator> make_dual_operator(
    const decomp::FetiProblem& problem, const DualOpConfig& config,
    gpu::ExecutionContext* context) {
  return DualOperatorRegistry::instance().create(config.key, problem, config,
                                                 context);
}

}  // namespace feti::core
