#include "core/autotune.hpp"

#include <algorithm>
#include <string>

namespace feti::core {

ExplicitGpuOptions recommend_options(gpu::sparse::Api api, int dim,
                                     idx dofs_per_subdomain) {
  ExplicitGpuOptions opt;
  // Table II, row "path": SYRK for both API generations.
  opt.path = Path::Syrk;
  // Scatter/gather: GPU ("better for a wider range of subdomain sizes",
  // Section V-A-e).
  opt.scatter_gather = SgLocation::Gpu;

  if (api == gpu::sparse::Api::Modern) {
    // Modern generic API: the sparse TRSM underperforms, so dense storage
    // always wins; dense factors are kept col-major; the RHS order follows
    // the aspect ratio of B̃ᵀ (2D: narrow -> col-major, 3D: wide ->
    // row-major).
    opt.fwd_storage = FactorStorage::Dense;
    opt.bwd_storage = FactorStorage::Dense;
    opt.fwd_order = la::Layout::ColMajor;
    opt.bwd_order = la::Layout::ColMajor;
    opt.rhs_order = dim == 2 ? la::Layout::ColMajor : la::Layout::RowMajor;
  } else {
    // Legacy API: 2D factors stay very sparse -> sparse storage; 3D factors
    // are denser -> dense below ~12k DOFs, sparse above. Sparse factors are
    // passed row-major (CSC costs extra memory), dense ones col-major. The
    // RHS is row-major (col-major costs a temporary copy of the RHS).
    const bool sparse_factor =
        dim == 2 || dofs_per_subdomain > 12000;
    opt.fwd_storage =
        sparse_factor ? FactorStorage::Sparse : FactorStorage::Dense;
    opt.bwd_storage = opt.fwd_storage;
    opt.fwd_order = sparse_factor ? la::Layout::RowMajor : la::Layout::ColMajor;
    opt.bwd_order = opt.fwd_order;
    opt.rhs_order = la::Layout::RowMajor;
  }
  return opt;
}

ExplicitGpuOptions recommend_options(gpu::sparse::Api api, int dim,
                                     idx dofs_per_subdomain, int nrhs_hint) {
  ExplicitGpuOptions opt = recommend_options(api, dim, dofs_per_subdomain);
  // Batched applications keep more subdomain kernels in flight; give the
  // scheduler one stream per simultaneous RHS up to a modest cap (never
  // fewer than the single-RHS recommendation).
  if (nrhs_hint > 1)
    opt.streams = std::min(std::max(nrhs_hint, opt.streams), 8);
  return opt;
}

namespace {

/// Whether an explicit-family workload should demote F̃ storage to fp32:
/// the fp64 footprint overflows the memory budget (while fp32 fits — when
/// even fp32 overflows, precision cannot save the run and the
/// recommendation stays fp64), or the caller declared the apply phase
/// bandwidth-bound.
bool prefer_f32(const WorkloadHint& w) {
  if (w.bandwidth_bound) return true;
  if (w.memory_budget_bytes == 0 || w.num_subdomains <= 0 ||
      w.lambdas_per_subdomain <= 0)
    return false;
  const std::size_t blocks =
      static_cast<std::size_t>(w.num_subdomains) *
      static_cast<std::size_t>(w.lambdas_per_subdomain) *
      static_cast<std::size_t>(w.lambdas_per_subdomain);
  return blocks * sizeof(double) > w.memory_budget_bytes &&
         blocks * sizeof(float) <= w.memory_budget_bytes;
}

/// Whether an explicit-family workload should switch to the sparsity-aware
/// assembly (" sp" keys): the caller measured the boundary fraction and the
/// subdomains are interior-heavy enough that the nb-column boundary solve
/// panel beats the m-column dense one with room for the extra expansion
/// SpMMs. 0 means unknown and never triggers; a fraction approaching 1
/// (every DOF on the boundary) makes sp pure overhead.
bool prefer_sparsity(const WorkloadHint& w) {
  return w.boundary_fraction > 0.0 && w.boundary_fraction < 0.75;
}

}  // namespace

std::string recommend_preconditioner(const WorkloadHint& workload,
                                     bool gpu) {
  // Thresholds follow the classical FETI guidance: scaled Dirichlet is the
  // robust choice once coefficient jumps reach a couple of orders of
  // magnitude (or the subdomains are strongly stretched), lumped with
  // multiplicity scaling covers mild heterogeneity at a fraction of the
  // setup cost, and uniform well-shaped problems are fastest without any
  // preconditioning at all.
  const double jump = std::max(workload.coefficient_jump, 1.0);
  const double aspect = std::max(workload.aspect_ratio, 1.0);
  std::string key;
  if (jump >= 100.0 || aspect >= 4.0)
    key = "dirichlet stiffness";
  else if (jump >= 10.0 || aspect >= 2.0)
    key = "lumped multiplicity";
  else
    return "none";
  if (gpu) key += " gpu";
  return key;
}

DualOpConfig recommend_config(const ApproachAxes& axes, int dim,
                              idx dofs_per_subdomain, int nrhs_hint,
                              const WorkloadHint& workload) {
  DualOpConfig cfg;
  // Precision choice: only the explicit families carry F̃ storage, and a
  // caller that already pinned F32 on the axes keeps it.
  ApproachAxes chosen = axes;
  if (chosen.repr == Representation::Explicit &&
      chosen.precision == Precision::F64 && prefer_f32(workload))
    chosen.precision = Precision::F32;
  // Sparsity choice: interior-heavy subdomains (small measured boundary
  // fraction) get the boundary-restricted assembly; a caller that already
  // pinned the sp axis keeps it.
  if (chosen.repr == Representation::Explicit && !chosen.sparsity &&
      prefer_sparsity(workload))
    chosen.sparsity = true;
  cfg.select(chosen);
  if (axes.device == ExecDevice::Cpu) return cfg;
  cfg.gpu = recommend_options(axes.api, dim, dofs_per_subdomain, nrhs_hint);
  return cfg;
}

DualOpConfig recommend_config(std::string_view key, int dim,
                              idx dofs_per_subdomain, int nrhs_hint) {
  DualOpConfig cfg =
      recommend_config(parse_axes(key), dim, dofs_per_subdomain, nrhs_hint);
  // The caller picked a concrete implementation; keep it selected.
  cfg.key = std::string(key);
  return cfg;
}

}  // namespace feti::core
