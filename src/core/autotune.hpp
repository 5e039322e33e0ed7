#pragma once

// Auto-configuration of the explicit-assembly parameters — the Table-II
// recommendation logic of the paper ("In our implementation, we have an
// option to auto-configure these parameters based on the problem that is
// being solved").

#include <string>

#include "core/config.hpp"

namespace feti::core {

/// Returns the recommended Table-II parameter set for a given CUDA API
/// generation, problem dimensionality, and subdomain size (DOFs).
ExplicitGpuOptions recommend_options(gpu::sparse::Api api, int dim,
                                     idx dofs_per_subdomain);

/// Batched-workload variant: `nrhs_hint` is the number of simultaneous
/// right-hand sides the application phase is expected to serve (block PCPG
/// / multi-load-case runs). More in-flight RHS favour more streams, up to
/// the per-device sweet spot.
ExplicitGpuOptions recommend_options(gpu::sparse::Api api, int dim,
                                     idx dofs_per_subdomain, int nrhs_hint);

/// Workload characteristics the precision recommendation consumes. All
/// fields are optional hints: zero/false means "unknown", which never
/// triggers a demotion to fp32.
struct WorkloadHint {
  /// Subdomain count and a dual-size estimate (λ per subdomain) — together
  /// they bound the explicit F̃ footprint: nsub × mλ² × sizeof(scalar).
  idx num_subdomains = 0;
  idx lambdas_per_subdomain = 0;
  /// Device memory available for the persistent F̃ blocks (0 = unknown).
  std::size_t memory_budget_bytes = 0;
  /// The caller knows the run is apply-dominated (many PCPG iterations /
  /// time steps streaming F̃ through SYMM): bandwidth is the bottleneck,
  /// so halving the streamed bytes wins even when memory would fit.
  bool bandwidth_bound = false;
  /// Largest material-coefficient contrast in the problem (max/min of the
  /// conductivity or Young's modulus across subdomains; 0 or 1 = uniform).
  /// Jumps degrade unpreconditioned PCPG, so they drive the preconditioner
  /// recommendation towards the scaled Dirichlet variant.
  double coefficient_jump = 0.0;
  /// Largest edge-length ratio of the subdomain bounding boxes (0 or 1 =
  /// isotropic). Strong anisotropy conditions the dual operator like a
  /// coefficient jump does.
  double aspect_ratio = 0.0;
  /// Fraction of subdomain DOFs touched by the gluing constraints
  /// (boundary DOFs / total DOFs, i.e. the column support of B̃ᵢ over
  /// ndof). 0 = unknown, which never triggers the sparsity-aware
  /// assembly; small fractions (interior-heavy subdomains) favour the
  /// " sp" keys, whose solve panel shrinks from the m dual columns to the
  /// nb boundary columns.
  double boundary_fraction = 0.0;
};

/// Recommends a preconditioner registry key for a workload: well-conditioned
/// uniform problems keep "none" (every M⁻¹ application costs a second pass
/// over the subdomain boundaries per iteration), mild heterogeneity pays for
/// the cheap lumped preconditioner, and strong coefficient jumps or
/// anisotropy (the regimes where unpreconditioned PCPG iteration counts
/// blow up) select the stiffness-scaled Dirichlet preconditioner. With
/// `gpu` set, the returned key carries the " gpu" suffix so M⁻¹ is applied
/// device-side next to a GPU dual operator.
std::string recommend_preconditioner(const WorkloadHint& workload,
                                     bool gpu = false);

/// One-stop recommendation for an axis tuple: selects the implementation
/// (DualOpConfig::key) and, for the GPU-backed axes, fills the Table-II
/// assembly parameters for that tuple's sparse API generation. CPU axes
/// keep the defaults (the explicit CPU paths have no Table-I knobs).
///
/// `workload` feeds the precision choice for the explicit families: when
/// the fp64 F̃ footprint would overflow the stated memory budget or the
/// workload is declared bandwidth-bound, the fp32 storage variant (" f32"
/// key) is selected — fp32 halves both the footprint and the bytes
/// streamed per apply. A caller that pinned the precision on `axes` keeps
/// it.
DualOpConfig recommend_config(const ApproachAxes& axes, int dim,
                              idx dofs_per_subdomain, int nrhs_hint = 1,
                              const WorkloadHint& workload = {});

/// Key-based overload: recommends for parse_axes(key) and keeps `key`
/// itself selected, whatever the workload hint would have chosen.
DualOpConfig recommend_config(std::string_view key, int dim,
                              idx dofs_per_subdomain, int nrhs_hint = 1);

}  // namespace feti::core
