#pragma once

// Shared infrastructure for the figure/table reproduction harnesses:
// problem builders with target per-subdomain sizes, timing helpers for the
// preprocessing and application phases, and approach sweeps.
//
// Problem sizes are scaled to this machine (the paper ran on 128-core +
// A100 nodes with up to 2000 subdomains; the harnesses use a 2x2 / 2x2x2
// subdomain grid and sweep per-subdomain DOFs). All harnesses print both a
// human-readable table and CSV, plus a "shape check" verdict comparing the
// measured trend against the paper's qualitative claim.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/autotune.hpp"
#include "core/dualop_registry.hpp"
#include "core/feti_solver.hpp"
#include "gpu/runtime.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace feti::bench {

struct BuiltProblem {
  decomp::FetiProblem problem;
  idx dofs_per_subdomain = 0;
  idx num_subdomains = 0;
};

/// The execution context shared by a harness run: one virtual device
/// configured from the environment (FETI_VGPU_*), its stream pool, and the
/// temporary-pool workspace. Harnesses that need a custom device (e.g.
/// latency sweeps) construct their own gpu::ExecutionContext instead.
inline gpu::ExecutionContext& shared_context() {
  static gpu::ExecutionContext ctx{gpu::DeviceConfig::from_env()};
  return ctx;
}

/// 2D problem with ~target DOFs per subdomain on a 2x2 subdomain grid.
inline BuiltProblem build_2d(fem::Physics physics, idx cells_per_subdomain,
                             mesh::ElementOrder order) {
  const idx c = cells_per_subdomain, splits = 2;
  mesh::Mesh m = mesh::make_grid_2d(c * splits, c * splits, order);
  auto dec = mesh::decompose_2d(m, c * splits, c * splits, splits, splits);
  BuiltProblem bp{decomp::build_feti_problem(dec, physics), 0,
                  static_cast<idx>(dec.subdomains.size())};
  bp.dofs_per_subdomain = bp.problem.max_subdomain_dofs();
  return bp;
}

/// 3D problem with ~target DOFs per subdomain on a 2x2x2 subdomain grid.
inline BuiltProblem build_3d(fem::Physics physics, idx cells_per_subdomain,
                             mesh::ElementOrder order) {
  const idx c = cells_per_subdomain, splits = 2;
  mesh::Mesh m = mesh::make_grid_3d(c * splits, c * splits, c * splits, order);
  auto dec = mesh::decompose_3d(m, c * splits, c * splits, c * splits, splits,
                                splits, splits);
  BuiltProblem bp{decomp::build_feti_problem(dec, physics), 0,
                  static_cast<idx>(dec.subdomains.size())};
  bp.dofs_per_subdomain = bp.problem.max_subdomain_dofs();
  return bp;
}

inline BuiltProblem build_problem(int dim, fem::Physics physics,
                                  idx cells_per_subdomain,
                                  mesh::ElementOrder order) {
  return dim == 2 ? build_2d(physics, cells_per_subdomain, order)
                  : build_3d(physics, cells_per_subdomain, order);
}

/// Measured per-subdomain times of one dual-operator configuration.
struct DualOpTiming {
  double preprocess_ms = 0.0;  ///< per subdomain
  double apply_ms = 0.0;       ///< per subdomain, per application
  /// Persistent operator state streamed by one apply (the F̃ blocks;
  /// DualOperator::apply_bytes), 0 when the operator cannot report it.
  std::size_t apply_bytes = 0;
  /// Achieved apply bandwidth, apply_bytes / measured apply time — the
  /// first-class metric for bandwidth-bound comparisons (fp32 vs fp64
  /// storage); 0 when apply_bytes is unknown.
  double apply_gbps = 0.0;
  /// PCIe traffic of one application (gpu::TransferCounters delta around a
  /// post-warm-up apply): the dual-vector staging cost a host-resident
  /// solver loop pays per iteration and the device-resident loop avoids.
  /// 0 for host-only operators.
  std::uint64_t apply_h2d_bytes = 0;
  std::uint64_t apply_d2h_bytes = 0;
};

/// Prepares the operator, then measures median value-update
/// ("preprocessing") and application times (normalized per subdomain) plus
/// the achieved apply bandwidth (bytes of F̃ streamed / apply time).
/// Marks the problem's values changed before every update so the
/// time-step cache cannot turn the measurement into its skip path (the
/// harnesses measure the full refresh; bench_timestep_cache measures the
/// cached path deliberately).
inline DualOpTiming measure_dualop(decomp::FetiProblem& problem,
                                   const core::DualOpConfig& config,
                                   gpu::ExecutionContext& context,
                                   int reps = 3, double min_seconds = 0.02) {
  auto op = core::make_dual_operator(problem, config, &context);
  op->prepare();
  op->update_values();  // warm-up
  DualOpTiming t;
  t.preprocess_ms = measure_median_seconds(reps, min_seconds,
                                           [&] {
                                             problem.mark_values_changed();
                                             op->update_values();
                                           }) *
      1e3 / problem.num_subdomains();
  std::vector<double> x(static_cast<std::size_t>(problem.num_lambdas), 1.0);
  std::vector<double> y(x.size(), 0.0);
  op->apply(x.data(), y.data());  // warm-up
  const double apply_seconds = measure_median_seconds(
      std::max(reps, 5), min_seconds, [&] { op->apply(x.data(), y.data()); });
  t.apply_ms = apply_seconds * 1e3 / problem.num_subdomains();
  t.apply_bytes = op->apply_bytes();
  if (t.apply_bytes > 0 && apply_seconds > 0.0)
    t.apply_gbps = static_cast<double>(t.apply_bytes) / apply_seconds / 1e9;
  const gpu::TransferCounters::Snapshot before =
      gpu::TransferCounters::global().snapshot();
  op->apply(x.data(), y.data());
  const gpu::TransferCounters::Snapshot traffic =
      gpu::TransferCounters::global().snapshot() - before;
  t.apply_h2d_bytes = traffic.h2d_bytes;
  t.apply_d2h_bytes = traffic.d2h_bytes;
  return t;
}

/// Percentile/latency summary over a sample set — the shared measurement
/// path between the service layer's latency report (bench_service: queue
/// wait and end-to-end job latency) and the per-step phase timings every
/// FetiStepResult carries (preprocess/pcpg/apply split). Percentiles use
/// the nearest-rank convention on the sorted samples.
struct LatencySummary {
  double p50 = 0.0;
  double p99 = 0.0;
  double mean = 0.0;
  double max = 0.0;
};

inline double percentile(std::vector<double> sorted_samples, double pct) {
  if (sorted_samples.empty()) return 0.0;
  const auto n = sorted_samples.size();
  std::size_t rank = static_cast<std::size_t>(pct / 100.0 *
                                              static_cast<double>(n));
  if (rank >= n) rank = n - 1;
  return sorted_samples[rank];
}

inline LatencySummary summarize_latencies(std::vector<double> seconds) {
  LatencySummary s;
  if (seconds.empty()) return s;
  std::sort(seconds.begin(), seconds.end());
  s.p50 = percentile(seconds, 50.0);
  s.p99 = percentile(seconds, 99.0);
  s.max = seconds.back();
  double total = 0.0;
  for (double v : seconds) total += v;
  s.mean = total / static_cast<double>(seconds.size());
  return s;
}

/// Emits the standard harness footer: a PASS/DEVIATION line per shape check.
inline void shape_check(const char* claim, bool holds) {
  std::printf("shape-check [%s]: %s\n", holds ? "PASS" : "DEVIATION", claim);
}

}  // namespace feti::bench
