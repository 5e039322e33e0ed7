// Device-resident PCPG harness — the transfer and wall-time gates of the
// GPU-resident solver loop (core/pcpg.cpp, the device backend of the PCPG
// engine):
//
//  1. Iteration identity: the device backend runs the host backend's
//     operation bodies on the same virtual-GPU arithmetic, so the
//     device-state solve must report exactly the host iteration counts and
//     match its solutions to 1e-10 on every key.
//
//  2. Per-iteration PCIe traffic: the marginal D2H and H2D bytes of one
//     extra capped iteration (max_iterations 4 vs 3 at rel_tolerance 0 —
//     setup and finalize transfers cancel in the difference) must fit the
//     fixed scalar budget: convergence norms and step-length dots
//     (O(wave)) and the block Gram/coefficient panels (O(wave²)). The
//     budget also reserves O(rt · wave) for the projector's coarse
//     right-hand sides; the coarse solve runs on the device, so none cross
//     and the measured bytes sit below the budget. One multiplier vector
//     (8m bytes) must NOT cross the link per iteration.
//
//  3. Wall time: on the 8-RHS clustered wave with block mode and the
//     device dirichlet preconditioner, the device-state solve must not be
//     slower than the host-staged loop, which re-uploads the search panel
//     and re-downloads the result of every F and M application.
//
// `--quick` runs the CI smoke configuration: one operator key on a smaller
// problem, same gates.

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "common.hpp"

using namespace feti;
using namespace feti::bench;

namespace {

int total_iterations(const std::vector<core::FetiStepResult>& steps) {
  int total = 0;
  for (const auto& s : steps) total += s.pcpg_iterations;
  return total;
}

bool all_converged(const std::vector<core::FetiStepResult>& steps) {
  for (const auto& s : steps)
    if (!s.converged) return false;
  return true;
}

double max_rel_diff(const std::vector<core::FetiStepResult>& a,
                    const std::vector<core::FetiStepResult>& b) {
  double diff = 0.0;
  for (std::size_t j = 0; j < a.size(); ++j) {
    double scale = 1e-30;
    for (double v : b[j].u) scale = std::max(scale, std::fabs(v));
    for (std::size_t i = 0; i < a[j].u.size(); ++i)
      diff = std::max(diff, std::fabs(a[j].u[i] - b[j].u[i]) / scale);
  }
  return diff;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;

  gpu::ExecutionContext& ctx = shared_context();
  const std::vector<std::string> keys =
      quick ? std::vector<std::string>{"expl legacy"}
            : std::vector<std::string>{"expl legacy", "expl hybrid"};

  // 3D: the 2x2x2 subdomain grid's face interfaces give a dual space large
  // enough that one multiplier vector dwarfs the scalar budget (the
  // separation both transfer gates rely on) and that the host loop's
  // per-iteration panel staging is a measurable slice of the solve (the
  // wall-time gate; at smaller sizes it drowns in scheduling noise).
  // `--quick` trims the key list, not the problem.
  const int wave = 8;
  BuiltProblem bp = build_problem(3, fem::Physics::HeatTransfer, 12,
                                  mesh::ElementOrder::Linear);
  const std::size_t n = static_cast<std::size_t>(bp.problem.num_lambdas);
  std::printf("=== device-resident PCPG: %d-RHS clustered wave, %d dual "
              "unknowns (%s mode) ===\n",
              wave, bp.problem.num_lambdas, quick ? "quick" : "full");

  Table table({"key", "host iters", "device iters", "host [ms]",
               "device [ms]", "marg D2H [B]", "marg H2D [B]", "budget [B]",
               "max rel diff"});
  bool iters_identical = true, traffic_scalar = true, device_no_slower = true,
       converged = true, matches = true;
  for (const std::string& key : keys) {
    core::FetiSolverOptions opts;
    opts.dualop = core::recommend_config(key, 2, bp.dofs_per_subdomain);
    opts.pcpg.rel_tolerance = 1e-9;
    opts.pcpg.max_iterations = 5000;
    opts.pcpg.preconditioner = "dirichlet stiffness gpu";
    opts.pcpg.block.enabled = true;
    core::FetiSolver solver(bp.problem, opts, &ctx);
    solver.prepare();
    solver.dual_operator().update_values();

    // Clustered right-hand sides: the physical d scaled and nudged by F·v
    // (v smooth and deterministic), the shape a tenant's load-multiplier
    // wave has in the service layer.
    std::vector<double> d(n);
    solver.dual_operator().compute_d(d.data());
    std::vector<double> v(n), fv(n);
    for (std::size_t i = 0; i < n; ++i)
      v[i] = std::sin(0.3 * static_cast<double>(i));
    solver.dual_operator().apply(v.data(), fv.data());
    std::vector<std::vector<double>> rhs(wave);
    for (int j = 0; j < wave; ++j) {
      rhs[j].resize(n);
      const double s = 1.0 + 0.02 * j;
      for (std::size_t i = 0; i < n; ++i)
        rhs[j][i] = s * d[i] + 1e-3 * j * fv[i];
    }

    // Host-staged loop (device_state Off): λ/r/P live on the host, every
    // F / M application pays the panel upload + result download. Timed
    // interleaved with the device-resident loop (device_state On),
    // best-of-reps per mode: machine-level drift between whole runs is far
    // larger than the staging effect under test, and interleaving + min
    // cancels it where back-to-back medians do not.
    core::PcpgOptions host_pcpg = opts.pcpg;
    host_pcpg.device_state = core::PcpgOptions::DeviceState::Off;
    core::PcpgOptions dev_pcpg = opts.pcpg;
    dev_pcpg.device_state = core::PcpgOptions::DeviceState::On;
    std::vector<core::FetiStepResult> host, device;
    solver.set_pcpg_options(host_pcpg);
    host = solver.solve_step_many(rhs);  // warm-up
    solver.set_pcpg_options(dev_pcpg);
    device = solver.solve_step_many(rhs);  // warm-up (lazy device staging)
    double host_seconds = 1e300, device_seconds = 1e300;
    for (int rep = 0; rep < 5; ++rep) {
      Timer th;
      solver.set_pcpg_options(host_pcpg);
      host = solver.solve_step_many(rhs);
      host_seconds = std::min(host_seconds, th.seconds());
      Timer td;
      solver.set_pcpg_options(dev_pcpg);
      device = solver.solve_step_many(rhs);
      device_seconds = std::min(device_seconds, td.seconds());
    }

    // Marginal per-iteration traffic: capped 4-iteration minus capped
    // 3-iteration runs at rel_tolerance 0 — identical setup and finalize
    // transfers cancel, the difference is one iteration's PCIe cost.
    core::PcpgOptions probe = dev_pcpg;
    probe.rel_tolerance = 0.0;
    probe.max_iterations = 3;
    solver.set_pcpg_options(probe);
    const std::vector<core::FetiStepResult> lo = solver.solve_step_many(rhs);
    probe.max_iterations = 4;
    solver.set_pcpg_options(probe);
    const std::vector<core::FetiStepResult> hi = solver.solve_step_many(rhs);
    const std::uint64_t marg_d2h = hi[0].pcpg_d2h_bytes - lo[0].pcpg_d2h_bytes;
    const std::uint64_t marg_h2d = hi[0].pcpg_h2d_bytes - lo[0].pcpg_h2d_bytes;

    // Scalar budget of one iteration: convergence + step scalars, block
    // Gram/coefficient panels, and a reserve for the coarse projector
    // right-hand sides, which the device coarse solve keeps off the link.
    // One dual vector is 8n bytes — the gate only separates scalars from
    // vectors when the budget sits well below that.
    const std::uint64_t rt =
        static_cast<std::uint64_t>(solver.projector().kernel_total());
    const std::uint64_t w = static_cast<std::uint64_t>(wave);
    const std::uint64_t budget = 8 * (8 * w + 4 * rt * w + 4 * w * w);

    const int hi_iters = total_iterations(host);
    const int di_iters = total_iterations(device);
    const double diff = max_rel_diff(device, host);
    iters_identical = iters_identical && hi_iters == di_iters;
    for (std::size_t j = 0; j < host.size(); ++j)
      iters_identical = iters_identical &&
                        host[j].pcpg_iterations == device[j].pcpg_iterations;
    traffic_scalar = traffic_scalar && marg_d2h <= budget &&
                     marg_h2d <= budget &&
                     marg_d2h < n * sizeof(double) &&
                     marg_h2d < n * sizeof(double);
    // The hybrid baseline's host-staged apply already batches the whole
    // panel through the device SYMM with two staging copies per
    // application, so loop residency saves it almost nothing and its wall
    // time sits inside timing noise — reported, but the hard gate rides on
    // the legacy family, whose host path re-stages every panel. The 5%
    // band is measurement tolerance for shared CI runners (interleaved
    // best-of-reps cancels drift, not scheduling jitter on the loop's
    // per-iteration host↔device synchronization points).
    if (key.find("hybrid") == std::string::npos)
      device_no_slower =
          device_no_slower && device_seconds <= 1.05 * host_seconds;
    converged = converged && all_converged(host) && all_converged(device);
    matches = matches && diff <= 1e-10;
    table.add_row({key, std::to_string(hi_iters), std::to_string(di_iters),
                   Table::num(host_seconds * 1e3, 2),
                   Table::num(device_seconds * 1e3, 2),
                   std::to_string(marg_d2h), std::to_string(marg_h2d),
                   std::to_string(budget), Table::sci(diff, 1)});
  }
  table.print();

  shape_check("device-state iteration counts identical to the host engine "
              "(every key, every system)",
              iters_identical);
  shape_check("marginal per-iteration PCIe traffic fits the scalar budget "
              "(< one dual vector in either direction)",
              traffic_scalar);
  shape_check("device-resident solve not slower than the host-staged loop "
              "on the clustered 8-RHS wave (5% measurement band)",
              device_no_slower);
  shape_check("every wave system converged in both modes", converged);
  shape_check("device solutions match host to 1e-10", matches);
  const bool pass = iters_identical && traffic_scalar && device_no_slower &&
                    converged && matches;
  return pass ? 0 : 1;
}
