// Quickstart: solve a 2D heat-transfer problem with Total FETI.
//
// Builds a structured triangle mesh of the unit square, decomposes it into
// 2x2 subdomains, assembles the Total FETI problem, and solves it with the
// explicit GPU dual operator using the auto-tuned (Table II) parameters.
// The FETI solution is compared against a monolithic direct solve.

#include <cmath>
#include <cstdio>

#include "core/autotune.hpp"
#include "core/feti_solver.hpp"

int main() {
  using namespace feti;

  // 1. Mesh and decomposition: 16x16 cells, quadratic triangles, split into
  //    a 2x2 grid of subdomains forming one cluster (= one virtual GPU).
  const idx cells = 16, splits = 2;
  mesh::Mesh m = mesh::make_grid_2d(cells, cells,
                                    mesh::ElementOrder::Quadratic);
  mesh::Decomposition dec = mesh::decompose_2d(m, cells, cells, splits,
                                               splits);
  std::printf("mesh: %d nodes, %d elements, %zu subdomains\n",
              m.num_nodes, m.num_elements(), dec.subdomains.size());

  // 2. Assemble the Total FETI problem (heat transfer, unit source,
  //    Dirichlet boundary on the x = 0 face enforced through B).
  decomp::FetiProblem problem =
      decomp::build_feti_problem(dec, fem::Physics::HeatTransfer);
  std::printf("dual dimension (lagrange multipliers): %d\n",
              problem.num_lambdas);

  // 3. Configure the solver along the orthogonal axes: explicit assembly of
  //    F̃ᵢ on the (virtual) GPU through the legacy sparse API, with the
  //    Table-II recommended assembly parameters filled in by the autotuner.
  core::ApproachAxes axes;
  axes.repr = core::Representation::Explicit;
  axes.device = core::ExecDevice::Gpu;
  axes.backend = sparse::Backend::Simplicial;
  axes.api = gpu::sparse::Api::Legacy;
  core::FetiSolverOptions opts;
  opts.dualop = core::recommend_config(axes, 2, problem.max_subdomain_dofs());
  opts.pcpg.rel_tolerance = 1e-9;
  std::printf("dual operator: %s\n", opts.dualop.key.c_str());
  std::printf("explicit assembly parameters: %s\n",
              opts.dualop.gpu.describe().c_str());

  // Execution resources are explicit: one context owning the virtual
  // device (configured from FETI_VGPU_*), its stream pool and workspace.
  gpu::ExecutionContext ctx(gpu::DeviceConfig::from_env());
  core::FetiSolver solver(problem, opts, &ctx);
  solver.prepare();
  core::FetiStepResult res = solver.solve_step();
  std::printf("PCPG: %d iterations, relative residual %.2e (%s)\n",
              res.pcpg_iterations, res.rel_residual,
              res.converged ? "converged" : "NOT converged");
  std::printf("timings: preprocess %.3f ms, dual-operator applications "
              "%.3f ms\n",
              res.preprocess_seconds * 1e3, res.apply_seconds * 1e3);

  // 4. Validate against the monolithic direct solve.
  fem::GlobalSystem global =
      fem::assemble_global(m, fem::Physics::HeatTransfer);
  std::vector<double> u_ref = fem::reference_solve(global);
  double err = 0.0, scale = 0.0;
  for (std::size_t i = 0; i < u_ref.size(); ++i) {
    err = std::max(err, std::fabs(res.u[i] - u_ref[i]));
    scale = std::max(scale, std::fabs(u_ref[i]));
  }
  std::printf("max |u_feti - u_direct| = %.3e (relative %.3e)\n", err,
              err / scale);
  return err / scale < 1e-6 ? 0 : 1;
}
