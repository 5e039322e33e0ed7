// Preconditioner harness: PCPG iteration counts and time-to-solution for
// every registered preconditioner key on a uniform problem and on a
// checkerboard heterogeneous problem (1:1e4 material contrast) — the
// regime preconditioning exists for. Reports per-key iteration counts,
// preconditioner setup (update_values) time, and total step time, on both
// problems, plus CSV.
//
// Hard gate (CI): on the heterogeneous problem the dirichlet
// preconditioner (best scaling variant) strictly reduces the PCPG
// iteration count vs "none" — the classical result this subsystem exists
// to reproduce: unscaled preconditioners degrade under coefficient jumps,
// while stiffness scaling keeps the dirichlet iteration count nearly
// contrast-independent. Also gated: every key converges and matches the
// unpreconditioned solution.
//
// `--quick` runs the CI smoke configuration: smaller problem, same gates.

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "common.hpp"
#include "decomp/heterogeneous.hpp"
#include "precond/precond_registry.hpp"

using namespace feti;
using namespace feti::bench;

namespace {

struct Run {
  std::string key;
  int uniform_iters = 0;
  int hetero_iters = 0;
  double setup_ms = 0.0;   ///< preconditioner update_values share, hetero
  double step_ms = 0.0;    ///< total step time, hetero
  bool converged = false;
  double max_diff = 0.0;   ///< vs the unpreconditioned solution, hetero
};

decomp::FetiProblem checkerboard(idx cells, idx splits, double jump) {
  mesh::Mesh m =
      mesh::make_grid_2d(cells * splits, cells * splits,
                         mesh::ElementOrder::Linear);
  auto dec = mesh::decompose_2d(m, cells * splits, cells * splits, splits,
                                splits);
  return decomp::build_feti_problem(
      dec, fem::Physics::HeatTransfer,
      decomp::checkerboard_materials_2d(splits, splits, jump));
}

core::FetiStepResult solve(decomp::FetiProblem& p, const std::string& key,
                           gpu::ExecutionContext& ctx) {
  core::FetiSolverOptions opts;
  opts.dualop.key = "expl mkl";
  opts.pcpg.rel_tolerance = 1e-9;
  opts.pcpg.max_iterations = 5000;
  opts.pcpg.preconditioner = key;
  core::FetiSolver solver(p, opts, &ctx);
  solver.prepare();
  return solver.solve_step();
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;

  const idx cells = quick ? 8 : 16;
  const idx splits = quick ? 3 : 4;
  const double jump = 1e4;
  decomp::FetiProblem uniform = checkerboard(cells, splits, 1.0);
  decomp::FetiProblem hetero = checkerboard(cells, splits, jump);
  gpu::ExecutionContext& ctx = shared_context();

  std::printf("=== preconditioner sweep: %dx%d subdomains, %d dual unknowns, "
              "checkerboard contrast 1:%.0e (%s mode) ===\n",
              splits, splits, hetero.num_lambdas, jump,
              quick ? "quick" : "full");

  const std::vector<double>* u_ref_hetero = nullptr;
  std::vector<double> ref_storage;
  std::vector<Run> runs;
  for (const std::string& key :
       precond::PreconditionerRegistry::instance().keys()) {
    Run run;
    run.key = key;
    run.uniform_iters = solve(uniform, key, ctx).pcpg_iterations;

    Timer step_timer;
    core::FetiSolverOptions opts;
    opts.dualop.key = "expl mkl";
    opts.pcpg.rel_tolerance = 1e-9;
    opts.pcpg.max_iterations = 5000;
    opts.pcpg.preconditioner = key;
    core::FetiSolver solver(hetero, opts, &ctx);
    solver.prepare();
    const core::FetiStepResult res = solver.solve_step();
    run.step_ms = step_timer.millis();
    run.hetero_iters = res.pcpg_iterations;
    run.converged = res.converged;
    if (solver.preconditioner() != nullptr)
      run.setup_ms =
          solver.preconditioner()->timings().total("update_values") * 1e3;

    if (key == "none") {
      ref_storage = res.u;
      u_ref_hetero = &ref_storage;
    }
    if (u_ref_hetero != nullptr) {
      double scale = 1e-30;
      for (double v : *u_ref_hetero) scale = std::max(scale, std::fabs(v));
      for (std::size_t i = 0; i < res.u.size(); ++i)
        run.max_diff = std::max(
            run.max_diff, std::fabs(res.u[i] - (*u_ref_hetero)[i]) / scale);
    }
    runs.push_back(run);
  }

  Table table({"preconditioner", "uniform iters", "hetero iters",
               "setup [ms]", "hetero step [ms]", "max rel diff"});
  int none_iters = 0, dirichlet_best = 1 << 30, dirichlet_unscaled = 0,
      dirichlet_stiff = 0;
  bool all_converged = true, all_match = true;
  for (const Run& r : runs) {
    table.add_row({r.key, std::to_string(r.uniform_iters),
                   std::to_string(r.hetero_iters), Table::num(r.setup_ms, 2),
                   Table::num(r.step_ms, 2), Table::sci(r.max_diff, 1)});
    if (r.key == "none") none_iters = r.hetero_iters;
    if (r.key == "dirichlet") dirichlet_unscaled = r.hetero_iters;
    if (r.key == "dirichlet stiffness") dirichlet_stiff = r.hetero_iters;
    if (r.key.rfind("dirichlet", 0) == 0)
      dirichlet_best = std::min(dirichlet_best, r.hetero_iters);
    all_converged = all_converged && r.converged;
    all_match = all_match && r.max_diff < 1e-5;
  }
  table.print();
  std::printf("\nCSV:\n");
  table.print_csv(std::cout);

  // The iteration-count reduction is the hard CI gate; the rest is shape.
  const bool dirichlet_reduces = dirichlet_best < none_iters;
  shape_check("dirichlet (best scaling variant) strictly reduces PCPG "
              "iterations vs none on the heterogeneous checkerboard",
              dirichlet_reduces);
  shape_check("every preconditioner key converged on the heterogeneous "
              "problem",
              all_converged);
  shape_check("every key's solution matches the unpreconditioned one (1e-5)",
              all_match);
  shape_check("stiffness scaling beats unscaled dirichlet under the "
              "coefficient jump (advisory)",
              dirichlet_stiff < dirichlet_unscaled);
  return (dirichlet_reduces && all_converged && all_match) ? 0 : 1;
}
