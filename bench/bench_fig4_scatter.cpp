// Reproduces Fig. 4 of the paper: the per-subdomain application time of the
// explicit GPU dual operator when the dual-vector scatter/gather runs on
// the CPU vs on the GPU (heat transfer 3D, quadratic tetrahedra). Paper
// shape: the GPU placement wins for small subdomains (fewer kernel
// submissions), while the CPU placement catches up for large ones (more
// copy/compute concurrency).

#include "common.hpp"

using namespace feti;
using namespace feti::bench;

int main() {
  gpu::ExecutionContext& device = shared_context();
  const std::vector<idx> cells = {1, 2, 3, 5};

  std::printf("=== Fig. 4: scatter/gather placement — explicit GPU "
              "application time per subdomain [ms] ===\n");
  Table table({"DOFs/subdomain", "lambdas/subdomain", "CPU", "GPU",
               "GPU speedup"});
  bool gpu_wins_small = false;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    BuiltProblem bp = build_problem(3, fem::Physics::HeatTransfer, cells[i],
                                    mesh::ElementOrder::Quadratic);
    double t[2] = {0, 0};
    for (auto sg : {core::SgLocation::Cpu, core::SgLocation::Gpu}) {
      core::DualOpConfig cfg;
      cfg.key = "expl legacy";
      cfg.gpu = core::recommend_options(gpu::sparse::Api::Legacy, 3,
                                        bp.dofs_per_subdomain);
      cfg.gpu.scatter_gather = sg;
      t[sg == core::SgLocation::Gpu] =
          measure_dualop(bp.problem, cfg, device, 3, 0.02).apply_ms;
    }
    idx max_lam = 0;
    for (const auto& s : bp.problem.sub)
      max_lam = std::max(max_lam, s.num_local_lambdas());
    table.add_row({std::to_string(bp.dofs_per_subdomain),
                   std::to_string(max_lam), Table::num(t[0], 4),
                   Table::num(t[1], 4), Table::num(t[0] / t[1], 2)});
    if (i == 0 && t[1] <= t[0]) gpu_wins_small = true;
  }
  table.print();
  shape_check("GPU scatter/gather wins for small subdomains (submission "
              "overhead dominates the CPU variant)",
              gpu_wins_small);
  return 0;
}
