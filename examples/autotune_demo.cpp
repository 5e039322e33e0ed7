// Demonstrates the Table-II auto-configuration: for a grid of (API, dim,
// subdomain size) combinations, prints the recommended explicit-assembly
// parameters and measures the recommendation against the opposite choice of
// factor storage on a real subdomain.

#include <cstdio>

#include "core/autotune.hpp"
#include "core/feti_solver.hpp"
#include "util/table.hpp"

namespace {

using namespace feti;

gpu::ExecutionContext& demo_context() {
  static gpu::ExecutionContext ctx{gpu::DeviceConfig::from_env()};
  return ctx;
}

double measure_preprocess(decomp::FetiProblem& problem,
                          const char* key,
                          const core::ExplicitGpuOptions& gpu_opts) {
  core::DualOpConfig cfg;
  cfg.key = key;
  cfg.gpu = gpu_opts;
  auto op = core::make_dual_operator(problem, cfg, &demo_context());
  op->prepare();
  op->update_values();  // warm-up
  // Mark the values dirty before each rep: this demo measures the full
  // refresh, not the time-step cache's skip path.
  return measure_median_seconds(3, 0.05, [&] {
    problem.mark_values_changed();
    op->update_values();
  });
}

}  // namespace

int main() {
  using core::FactorStorage;

  // Part 1: the recommendation table (mirrors Table II).
  Table rec({"API", "dim", "DOFs", "recommended parameters"});
  for (auto api : {gpu::sparse::Api::Legacy, gpu::sparse::Api::Modern})
    for (int dim : {2, 3})
      for (idx dofs : {2000, 20000})
        rec.add_row({gpu::sparse::to_string(api), std::to_string(dim),
                     std::to_string(dofs),
                     core::recommend_options(api, dim, dofs).describe()});
  rec.print();

  // Part 2: recommendation vs the flipped factor storage on a real 3D
  // subdomain (the decision the paper calls "challenging").
  const idx cells = 8, splits = 2;
  mesh::Mesh m = mesh::make_grid_3d(cells, cells, cells,
                                    mesh::ElementOrder::Linear);
  auto dec = mesh::decompose_3d(m, cells, cells, cells, splits, splits,
                                splits);
  auto problem = decomp::build_feti_problem(dec, fem::Physics::HeatTransfer);
  std::printf("\nheat 3D, %d DOFs per subdomain:\n",
              problem.max_subdomain_dofs());

  for (auto api : {gpu::sparse::Api::Legacy, gpu::sparse::Api::Modern}) {
    const char* key =
        api == gpu::sparse::Api::Legacy ? "expl legacy" : "expl modern";
    core::ExplicitGpuOptions recommended =
        core::recommend_options(api, 3, problem.max_subdomain_dofs());
    core::ExplicitGpuOptions flipped = recommended;
    flipped.fwd_storage = recommended.fwd_storage == FactorStorage::Sparse
                              ? FactorStorage::Dense
                              : FactorStorage::Sparse;
    flipped.bwd_storage = flipped.fwd_storage;
    const double t_rec = measure_preprocess(problem, key, recommended);
    const double t_flip = measure_preprocess(problem, key, flipped);
    std::printf("  %s: recommended (%s) %.3f ms vs flipped (%s) %.3f ms%s\n",
                gpu::sparse::to_string(api),
                core::to_string(recommended.fwd_storage), t_rec * 1e3,
                core::to_string(flipped.fwd_storage), t_flip * 1e3,
                t_rec <= t_flip ? "  [recommendation wins]" : "");
  }
  return 0;
}
