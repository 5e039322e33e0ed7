// Reproduces Fig. 4 of the paper: the per-subdomain application time of the
// explicit GPU dual operator when the dual-vector scatter/gather runs on
// the CPU vs on the GPU (heat transfer 3D, quadratic tetrahedra). Paper
// shape: the GPU placement wins for small subdomains (fewer kernel
// submissions), while the CPU placement catches up for large ones (more
// copy/compute concurrency).
//
// Before timing, a hard gate checks that the two placements compute the
// same thing: F·x and F·X (4 right-hand sides) agree bitwise between
// SgLocation::Cpu and SgLocation::Gpu on "expl legacy", "expl legacy f32"
// and "expl hybrid" (the placements move the same values in the same
// accumulation order). The exit code is 1 when the gate fails.
//
// `--quick` (CI) times only the smallest subdomain size, and the timing
// shape check is advisory there: wall-clock order on a loaded runner warns
// instead of printing a DEVIATION verdict.

#include <cstring>

#include "common.hpp"
#include "util/rng.hpp"

using namespace feti;
using namespace feti::bench;

namespace {

/// Whether both placements return bitwise-equal F·x and F·X for `key`.
bool placements_agree(decomp::FetiProblem& problem, const std::string& key,
                      idx dofs_per_subdomain, gpu::ExecutionContext& device,
                      Table& table) {
  std::unique_ptr<core::DualOperator> ops[2];
  for (auto sg : {core::SgLocation::Cpu, core::SgLocation::Gpu}) {
    core::DualOpConfig cfg;
    cfg.key = key;
    cfg.gpu = core::recommend_options(gpu::sparse::Api::Legacy, 3,
                                      dofs_per_subdomain);
    cfg.gpu.scatter_gather = sg;
    auto& op = ops[sg == core::SgLocation::Gpu];
    op = core::make_dual_operator(problem, cfg, &device);
    op->prepare();
    op->update_values();
  }
  const std::size_t n = static_cast<std::size_t>(problem.num_lambdas);
  std::vector<std::string> row{key};
  bool agree = true;
  for (idx nrhs : {1, 4}) {
    Rng rng(11u + static_cast<unsigned>(nrhs));
    std::vector<double> x(n * static_cast<std::size_t>(nrhs));
    for (auto& v : x) v = rng.uniform(-1, 1);
    std::vector<double> y_cpu(x.size()), y_gpu(x.size());
    ops[0]->apply(x.data(), y_cpu.data(), nrhs);
    ops[1]->apply(x.data(), y_gpu.data(), nrhs);
    const bool same = std::memcmp(y_cpu.data(), y_gpu.data(),
                                  x.size() * sizeof(double)) == 0;
    row.push_back(same ? "yes" : "NO");
    agree = agree && same;
  }
  table.add_row(row);
  return agree;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;

  gpu::ExecutionContext& device = shared_context();

  std::printf("=== scatter/gather placement identity (heat 3D, quadratic "
              "tets) ===\n");
  BuiltProblem small = build_problem(3, fem::Physics::HeatTransfer, 2,
                                     mesh::ElementOrder::Quadratic);
  Table identity({"key", "F*x CPU == GPU", "F*X (4 RHS) CPU == GPU"});
  bool identical = true;
  for (const char* key : {"expl legacy", "expl legacy f32", "expl hybrid"})
    identical = placements_agree(small.problem, key,
                                 small.dofs_per_subdomain, device, identity) &&
                identical;
  identity.print();

  const std::vector<idx> cells =
      quick ? std::vector<idx>{1} : std::vector<idx>{1, 2, 3, 5};

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
  shape_check("the CPU and GPU scatter/gather placements return bitwise-"
              "equal F·x and F·X on expl legacy, expl legacy f32 and expl "
              "hybrid",
              identical);
  const char* timing_claim =
      "GPU scatter/gather wins for small subdomains (submission overhead "
      "dominates the CPU variant)";
  if (quick && !gpu_wins_small)
    std::printf("WARNING: %s did not hold in this run (noisy runner?) — "
                "soft gate, not failing\n",
                timing_claim);
  else
    shape_check(timing_claim, gpu_wins_small);
  return identical ? 0 : 1;
}
