// Reproduces Table II of the paper: the exhaustive search over the
// explicit-assembly parameter space (Table I) and the resulting optimal
// settings per (CUDA API generation, dimensionality, subdomain size).
// The SYRK path has no backward solve, so its backward parameters are not
// swept (the paper's Table I structure).

#include <limits>

#include "common.hpp"

using namespace feti;
using namespace feti::bench;
using core::FactorStorage;
using core::Path;

namespace {

struct SweepResult {
  core::ExplicitGpuOptions best;
  double best_ms = std::numeric_limits<double>::max();
  int configs = 0;
};

SweepResult sweep(decomp::FetiProblem& p, gpu::sparse::Api api,
                  gpu::ExecutionContext& dev) {
  SweepResult out;
  const auto layouts = {la::Layout::RowMajor, la::Layout::ColMajor};
  const auto storages = {FactorStorage::Sparse, FactorStorage::Dense};
  auto try_config = [&](const core::ExplicitGpuOptions& opt) {
    core::DualOpConfig cfg;
    cfg.key = api == gpu::sparse::Api::Legacy ? "expl legacy" : "expl modern";
    cfg.gpu = opt;
    const double ms =
        measure_dualop(p, cfg, dev, 2, 0.01).preprocess_ms;
    out.configs += 1;
    if (ms < out.best_ms) {
      out.best_ms = ms;
      out.best = opt;
    }
  };
  for (FactorStorage fst : storages)
    for (la::Layout ford : layouts)
      for (la::Layout rhs : layouts) {
        core::ExplicitGpuOptions opt;
        opt.fwd_storage = fst;
        opt.fwd_order = ford;
        opt.rhs_order = rhs;
        opt.path = Path::Syrk;
        try_config(opt);
        for (FactorStorage bst : storages)
          for (la::Layout bord : layouts) {
            opt.path = Path::Trsm;
            opt.bwd_storage = bst;
            opt.bwd_order = bord;
            try_config(opt);
          }
      }
  return out;
}

}  // namespace

int main() {
  gpu::ExecutionContext& device = shared_context();
  Table table({"API", "dim", "DOFs/subdomain", "configs", "best [ms]",
               "optimal parameters"});
  int syrk_wins = 0, total_cells = 0;
  bool modern_always_dense = true;

  for (auto api : {gpu::sparse::Api::Legacy, gpu::sparse::Api::Modern}) {
    for (int dim : {2, 3}) {
      const std::vector<idx> cells =
          dim == 2 ? std::vector<idx>{8, 24} : std::vector<idx>{4, 8};
      for (idx c : cells) {
        BuiltProblem bp = build_problem(dim, fem::Physics::HeatTransfer, c,
                                        mesh::ElementOrder::Linear);
        SweepResult res = sweep(bp.problem, api, device);
        table.add_row({gpu::sparse::to_string(api), std::to_string(dim),
                       std::to_string(bp.dofs_per_subdomain),
                       std::to_string(res.configs),
                       Table::num(res.best_ms, 4), res.best.describe()});
        total_cells += 1;
        if (res.best.path == Path::Syrk) syrk_wins += 1;
        if (api == gpu::sparse::Api::Modern &&
            res.best.fwd_storage != FactorStorage::Dense)
          modern_always_dense = false;
      }
    }
  }
  std::printf("=== Table II: optimal explicit-assembly parameters "
              "(exhaustive sweep) ===\n");
  table.print();
  shape_check("SYRK path optimal for the (large) majority of problems",
              syrk_wins * 2 >= total_cells);
  shape_check("modern API always prefers dense factor storage",
              modern_always_dense);
  return 0;
}
