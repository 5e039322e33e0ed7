// Reproduces Fig. 2 of the paper: the preprocessing speedup of the SYRK
// path over the TRSM path across all tested configurations (both API
// generations, both dimensionalities, both physics, several sizes and
// factor-storage settings), reported as a sorted speedup series with
// summary statistics. The paper reports an average speedup of 1.58 with
// TRSM winning only for very small subdomains.

#include <algorithm>

#include "common.hpp"

using namespace feti;
using namespace feti::bench;
using core::FactorStorage;

int main() {
  gpu::ExecutionContext& device = shared_context();
  struct Sample {
    double speedup;
    std::string label;
  };
  std::vector<Sample> samples;

  for (auto api : {gpu::sparse::Api::Legacy, gpu::sparse::Api::Modern})
    for (int dim : {2, 3})
      for (auto physics :
           {fem::Physics::HeatTransfer, fem::Physics::LinearElasticity})
        for (idx c : dim == 2 ? std::vector<idx>{6, 16}
                              : std::vector<idx>{3, 6})
          for (FactorStorage storage :
               {FactorStorage::Sparse, FactorStorage::Dense}) {
            BuiltProblem bp = build_problem(dim, physics, c,
                                            mesh::ElementOrder::Linear);
            core::DualOpConfig cfg;
            cfg.key =
                api == gpu::sparse::Api::Legacy ? "expl legacy" : "expl modern";
            cfg.gpu = core::recommend_options(api, dim,
                                              bp.dofs_per_subdomain);
            cfg.gpu.fwd_storage = storage;
            cfg.gpu.bwd_storage = storage;
            cfg.gpu.path = core::Path::Trsm;
            const double trsm =
                measure_dualop(bp.problem, cfg, device, 2, 0.01)
                    .preprocess_ms;
            cfg.gpu.path = core::Path::Syrk;
            const double syrk =
                measure_dualop(bp.problem, cfg, device, 2, 0.01)
                    .preprocess_ms;
            std::string label = std::string(gpu::sparse::to_string(api)) +
                                " " + std::to_string(dim) + "D " +
                                fem::to_string(physics) + " n=" +
                                std::to_string(bp.dofs_per_subdomain) + " " +
                                core::to_string(storage);
            samples.push_back({trsm / syrk, std::move(label)});
          }

  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) {
              return a.speedup < b.speedup;
            });

  std::printf("=== Fig. 2: SYRK-path speedup over TRSM path (sorted) ===\n");
  Table table({"rank", "speedup", "configuration"});
  double sum = 0.0;
  int wins = 0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    table.add_row({std::to_string(i + 1), Table::num(samples[i].speedup, 3),
                   samples[i].label});
    sum += samples[i].speedup;
    if (samples[i].speedup > 1.0) ++wins;
  }
  table.print();
  const double mean = sum / samples.size();
  std::printf("\nconfigurations: %zu, SYRK faster in %d, mean speedup %.2f "
              "(paper: 1.58, TRSM better only for very small subdomains)\n",
              samples.size(), wins, mean);
  shape_check("SYRK is faster than TRSM for the majority of configurations",
              wins * 2 > static_cast<int>(samples.size()));
  shape_check("mean SYRK speedup exceeds 1.2",
              mean > 1.2);
  return 0;
}
