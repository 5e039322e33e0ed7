// Reproduces Fig. 6 of the paper: for each subdomain size, the total
// dual-operator time (preprocessing + k * application) as a function of the
// iteration count k, reporting the *best* approach at each point — the
// plot used to pick an approach and read off amortization points.

#include <cmath>

#include "common.hpp"

using namespace feti;
using namespace feti::bench;

int main() {
  gpu::ExecutionContext& device = shared_context();
  const auto approaches = core::DualOperatorRegistry::instance().families();
  const std::vector<int> iteration_grid = {1,   3,    10,   30,  100,
                                           300, 1000, 3000, 10000};

  for (int dim : {2, 3}) {
    const std::vector<idx> cells = dim == 2 ? std::vector<idx>{4, 12, 32}
                                            : std::vector<idx>{3, 6, 10};
    std::printf("\n=== Fig. 6: heat transfer %dD — best approach and its "
                "total time per subdomain [ms] ===\n",
                dim);
    std::vector<std::string> header{"DOFs/subdomain"};
    for (int k : iteration_grid)
      header.push_back("k=" + std::to_string(k));
    Table table(header);
    Table which(header);

    bool best_switches_to_explicit = false;
    for (idx c : cells) {
      BuiltProblem bp = build_problem(dim, fem::Physics::HeatTransfer, c,
                                      mesh::ElementOrder::Linear);
      std::vector<DualOpTiming> t;
      for (const std::string& a : approaches)
        t.push_back(measure_dualop(
            bp.problem, core::recommend_config(a, dim, bp.dofs_per_subdomain), device));

      std::vector<std::string> time_row{std::to_string(bp.dofs_per_subdomain)};
      std::vector<std::string> which_row{
          std::to_string(bp.dofs_per_subdomain)};
      for (int k : iteration_grid) {
        double best = 1e300;
        std::size_t best_i = 0;
        for (std::size_t i = 0; i < approaches.size(); ++i) {
          const double total = t[i].preprocess_ms + k * t[i].apply_ms;
          if (total < best) {
            best = total;
            best_i = i;
          }
        }
        time_row.push_back(Table::num(best, 3));
        which_row.push_back(approaches[best_i]);
        if (k >= 100 && core::DualOperatorRegistry::instance().is_explicit(approaches[best_i]))
          best_switches_to_explicit = true;
      }
      table.add_row(time_row);
      which.add_row(which_row);
    }
    table.print();
    std::printf("\nbest approach per point:\n");
    which.print();
    shape_check(
        "the best approach switches from implicit to explicit as the "
        "iteration count grows",
        best_switches_to_explicit);
  }
  return 0;
}
