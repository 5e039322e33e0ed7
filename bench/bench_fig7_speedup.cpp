// Reproduces Fig. 7 of the paper: the speedup of the best dual-operator
// approach relative to the traditional CPU implicit approach ("impl mkl"),
// as a function of the PCPG iteration count, per subdomain size. The start
// of each curve (speedup > 1) is the amortization point.

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
    std::printf("\n=== Fig. 7: heat transfer %dD — speedup of the best "
                "approach vs impl mkl ===\n",
                dim);
    std::vector<std::string> header{"DOFs/subdomain"};
    for (int k : iteration_grid) header.push_back("k=" + std::to_string(k));
    header.push_back("amortization k");
    Table table(header);

    bool speedup_grows = false;
    for (idx c : cells) {
      BuiltProblem bp = build_problem(dim, fem::Physics::HeatTransfer, c,
                                      mesh::ElementOrder::Linear);
      std::vector<DualOpTiming> t;
      DualOpTiming ref;
      for (const std::string& a : approaches) {
        t.push_back(measure_dualop(
            bp.problem, core::recommend_config(a, dim, bp.dofs_per_subdomain), device));
        if (a == "impl mkl") ref = t.back();
      }
      std::vector<std::string> row{std::to_string(bp.dofs_per_subdomain)};
      double first_amortized = -1.0;
      double last_speedup = 0.0;
      for (int k : iteration_grid) {
        const double ref_total = ref.preprocess_ms + k * ref.apply_ms;
        double best = 1e300;
        for (const auto& ti : t)
          best = std::min(best, ti.preprocess_ms + k * ti.apply_ms);
        const double speedup = ref_total / best;
        row.push_back(Table::num(speedup, 2));
        last_speedup = speedup;
      }
      // Amortization point: smallest k where some non-reference approach
      // with faster application beats impl mkl in total time.
      for (std::size_t i = 0; i < approaches.size(); ++i) {
        if (approaches[i] == "impl mkl") continue;
        if (t[i].apply_ms < ref.apply_ms) {
          const double k = (t[i].preprocess_ms - ref.preprocess_ms) /
                           (ref.apply_ms - t[i].apply_ms);
          const double ka = std::max(0.0, k);
          if (first_amortized < 0 || ka < first_amortized)
            first_amortized = ka;
        }
      }
      row.push_back(first_amortized < 0 ? "never"
                                        : Table::num(first_amortized, 1));
      table.add_row(row);
      if (last_speedup > 1.0) speedup_grows = true;
    }
    table.print();
    shape_check(
        "for high iteration counts the best approach is faster than the "
        "implicit CPU baseline (speedup > 1)",
        speedup_grows);
  }
  return 0;
}
