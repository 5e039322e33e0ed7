// Multi-RHS amortization sweep: batched DualOperator::apply(X, Y, nrhs)
// across the GPU operator families (explicit/implicit × legacy/modern) and
// the host apply path (impl mkl, expl mkl) for nrhs ∈ {1, 2, 4, 8, 16}. The
// device-side batch costs one scatter kernel, one SYMM/solve sweep per
// subdomain, and one gather kernel regardless of the batch width, so the
// per-RHS time of the explicit GPU keys must fall as nrhs grows — the same
// few-large-submissions principle the paper applies to assembly, extended
// to the application phase. The host rows print what one parallel
// scatter/local/gather sweep per batch saves per RHS.
//
// `--quick` runs the CI smoke configuration: nrhs ≤ 4 on a smaller
// problem, still end-to-end through every family, and fails if any batch
// degrades to the base-class loop of single applies
// (loop_fallback_count() != 0).

#include <cstring>

#include "common.hpp"
#include "core/dualop_registry.hpp"

using namespace feti;
using namespace feti::bench;

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;

  gpu::ExecutionContext& device = shared_context();
  const std::vector<idx> nrhs_sweep =
      quick ? std::vector<idx>{1, 2, 4} : std::vector<idx>{1, 2, 4, 8, 16};
  const std::vector<std::string> keys = {"expl legacy", "expl modern",
                                         "impl legacy", "impl modern",
                                         "impl mkl",    "expl mkl"};
  const auto& registry = core::DualOperatorRegistry::instance();

  BuiltProblem bp = build_problem(2, fem::Physics::HeatTransfer,
                                  quick ? 8 : 16, mesh::ElementOrder::Linear);
  const std::size_t n = static_cast<std::size_t>(bp.problem.num_lambdas);
  std::printf("=== multi-RHS batched apply: per-RHS time [ms] vs nrhs "
              "(%s mode, %d lambdas) ===\n",
              quick ? "quick" : "full", bp.problem.num_lambdas);

  std::vector<std::string> header = {"key"};
  for (idx r : nrhs_sweep) header.push_back("nrhs=" + std::to_string(r));
  header.push_back("amortization");
  Table table(header);

  bool no_fallback = true;
  bool explicit_amortizes = true;
  const int reps = quick ? 3 : 5;
  const double min_seconds = quick ? 0.005 : 0.02;

  for (const std::string& key : keys) {
    core::DualOpConfig cfg = core::recommend_config(
        key, 2, bp.dofs_per_subdomain,
        /*nrhs_hint=*/static_cast<int>(nrhs_sweep.back()));
    auto op = core::make_dual_operator(bp.problem, cfg, &device);
    op->prepare();
    op->update_values();

    std::vector<double> x(n * static_cast<std::size_t>(nrhs_sweep.back()),
                          1.0);
    for (std::size_t i = 0; i < x.size(); ++i)
      x[i] = 1.0 + 0.001 * static_cast<double>(i % 97);
    std::vector<double> y(x.size(), 0.0);

    std::vector<std::string> row = {key};
    double per_rhs_first = 0.0, per_rhs_last = 0.0;
    for (idx nrhs : nrhs_sweep) {
      op->apply(x.data(), y.data(), nrhs);  // warm-up (+ batch allocation)
      const double seconds = measure_median_seconds(
          reps, min_seconds, [&] { op->apply(x.data(), y.data(), nrhs); });
      const double per_rhs_ms = seconds * 1e3 / nrhs;
      row.push_back(Table::num(per_rhs_ms, 4));
      if (nrhs == nrhs_sweep.front()) per_rhs_first = per_rhs_ms;
      if (nrhs == nrhs_sweep.back()) per_rhs_last = per_rhs_ms;
    }
    row.push_back(Table::num(per_rhs_first / per_rhs_last, 2));
    table.add_row(std::move(row));

    if (op->loop_fallback_count() != 0) {
      std::printf("FAIL: key '%s' served a batch through the base-class "
                  "loop fallback\n",
                  key.c_str());
      no_fallback = false;
    }
    if (registry.is_explicit(key) && registry.uses_gpu(key) &&
        per_rhs_last >= per_rhs_first)
      explicit_amortizes = false;
  }

  table.print();
  std::printf("\nCSV:\n");
  table.print_csv(std::cout);
  shape_check("every key serves batches with a block path (no loop "
              "fallback)",
              no_fallback);
  shape_check("explicit GPU per-RHS apply time falls with batch width "
              "(BLAS-3 amortization)",
              explicit_amortizes);
  // The fallback check is a hard correctness gate (CI smoke mode runs it on
  // every push); the amortization shape is advisory on loaded machines.
  return no_fallback ? 0 : 1;
}
