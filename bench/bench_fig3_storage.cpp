// Reproduces Fig. 3 of the paper: explicit assembly time per subdomain as
// a function of subdomain size, comparing sparse vs dense factor storage
// under both API generations (heat transfer 3D, quadratic tetrahedra, SYRK
// path). Paper shapes: the modern generic sparse TRSM is far slower than
// everything else (dense always wins there), while under the legacy API
// sparse storage wins for large subdomains.
//
// Extended with the storage/bandwidth side of the same story: fp32 vs
// fp64 F̃ storage for the explicit GPU keys — footprint (bytes), apply
// time, and achieved apply bandwidth (GB/s) side by side. The fp32
// variants store half the bytes, so the memory-bound apply phase should
// speed up and the achieved GB/s stay in the same ballpark.
//
// `--quick` runs only the precision and sparsity comparisons on one
// problem size (the CI smoke gate): the ~2x footprint reduction and the
// boundary-restricted solve-panel reduction are hard, deterministic gates
// (the latter counted via DualOperator::solve_columns(), not timed), and
// so is the staircase pruning of every TRSM/SYRK explicit key's forward
// solves (DualOperator::solve_work() against the unpruned count);
// "fp32 apply measurably faster than fp64" and "sp update faster than
// dense" are soft gates — warnings, not failures, on noisy runners.

#include <cstring>

#include "common.hpp"
#include "decomp/boundary.hpp"
#include "sparse/simplicial_cholesky.hpp"

using namespace feti;
using namespace feti::bench;
using core::FactorStorage;

namespace {

/// fp32-vs-fp64 comparison across the explicit GPU keys (+ hybrid) on one
/// problem. Returns false only on the hard gate (footprint not halved).
bool run_precision_comparison(gpu::ExecutionContext& device, idx cells,
                              bool quick, bool& f32_faster_somewhere) {
  BuiltProblem bp = build_problem(3, fem::Physics::HeatTransfer, cells,
                                  mesh::ElementOrder::Quadratic);
  std::printf("\n=== fp32 vs fp64 F̃ storage (heat 3D, %d DOFs/subdomain) "
              "===\n",
              bp.dofs_per_subdomain);
  Table table({"key", "F̃ bytes f64", "F̃ bytes f32", "ratio",
               "apply f64 [ms]", "apply f32 [ms]", "GB/s f64", "GB/s f32"});
  bool footprint_halved = true;
  for (const char* base : {"expl legacy", "expl modern", "expl hybrid"}) {
    core::DualOpConfig cfg64 =
        core::recommend_config(base, 3, bp.dofs_per_subdomain);
    core::DualOpConfig cfg32 = core::recommend_config(
        std::string(base) + " f32", 3, bp.dofs_per_subdomain);
    const int reps = quick ? 3 : 5;
    const double min_seconds = quick ? 0.005 : 0.03;
    DualOpTiming t64 =
        measure_dualop(bp.problem, cfg64, device, reps, min_seconds);
    DualOpTiming t32 =
        measure_dualop(bp.problem, cfg32, device, reps, min_seconds);
    const double ratio =
        t32.apply_bytes > 0
            ? static_cast<double>(t64.apply_bytes) / t32.apply_bytes
            : 0.0;
    table.add_row({base, std::to_string(t64.apply_bytes),
                   std::to_string(t32.apply_bytes), Table::num(ratio, 2),
                   Table::num(t64.apply_ms, 4), Table::num(t32.apply_ms, 4),
                   Table::num(t64.apply_gbps, 2),
                   Table::num(t32.apply_gbps, 2)});
    // Demotion halves every block exactly (same dims, half the scalar).
    if (ratio < 1.99 || ratio > 2.01) footprint_halved = false;
    if (t32.apply_ms < t64.apply_ms) f32_faster_somewhere = true;
  }
  table.print();
  std::printf("CSV:\n");
  table.print_csv(std::cout);
  return footprint_halved;
}

/// Sparsity-aware vs dense assembly for the explicit GPU keys: the hard
/// gate is *counted*, not timed — each sp key's accumulated K⁺ solve
/// columns (DualOperator::solve_columns()) must equal the summed boundary
/// widths Σnb and undercut its dense sibling's Σm. Update timing is
/// reported and feeds only the soft gate.
bool run_sparsity_comparison(gpu::ExecutionContext& device, idx cells,
                             bool quick, bool& sp_update_faster_somewhere) {
  BuiltProblem bp = build_problem(3, fem::Physics::HeatTransfer, cells,
                                  mesh::ElementOrder::Quadratic);
  long total_nb = 0, total_m = 0, total_ndof = 0;
  for (const auto& sub : bp.problem.sub) {
    total_nb += decomp::boundary_dofs(sub).count();
    total_m += sub.num_local_lambdas();
    total_ndof += sub.ndof();
  }
  std::printf("\n=== sparsity-aware vs dense assembly (heat 3D, %d "
              "DOFs/subdomain, boundary fraction %.2f) ===\n",
              bp.dofs_per_subdomain,
              static_cast<double>(total_nb) / total_ndof);
  Table table({"key", "solve cols dense", "solve cols sp", "ratio",
               "update dense [ms]", "update sp [ms]"});
  bool columns_restricted = true;
  for (const char* base : {"expl legacy", "expl modern"}) {
    core::DualOpConfig cfg_dense =
        core::recommend_config(base, 3, bp.dofs_per_subdomain);
    core::DualOpConfig cfg_sp = core::recommend_config(
        std::string(base) + " sp", 3, bp.dofs_per_subdomain);
    long cols_dense = 0, cols_sp = 0;
    {
      auto op = core::make_dual_operator(bp.problem, cfg_dense, &device);
      op->prepare();
      op->update_values();
      cols_dense = op->solve_columns();
    }
    {
      auto op = core::make_dual_operator(bp.problem, cfg_sp, &device);
      op->prepare();
      op->update_values();
      cols_sp = op->solve_columns();
    }
    const int reps = quick ? 3 : 5;
    const double min_seconds = quick ? 0.005 : 0.03;
    DualOpTiming t_dense =
        measure_dualop(bp.problem, cfg_dense, device, reps, min_seconds);
    DualOpTiming t_sp =
        measure_dualop(bp.problem, cfg_sp, device, reps, min_seconds);
    table.add_row({base, std::to_string(cols_dense), std::to_string(cols_sp),
                   Table::num(static_cast<double>(cols_sp) / cols_dense, 3),
                   Table::num(t_dense.preprocess_ms, 4),
                   Table::num(t_sp.preprocess_ms, 4)});
    // The counts are exact: dense solves every local dual column, sp only
    // the boundary support of B̃ᵢ.
    if (cols_dense != total_m || cols_sp != total_nb ||
        cols_sp >= cols_dense)
      columns_restricted = false;
    if (t_sp.preprocess_ms < t_dense.preprocess_ms)
      sp_update_faster_somewhere = true;
  }
  table.print();
  std::printf("CSV:\n");
  table.print_csv(std::cout);
  return columns_restricted;
}

/// Staircase pruning of the TRSM/SYRK explicit keys: the hard gate is
/// counted, not timed — each key's forward-solve work per assembly
/// (DualOperator::solve_work(): factor entries × live columns) must be
/// strictly below the unpruned Σ nnz(L)·cols, where cols is the key's
/// solve width (m dense, nb sp; so for sp this is tighter than Σ nnz(L)·m).
/// The update times feed the dense-vs-sp reading, not the gate.
bool run_pruning_comparison(gpu::ExecutionContext& device, idx cells,
                            bool quick) {
  BuiltProblem bp = build_problem(3, fem::Physics::HeatTransfer, cells,
                                  mesh::ElementOrder::Quadratic);
  std::printf("\n=== staircase-pruned forward solves (heat 3D, %d "
              "DOFs/subdomain) ===\n",
              bp.dofs_per_subdomain);
  Table table({"key", "solve work", "unpruned", "ratio", "update [ms]"});
  bool pruned = true;
  for (const char* family : {"expl legacy", "expl modern", "expl cholmod"})
    for (const char* axes : {"", " f32", " sp", " sp f32"}) {
      const std::string key = std::string(family) + axes;
      const core::DualOpConfig cfg =
          core::recommend_config(key, 3, bp.dofs_per_subdomain);
      const bool sp = cfg.axes().sparsity;
      long unpruned = 0;
      for (const auto& sub : bp.problem.sub) {
        sparse::SimplicialCholesky chol;
        chol.analyze(sub.k_reg, cfg.ordering);
        const idx cols = sp ? decomp::boundary_dofs(sub).count()
                            : sub.num_local_lambdas();
        unpruned +=
            static_cast<long>(chol.factor_upper_structure().nnz()) * cols;
      }
      long work = 0;
      {
        auto op = core::make_dual_operator(bp.problem, cfg, &device);
        op->prepare();
        op->update_values();
        work = op->solve_work();
      }
      const double update_ms =
          measure_dualop(bp.problem, cfg, device, quick ? 3 : 5,
                         quick ? 0.005 : 0.03)
              .preprocess_ms;
      table.add_row({key, std::to_string(work), std::to_string(unpruned),
                     Table::num(static_cast<double>(work) / unpruned, 3),
                     Table::num(update_ms, 4)});
      if (work <= 0 || work >= unpruned) pruned = false;
    }
  table.print();
  std::printf("CSV:\n");
  table.print_csv(std::cout);
  return pruned;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;

  gpu::ExecutionContext& device = shared_context();

  bool modern_dense_wins = true;
  bool modern_sparse_slowest = true;
  if (!quick) {
    const std::vector<idx> cells = {1, 2, 3, 5};
    std::printf("=== Fig. 3: factor storage in explicit assembly (heat 3D, "
                "quadratic tets, SYRK path) — time per subdomain [ms] ===\n");
    Table table({"DOFs/subdomain", "sparse/modern", "dense/modern",
                 "sparse/legacy", "dense/legacy"});
    for (idx c : cells) {
      BuiltProblem bp = build_problem(3, fem::Physics::HeatTransfer, c,
                                      mesh::ElementOrder::Quadratic);
      std::vector<std::string> row{std::to_string(bp.dofs_per_subdomain)};
      double t_modern_sparse = 0, t_modern_dense = 0, max_legacy = 0;
      for (auto api : {gpu::sparse::Api::Modern, gpu::sparse::Api::Legacy}) {
        for (FactorStorage st :
             {FactorStorage::Sparse, FactorStorage::Dense}) {
          core::DualOpConfig cfg;
          cfg.key =
              api == gpu::sparse::Api::Legacy ? "expl legacy" : "expl modern";
          cfg.gpu = core::recommend_options(api, 3, bp.dofs_per_subdomain);
          cfg.gpu.path = core::Path::Syrk;
          cfg.gpu.fwd_storage = st;
          cfg.gpu.bwd_storage = st;
          cfg.gpu.fwd_order = st == FactorStorage::Sparse
                                  ? la::Layout::RowMajor
                                  : la::Layout::ColMajor;
          cfg.gpu.rhs_order = la::Layout::RowMajor;
          const double ms =
              measure_dualop(bp.problem, cfg, device, 3, 0.03).preprocess_ms;
          row.push_back(Table::num(ms, 4));
          if (api == gpu::sparse::Api::Modern) {
            (st == FactorStorage::Sparse ? t_modern_sparse : t_modern_dense) =
                ms;
          } else if (st == FactorStorage::Sparse) {
            max_legacy = ms;  // legacy sparse, for the API comparison below
          }
        }
      }
      table.add_row(row);
      if (t_modern_dense > 1.1 * t_modern_sparse) modern_dense_wins = false;
      // Compare the two sparse TRSM implementations at the largest size.
      if (c == cells.back())
        modern_sparse_slowest = t_modern_sparse > max_legacy;
    }
    table.print();
  }

  bool f32_faster_somewhere = false;
  // Same problem size in both modes: the bandwidth win only shows once the
  // apply leaves the launch-latency regime, and the soft gate should not
  // flap in CI because quick mode picked a tiny problem.
  const bool footprint_halved =
      run_precision_comparison(device, 3, quick, f32_faster_somewhere);

  bool sp_update_faster = false;
  const bool sp_columns_restricted =
      run_sparsity_comparison(device, 3, quick, sp_update_faster);

  const bool solves_pruned = run_pruning_comparison(device, 3, quick);

  if (!quick) {
    shape_check("with the modern API, dense storage does not lose to the "
                "underperforming generic sparse TRSM",
                modern_dense_wins);
    shape_check("the modern generic sparse TRSM is slower than the legacy "
                "level-scheduled one for large subdomains",
                modern_sparse_slowest);
  }
  shape_check("fp32 storage halves the F̃ footprint on every explicit GPU "
              "key",
              footprint_halved);
  shape_check("sparsity-aware assembly solves exactly the Σnb boundary "
              "columns, strictly fewer than the dense Σm, on every "
              "explicit GPU key",
              sp_columns_restricted);
  shape_check("staircase pruning counts strictly less forward-solve work "
              "than the unpruned nnz(L) x solve columns on every TRSM/SYRK "
              "explicit key",
              solves_pruned);
  // Soft gates: wall-clock speed depends on the runner's load; warn,
  // don't fail.
  if (f32_faster_somewhere) {
    shape_check("fp32 apply is faster than fp64 on at least one explicit "
                "GPU key",
                true);
  } else {
    std::printf("WARNING: fp32 apply was not faster than fp64 on any "
                "explicit GPU key in this run (noisy runner?) — soft gate, "
                "not failing\n");
  }
  if (sp_update_faster) {
    shape_check("sparsity-aware update is faster than dense on at least "
                "one explicit GPU key",
                true);
  } else {
    std::printf("WARNING: sparsity-aware update was not faster than dense "
                "on any explicit GPU key in this run (noisy runner?) — "
                "soft gate, not failing\n");
  }
  return footprint_halved && sp_columns_restricted && solves_pruned ? 0 : 1;
}
