// feti_cli — a small command-line driver exposing the whole pipeline:
// choose physics, dimension, mesh size, decomposition, element order,
// dual-operator approach, preconditioner, and the explicit-assembly
// parameters; run one or more time steps and print timings.
//
//   feti_cli --dim 3 --cells 8 --splits 2 --physics heat \
//            --approach "expl legacy" --steps 3 --precond lumped

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>

#include "core/autotune.hpp"
#include "core/dualop_registry.hpp"
#include "core/feti_solver.hpp"
#include "precond/precond_registry.hpp"
#include "service/solver_service.hpp"
#include "util/table.hpp"

namespace {

using namespace feti;

struct Cli {
  int dim = 2;
  idx cells = 8;
  idx splits = 2;
  std::string physics = "heat";
  std::string order = "linear";
  std::string approach = "expl legacy";
  std::string precond = "none";
  int steps = 1;
  double tol = 1e-8;
  bool pcpg_block = false;
  bool pcpg_recycle = false;
  bool pcpg_device = false;
  bool verify = false;
  bool list = false;
  bool list_precond = false;
  bool pool_stats = false;
  double pool_budget_mb = 0.0;  // 0 = auto (sized to show the demotion)
};

void usage() {
  std::printf(
      "usage: feti_cli [options]\n"
      "  --dim {2|3}            problem dimensionality      (default 2)\n"
      "  --cells N              cells per axis              (default 8)\n"
      "  --splits N             subdomains per axis         (default 2)\n"
      "  --physics {heat|elasticity}                        (default heat)\n"
      "  --order {linear|quadratic}                         (default linear)\n"
      "  --approach NAME        a registered dual-operator key (see below)\n"
      "  --precond KEY          a preconditioner registry key (\"none\",\n"
      "                         \"lumped\", \"dirichlet stiffness gpu\", ...)\n"
      "                         or \"auto\"                   (default none)\n"
      "  --steps N              time steps (Algorithm 2)    (default 1)\n"
      "  --tol X                PCPG relative tolerance     (default 1e-8)\n"
      "  --pcpg-block           block-PCPG iteration (shared Krylov panel,\n"
      "                         pivoted-Cholesky Gram step)\n"
      "  --pcpg-recycle         cross-step Krylov recycling (implies\n"
      "                         --pcpg-block); pays off from --steps 2 on\n"
      "  --pcpg-device          require the device-resident PCPG loop\n"
      "                         (PcpgOptions::device_state = On; errors on\n"
      "                         approaches without a device context) and\n"
      "                         report the per-step PCIe transfer bytes\n"
      "  --verify               compare against a monolithic direct solve\n"
      "  --list                 print all registered dual-operator keys "
      "with\n"
      "                         their capability metadata and exit\n"
      "  --list-precond         print all registered preconditioner keys "
      "and\n"
      "                         exit\n"
      "  --pool-stats           dry-run the service layer's per-job planner "
      "on a\n"
      "                         job mix for this problem: the key each job "
      "would\n"
      "                         resolve to as the operator pool fills, and "
      "the\n"
      "                         estimated pooled-entry bytes (no solves "
      "run)\n"
      "  --pool-budget MB       pool budget for --pool-stats (default: "
      "sized so\n"
      "                         the mix crosses into fp32 demotion)\n"
      "\nregistered dual-operator approaches:\n");
  const auto& registry = core::DualOperatorRegistry::instance();
  for (const std::string& key : registry.keys())
    std::printf("  %-13s %s\n", key.c_str(),
                registry.info(key).summary.c_str());
}

bool parse(int argc, char** argv, Cli& cli) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (a == "--help" || a == "-h") return false;
    const char* v = nullptr;
    if (a == "--dim" && (v = next())) cli.dim = std::atoi(v);
    else if (a == "--cells" && (v = next())) cli.cells = std::atoi(v);
    else if (a == "--splits" && (v = next())) cli.splits = std::atoi(v);
    else if (a == "--physics" && (v = next())) cli.physics = v;
    else if (a == "--order" && (v = next())) cli.order = v;
    else if (a == "--approach" && (v = next())) cli.approach = v;
    else if (a == "--precond" && (v = next())) cli.precond = v;
    else if (a == "--steps" && (v = next())) cli.steps = std::atoi(v);
    else if (a == "--tol" && (v = next())) cli.tol = std::atof(v);
    else if (a == "--pcpg-block") cli.pcpg_block = true;
    else if (a == "--pcpg-recycle") cli.pcpg_recycle = true;
    else if (a == "--pcpg-device") cli.pcpg_device = true;
    else if (a == "--verify") cli.verify = true;
    else if (a == "--list") cli.list = true;
    else if (a == "--list-precond") cli.list_precond = true;
    else if (a == "--pool-stats") cli.pool_stats = true;
    else if (a == "--pool-budget" && (v = next()))
      cli.pool_budget_mb = std::atof(v);
    else {
      std::printf("unknown or incomplete option: %s\n", a.c_str());
      return false;
    }
  }
  return true;
}

/// --list: every registered key with its capability metadata, so users can
/// discover operators without reading source.
void list_operators(const feti::gpu::ExecutionContext* context) {
  const auto& registry = core::DualOperatorRegistry::instance();
  Table table({"key", "gpu", "explicit", "sparsity", "precision",
               "available", "description"});
  for (const std::string& key : registry.keys()) {
    const core::DualOperatorInfo info = registry.info(key);
    table.add_row({key, registry.uses_gpu(key) ? "yes" : "no",
                   registry.is_explicit(key) ? "yes" : "no",
                   info.axes.sparsity ? "boundary" : "-",
                   core::to_string(info.axes.precision),
                   registry.available(key, context) ? "yes" : "no",
                   info.summary});
  }
  table.print();
}

/// --list-precond: every registered preconditioner key with its metadata.
void list_preconditioners(const feti::gpu::ExecutionContext* context) {
  const auto& registry = precond::PreconditionerRegistry::instance();
  Table table({"key", "gpu", "available", "description"});
  for (const std::string& key : registry.keys())
    table.add_row({key, registry.uses_gpu(key) ? "yes" : "no",
                   registry.available(key, context) ? "yes" : "no",
                   registry.info(key).summary});
  table.print();
}

/// --pool-stats: dry-run of the service layer's per-job planner. Simulates
/// a job mix against a filling operator pool — each planned entry's
/// estimated bytes are deducted from the remaining budget before the next
/// job plans, so the output shows exactly where the pool pressure starts
/// demoting auto-keyed explicit jobs to the fp32 storage tier. No
/// operators are built and nothing solves.
void pool_stats_dry_run(const decomp::FetiProblem& problem, int dim,
                        const std::string& user_key, double budget_mb) {
  idx max_lambdas = 0;
  for (const auto& s : problem.sub)
    max_lambdas = std::max(max_lambdas, s.num_local_lambdas());
  const std::size_t blocks =
      static_cast<std::size_t>(problem.num_subdomains()) *
      static_cast<std::size_t>(max_lambdas) *
      static_cast<std::size_t>(max_lambdas);
  // Estimated pooled-entry footprint per precision: the persistent F̃
  // blocks for explicit keys, the factor estimate for implicit ones.
  auto entry_bytes = [&](const core::DualOpConfig& cfg) {
    if (!core::DualOperatorRegistry::instance().is_explicit(cfg.key))
      return service::estimate_solver_bytes(problem);
    return blocks * (cfg.axes().precision == core::Precision::F32
                         ? sizeof(float)
                         : sizeof(double));
  };
  const std::size_t f64_entry = blocks * sizeof(double);
  const std::size_t budget =
      budget_mb > 0.0 ? static_cast<std::size_t>(budget_mb * 1e6)
                      : f64_entry * 3 + f64_entry / 2;

  // The mix: alternating auto-keyed tenants and the user's explicit key —
  // distinct tenants, so every job is a new pooled entry.
  const char* requested[] = {"", "", user_key.c_str(), "", "", ""};
  Table table({"job", "requested", "planned key", "entry [KB]",
               "remaining before [KB]"});
  std::size_t remaining = budget;
  for (std::size_t j = 0; j < std::size(requested); ++j) {
    service::SolveJob job;
    job.problem = &problem;
    job.key = requested[j];
    const core::DualOpConfig cfg =
        service::SolverService::plan_config(job, dim, remaining, budget);
    const std::size_t bytes = entry_bytes(cfg);
    table.add_row({std::to_string(j),
                   job.key.empty() ? "(auto)" : job.key.c_str(),
                   cfg.key,
                   Table::num(static_cast<double>(bytes) / 1e3, 1),
                   Table::num(static_cast<double>(remaining) / 1e3, 1)});
    remaining -= std::min(bytes, remaining);
  }
  std::printf("service planner dry run (pool budget %.1f KB; problem: %d "
              "subdomains, max %d local multipliers)\n",
              static_cast<double>(budget) / 1e3, problem.num_subdomains(),
              max_lambdas);
  table.print();
  std::printf("\nauto-keyed jobs resolve to the explicit GPU family; once "
              "the remaining\nbudget drops between the fp32 and fp64 F̃ "
              "footprints, new entries demote\nto the fp32 storage tier "
              "(SolverService::plan_config).\n");
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  if (!parse(argc, argv, cli)) {
    usage();
    return 1;
  }
  gpu::ExecutionContext context(gpu::DeviceConfig::from_env());
  if (cli.list) {
    list_operators(&context);
    return 0;
  }
  if (cli.list_precond) {
    list_preconditioners(&context);
    return 0;
  }
  const fem::Physics physics = cli.physics == "heat"
                                   ? fem::Physics::HeatTransfer
                                   : fem::Physics::LinearElasticity;
  const mesh::ElementOrder order = cli.order == "linear"
                                       ? mesh::ElementOrder::Linear
                                       : mesh::ElementOrder::Quadratic;

  mesh::Mesh m;
  mesh::Decomposition dec;
  if (cli.dim == 2) {
    m = mesh::make_grid_2d(cli.cells, cli.cells, order);
    dec = mesh::decompose_2d(m, cli.cells, cli.cells, cli.splits, cli.splits);
  } else {
    m = mesh::make_grid_3d(cli.cells, cli.cells, cli.cells, order);
    dec = mesh::decompose_3d(m, cli.cells, cli.cells, cli.cells, cli.splits,
                             cli.splits, cli.splits);
  }
  decomp::FetiProblem problem = decomp::build_feti_problem(dec, physics);
  std::printf("%s %dD, %s elements: %d global DOFs, %zu subdomains "
              "(max %d DOFs), %d lagrange multipliers\n",
              fem::to_string(physics), cli.dim, cli.order.c_str(),
              problem.global_dofs, problem.sub.size(),
              problem.max_subdomain_dofs(), problem.num_lambdas);
  if (cli.pool_stats) {
    pool_stats_dry_run(problem, cli.dim, cli.approach, cli.pool_budget_mb);
    return 0;
  }

  const auto& registry = core::DualOperatorRegistry::instance();
  if (!registry.contains(cli.approach)) {
    std::printf("unknown approach '%s'; registered keys:\n",
                cli.approach.c_str());
    for (const std::string& key : registry.keys())
      std::printf("  %s\n", key.c_str());
    return 1;
  }
  core::FetiSolverOptions opts;
  opts.dualop = core::recommend_config(cli.approach, cli.dim,
                                       problem.max_subdomain_dofs());
  opts.pcpg.rel_tolerance = cli.tol;
  opts.pcpg.max_iterations = 5000;
  opts.pcpg.block.enabled = cli.pcpg_block || cli.pcpg_recycle;
  opts.pcpg.block.recycle = cli.pcpg_recycle;
  if (cli.pcpg_device)
    opts.pcpg.device_state = core::PcpgOptions::DeviceState::On;
  if (cli.precond == "auto") {
    // The CLI's structured problems are uniform, so the hint carries no
    // coefficient jump; "auto" demonstrates the recommendation plumbing.
    core::WorkloadHint hint;
    opts.pcpg.preconditioner = core::recommend_preconditioner(
        hint, registry.uses_gpu(cli.approach));
  } else {
    opts.pcpg.preconditioner = precond::normalize_key(cli.precond);
    if (!precond::PreconditionerRegistry::instance().contains(
            opts.pcpg.preconditioner)) {
      std::printf("unknown preconditioner '%s'; registered keys:\n",
                  cli.precond.c_str());
      for (const std::string& key :
           precond::PreconditionerRegistry::instance().keys())
        std::printf("  %s\n", key.c_str());
      return 1;
    }
  }
  std::printf("approach: %s [%s]  (%s), preconditioner: %s\n",
              cli.approach.c_str(), opts.dualop.axes().describe().c_str(),
              registry.is_explicit(cli.approach)
                  ? opts.dualop.gpu.describe().c_str()
                  : "implicit application",
              opts.pcpg.preconditioner.c_str());

  core::FetiSolver solver(problem, opts, &context);
  Timer prep;
  solver.prepare();
  std::printf("preparation: %.3f ms\n", prep.millis());

  // Under --pcpg-device the per-step PCIe traffic of the PCPG phase is the
  // interesting number (the device loop keeps it at O(scalars)/iteration),
  // so the table grows the two TransferCounters delta columns.
  std::vector<std::string> headers = {"step", "preproc [ms]", "PCPG iters",
                                      "apply total [ms]", "residual",
                                      "step [ms]"};
  if (cli.pcpg_device) {
    headers.push_back("H2D [KB]");
    headers.push_back("D2H [KB]");
  }
  Table table(headers);
  double load_factor = 1.0;  ///< cumulative f scaling vs the original mesh
  for (int step = 0; step < cli.steps; ++step) {
    core::FetiStepResult res = solver.solve_step();
    std::vector<std::string> row = {
        std::to_string(step), Table::num(res.preprocess_seconds * 1e3, 3),
        std::to_string(res.pcpg_iterations),
        Table::num(res.apply_seconds * 1e3, 3),
        Table::sci(res.rel_residual, 2),
        Table::num(res.step_seconds * 1e3, 3)};
    if (cli.pcpg_device) {
      row.push_back(Table::num(static_cast<double>(res.pcpg_h2d_bytes) / 1e3,
                               1));
      row.push_back(Table::num(static_cast<double>(res.pcpg_d2h_bytes) / 1e3,
                               1));
    }
    table.add_row(row);
    if (!res.converged) {
      table.print();
      std::printf("step %d did NOT converge\n", step);
      return 1;
    }
    if (cli.verify) {
      // The reference is assembled from the original mesh; the problem is
      // linear, so the load-only schedule below just scales its solution.
      fem::GlobalSystem global = fem::assemble_global(m, physics);
      std::vector<double> u_ref = fem::reference_solve(global);
      double err = 0.0, scale = 1e-30;
      for (std::size_t i = 0; i < u_ref.size(); ++i) {
        const double ref = u_ref[i] * load_factor;
        err = std::max(err, std::fabs(res.u[i] - ref));
        scale = std::max(scale, std::fabs(ref));
      }
      std::printf("  step %d: max relative error vs direct solve: %.3e\n",
                  step, err / scale);
    }
    if (step + 1 < cli.steps) {
      if (cli.pcpg_recycle) {
        // Transient-load schedule: only f changes, so K stays cached and
        // the recycled panel stays valid — the workload recycling exists
        // for. The default schedule scales K and f together, which keeps
        // the solution fixed but would (correctly) drop the panel every
        // step.
        for (auto& fs : problem.sub)
          for (double& v : fs.sys.f) v *= 1.1;
        load_factor *= 1.1;
      } else {
        decomp::scale_step(problem, 1.1);
      }
    }
  }
  table.print();
  return 0;
}
