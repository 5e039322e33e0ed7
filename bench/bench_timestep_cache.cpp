// Time-step operator caching: a transient scenario where the stiffness
// values change only every CHANGE_EVERY-th step (material updates, contact
// re-linearization, adaptive time stepping — anything that leaves K alone
// for stretches of steps). update_values() consults the problem's value
// versions/content hashes and skips the numeric refactorization and
// explicit F̃ reassembly entirely on clean steps, so a cached step must
// cost orders of magnitude less than a full one — the staged-lifecycle
// payoff (Algorithm 2) the set/update/apply split exists for.
//
// `--quick` runs the CI smoke configuration: fewer keys and steps on a
// smaller problem, still asserting for every key that (a) at least one
// step skipped refactorization, (b) cached steps refreshed zero
// subdomains, and (c) the cached operator state matches a cold rebuild.

#include <algorithm>
#include <cmath>
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
  const std::vector<std::string> keys =
      quick ? std::vector<std::string>{"expl legacy", "impl mkl"}
            : std::vector<std::string>{"expl legacy", "expl modern",
                                       "impl legacy", "impl mkl", "expl mkl",
                                       "expl hybrid"};
  const int steps = quick ? 8 : 12;
  const int change_every = 4;  // K changes on steps 0, 4, 8, ...

  BuiltProblem bp = build_problem(2, fem::Physics::HeatTransfer,
                                  quick ? 8 : 16, mesh::ElementOrder::Linear);
  const std::size_t n = static_cast<std::size_t>(bp.problem.num_lambdas);
  std::printf("=== time-step cache: K changes every %d-th of %d steps "
              "(%s mode, %d subdomains) ===\n",
              change_every, steps, quick ? "quick" : "full",
              bp.problem.num_subdomains());

  Table table({"key", "full step [ms]", "cached step [ms]", "speedup",
               "skipped/steps"});
  bool all_skipped = true;
  bool cached_steps_clean = true;
  bool matches_cold = true;

  for (const std::string& key : keys) {
    core::DualOpConfig cfg =
        core::recommend_config(key, 2, bp.dofs_per_subdomain);
    auto op = core::make_dual_operator(bp.problem, cfg, &device);
    op->prepare();

    double full_ms = 0.0, cached_ms = 0.0;
    int full_steps = 0, cached_steps = 0;
    for (int step = 0; step < steps; ++step) {
      if (step % change_every == 0) decomp::scale_step(bp.problem, 1.05);
      const core::CacheStats before = op->cache_stats();
      Timer t;
      op->update_values();
      const double ms = t.millis();
      const core::CacheStats after = op->cache_stats();
      const long refreshed =
          after.refreshed_subdomains - before.refreshed_subdomains;
      if (refreshed == 0) {
        cached_ms += ms;
        ++cached_steps;
      } else {
        full_ms += ms;
        ++full_steps;
        // A dirty step must refresh without leaving stale subdomains: a
        // whole-problem change refreshes every subdomain.
        if (after.skipped_subdomains != before.skipped_subdomains)
          cached_steps_clean = false;
      }
      // The change schedule dictates the cache outcome exactly.
      const bool expect_cached = step % change_every != 0;
      if (expect_cached != (refreshed == 0)) cached_steps_clean = false;
    }
    const core::CacheStats stats = op->cache_stats();
    if (stats.skipped_steps < 1) all_skipped = false;

    // Cached operator state must match a cold rebuild on the final values.
    std::vector<double> x(n);
    for (std::size_t i = 0; i < n; ++i)
      x[i] = 1.0 + 0.001 * static_cast<double>(i % 97);
    std::vector<double> y(n, 0.0), y_cold(n, 0.0);
    op->apply(x.data(), y.data());
    auto cold = core::make_dual_operator(bp.problem, cfg, &device);
    cold->prepare();
    cold->update_values();
    cold->apply(x.data(), y_cold.data());
    double scale = 0.0;
    for (double v : y_cold) scale = std::max(scale, std::fabs(v));
    for (std::size_t i = 0; i < n; ++i)
      if (std::fabs(y[i] - y_cold[i]) > 1e-9 * std::max(1.0, scale))
        matches_cold = false;

    const double full_avg = full_steps > 0 ? full_ms / full_steps : 0.0;
    const double cached_avg =
        cached_steps > 0 ? cached_ms / cached_steps : 0.0;
    table.add_row({key, Table::num(full_avg, 4), Table::num(cached_avg, 4),
                   Table::num(cached_avg > 0.0 ? full_avg / cached_avg : 0.0,
                              1),
                   std::to_string(stats.skipped_steps) + "/" +
                       std::to_string(stats.steps)});
  }

  table.print();
  std::printf("\nCSV:\n");
  table.print_csv(std::cout);
  shape_check("every key skipped refactorization on at least one step",
              all_skipped);
  shape_check("cache outcome follows the change schedule exactly "
              "(clean steps refresh zero subdomains)",
              cached_steps_clean);
  shape_check("cached operator state matches a cold rebuild", matches_cold);
  // All three are hard correctness gates (CI runs --quick on every push);
  // the cached-vs-full speedup itself is advisory on loaded machines.
  return (all_skipped && cached_steps_clean && matches_cold) ? 0 : 1;
}
