// Tests for the device-resident PCPG mode (PcpgOptions::device_state):
// the device backend must agree with the host backend — identical
// iteration counts (the convergence decisions consume bitwise-equal
// scalars) and identical solutions — for every GPU-capable registry key
// across {plain lockstep, block, block + recycling} × {no preconditioner,
// device Dirichlet}; per-iteration PCIe traffic must stay scalar-sized
// (O(batch + kernel_total), never O(num_lambdas) vectors); and the
// Auto/On eligibility and out-of-memory fallback contracts must hold.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <new>
#include <string>

#include "core/autotune.hpp"
#include "core/dualop_registry.hpp"
#include "core/krylov_recycler.hpp"
#include "core/pcpg.hpp"
#include "gpu/runtime.hpp"
#include "precond/precond_registry.hpp"
#include "test_helpers.hpp"

namespace feti {
namespace {

using core::Pcpg;
using core::PcpgOptions;
using core::PcpgResult;
using core::Projector;
using DeviceState = core::PcpgOptions::DeviceState;

decomp::FetiProblem heat2d_problem(idx cells = 8, idx splits = 2) {
  mesh::Mesh m = mesh::make_grid_2d(cells, cells, mesh::ElementOrder::Linear);
  auto dec = mesh::decompose_2d(m, cells, cells, splits, splits);
  return decomp::build_feti_problem(dec, fem::Physics::HeatTransfer);
}

gpu::DeviceConfig quiet_config(std::size_t mem = 512ull << 20) {
  gpu::DeviceConfig cfg;
  cfg.worker_threads = 4;
  cfg.launch_latency_us = 0.0;
  cfg.memory_bytes = mem;
  return cfg;
}

/// Clustered consistent right-hand sides: scaled copies of the physical d
/// plus an F·v nudge (range(F) keeps the singular dual system solvable).
std::vector<std::vector<double>> clustered_rhs(core::DualOperator& op,
                                               const decomp::FetiProblem& p,
                                               int count) {
  const idx n = p.num_lambdas;
  std::vector<double> d(static_cast<std::size_t>(n));
  op.compute_d(d.data());
  std::vector<double> v(static_cast<std::size_t>(n)), fv(v.size());
  for (idx i = 0; i < n; ++i) v[i] = std::sin(0.25 * static_cast<double>(i));
  op.apply(v.data(), fv.data());
  std::vector<std::vector<double>> ds;
  for (int j = 0; j < count; ++j) {
    ds.push_back(d);
    for (idx i = 0; i < n; ++i)
      ds.back()[i] = (1.0 + 0.1 * j) * d[i] + 0.01 * j * fv[i];
  }
  return ds;
}

enum class Mode { Plain, Block, BlockRecycle };

/// Runs `steps` consecutive solve_many calls under one engine selection
/// (fresh Pcpg + recycler per call sequence, the FetiSolver lifecycle).
std::vector<std::vector<PcpgResult>> run_engine(
    core::DualOperator& op, const Projector& projector,
    precond::Preconditioner* m, const std::string& precond_key, Mode mode,
    DeviceState state, double rel_tolerance,
    const std::vector<std::vector<double>>& ds, int steps) {
  PcpgOptions popts;
  popts.rel_tolerance = rel_tolerance;
  popts.preconditioner = precond_key;
  popts.block.enabled = mode != Mode::Plain;
  popts.block.recycle = mode == Mode::BlockRecycle;
  popts.device_state = state;
  Pcpg pcpg(op, projector, popts, m);
  core::KrylovRecycler recycler(op.problem().num_lambdas,
                                popts.block.deflation_budget);
  if (mode == Mode::BlockRecycle) pcpg.set_recycler(&recycler);
  std::vector<std::vector<PcpgResult>> out;
  for (int s = 0; s < steps; ++s) out.push_back(pcpg.solve_many(ds));
  return out;
}

// ---------------------------------------------------------------------------
// Device-vs-host agreement across every GPU-capable registry key
// ---------------------------------------------------------------------------

TEST(PcpgDevice, MatchesHostAcrossGpuRegistryKeys) {
  decomp::FetiProblem p = heat2d_problem(8, 2);
  gpu::ExecutionContext dev(quiet_config());
  const auto& registry = core::DualOperatorRegistry::instance();
  auto& preg = precond::PreconditionerRegistry::instance();

  int keys_tested = 0;
  for (const std::string& key : registry.keys()) {
    if (!registry.uses_gpu(key) || !registry.available(key, &dev)) continue;
    core::DualOpConfig cfg =
        core::recommend_config(key, 2, p.max_subdomain_dofs());
    auto op = core::make_dual_operator(p, cfg, &dev);
    op->prepare();
    op->update_values();
    ASSERT_NE(op->device_context(), nullptr) << key;
    Projector projector(p);
    const std::vector<std::vector<double>> ds = clustered_rhs(*op, p, 3);

    const bool f32 =
        registry.info(key).axes.precision == core::Precision::F32;
    // fp32-stored operators converge to a shallower floor, so they iterate
    // at a matching looser tolerance; host and device agree exactly in both
    // precisions because one engine runs the same operation bodies on
    // either backend.
    const double rel_tolerance = f32 ? 2e-5 : 1e-9;

    for (const char* pkey : {"none", "dirichlet stiffness gpu"}) {
      std::unique_ptr<precond::Preconditioner> m;
      if (std::string(pkey) != "none") {
        m = preg.create(pkey, p, &dev);
        m->prepare();
        m->update_values();
      }
      for (const Mode mode : {Mode::Plain, Mode::Block, Mode::BlockRecycle}) {
        const int steps = mode == Mode::BlockRecycle ? 2 : 1;
        // The implicit operators' recycle path stalls just above 1e-9 on
        // the 3-wide clustered batch (host behavior the device backend
        // must reproduce, not fix); run recycling at the tolerance
        // every key reaches so the matrix compares converging solves.
        const double rel =
            mode == Mode::BlockRecycle && !f32 ? 1e-8 : rel_tolerance;
        const auto host = run_engine(*op, projector, m.get(), pkey, mode,
                                     DeviceState::Off, rel, ds, steps);
        const auto device = run_engine(*op, projector, m.get(), pkey, mode,
                                       DeviceState::On, rel, ds, steps);
        for (int s = 0; s < steps; ++s) {
          for (std::size_t j = 0; j < ds.size(); ++j) {
            const PcpgResult& h = host[s][j];
            const PcpgResult& g = device[s][j];
            const std::string where = key + " precond=" + pkey + " mode=" +
                                      std::to_string(static_cast<int>(mode)) +
                                      " step=" + std::to_string(s) +
                                      " system=" + std::to_string(j);
            if (!f32) {
              EXPECT_TRUE(h.converged) << where;
            }
            EXPECT_EQ(g.converged, h.converged) << where;
            EXPECT_EQ(g.iterations, h.iterations) << where;
            EXPECT_EQ(g.deflation_dim, h.deflation_dim) << where;
            ASSERT_EQ(g.lambda.size(), h.lambda.size()) << where;
            for (std::size_t i = 0; i < h.lambda.size(); ++i)
              ASSERT_EQ(g.lambda[i], h.lambda[i]) << where << " entry " << i;
            ASSERT_EQ(g.alpha.size(), h.alpha.size()) << where;
            for (std::size_t i = 0; i < h.alpha.size(); ++i)
              EXPECT_EQ(g.alpha[i], h.alpha[i]) << where;
          }
        }
      }
    }
    ++keys_tested;
  }
  // The registry ships the GPU explicit/implicit/hybrid families.
  EXPECT_GE(keys_tested, 4);
}

// ---------------------------------------------------------------------------
// Per-iteration PCIe traffic is scalar-sized
// ---------------------------------------------------------------------------

/// D2H/H2D bytes of a full device-state solve capped at `iterations`.
gpu::TransferCounters::Snapshot transfers_at(core::DualOperator& op,
                                             const Projector& projector,
                                             precond::Preconditioner* m,
                                             bool block, int iterations,
                                             const std::vector<
                                                 std::vector<double>>& ds) {
  PcpgOptions popts;
  popts.rel_tolerance = 0.0;  // never converges: runs exactly `iterations`
  popts.max_iterations = iterations;
  popts.preconditioner = m != nullptr ? "dirichlet stiffness gpu" : "none";
  popts.block.enabled = block;
  popts.device_state = DeviceState::On;
  Pcpg pcpg(op, projector, popts, m);
  const gpu::TransferCounters::Snapshot before =
      gpu::TransferCounters::global().snapshot();
  (void)pcpg.solve_many(ds);
  return gpu::TransferCounters::global().snapshot() - before;
}

TEST(PcpgDevice, PerIterationTransfersAreScalarSized) {
  decomp::FetiProblem p = heat2d_problem(36, 3);
  gpu::ExecutionContext dev(quiet_config());
  core::DualOpConfig cfg =
      core::recommend_config("expl legacy", 2, p.max_subdomain_dofs());
  auto op = core::make_dual_operator(p, cfg, &dev);
  op->prepare();
  op->update_values();
  Projector projector(p);
  auto m = precond::PreconditionerRegistry::instance().create(
      "dirichlet stiffness gpu", p, &dev);
  m->prepare();
  m->update_values();

  const std::size_t nsys = 3;
  const std::vector<std::vector<double>> ds =
      clustered_rhs(*op, p, static_cast<int>(nsys));
  const std::size_t n = static_cast<std::size_t>(p.num_lambdas);
  const std::size_t rt = static_cast<std::size_t>(projector.kernel_total());

  // The marginal cost of one extra iteration (identical setup + identical
  // finalization cancel in the difference) must be the scalar blocks only:
  // convergence norms and step-length dots (O(nsys)) and in block mode the
  // Gram and coefficient panels (O(width²), width ≤ nsys). The budget also
  // reserves O(rt · nsys) for the projector's coarse right-hand sides,
  // which the device coarse solve keeps off the link. One multiplier
  // vector (8n bytes) must NOT cross per iteration in either direction.
  const std::uint64_t scalar_budget =
      8 * (8 * nsys + 4 * rt * nsys + 4 * nsys * nsys);
  ASSERT_GT(n * sizeof(double), scalar_budget)
      << "problem too small for the budget to separate scalars from vectors";

  for (const bool block : {false, true}) {
    // Warm-up solve: first use pays one-time lazy device staging (precond
    // batch buffers, operator panels) that would otherwise skew the
    // 3-vs-4-iteration difference.
    (void)transfers_at(*op, projector, m.get(), block, 1, ds);
    const gpu::TransferCounters::Snapshot lo =
        transfers_at(*op, projector, m.get(), block, 3, ds);
    const gpu::TransferCounters::Snapshot hi =
        transfers_at(*op, projector, m.get(), block, 4, ds);
    const std::uint64_t marginal_d2h = hi.d2h_bytes - lo.d2h_bytes;
    const std::uint64_t marginal_h2d = hi.h2d_bytes - lo.h2d_bytes;
    EXPECT_LE(marginal_d2h, scalar_budget) << "block=" << block;
    EXPECT_LE(marginal_h2d, scalar_budget) << "block=" << block;
    EXPECT_LT(marginal_d2h, n * sizeof(double)) << "block=" << block;
    EXPECT_LT(marginal_h2d, n * sizeof(double)) << "block=" << block;
  }
}

// ---------------------------------------------------------------------------
// Projector device apply
// ---------------------------------------------------------------------------

TEST(PcpgDevice, ProjectorApplyDeviceMatchesApplyWithoutTransfers) {
  // The device apply runs the host apply's la:: calls (Gᵀx, the two
  // triangular coarse solves, x − G s) per column, so it must agree bit
  // for bit; and once G and the GᵀG factor are resident, a call moves no
  // PCIe bytes at all, whatever its column count.
  decomp::FetiProblem p = heat2d_problem(8, 2);
  gpu::ExecutionContext ctx(quiet_config());
  gpu::Device& dev = ctx.device();
  gpu::Stream st = ctx.main_stream();
  Projector projector(p);
  const std::size_t n = static_cast<std::size_t>(p.num_lambdas);
  const std::size_t rt = static_cast<std::size_t>(projector.kernel_total());

  bool first = true;
  for (const std::size_t cols : {1, 3, 1}) {
    Rng rng(90u + static_cast<unsigned>(cols));
    std::vector<double> x(n * cols);
    for (double& v : x) v = rng.uniform(-1, 1);
    double* x_dev = dev.alloc_n<double>(x.size());
    double* y_dev = dev.alloc_n<double>(x.size());
    st.memcpy_h2d(x_dev, x.data(), x.size() * sizeof(double));
    st.synchronize();
    std::vector<const double*> xs;
    std::vector<double*> ys;
    for (std::size_t b = 0; b < cols; ++b) {
      xs.push_back(x_dev + b * n);
      ys.push_back(y_dev + b * n);
    }

    const gpu::TransferCounters::Snapshot before =
        gpu::TransferCounters::global().snapshot();
    projector.apply_device(dev, st, xs, ys);
    st.synchronize();
    const gpu::TransferCounters::Snapshot moved =
        gpu::TransferCounters::global().snapshot() - before;
    if (first) {
      // The one-time upload: G (n × rt) and the factor (rt × rt).
      EXPECT_EQ(moved.h2d_bytes, (n * rt + rt * rt) * sizeof(double));
    } else {
      EXPECT_EQ(moved.h2d_bytes, 0u) << cols << " columns";
    }
    EXPECT_EQ(moved.d2h_bytes, 0u) << cols << " columns";
    first = false;

    std::vector<double> y(x.size()), ref(x.size());
    st.memcpy_d2h(y.data(), y_dev, y.size() * sizeof(double));
    st.synchronize();
    for (std::size_t b = 0; b < cols; ++b)
      projector.apply(x.data() + b * n, ref.data() + b * n);
    EXPECT_TRUE(y == ref) << cols << " columns";
    dev.free(x_dev);
    dev.free(y_dev);
  }
}

// ---------------------------------------------------------------------------
// Eligibility and fallback contracts
// ---------------------------------------------------------------------------

TEST(PcpgDevice, OnRequiresDeviceContexts) {
  decomp::FetiProblem p = heat2d_problem(6, 2);
  gpu::ExecutionContext dev(quiet_config());

  // Host-only operator: On throws, Auto silently runs the host backend.
  core::DualOpConfig cpu_cfg;
  cpu_cfg.key = "impl mkl";
  auto cpu_op = core::make_dual_operator(p, cpu_cfg);
  cpu_op->prepare();
  cpu_op->update_values();
  Projector projector(p);
  std::vector<double> d(static_cast<std::size_t>(p.num_lambdas));
  cpu_op->compute_d(d.data());
  PcpgOptions popts;
  popts.device_state = DeviceState::On;
  EXPECT_THROW(Pcpg(*cpu_op, projector, popts).solve(d),
               std::invalid_argument);
  popts.device_state = DeviceState::Auto;
  const PcpgResult auto_res = Pcpg(*cpu_op, projector, popts).solve(d);
  EXPECT_TRUE(auto_res.converged);

  // Device operator + host-only preconditioner: On throws too — mixing a
  // host preconditioner into the device loop would re-stage every vector.
  core::DualOpConfig gpu_cfg =
      core::recommend_config("expl legacy", 2, p.max_subdomain_dofs());
  auto gpu_op = core::make_dual_operator(p, gpu_cfg, &dev);
  gpu_op->prepare();
  gpu_op->update_values();
  auto host_m = precond::PreconditionerRegistry::instance().create(
      "dirichlet stiffness", p, nullptr);
  host_m->prepare();
  host_m->update_values();
  popts.device_state = DeviceState::On;
  popts.preconditioner = "dirichlet stiffness";
  EXPECT_THROW(Pcpg(*gpu_op, projector, popts, host_m.get()).solve(d),
               std::invalid_argument);
}

TEST(PcpgDevice, AutoFallsBackToHostOnDeviceOom) {
  decomp::FetiProblem p = heat2d_problem(8, 2);
  gpu::ExecutionContext dev(quiet_config(48ull << 20));
  core::DualOpConfig cfg =
      core::recommend_config("expl legacy", 2, p.max_subdomain_dofs());
  auto op = core::make_dual_operator(p, cfg, &dev);
  op->prepare();
  op->update_values();
  Projector projector(p);
  const std::vector<std::vector<double>> ds = clustered_rhs(*op, p, 2);

  // Host reference first — it also warms the operator's staged batch
  // buffers, so the fallback run below allocates nothing new.
  PcpgOptions popts;
  popts.device_state = DeviceState::Off;
  const std::vector<PcpgResult> host =
      Pcpg(*op, projector, popts).solve_many(ds);
  ASSERT_TRUE(host[0].converged && host[1].converged);

  // Exhaust the device down to sub-kilobyte free space.
  gpu::Device& device = dev.device();
  std::vector<double*> grabbed;
  for (std::size_t chunk = 1ull << 20; chunk >= 64; chunk /= 2) {
    for (;;) {
      try {
        grabbed.push_back(device.alloc_n<double>(chunk));
      } catch (const std::bad_alloc&) {
        break;
      }
    }
  }
  ASSERT_FALSE(grabbed.empty());

  // Auto: the device backend's allocation hits bad_alloc and the solve
  // degrades to the host backend — same iterations, same solutions.
  popts.device_state = DeviceState::Auto;
  const std::vector<PcpgResult> fb =
      Pcpg(*op, projector, popts).solve_many(ds);
  for (std::size_t j = 0; j < ds.size(); ++j) {
    EXPECT_TRUE(fb[j].converged);
    EXPECT_EQ(fb[j].iterations, host[j].iterations);
    for (std::size_t i = 0; i < host[j].lambda.size(); ++i)
      ASSERT_EQ(fb[j].lambda[i], host[j].lambda[i]) << "system " << j;
  }

  // On: out-of-memory propagates instead of silently degrading.
  popts.device_state = DeviceState::On;
  EXPECT_THROW(Pcpg(*op, projector, popts).solve_many(ds), std::bad_alloc);

  for (double* ptr : grabbed) device.free(ptr);
}

}  // namespace
}  // namespace feti
