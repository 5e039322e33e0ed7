// Ablation studies of the design choices the paper discusses in Section IV:
//  * the temporary pool allocator vs per-operation device allocations
//    (Section IV-A: "GPU memory allocations should be avoided in the hot
//    loop");
//  * the number of CUDA streams (multi-stream concurrency / copy-compute
//    overlap, Section IV-B);
//  * sensitivity to the kernel launch latency (the overhead that makes
//    small subdomains GPU-unfriendly).

#include "common.hpp"

using namespace feti;
using namespace feti::bench;

namespace {

double preprocess_ms_with_streams(decomp::FetiProblem& p, int streams,
                                  gpu::ExecutionContext& ctx) {
  core::DualOpConfig cfg;
  cfg.key = "expl legacy";
  cfg.gpu = core::recommend_options(gpu::sparse::Api::Legacy, 3,
                                    p.max_subdomain_dofs());
  cfg.gpu.streams = streams;
  return measure_dualop(p, cfg, ctx, 3, 0.02).preprocess_ms;
}

}  // namespace

int main() {
  // -- Ablation 1: pool allocator vs raw device allocations --------------
  {
    gpu::ExecutionContext ctx([] {
      gpu::DeviceConfig cfg;
      cfg.launch_latency_us = 0.0;
      cfg.memory_bytes = 512ull << 20;
      return cfg;
    }());
    ctx.init_workspace(/*reserve=*/64ull << 20);  // leave room for raw allocs
    gpu::Device& dev = ctx.device();
    constexpr int kRounds = 20000;
    constexpr std::size_t kBytes = 1 << 16;
    const double pool_s = measure_median_seconds(3, 0.05, [&] {
      for (int i = 0; i < kRounds; ++i) {
        void* a = dev.temp().alloc(kBytes);
        void* b = dev.temp().alloc(kBytes);
        dev.temp().free(b);
        dev.temp().free(a);
      }
    });
    const double raw_s = measure_median_seconds(3, 0.05, [&] {
      for (int i = 0; i < kRounds; ++i) {
        void* a = dev.alloc(kBytes);
        void* b = dev.alloc(kBytes);
        dev.free(b);
        dev.free(a);
      }
    });
    std::printf("=== Ablation: temporary-pool allocator vs device malloc "
                "(%d alloc/free pairs) ===\n",
                2 * kRounds);
    std::printf("  pool allocator: %.3f ms,  device alloc: %.3f ms,  "
                "speedup %.2fx\n\n",
                pool_s * 1e3, raw_s * 1e3, raw_s / pool_s);
    shape_check("reusing pooled temporary memory beats per-call device "
                "allocation",
                pool_s < raw_s);
  }

  // -- Ablation 2: stream count -------------------------------------------
  {
    gpu::ExecutionContext& ctx = shared_context();
    BuiltProblem bp = build_problem(3, fem::Physics::HeatTransfer, 6,
                                    mesh::ElementOrder::Linear);
    std::printf("\n=== Ablation: CUDA streams in explicit GPU preprocessing "
                "(heat 3D, %d DOFs/subdomain) ===\n",
                bp.dofs_per_subdomain);
    Table table({"streams", "preprocess/subdomain [ms]"});
    double t1 = 0, tbest = 1e300;
    for (int streams : {1, 2, 4, 8}) {
      const double ms = preprocess_ms_with_streams(bp.problem, streams, ctx);
      table.add_row({std::to_string(streams), Table::num(ms, 4)});
      if (streams == 1) t1 = ms;
      tbest = std::min(tbest, ms);
    }
    table.print();
    shape_check("multiple streams do not hurt preprocessing (concurrency "
                "across subdomains)",
                tbest <= t1 * 1.05);
  }

  // -- Ablation 3: launch-latency sensitivity -----------------------------
  {
    std::printf("\n=== Ablation: kernel launch latency vs application time "
                "(heat 2D, small subdomains) ===\n");
    Table table({"latency [us]", "apply/subdomain [ms]"});
    double t0 = 0, t8 = 0;
    for (double latency : {0.0, 2.0, 8.0}) {
      gpu::DeviceConfig cfg;
      cfg.launch_latency_us = latency;
      cfg.memory_bytes = 512ull << 20;
      gpu::ExecutionContext ctx(cfg);
      BuiltProblem bp = build_problem(2, fem::Physics::HeatTransfer, 6,
                                      mesh::ElementOrder::Linear);
      core::DualOpConfig c =
          core::recommend_config("expl legacy", 2, bp.dofs_per_subdomain);
      const double ms = measure_dualop(bp.problem, c, ctx, 3, 0.02).apply_ms;
      table.add_row({Table::num(latency, 1), Table::num(ms, 4)});
      if (latency == 0.0) t0 = ms;
      if (latency == 8.0) t8 = ms;
    }
    table.print();
    shape_check("higher launch latency inflates small-subdomain application "
                "time (the paper's GPU-overhead effect)",
                t8 > t0);
  }
  return 0;
}
