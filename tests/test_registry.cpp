// Tests of the orthogonal-axes configuration API, the string-keyed
// dual-operator registry, and the batched multi-RHS lifecycle: the nine
// Table-III families and the keys composed from them, axis to_string/parse
// round-trips, summary composition, apply(X, Y, nrhs) consistency for
// every registered key, and the bitwise identity of the device apply path
// (host vs device-resident cluster vectors, CPU vs GPU scatter/gather).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "core/autotune.hpp"
#include "core/dualop_registry.hpp"
#include "core/feti_solver.hpp"
#include "decomp/boundary.hpp"
#include "precond/precond_registry.hpp"
#include "sparse/simplicial_cholesky.hpp"
#include "test_helpers.hpp"

namespace feti::core {
namespace {

using decomp::FetiProblem;
using fem::Physics;
using mesh::ElementOrder;

gpu::ExecutionContext& test_context() {
  static gpu::ExecutionContext ctx([] {
    gpu::DeviceConfig cfg;
    cfg.worker_threads = 4;
    cfg.launch_latency_us = 0.0;
    cfg.memory_bytes = 512ull << 20;
    return cfg;
  }());
  return ctx;
}

FetiProblem heat2d_problem(idx cells = 6, idx splits = 2) {
  mesh::Mesh m = mesh::make_grid_2d(cells, cells, ElementOrder::Linear);
  auto dec = mesh::decompose_2d(m, cells, cells, splits, splits);
  return decomp::build_feti_problem(dec, Physics::HeatTransfer);
}

// ---------------------------------------------------------------------------
// Registry contents and metadata
// ---------------------------------------------------------------------------

TEST(Registry, ListsTheNineTableThreeKeysAndTheirVariants) {
  std::vector<std::string> expected = {
      "impl mkl",    "impl cholmod", "impl legacy", "impl modern",
      "expl mkl",    "expl cholmod", "expl legacy", "expl modern",
      "expl hybrid",
      // fp32-storage variants of the explicit families.
      "expl mkl f32",    "expl cholmod f32", "expl legacy f32",
      "expl modern f32", "expl hybrid f32",
      // sparsity-aware (boundary-restricted) assembly variants of every
      // explicit family, composed with fp32 storage.
      "expl mkl sp",     "expl mkl sp f32",
      "expl cholmod sp", "expl cholmod sp f32",
      "expl legacy sp",  "expl legacy sp f32",
      "expl modern sp",  "expl modern sp f32",
      "expl hybrid sp",  "expl hybrid sp f32"};
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(DualOperatorRegistry::instance().keys(), expected);
  EXPECT_EQ(DualOperatorRegistry::instance().size(), expected.size());
}

TEST(Registry, F32KeysCarryThePrecisionAxis) {
  auto& registry = DualOperatorRegistry::instance();
  for (const std::string& key : registry.keys()) {
    const DualOperatorInfo info = registry.info(key);
    const bool f32_key = key.find(" f32") != std::string::npos;
    EXPECT_EQ(info.axes.precision == Precision::F32, f32_key) << key;
    if (f32_key) {
      EXPECT_EQ(info.axes.repr, Representation::Explicit) << key;
    }
  }
}

TEST(Registry, SpKeysCarryTheSparsityAxis) {
  auto& registry = DualOperatorRegistry::instance();
  int sp_keys = 0;
  for (const std::string& key : registry.keys()) {
    const DualOperatorInfo info = registry.info(key);
    const bool sp_key = key.find(" sp") != std::string::npos;
    EXPECT_EQ(info.axes.sparsity, sp_key) << key;
    if (sp_key) {
      ++sp_keys;
      EXPECT_EQ(info.axes.repr, Representation::Explicit) << key;
      // Every sp key has the dense sibling with the tag stripped.
      std::string sibling = key;
      sibling.erase(sibling.find(" sp"), 3);
      EXPECT_TRUE(registry.contains(sibling)) << key;
    }
  }
  // 5 explicit families × {f64, f32}.
  EXPECT_EQ(sp_keys, 10);
}

TEST(Registry, EveryKeyRoundTripsThroughTheGrammar) {
  // Key ↔ axis tuple is 1:1 for all 24 keys, the metadata and capability
  // queries follow from the parsed axes, and every operator is named after
  // the key it was created under (checked unprepared: naming is the
  // registry's job, not the operator's).
  auto& registry = DualOperatorRegistry::instance();
  FetiProblem p = heat2d_problem(4);
  const std::vector<std::string> keys = registry.keys();
  ASSERT_EQ(keys.size(), 24u);
  for (const std::string& key : keys) {
    const ApproachAxes axes = parse_axes(key);
    EXPECT_EQ(axes.key(), key);
    const DualOperatorInfo info = registry.info(key);
    EXPECT_EQ(info.key, key);
    EXPECT_EQ(info.axes, axes) << key;
    EXPECT_FALSE(info.summary.empty()) << key;
    EXPECT_EQ(registry.uses_gpu(key), axes.device != ExecDevice::Cpu) << key;
    EXPECT_EQ(registry.is_explicit(key),
              axes.repr == Representation::Explicit)
        << key;
    DualOpConfig cfg;
    cfg.key = key;
    auto op = make_dual_operator(p, cfg, &test_context());
    ASSERT_NE(op, nullptr) << key;
    EXPECT_EQ(std::string(op->name()), key);
  }
}

TEST(Registry, SummariesComposeFromTheirFamily) {
  // `<family summary>[, boundary-restricted panel][, fp32 storage + fp64
  // accumulation]`: no doubled or dangling separators, and every composed key extends its family's summary.
  auto& registry = DualOperatorRegistry::instance();
  const std::vector<std::string> families = registry.families();
  ASSERT_EQ(families.size(), 9u);
  for (const std::string& key : registry.keys()) {
    const std::string summary = registry.info(key).summary;
    EXPECT_EQ(summary.find(",,"), std::string::npos) << key;
    EXPECT_EQ(summary.find(", ("), std::string::npos) << key;
    ApproachAxes family = parse_axes(key);
    family.sparsity = false;
    family.precision = Precision::F64;
    ASSERT_NE(std::find(families.begin(), families.end(), family.key()),
              families.end())
        << key;
    EXPECT_TRUE(summary.starts_with(registry.info(family.key()).summary))
        << key << ": " << summary;
  }
}

TEST(Registry, UnknownKeyIsRejected) {
  auto& registry = DualOperatorRegistry::instance();
  EXPECT_FALSE(registry.contains("expl quantum"));
  EXPECT_FALSE(registry.available("expl quantum", &test_context()));
  EXPECT_THROW((void)registry.info("expl quantum"), std::invalid_argument);
  FetiProblem p = heat2d_problem(4);
  DualOpConfig cfg;
  EXPECT_THROW(registry.create("expl quantum", p, cfg, nullptr),
               std::invalid_argument);
  cfg.key = "not a key";
  EXPECT_THROW(make_dual_operator(p, cfg, nullptr), std::invalid_argument);
}

TEST(Registry, AvailabilityTracksDeviceRequirement) {
  auto& registry = DualOperatorRegistry::instance();
  EXPECT_TRUE(registry.available("impl mkl", nullptr));
  EXPECT_FALSE(registry.available("expl legacy", nullptr));
  EXPECT_TRUE(registry.available("expl legacy", &test_context()));
  FetiProblem p = heat2d_problem(4);
  DualOpConfig cfg;
  EXPECT_THROW(registry.create("expl hybrid", p, cfg, nullptr),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Axis round-trips
// ---------------------------------------------------------------------------

TEST(ConfigAxes, KeyRoundTripsForAllNineApproaches) {
  for (const std::string& key : DualOperatorRegistry::instance().families()) {
    const ApproachAxes axes = parse_axes(key);
    EXPECT_TRUE(axes.valid()) << key;
    EXPECT_EQ(axes.key(), key);
    // Family keys sit at the defaults of the composed axes.
    EXPECT_FALSE(axes.sparsity) << key;
    EXPECT_EQ(axes.precision, Precision::F64) << key;
  }
}

TEST(ConfigAxes, AxisEnumsRoundTrip) {
  for (Representation r : {Representation::Implicit,
                           Representation::Explicit})
    EXPECT_EQ(parse_representation(to_string(r)), r);
  for (ExecDevice d : {ExecDevice::Cpu, ExecDevice::Gpu, ExecDevice::Hybrid})
    EXPECT_EQ(parse_exec_device(to_string(d)), d);
  for (sparse::Backend b : {sparse::Backend::Simplicial,
                            sparse::Backend::Supernodal}) {
    EXPECT_EQ(sparse::parse_backend(sparse::axis_name(b)), b);
    EXPECT_EQ(sparse::parse_backend(sparse::to_string(b)), b);
  }
  for (gpu::sparse::Api api : {gpu::sparse::Api::Legacy,
                               gpu::sparse::Api::Modern})
    EXPECT_EQ(gpu::sparse::parse_api(gpu::sparse::to_string(api)), api);
  for (Precision p : {Precision::F64, Precision::F32})
    EXPECT_EQ(parse_precision(to_string(p)), p);
  EXPECT_EQ(parse_precision("fp32"), Precision::F32);
  EXPECT_EQ(parse_precision("double"), Precision::F64);
  EXPECT_THROW(parse_precision("f16"), std::invalid_argument);
  EXPECT_THROW(parse_representation("matrix-free"), std::invalid_argument);
  EXPECT_THROW(parse_exec_device("tpu"), std::invalid_argument);
  EXPECT_THROW(sparse::parse_backend("umfpack"), std::invalid_argument);
  EXPECT_THROW(gpu::sparse::parse_api("future"), std::invalid_argument);
}

TEST(ConfigAxes, InvalidTuplesAreRejected) {
  ApproachAxes gpu_supernodal;
  gpu_supernodal.device = ExecDevice::Gpu;
  gpu_supernodal.backend = sparse::Backend::Supernodal;
  EXPECT_FALSE(gpu_supernodal.valid());
  EXPECT_THROW(gpu_supernodal.key(), std::invalid_argument);

  ApproachAxes implicit_hybrid;
  implicit_hybrid.repr = Representation::Implicit;
  implicit_hybrid.device = ExecDevice::Hybrid;
  implicit_hybrid.backend = sparse::Backend::Supernodal;
  EXPECT_FALSE(implicit_hybrid.valid());

  EXPECT_THROW(parse_axes("impl hybrid"), std::invalid_argument);
  EXPECT_THROW(parse_axes("expl"), std::invalid_argument);
  EXPECT_THROW(parse_axes("garbage key"), std::invalid_argument);
  // There is no shard axis: every operator runs on one device, so no
  // " xN" suffix parses or names a registered key, on any key or in any
  // position.
  auto& registry = DualOperatorRegistry::instance();
  std::vector<std::string> sharded = {"expl legacy x2", "impl modern x4",
                                      "expl hybrid sp f32 x2",
                                      "expl legacy x2 sp", "impl mkl x2"};
  for (const std::string& key : registry.keys())
    for (const char* suffix : {" x1", " x2", " x3", " x4"})
      sharded.push_back(key + suffix);
  for (const std::string& key : sharded) {
    EXPECT_THROW(parse_axes(key), std::invalid_argument) << key;
    EXPECT_FALSE(registry.contains(key)) << key;
  }

  // The precision axis is explicit-only: fp32 has no F̃ to demote on the
  // implicit families.
  ApproachAxes impl_f32 = parse_axes("impl mkl");
  impl_f32.precision = Precision::F32;
  EXPECT_FALSE(impl_f32.valid());
  EXPECT_THROW(parse_axes("impl mkl f32"), std::invalid_argument);
  EXPECT_THROW(parse_axes("impl legacy f32"), std::invalid_argument);

  // The sparsity axis is explicit-only too: the implicit families never
  // assemble, so there is no solve panel to restrict.
  ApproachAxes impl_sp = parse_axes("impl mkl");
  impl_sp.sparsity = true;
  EXPECT_FALSE(impl_sp.valid());
  EXPECT_THROW(parse_axes("impl mkl sp"), std::invalid_argument);
  EXPECT_THROW(parse_axes("impl legacy sp"), std::invalid_argument);
  EXPECT_THROW(parse_axes("impl modern sp f32"), std::invalid_argument);
}

TEST(ConfigAxes, SpKeysRoundTrip) {
  for (const char* key : {"expl mkl sp", "expl cholmod sp",
                          "expl legacy sp", "expl modern sp",
                          "expl hybrid sp", "expl mkl sp f32",
                          "expl legacy sp f32", "expl hybrid sp f32"}) {
    const ApproachAxes axes = parse_axes(key);
    EXPECT_TRUE(axes.valid()) << key;
    EXPECT_TRUE(axes.sparsity) << key;
    EXPECT_EQ(axes.repr, Representation::Explicit) << key;
    EXPECT_EQ(axes.key(), key);
    // The dense sibling differs only in the sparsity axis, and the " sp"
    // tag sits between the base key and the " f32" suffix.
    ApproachAxes sibling = axes;
    sibling.sparsity = false;
    std::string base(key);
    base.erase(base.find(" sp"), 3);
    EXPECT_EQ(sibling.key(), base);
  }
}

TEST(ConfigAxes, F32KeysRoundTrip) {
  for (const char* key : {"expl mkl f32", "expl cholmod f32",
                          "expl legacy f32", "expl modern f32",
                          "expl hybrid f32"}) {
    const ApproachAxes axes = parse_axes(key);
    EXPECT_TRUE(axes.valid()) << key;
    EXPECT_EQ(axes.precision, Precision::F32) << key;
    EXPECT_EQ(axes.repr, Representation::Explicit) << key;
    EXPECT_EQ(axes.key(), key);
    // The fp64 sibling differs only in the precision axis.
    ApproachAxes sibling = axes;
    sibling.precision = Precision::F64;
    const std::string base(key, std::strlen(key) - 4);
    EXPECT_EQ(sibling.key(), base);
  }
}

TEST(ConfigAxes, DualOpConfigKeyIsTheOnlySelector) {
  DualOpConfig cfg;
  EXPECT_EQ(cfg.key, "impl mkl");
  EXPECT_EQ(cfg.axes(), parse_axes("impl mkl"));
  cfg.key = "expl legacy sp";
  EXPECT_EQ(cfg.axes().repr, Representation::Explicit);
  EXPECT_EQ(cfg.axes().device, ExecDevice::Gpu);
  EXPECT_TRUE(cfg.axes().sparsity);

  DualOpConfig selected;
  selected.select(parse_axes("expl hybrid sp f32"));
  EXPECT_EQ(selected.key, "expl hybrid sp f32");
}

TEST(Autotune, RecommendConfigFollowsAxes) {
  // CPU axes keep the (unused) defaults; GPU axes pick up the Table-II
  // parameters of their API generation.
  DualOpConfig cpu = recommend_config(parse_axes("expl mkl"), 3, 20000);
  EXPECT_EQ(cpu.key, "expl mkl");
  DualOpConfig legacy = recommend_config(parse_axes("expl legacy"), 3, 20000);
  EXPECT_EQ(legacy.gpu.fwd_storage, FactorStorage::Sparse);
  DualOpConfig modern = recommend_config(parse_axes("expl modern"), 3, 20000);
  EXPECT_EQ(modern.gpu.fwd_storage, FactorStorage::Dense);
  // A batched workload asks for more streams, capped at 8.
  DualOpConfig batched = recommend_config(parse_axes("expl legacy"), 3,
                                          20000, /*nrhs_hint=*/6);
  EXPECT_EQ(batched.gpu.streams, 6);
  DualOpConfig huge = recommend_config(parse_axes("expl legacy"), 3, 20000,
                                       /*nrhs_hint=*/64);
  EXPECT_EQ(huge.gpu.streams, 8);
}

// ---------------------------------------------------------------------------
// Batched multi-RHS lifecycle
// ---------------------------------------------------------------------------

TEST(BatchedApply, MatchesSequentialAppliesForEveryRegisteredKey) {
  // The full consistency matrix: every registered key × several batch
  // widths. Column j of a batch must be bitwise equal to a single apply of
  // column j: every block kernel (SYMM, SpMM, block solves, on the host and
  // the device) rounds each column exactly like its vector kernel, and the
  // gather sums each cluster entry's subdomain contributions in one order.
  // The final narrow batch after the widest one exercises the grow-only
  // batch buffers (a draining lockstep block solve shrinks its batch). The
  // loop-fallback counter staying 0 proves that no key — in particular no
  // GPU key — serves a batch through the base-class loop of single
  // applies.
  FetiProblem p = heat2d_problem(6, 2);
  auto& registry = DualOperatorRegistry::instance();
  const idx n = p.num_lambdas;
  for (const std::string& key : registry.keys()) {
    DualOpConfig cfg = recommend_config(key, 2, p.max_subdomain_dofs());
    auto op = registry.create(key, p, cfg, &test_context());
    op->prepare();
    op->update_values();
    for (idx nrhs : {1, 3, 8, 3}) {
      Rng rng(23u + static_cast<unsigned>(nrhs));
      std::vector<double> x(static_cast<std::size_t>(n) * nrhs);
      for (auto& v : x) v = rng.uniform(-1, 1);
      std::vector<double> y_batch(x.size(), 0.0), y_seq(x.size(), 0.0);
      op->apply(x.data(), y_batch.data(), nrhs);
      for (idx j = 0; j < nrhs; ++j)
        op->apply(x.data() + static_cast<std::size_t>(j) * n,
                  y_seq.data() + static_cast<std::size_t>(j) * n);
      EXPECT_EQ(std::memcmp(y_batch.data(), y_seq.data(),
                            y_batch.size() * sizeof(double)),
                0)
          << "key " << key << " nrhs " << nrhs;
    }
    EXPECT_EQ(op->loop_fallback_count(), 0)
        << "key '" << key << "' served a batch through the base-class loop";
  }
}

// ---------------------------------------------------------------------------
// Device apply path identity
// ---------------------------------------------------------------------------

/// The widths of the identity matrix; the trailing 3 runs after the widest
/// batch, so it reuses grown batch panels.
constexpr idx kIdentityWidths[] = {1, 3, 8, 3};

std::vector<double> random_block(idx n, idx nrhs) {
  Rng rng(41u + static_cast<unsigned>(nrhs));
  std::vector<double> x(static_cast<std::size_t>(n) * nrhs);
  for (auto& v : x) v = rng.uniform(-1, 1);
  return x;
}

/// y = A x through apply_device: x staged into a device block of the
/// object's device_context(), the result copied back.
template <typename Applied>
std::vector<double> apply_through_device(Applied& a,
                                         const std::vector<double>& x,
                                         idx nrhs) {
  gpu::ExecutionContext* ctx = a.device_context();
  EXPECT_NE(ctx, nullptr);
  if (ctx == nullptr) return {};
  gpu::Device& dev = ctx->device();
  gpu::Stream st = ctx->main_stream();
  const std::size_t bytes = x.size() * sizeof(double);
  double* d_x = dev.alloc_n<double>(x.size());
  double* d_y = dev.alloc_n<double>(x.size());
  st.memcpy_h2d(d_x, x.data(), bytes);
  st.synchronize();
  a.apply_device(d_x, d_y, nrhs);
  std::vector<double> y(x.size());
  st.memcpy_d2h(y.data(), d_y, bytes);
  st.synchronize();
  dev.free(d_x);
  dev.free(d_y);
  return y;
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(DeviceApplyPath, HostApplyMatchesApplyDeviceForEveryGpuKey) {
  // apply_device drops only the cluster staging copies of the host-pointer
  // apply: the same scatter, local kernels (SYMV at width 1, SYMM above)
  // and gather run, so the results agree bit for bit.
  FetiProblem p = heat2d_problem(6, 2);
  auto& registry = DualOperatorRegistry::instance();
  const idx n = p.num_lambdas;
  int gpu_keys = 0;
  for (const std::string& key : registry.keys()) {
    if (!registry.uses_gpu(key)) continue;
    ++gpu_keys;
    DualOpConfig cfg = recommend_config(key, 2, p.max_subdomain_dofs());
    auto op = registry.create(key, p, cfg, &test_context());
    op->prepare();
    op->update_values();
    for (idx nrhs : kIdentityWidths) {
      const std::vector<double> x = random_block(n, nrhs);
      std::vector<double> y_host(x.size(), 0.0);
      op->apply(x.data(), y_host.data(), nrhs);
      EXPECT_TRUE(bitwise_equal(y_host, apply_through_device(*op, x, nrhs)))
          << "key " << key << " nrhs " << nrhs;
    }
  }
  EXPECT_EQ(gpu_keys, 14);
}

TEST(DeviceApplyPath, CpuScatterGatherMatchesGpuForEveryGpuKey) {
  // The two scatter/gather placements of Section IV-C move the same values
  // in the same accumulation order; only where the copies run differs.
  FetiProblem p = heat2d_problem(6, 2);
  auto& registry = DualOperatorRegistry::instance();
  const idx n = p.num_lambdas;
  for (const std::string& key : registry.keys()) {
    if (!registry.uses_gpu(key)) continue;
    auto make = [&](SgLocation where) {
      DualOpConfig cfg = recommend_config(key, 2, p.max_subdomain_dofs());
      cfg.gpu.scatter_gather = where;
      auto op = registry.create(key, p, cfg, &test_context());
      op->prepare();
      op->update_values();
      return op;
    };
    auto on_cpu = make(SgLocation::Cpu);
    auto on_gpu = make(SgLocation::Gpu);
    for (idx nrhs : kIdentityWidths) {
      const std::vector<double> x = random_block(n, nrhs);
      std::vector<double> y_cpu(x.size(), 0.0), y_gpu(x.size(), 0.0);
      on_cpu->apply(x.data(), y_cpu.data(), nrhs);
      on_gpu->apply(x.data(), y_gpu.data(), nrhs);
      EXPECT_TRUE(bitwise_equal(y_cpu, y_gpu))
          << "key " << key << " nrhs " << nrhs;
    }
  }
}

TEST(DeviceApplyPath, GpuPreconditionerHostMatchesDevice) {
  FetiProblem p = heat2d_problem(6, 2);
  auto& registry = precond::PreconditionerRegistry::instance();
  const idx n = p.num_lambdas;
  int gpu_keys = 0;
  for (const std::string& key : registry.keys()) {
    if (!registry.uses_gpu(key)) continue;
    ++gpu_keys;
    auto m = precond::make_preconditioner(p, key, &test_context());
    m->prepare();
    m->update_values();
    for (idx nrhs : kIdentityWidths) {
      const std::vector<double> x = random_block(n, nrhs);
      std::vector<double> y_host(x.size(), 0.0);
      m->apply(x.data(), y_host.data(), nrhs);
      EXPECT_TRUE(bitwise_equal(y_host, apply_through_device(*m, x, nrhs)))
          << "key " << key << " nrhs " << nrhs;
    }
  }
  EXPECT_EQ(gpu_keys, 9);
}

TEST(MixedPrecision, F32KeysMatchTheirF64SiblingsForEveryBatchWidth) {
  // Every registered " f32" key against the key with the suffix stripped
  // ("expl legacy sp f32" vs "expl legacy sp"), single and batched applies, within the relaxed fp32 tolerance tier —
  // the storage is demoted to fp32, so ~1e-7 relative per entry is the
  // floor; 1e-5 leaves headroom for accumulation ordering. The fallback
  // counter staying 0 proves the f32 keys serve batches through the real
  // block implementations, not the base-class loop.
  FetiProblem p = heat2d_problem(6, 2);
  auto& registry = DualOperatorRegistry::instance();
  const idx n = p.num_lambdas;
  int f32_keys = 0;
  for (const std::string& key : registry.keys()) {
    const std::size_t pos = key.find(" f32");
    if (pos == std::string::npos) continue;
    ++f32_keys;
    std::string sibling = key;
    sibling.erase(pos, 4);
    ASSERT_TRUE(registry.contains(sibling)) << key;

    auto make = [&](const std::string& k) {
      DualOpConfig cfg = recommend_config(k, 2, p.max_subdomain_dofs());
      auto op = registry.create(k, p, cfg, &test_context());
      op->prepare();
      op->update_values();
      return op;
    };
    auto op32 = make(key);
    auto op64 = make(sibling);
    EXPECT_EQ(std::string(op32->name()), key);

    // fp32 storage of the same F̃ must be (about) half the fp64 bytes.
    if (op64->apply_bytes() > 0) {
      EXPECT_EQ(op32->apply_bytes() * 2, op64->apply_bytes()) << key;
    }

    for (idx nrhs : {1, 3, 8}) {
      Rng rng(57u + static_cast<unsigned>(nrhs));
      std::vector<double> x(static_cast<std::size_t>(n) * nrhs);
      for (auto& v : x) v = rng.uniform(-1, 1);
      std::vector<double> y32(x.size(), 0.0), y64(x.size(), 0.0);
      op32->apply(x.data(), y32.data(), nrhs);
      op64->apply(x.data(), y64.data(), nrhs);
      double scale = 0.0;
      for (double v : y64) scale = std::max(scale, std::fabs(v));
      for (std::size_t i = 0; i < x.size(); ++i)
        EXPECT_NEAR(y32[i], y64[i], 1e-5 * std::max(1.0, scale))
            << "entry " << i << " key " << key << " nrhs " << nrhs;
    }
    EXPECT_EQ(op32->loop_fallback_count(), 0) << key;
  }
  // Every dense f32 key gained an sp f32 sibling, doubling the count.
  EXPECT_EQ(f32_keys, 10);
}

TEST(SparsityAware, TrsmSyrkKeysCountPrunedForwardSolveWork) {
  // The TRSM/SYRK explicit families solve their panel in staircase order:
  // the counted forward-solve work (factor entries × live columns) is
  // positive, strictly below the unpruned nnz(L) × solve columns, and
  // accumulates per refresh. Every other family counts none.
  FetiProblem p = heat2d_problem(6, 2);
  auto& registry = DualOperatorRegistry::instance();
  int pruned_keys = 0;
  for (const std::string& key : registry.keys()) {
    DualOpConfig cfg = recommend_config(key, 2, p.max_subdomain_dofs());
    auto op = registry.create(key, p, cfg, &test_context());
    op->prepare();
    op->update_values();
    const bool trsm_syrk = key.rfind("expl legacy", 0) == 0 ||
                           key.rfind("expl modern", 0) == 0 ||
                           key.rfind("expl cholmod", 0) == 0;
    if (!trsm_syrk) {
      EXPECT_EQ(op->solve_work(), 0) << key;
      continue;
    }
    ++pruned_keys;
    const bool sp = key.find(" sp") != std::string::npos;
    long unpruned = 0;
    for (const auto& sub : p.sub) {
      sparse::SimplicialCholesky chol;
      chol.analyze(sub.k_reg, cfg.ordering);
      const idx cols = sp ? decomp::boundary_dofs(sub).count()
                          : sub.num_local_lambdas();
      unpruned +=
          static_cast<long>(chol.factor_upper_structure().nnz()) * cols;
    }
    const long work = op->solve_work();
    EXPECT_GT(work, 0) << key;
    EXPECT_LT(work, unpruned) << key;
    p.mark_values_changed();
    op->update_values();
    EXPECT_EQ(op->solve_work(), 2 * work) << key;
  }
  EXPECT_EQ(pruned_keys, 12);
}

TEST(SparsityAware, SpKeysMatchTheirDenseSiblingsForEveryBatchWidth) {
  // Every registered " sp" key against the dense key with the tag stripped
  // (fp32 variants included: "expl legacy sp f32" vs "expl legacy f32"):
  // the boundary-restricted assembly is an exact
  // algebraic reformulation — F̃ = B_b (E_b K⁺ E_bᵀ) B_bᵀ = B̃ K⁺ B̃ᵀ because
  // B̃'s column support IS the boundary set — so fp64 sp keys match their
  // dense siblings to round-off and only the fp32 tier is relaxed. The
  // solve-column counters certify the panel reduction (nb < m columns per
  // subdomain), and the fallback counter staying 0 proves the sp keys
  // serve batches through the real block implementations.
  FetiProblem p = heat2d_problem(6, 2);
  auto& registry = DualOperatorRegistry::instance();
  const idx n = p.num_lambdas;
  int sp_keys = 0;
  for (const std::string& key : registry.keys()) {
    const std::size_t pos = key.find(" sp");
    if (pos == std::string::npos) continue;
    ++sp_keys;
    std::string sibling = key;
    sibling.erase(pos, 3);
    ASSERT_TRUE(registry.contains(sibling)) << key;

    auto make = [&](const std::string& k) {
      DualOpConfig cfg = recommend_config(k, 2, p.max_subdomain_dofs());
      auto op = registry.create(k, p, cfg, &test_context());
      op->prepare();
      op->update_values();
      return op;
    };
    auto op_sp = make(key);
    auto op_dense = make(sibling);
    EXPECT_EQ(std::string(op_sp->name()), key);

    // The sp assembly solved strictly fewer K⁻¹ columns than the dense one
    // (every interior subdomain has redundant multipliers and interior
    // DOFs on this grid), and both counters are non-zero.
    EXPECT_GT(op_sp->solve_columns(), 0) << key;
    EXPECT_LT(op_sp->solve_columns(), op_dense->solve_columns()) << key;

    const double tol = key.find(" f32") != std::string::npos ? 2e-6 : 1e-10;
    for (idx nrhs : {1, 3, 8}) {
      Rng rng(91u + static_cast<unsigned>(nrhs));
      std::vector<double> x(static_cast<std::size_t>(n) * nrhs);
      for (auto& v : x) v = rng.uniform(-1, 1);
      std::vector<double> y_sp(x.size(), 0.0), y_dense(x.size(), 0.0);
      op_sp->apply(x.data(), y_sp.data(), nrhs);
      op_dense->apply(x.data(), y_dense.data(), nrhs);
      double scale = 0.0;
      for (double v : y_dense) scale = std::max(scale, std::fabs(v));
      for (std::size_t i = 0; i < x.size(); ++i)
        EXPECT_NEAR(y_sp[i], y_dense[i], tol * std::max(1.0, scale))
            << "entry " << i << " key " << key << " nrhs " << nrhs;
    }
    EXPECT_EQ(op_sp->loop_fallback_count(), 0) << key;
  }
  EXPECT_EQ(sp_keys, 10);
}

TEST(SparsityAware, EndToEndSolveMatchesReferenceOnSpKeys) {
  // Full PCPG through one sp key per explicit family (CPU Schur, CPU TRSM,
  // GPU, hybrid) against the global direct solve: the boundary-restricted
  // assembly must not move the converged solution.
  FetiProblem p = heat2d_problem(8, 2);
  mesh::Mesh m = mesh::make_grid_2d(8, 8, ElementOrder::Linear);
  const auto u_ref = fem::reference_solve(
      fem::assemble_global(m, Physics::HeatTransfer));
  double scale = 1.0;
  for (double v : u_ref) scale = std::max(scale, std::fabs(v));

  for (const char* key : {"expl mkl sp", "expl cholmod sp", "expl legacy sp",
                          "expl modern sp", "expl hybrid sp"}) {
    FetiSolverOptions opts;
    opts.dualop = recommend_config(key, 2, p.max_subdomain_dofs());
    opts.pcpg.rel_tolerance = 1e-10;
    FetiSolver solver(p, opts, &test_context());
    solver.prepare();
    const FetiStepResult res = solver.solve_step();
    ASSERT_TRUE(res.converged) << key;
    ASSERT_EQ(res.u.size(), u_ref.size());
    for (std::size_t i = 0; i < u_ref.size(); ++i)
      EXPECT_NEAR(res.u[i], u_ref[i], 1e-7 * scale) << key;
  }
}

TEST(MixedPrecision, EndToEndSolveConvergesOnF32Keys) {
  // PCPG stays fully fp64 (the operator is a black box returning fp64 dual
  // vectors), so an fp32 operator converges to the same solution tolerance
  // as its fp64 sibling — possibly in a few more iterations. The tolerance
  // must sit above the fp32 operator's noise floor (cond(F̃) × fp32 eps):
  // pushing a conjugate gradient below the precision of its operator
  // breaks down (p·Fp hits rounding noise) in any precision. Checked
  // against the direct solve for one CPU and one GPU f32 key.
  FetiProblem p = heat2d_problem(8, 2);
  mesh::Mesh m = mesh::make_grid_2d(8, 8, ElementOrder::Linear);
  const auto u_ref = fem::reference_solve(
      fem::assemble_global(m, Physics::HeatTransfer));
  double scale = 1.0;
  for (double v : u_ref) scale = std::max(scale, std::fabs(v));

  auto solve = [&](const std::string& key, double tol) {
    FetiSolverOptions opts;
    opts.dualop = recommend_config(key, 2, p.max_subdomain_dofs());
    opts.pcpg.rel_tolerance = tol;
    FetiSolver solver(p, opts, &test_context());
    solver.prepare();
    return solver.solve_step();
  };

  for (const char* key : {"expl mkl f32", "expl legacy f32"}) {
    const FetiStepResult res = solve(key, 1e-5);
    ASSERT_TRUE(res.converged) << key;
    EXPECT_EQ(res.operator_precision, Precision::F32) << key;
    ASSERT_EQ(res.u.size(), u_ref.size());
    for (std::size_t i = 0; i < u_ref.size(); ++i)
      EXPECT_NEAR(res.u[i], u_ref[i], 1e-5 * scale) << key;

    // The fp64 sibling at the same tolerance: same solution (to that
    // tolerance), an iteration count in the same ballpark, and the
    // precision field reporting F64.
    std::string sibling(key);
    sibling.erase(sibling.find(" f32"), 4);
    const FetiStepResult ref = solve(sibling, 1e-5);
    ASSERT_TRUE(ref.converged) << sibling;
    EXPECT_EQ(ref.operator_precision, Precision::F64) << sibling;
    EXPECT_LE(std::abs(res.pcpg_iterations - ref.pcpg_iterations), 3) << key;
    for (std::size_t i = 0; i < u_ref.size(); ++i)
      EXPECT_NEAR(res.u[i], ref.u[i], 2e-5 * scale) << key;
  }
}

TEST(Autotune, WorkloadHintSelectsF32Storage) {
  const ApproachAxes expl_gpu = parse_axes("expl legacy");
  // No hint: fp64 stays.
  EXPECT_EQ(recommend_config(expl_gpu, 3, 20000).key,
            "expl legacy");
  // Bandwidth-bound workloads halve the streamed bytes.
  WorkloadHint bandwidth;
  bandwidth.bandwidth_bound = true;
  EXPECT_EQ(recommend_config(expl_gpu, 3, 20000, 1, bandwidth)
                .key,
            "expl legacy f32");
  // A memory budget the fp64 footprint overflows (but fp32 fits) demotes:
  // 8 subdomains × 1000² × 8 B = 64 MB > 48 MB budget; fp32 needs 32 MB.
  WorkloadHint tight;
  tight.num_subdomains = 8;
  tight.lambdas_per_subdomain = 1000;
  tight.memory_budget_bytes = 48ull << 20;
  EXPECT_EQ(recommend_config(expl_gpu, 3, 20000, 1, tight).key,
            "expl legacy f32");
  // A comfortable budget keeps fp64; a hopeless one (even fp32 overflows)
  // also keeps fp64 — precision cannot save that run.
  WorkloadHint roomy = tight;
  roomy.memory_budget_bytes = 256ull << 20;
  EXPECT_EQ(recommend_config(expl_gpu, 3, 20000, 1, roomy).key,
            "expl legacy");
  WorkloadHint hopeless = tight;
  hopeless.memory_budget_bytes = 8ull << 20;
  EXPECT_EQ(
      recommend_config(expl_gpu, 3, 20000, 1, hopeless).key,
      "expl legacy");
  // Implicit families have no F̃ storage: the hint never touches them.
  EXPECT_EQ(recommend_config(parse_axes("impl legacy"), 3, 20000, 1,
                             bandwidth)
                .key,
            "impl legacy");
}

TEST(Autotune, WorkloadHintSelectsSparsityAwareAssembly) {
  const ApproachAxes expl_gpu = parse_axes("expl legacy");
  // No hint (boundary fraction unknown): the dense assembly stays.
  EXPECT_EQ(recommend_config(expl_gpu, 3, 20000).key,
            "expl legacy");
  // Interior-heavy subdomains (small boundary fraction) select the
  // boundary-restricted solve panel.
  WorkloadHint interior;
  interior.boundary_fraction = 0.2;
  EXPECT_EQ(recommend_config(expl_gpu, 3, 20000, 1, interior)
                .key,
            "expl legacy sp");
  // Boundary-dominated subdomains keep the dense panel: the sp expansion
  // SpMMs would be pure overhead.
  WorkloadHint surface;
  surface.boundary_fraction = 0.9;
  EXPECT_EQ(recommend_config(expl_gpu, 3, 20000, 1, surface)
                .key,
            "expl legacy");
  // Composes with the precision hint: the tags stack as "<base> sp f32"
  // per the key grammar.
  WorkloadHint both = interior;
  both.bandwidth_bound = true;
  EXPECT_EQ(recommend_config(expl_gpu, 3, 20000, 1, both).key,
            "expl legacy sp f32");
  // CPU explicit axes take the hint too; implicit families never do.
  EXPECT_EQ(recommend_config(parse_axes("expl mkl"), 3, 20000, 1,
                             interior)
                .key,
            "expl mkl sp");
  EXPECT_EQ(recommend_config(parse_axes("impl legacy"), 3, 20000, 1,
                             interior)
                .key,
            "impl legacy");
}

namespace {

/// Minimal operator that does NOT override apply_many: batches degrade to
/// the counted base-class loop (what every built-in operator must avoid).
class LoopOnlyOp final : public DualOperator {
 public:
  using DualOperator::DualOperator;
  void prepare() override {}
  void update_values() override {}
  void kplus_solve(idx, const double*, double*) const override {}

 protected:
  void apply_one(const double* x, double* y) override {
    std::copy_n(x, p_.num_lambdas, y);
  }
};

}  // namespace

TEST(BatchedApply, BaseClassLoopFallbackIsCounted) {
  FetiProblem p = heat2d_problem(4);
  LoopOnlyOp op(p);
  EXPECT_EQ(op.loop_fallback_count(), 0);
  const std::size_t n = static_cast<std::size_t>(p.num_lambdas);
  std::vector<double> x(n * 2, 1.0), y(x.size(), 0.0);
  op.apply(x.data(), y.data());
  op.apply(x.data(), y.data(), 1);  // single column routes to apply_one
  EXPECT_EQ(op.loop_fallback_count(), 0);
  op.apply(x.data(), y.data(), 2);
  EXPECT_EQ(op.loop_fallback_count(), 1);
}

TEST(BatchedApply, SmallBatchEdgeCases) {
  FetiProblem p = heat2d_problem(4);
  DualOpConfig cfg;
  cfg.key = "expl mkl";
  auto op = make_dual_operator(p, cfg);
  op->prepare();
  op->update_values();
  const idx n = p.num_lambdas;
  std::vector<double> x(static_cast<std::size_t>(n), 1.0);
  std::vector<double> y1(x.size(), 0.0), y2(x.size(), 0.0);
  op->apply(x.data(), y1.data());
  op->apply(x.data(), y2.data(), 1);  // nrhs == 1 routes to the same path
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_EQ(y1[i], y2[i]);
  op->apply(nullptr, nullptr, 0);  // nrhs == 0 is a no-op
  EXPECT_THROW(op->apply(x.data(), y1.data(), -1), std::invalid_argument);
}

TEST(PcpgBlock, SolveManyMatchesIndividualSolves) {
  FetiProblem p = heat2d_problem(8, 2);
  DualOpConfig cfg =
      recommend_config(parse_axes("expl mkl"), 2, p.max_subdomain_dofs());
  auto op = make_dual_operator(p, cfg);
  op->prepare();
  op->update_values();
  Projector projector(p);

  std::vector<double> d0(static_cast<std::size_t>(p.num_lambdas));
  op->compute_d(d0.data());
  std::vector<std::vector<double>> ds;
  for (int j = 0; j < 3; ++j) {
    ds.push_back(d0);
    for (auto& v : ds.back()) v *= 1.0 + 0.5 * j;
  }

  PcpgOptions popts;
  popts.rel_tolerance = 1e-10;
  Pcpg pcpg(*op, projector, popts);
  std::vector<PcpgResult> block = pcpg.solve_many(ds);
  ASSERT_EQ(block.size(), ds.size());
  for (std::size_t j = 0; j < ds.size(); ++j) {
    PcpgResult single = pcpg.solve(ds[j]);
    ASSERT_TRUE(block[j].converged);
    ASSERT_TRUE(single.converged);
    // The batched SYMM and the single-vector SYMV round differently, which
    // can move the tolerance crossing by one iteration.
    EXPECT_NEAR(block[j].iterations, single.iterations, 1) << "system " << j;
    double scale = 0.0;
    for (double v : single.lambda) scale = std::max(scale, std::fabs(v));
    for (std::size_t i = 0; i < single.lambda.size(); ++i)
      EXPECT_NEAR(block[j].lambda[i], single.lambda[i],
                  1e-8 * std::max(1.0, scale));
    ASSERT_EQ(block[j].alpha.size(), single.alpha.size());
    for (std::size_t i = 0; i < single.alpha.size(); ++i)
      EXPECT_NEAR(block[j].alpha[i], single.alpha[i], 1e-8);
  }
}

// ---------------------------------------------------------------------------
// Execution context
// ---------------------------------------------------------------------------

TEST(ExecutionContext, StreamSpanClampsAndSharesThePool) {
  gpu::DeviceConfig cfg;
  cfg.worker_threads = 2;
  cfg.launch_latency_us = 0.0;
  cfg.memory_bytes = 16ull << 20;
  gpu::ExecutionContext ctx(cfg);
  EXPECT_EQ(ctx.pooled_streams(), 0);
  EXPECT_EQ(ctx.stream_span(3).size(), 3u);
  EXPECT_EQ(ctx.pooled_streams(), 3);
  // A smaller request reuses the existing streams; a zero/negative request
  // clamps to one.
  EXPECT_EQ(ctx.stream_span(2).size(), 2u);
  EXPECT_EQ(ctx.stream_span(0).size(), 1u);
  EXPECT_EQ(ctx.pooled_streams(), 3);
  EXPECT_EQ(ctx.stream_span(10000).size(),
            static_cast<std::size_t>(gpu::ExecutionContext::kMaxStreams));
  // The main stream is distinct from the worker pool and stable.
  gpu::Stream main1 = ctx.main_stream();
  gpu::Stream main2 = ctx.main_stream();
  EXPECT_TRUE(main1.valid());
  EXPECT_TRUE(main2.valid());
  ctx.synchronize();
}

// ---------------------------------------------------------------------------
// Single-device GPU operators: each operator runs all of its cluster's
// subdomains on one device, whatever their count
// ---------------------------------------------------------------------------

/// Applies F to two probe columns and computes d on `key`, on a fresh
/// single-device context.
std::pair<std::vector<double>, std::vector<double>> apply_and_d(
    const FetiProblem& p, const std::string& key) {
  gpu::DeviceConfig cfg;
  cfg.worker_threads = 4;
  cfg.launch_latency_us = 0.0;
  cfg.memory_bytes = 512ull << 20;
  gpu::ExecutionContext ctx(cfg);
  const idx n = p.num_lambdas;
  Rng rng(71);
  std::vector<double> x(static_cast<std::size_t>(n) * 2);
  for (auto& v : x) v = rng.uniform(-1, 1);
  DualOpConfig c = recommend_config(key, 2, p.max_subdomain_dofs());
  auto op = DualOperatorRegistry::instance().create(key, p, c, &ctx);
  op->prepare();
  op->update_values();
  std::vector<double> y(x.size(), 0.0);
  op->apply(x.data(), y.data(), 2);
  std::vector<double> d(static_cast<std::size_t>(n));
  op->compute_d(d.data());
  return {std::move(y), std::move(d)};
}

TEST(GpuOperator, MatchesCpuOperatorOnAnOddSubdomainCount) {
  // 3x3 subdomains: an odd count the GPU families must cover in full, on
  // one device, for the batched apply and for compute_d (kplus_solve).
  FetiProblem p = heat2d_problem(9, 3);
  const auto [y_ref, d_ref] = apply_and_d(p, "impl mkl");
  double scale = 0.0;
  for (double v : y_ref) scale = std::max(scale, std::fabs(v));
  scale = std::max(1.0, scale);
  for (const char* key : {"impl legacy", "impl modern", "expl legacy",
                          "expl modern", "expl hybrid", "expl legacy sp"}) {
    const auto [y, d] = apply_and_d(p, key);
    ASSERT_EQ(y.size(), y_ref.size()) << key;
    for (std::size_t i = 0; i < y.size(); ++i)
      EXPECT_NEAR(y[i], y_ref[i], 1e-8 * scale) << "entry " << i << " " << key;
    for (std::size_t i = 0; i < d.size(); ++i)
      EXPECT_NEAR(d[i], d_ref[i], 1e-8 * scale) << "entry " << i << " " << key;
  }
}

TEST(GpuOperator, SingleSubdomainClusterMatchesCpuOperator) {
  // The degenerate cluster of one subdomain next to the 2x2 one: the GPU
  // operator's dual vector must hold each subdomain's contribution exactly
  // once.
  for (idx splits : {1, 2}) {
    FetiProblem p = heat2d_problem(4, splits);
    const auto [y_ref, d_ref] = apply_and_d(p, "impl mkl");
    for (const char* key : {"expl legacy", "impl legacy", "expl hybrid"}) {
      const auto [y, d] = apply_and_d(p, key);
      for (std::size_t i = 0; i < y.size(); ++i)
        EXPECT_NEAR(y[i], y_ref[i], 1e-9)
            << "splits " << splits << " " << key << " entry " << i;
      for (std::size_t i = 0; i < d.size(); ++i)
        EXPECT_NEAR(d[i], d_ref[i], 1e-9)
            << "splits " << splits << " " << key << " entry " << i;
    }
  }
}

TEST(GpuOperator, EndToEndSolveOnAnOddSubdomainCountMatchesReference) {
  // Full PCPG on 3x3 subdomains through one key per GPU family against the
  // global direct solve.
  FetiProblem p = heat2d_problem(9, 3);
  mesh::Mesh m = mesh::make_grid_2d(9, 9, ElementOrder::Linear);
  const auto u_ref = fem::reference_solve(
      fem::assemble_global(m, Physics::HeatTransfer));
  double scale = 1.0;
  for (double v : u_ref) scale = std::max(scale, std::fabs(v));
  for (const char* key : {"impl legacy", "expl legacy", "expl hybrid"}) {
    FetiSolverOptions opts;
    opts.dualop = recommend_config(key, 2, p.max_subdomain_dofs());
    opts.pcpg.rel_tolerance = 1e-10;
    FetiSolver solver(p, opts, &test_context());
    solver.prepare();
    const FetiStepResult res = solver.solve_step();
    ASSERT_TRUE(res.converged) << key;
    ASSERT_EQ(res.u.size(), u_ref.size()) << key;
    for (std::size_t i = 0; i < u_ref.size(); ++i)
      EXPECT_NEAR(res.u[i], u_ref[i], 1e-7 * scale) << key;
  }
}

TEST(Registry, CreateRejectsDeviceCountSuffixes) {
  // No key names a device count, so neither entry point builds one.
  auto& registry = DualOperatorRegistry::instance();
  FetiProblem p = heat2d_problem(4);
  for (const char* key : {"expl legacy x2", "impl legacy x4",
                          "expl hybrid x2", "expl legacy sp f32 x2",
                          "expl legacy x1"}) {
    DualOpConfig cfg;
    EXPECT_THROW(registry.create(key, p, cfg, &test_context()),
                 std::invalid_argument)
        << key;
    cfg.key = key;
    EXPECT_THROW(make_dual_operator(p, cfg, &test_context()),
                 std::invalid_argument)
        << key;
  }
}

TEST(Autotune, EveryRecommendationIsARegisteredKey) {
  // Whatever the family, batch width and workload hint, the recommended
  // key is one the registry can build.
  auto& registry = DualOperatorRegistry::instance();
  WorkloadHint none;
  WorkloadHint bandwidth;
  bandwidth.bandwidth_bound = true;
  WorkloadHint interior;
  interior.boundary_fraction = 0.2;
  WorkloadHint both = interior;
  both.bandwidth_bound = true;
  for (const std::string& family : registry.families())
    for (int nrhs : {1, 4, 64})
      for (const WorkloadHint& hint : {none, bandwidth, interior, both}) {
        const DualOpConfig cfg =
            recommend_config(parse_axes(family), 3, 20000, nrhs, hint);
        EXPECT_TRUE(registry.contains(cfg.key)) << family << " -> " << cfg.key;
        EXPECT_EQ(cfg.axes().repr, parse_axes(family).repr) << family;
        EXPECT_EQ(cfg.axes().device, parse_axes(family).device) << family;
        EXPECT_EQ(cfg.axes().backend, parse_axes(family).backend) << family;
      }
}

TEST(FetiSolverBlock, SolveStepManyMatchesSolveStepOnGpuKey) {
  // The solver-level multi-RHS entry: one preprocessing, all systems in
  // lockstep through Pcpg::solve_many, every iteration one batched apply —
  // served device-side (fallback counter stays 0) on a GPU key.
  FetiProblem p = heat2d_problem(8, 2);
  gpu::DeviceConfig cfg;
  cfg.worker_threads = 4;
  cfg.launch_latency_us = 0.0;
  cfg.memory_bytes = 512ull << 20;
  gpu::ExecutionContext ctx(cfg);
  FetiSolverOptions opts;
  opts.dualop = recommend_config("expl legacy", 2, p.max_subdomain_dofs());
  opts.pcpg.rel_tolerance = 1e-10;
  FetiSolver solver(p, opts, &ctx);
  solver.prepare();
  FetiStepResult single = solver.solve_step();
  ASSERT_TRUE(single.converged);

  std::vector<double> d(static_cast<std::size_t>(p.num_lambdas));
  solver.dual_operator().compute_d(d.data());
  std::vector<double> d_scaled = d;
  for (auto& v : d_scaled) v *= 1.5;
  std::vector<FetiStepResult> block = solver.solve_step_many({d, d_scaled});
  ASSERT_EQ(block.size(), 2u);
  ASSERT_TRUE(block[0].converged);
  ASSERT_TRUE(block[1].converged);
  EXPECT_EQ(solver.dual_operator().loop_fallback_count(), 0);
  // System 0 solves the physical d, so its primal solution matches the
  // single-RHS step.
  ASSERT_EQ(block[0].u.size(), single.u.size());
  double scale = 0.0;
  for (double v : single.u) scale = std::max(scale, std::fabs(v));
  for (std::size_t i = 0; i < single.u.size(); ++i)
    EXPECT_NEAR(block[0].u[i], single.u[i], 1e-7 * std::max(1.0, scale));
  EXPECT_TRUE(solver.solve_step_many({}).empty());
}

TEST(PcpgBlock, EmptyBatchReturnsEmpty) {
  FetiProblem p = heat2d_problem(4);
  DualOpConfig cfg;
  auto op = make_dual_operator(p, cfg);
  op->prepare();
  op->update_values();
  Projector projector(p);
  Pcpg pcpg(*op, projector, PcpgOptions{});
  EXPECT_TRUE(pcpg.solve_many({}).empty());
}

}  // namespace
}  // namespace feti::core
