// Kernel-level microbenchmarks (google-benchmark): the dense and sparse
// primitives the dual-operator pipelines are built from, including the
// legacy vs modern sparse triangular solves whose gap drives Table II.

#include <benchmark/benchmark.h>

#include "gpu/sparse.hpp"
#include "la/blas_dense.hpp"
#include "la/blas_sparse.hpp"
#include "sparse/simplicial_cholesky.hpp"
#include "util/rng.hpp"

namespace {

using namespace feti;

la::DenseMatrix random_dense(idx rows, idx cols, la::Layout layout,
                             std::uint64_t seed) {
  la::DenseMatrix m(rows, cols, layout);
  Rng rng(seed);
  for (idx r = 0; r < rows; ++r)
    for (idx c = 0; c < cols; ++c) m.at(r, c) = rng.uniform(-1, 1);
  return m;
}

/// A realistic factor: simplicial Cholesky of a 2D grid Laplacian.
la::Csr grid_factor(idx grid) {
  std::vector<la::Triplet> t;
  auto id = [grid](idx i, idx j) { return j * grid + i; };
  for (idx j = 0; j < grid; ++j)
    for (idx i = 0; i < grid; ++i) {
      double d = 4.1;
      if (i > 0) t.push_back({id(i, j), id(i - 1, j), -1.0});
      if (i + 1 < grid) t.push_back({id(i, j), id(i + 1, j), -1.0});
      if (j > 0) t.push_back({id(i, j), id(i, j - 1), -1.0});
      if (j + 1 < grid) t.push_back({id(i, j), id(i, j + 1), -1.0});
      t.push_back({id(i, j), id(i, j), d});
    }
  la::Csr a = la::Csr::from_triplets(grid * grid, grid * grid, std::move(t));
  sparse::SimplicialCholesky chol;
  chol.analyze(a, sparse::OrderingKind::MinimumDegree);
  chol.factorize(a);
  return chol.factor_upper();
}

void BM_Gemv(benchmark::State& state) {
  const idx n = static_cast<idx>(state.range(0));
  la::DenseMatrix a = random_dense(n, n, la::Layout::ColMajor, 1);
  std::vector<double> x(static_cast<std::size_t>(n), 1.0), y(x);
  for (auto _ : state) {
    la::gemv(1.0, a.cview(), la::Trans::No, x.data(), 0.0, y.data());
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_Gemv)->Arg(256)->Arg(1024);

void BM_Symv(benchmark::State& state) {
  const idx n = static_cast<idx>(state.range(0));
  la::DenseMatrix a = random_dense(n, n, la::Layout::ColMajor, 2);
  std::vector<double> x(static_cast<std::size_t>(n), 1.0), y(x);
  for (auto _ : state) {
    la::symv(la::Uplo::Upper, 1.0, a.cview(), x.data(), 0.0, y.data());
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_Symv)->Arg(256)->Arg(1024);

// The explicit apply's dense blocks at the sizes of fetibench's apply
// workload (F̃ᵢ and M̃ᵢ are 217 × 217 and 281 × 281 there): one stored
// triangle, column-major as the operators store it, upper (arg 0) or lower
// (arg 1). Bytes processed count the stored triangle once per call, so the
// bytes_per_second counter reads against the host's memory bandwidth.
template <typename T>
la::DenseMatrixT<T> sym_block(benchmark::State& state, la::Uplo& uplo) {
  const idx m = static_cast<idx>(state.range(0));
  uplo = state.range(1) == 0 ? la::Uplo::Upper : la::Uplo::Lower;
  const la::DenseMatrix full = random_dense(m, m, la::Layout::ColMajor, 9);
  la::DenseMatrixT<T> a(m, m, la::Layout::ColMajor);
  for (idx c = 0; c < m; ++c)
    for (idx r = 0; r < m; ++r) a.at(r, c) = static_cast<T>(full.at(r, c));
  return a;
}

template <typename T>
void set_triangle_bytes(benchmark::State& state, idx m) {
  state.SetBytesProcessed(state.iterations() * m * (m + 1) / 2 *
                          static_cast<std::int64_t>(sizeof(T)));
}

template <typename T>
void BM_SymvBlock(benchmark::State& state) {
  la::Uplo uplo{};
  const la::DenseMatrixT<T> a = sym_block<T>(state, uplo);
  const idx m = a.rows();
  std::vector<T> x(static_cast<std::size_t>(m), T(1)), y(x);
  for (auto _ : state) {
    la::symv(uplo, 1.0, a.cview(), x.data(), 0.0, y.data());
    benchmark::DoNotOptimize(y.data());
  }
  set_triangle_bytes<T>(state, m);
}
BENCHMARK_TEMPLATE(BM_SymvBlock, double)
    ->ArgsProduct({{217, 281}, {0, 1}})
    ->ArgNames({"m", "lower"});
BENCHMARK_TEMPLATE(BM_SymvBlock, float)
    ->ArgsProduct({{217, 281}, {0, 1}})
    ->ArgNames({"m", "lower"});

/// SYMM over an 8-wide row-major panel, the batched apply's layout.
template <typename T>
void BM_SymmBlock(benchmark::State& state) {
  la::Uplo uplo{};
  const la::DenseMatrixT<T> a = sym_block<T>(state, uplo);
  const idx m = a.rows(), w = 8;
  la::DenseMatrixT<T> b(m, w, la::Layout::RowMajor), c(b);
  for (idx r = 0; r < m; ++r)
    for (idx j = 0; j < w; ++j) b.at(r, j) = T(1);
  for (auto _ : state) {
    la::symm(uplo, 1.0, a.cview(), b.cview(), 0.0, c.view());
    benchmark::DoNotOptimize(c.data());
  }
  set_triangle_bytes<T>(state, m);
}
BENCHMARK_TEMPLATE(BM_SymmBlock, double)
    ->ArgsProduct({{217, 281}, {0, 1}})
    ->ArgNames({"m", "lower"});
BENCHMARK_TEMPLATE(BM_SymmBlock, float)
    ->ArgsProduct({{217, 281}, {0, 1}})
    ->ArgNames({"m", "lower"});

void BM_Syrk(benchmark::State& state) {
  const idx n = static_cast<idx>(state.range(0));
  const idx k = 4 * n;
  la::DenseMatrix a = random_dense(k, n, la::Layout::RowMajor, 3);
  la::DenseMatrix c(n, n, la::Layout::ColMajor);
  for (auto _ : state) {
    la::syrk(la::Uplo::Upper, la::Trans::Yes, 1.0, a.cview(), 0.0, c.view());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * k / 2);
}
BENCHMARK(BM_Syrk)->Arg(64)->Arg(256);

void BM_DenseTrsm(benchmark::State& state) {
  const idx n = static_cast<idx>(state.range(0));
  const idx w = n / 4;
  la::DenseMatrix t(n, n, la::Layout::ColMajor);
  Rng rng(4);
  for (idx r = 0; r < n; ++r) {
    t.at(r, r) = 3.0;
    for (idx c = r + 1; c < n; ++c) t.at(r, c) = rng.uniform(-0.1, 0.1);
  }
  la::DenseMatrix b = random_dense(n, w, la::Layout::RowMajor, 5);
  for (auto _ : state) {
    la::DenseMatrix x = b;
    la::trsm(la::Uplo::Upper, la::Trans::Yes, t.cview(), x.view());
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * w / 2);
}
BENCHMARK(BM_DenseTrsm)->Arg(256)->Arg(512);

void BM_SparseTrsmCpu(benchmark::State& state) {
  const idx grid = static_cast<idx>(state.range(0));
  la::Csr u = grid_factor(grid);
  const idx n = u.nrows(), w = 32;
  la::DenseMatrix b = random_dense(n, w, la::Layout::RowMajor, 6);
  for (auto _ : state) {
    la::DenseMatrix x = b;
    la::sp_trsm(la::Uplo::Upper, la::Trans::Yes, u, x.view());
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(state.iterations() * u.nnz() * w);
}
BENCHMARK(BM_SparseTrsmCpu)->Arg(24)->Arg(48);

void BM_GpuSparseTrsm(benchmark::State& state) {
  // state.range(0): grid size; state.range(1): 0 = legacy, 1 = modern.
  static gpu::Device dev([] {
    gpu::DeviceConfig cfg;
    cfg.launch_latency_us = 0.0;
    return cfg;
  }());
  const idx grid = static_cast<idx>(state.range(0));
  const auto api = state.range(1) == 0 ? gpu::sparse::Api::Legacy
                                       : gpu::sparse::Api::Modern;
  la::Csr u = grid_factor(grid);
  const idx n = u.nrows(), w = 32;
  gpu::Stream s = dev.create_stream();
  gpu::sparse::SpTrsmPlan plan(dev, s, api, u, la::Layout::ColMajor, true,
                               la::Layout::RowMajor, w);
  gpu::DeviceDense b = gpu::alloc_dense(dev, n, w, la::Layout::RowMajor);
  la::DenseMatrix rhs = random_dense(n, w, la::Layout::RowMajor, 8);
  for (auto _ : state) {
    // Refresh the RHS each round (in-place solves would otherwise drive the
    // values towards zero) — matches the per-step value refresh anyway.
    s.memcpy_h2d(b.data, rhs.data(), rhs.size() * sizeof(double));
    plan.solve(s, b, nullptr);
    s.synchronize();
  }
  state.SetItemsProcessed(state.iterations() * u.nnz() * w);
  state.SetLabel(gpu::sparse::to_string(api));
  gpu::free_dense(dev, b);
}
BENCHMARK(BM_GpuSparseTrsm)
    ->Args({24, 0})
    ->Args({24, 1})
    ->Args({48, 0})
    ->Args({48, 1});

void BM_Spmm(benchmark::State& state) {
  const idx grid = static_cast<idx>(state.range(0));
  la::Csr u = grid_factor(grid);
  const idx n = u.nrows(), w = 32;
  la::DenseMatrix b = random_dense(n, w, la::Layout::RowMajor, 7);
  la::DenseMatrix c(n, w, la::Layout::RowMajor);
  for (auto _ : state) {
    la::spmm(1.0, u, la::Trans::No, b.cview(), 0.0, c.view());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * u.nnz() * w);
}
BENCHMARK(BM_Spmm)->Arg(24)->Arg(48);

}  // namespace

BENCHMARK_MAIN();
