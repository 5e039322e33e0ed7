// Kernel-level microbenchmarks (google-benchmark): the dense and sparse
// primitives the dual-operator pipelines are built from, including the
// legacy vs modern sparse triangular solves whose gap drives Table II.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "gpu/sparse.hpp"
#include "la/blas_dense.hpp"
#include "la/blas_sparse.hpp"
#include "la/csr.hpp"
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

// The explicit assembly's forward solve and Gram product at fetibench's
// subdomain shape: the factor of a 7-point Laplacian on an 8×8×8 grid (n =
// 512, minimum-degree order, stored dense and column-major as the
// dense-factor assembly converts it) against an m = 281 column panel with
// one unit entry per column on boundary DOFs of the cube, its columns in
// staircase order (arg 0) or shuffled (arg 1). The counters report the work
// the pruned kernels actually do, not the dense n·n·m/2 or m·m·n/2.

struct StaircaseCase {
  la::Csr u;                // U = Lᵀ
  la::DenseMatrix u_dense;  // the same, dense column-major
  la::Csr panel;            // rows are the panel's columns
  la::DenseMatrix x;        // the densified panel, n × m row-major
};

StaircaseCase make_staircase_case(bool shuffled) {
  StaircaseCase c;
  const idx g = 8, n = g * g * g, m = 281;
  auto id = [g](idx i, idx j, idx k) { return (k * g + j) * g + i; };
  std::vector<la::Triplet> t;
  std::vector<la::Triplet> b;
  for (idx k = 0; k < g; ++k)
    for (idx j = 0; j < g; ++j)
      for (idx i = 0; i < g; ++i) {
        const idx d = id(i, j, k);
        t.push_back({d, d, 6.1});
        if (i > 0) t.push_back({d, id(i - 1, j, k), -1.0});
        if (i + 1 < g) t.push_back({d, id(i + 1, j, k), -1.0});
        if (j > 0) t.push_back({d, id(i, j - 1, k), -1.0});
        if (j + 1 < g) t.push_back({d, id(i, j + 1, k), -1.0});
        if (k > 0) t.push_back({d, id(i, j, k - 1), -1.0});
        if (k + 1 < g) t.push_back({d, id(i, j, k + 1), -1.0});
        const bool face = i == 0 || j == 0 || k == 0 || i + 1 == g ||
                          j + 1 == g || k + 1 == g;
        const idx row = static_cast<idx>(b.size());
        if (face && row < m) b.push_back({row, d, 1.0});
      }
  const la::Csr a = la::Csr::from_triplets(n, n, std::move(t));
  sparse::SimplicialCholesky chol;
  chol.analyze(a, sparse::OrderingKind::MinimumDegree);
  chol.factorize(a);
  c.u = chol.factor_upper();
  c.u_dense = c.u.to_dense(la::Layout::ColMajor);
  const la::Csr bperm = la::permute_columns(
      la::Csr::from_triplets(m, n, std::move(b)), chol.permutation());
  std::vector<idx> order = la::staircase_order(bperm);
  if (shuffled) {
    Rng rng(11);
    for (idx j = m - 1; j > 0; --j)
      std::swap(order[j], order[rng.integer(0, j)]);
  }
  c.panel = la::permute_rows(bperm, order);
  c.x = la::DenseMatrix(n, m, la::Layout::RowMajor);
  for (idx r = 0; r < m; ++r)
    for (idx e = c.panel.row_begin(r); e < c.panel.row_end(r); ++e)
      c.x.at(c.panel.col(e), r) = c.panel.val(e);
  return c;
}

const StaircaseCase& staircase_case(bool shuffled) {
  static const StaircaseCase cases[2] = {make_staircase_case(false),
                                         make_staircase_case(true)};
  return cases[shuffled ? 1 : 0];
}

void BM_TrsmStaircase(benchmark::State& state) {
  const StaircaseCase& c = staircase_case(state.range(0) != 0);
  for (auto _ : state) {
    la::DenseMatrix x = c.x;
    la::trsm(la::Uplo::Upper, la::Trans::Yes, c.u_dense.cview(), x.view());
    benchmark::DoNotOptimize(x.data());
  }
  // One multiply-add per factor entry and live column, each reading and
  // writing one panel element.
  const double work =
      static_cast<double>(la::staircase_solve_work(c.u, c.panel));
  state.counters["flops"] = benchmark::Counter(
      2.0 * work, benchmark::Counter::kIsIterationInvariantRate);
  state.counters["bytes"] = benchmark::Counter(
      16.0 * work, benchmark::Counter::kIsIterationInvariantRate);
  state.SetLabel(state.range(0) != 0 ? "shuffled" : "staircase");
}
BENCHMARK(BM_TrsmStaircase)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_SyrkStaircase(benchmark::State& state) {
  const StaircaseCase& c = staircase_case(state.range(0) != 0);
  la::DenseMatrix x = c.x;
  la::trsm(la::Uplo::Upper, la::Trans::Yes, c.u_dense.cview(), x.view());
  const idx n = x.rows(), m = x.cols();
  la::DenseMatrix f(m, m, la::Layout::ColMajor);
  for (auto _ : state) {
    la::syrk(la::Uplo::Upper, la::Trans::Yes, 1.0, x.cview(), 0.0, f.view());
    benchmark::DoNotOptimize(f.data());
  }
  // The rank-update form sweeps four panel rows at a time over the live
  // leading triangle: live·(live+1)/2 output elements loaded and stored per
  // sweep, one multiply-add per element and row.
  double elements = 0.0, bytes = 0.0;
  idx live = 0;
  for (idx p = 0; p < n; p += 4) {
    const idx rows = std::min<idx>(4, n - p);
    for (idx i = 0; i < rows; ++i)
      for (idx j = m; j > live; --j)
        if (x.at(p + i, j - 1) != 0.0) {
          live = j;
          break;
        }
    const double tri = 0.5 * static_cast<double>(live) * (live + 1);
    elements += rows * tri;
    bytes += 16.0 * tri + 8.0 * rows * live;
  }
  state.counters["flops"] = benchmark::Counter(
      2.0 * elements, benchmark::Counter::kIsIterationInvariantRate);
  state.counters["bytes"] = benchmark::Counter(
      bytes, benchmark::Counter::kIsIterationInvariantRate);
  state.SetLabel(state.range(0) != 0 ? "shuffled" : "staircase");
}
BENCHMARK(BM_SyrkStaircase)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

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
