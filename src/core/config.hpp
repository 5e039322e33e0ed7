#pragma once

// Configuration of the dual-operator variants (Table III) and of the
// explicit GPU assembly parameter space (Table I).
//
// The nine Table-III variants are not nine independent algorithms: they are
// the valid points of a cross product of orthogonal choices. This header
// models those choices as separate axes, bundled into an ApproachAxes
// tuple that maps 1:1 onto the string keys of the DualOperatorRegistry.
// Four axes pick one of the nine operator families:
//
//   Representation  — implicit (F applied matrix-free) vs explicit (the
//                     local dual operators F̃ᵢ are assembled up front);
//   ExecDevice      — where assembly/application run: CPU, GPU, or the
//                     hybrid split (assemble on CPU, apply on GPU);
//   sparse::Backend — the direct-solver backend: supernodal ("mkl",
//                     Schur-capable, no factor export) vs simplicial
//                     ("cholmod", exports factors — required by the GPU
//                     paths);
//   gpu::sparse::Api — legacy vs modern sparse API generation (GPU only).
//
// Two more compose with every explicit family: sparsity-aware assembly and
// fp32 F̃ storage. parse_axes() and ApproachAxes::key() are the only code
// that reads or spells a key.

#include <string>
#include <string_view>

#include "gpu/sparse.hpp"
#include "la/dense.hpp"
#include "sparse/ordering.hpp"
#include "sparse/solver.hpp"

namespace feti::core {

// ---------------------------------------------------------------------------
// Orthogonal axes
// ---------------------------------------------------------------------------

/// How the dual operator F = B K⁺ Bᵀ is represented.
enum class Representation : std::uint8_t {
  Implicit,  ///< matrix-free: apply = SpMV → forward/backward solve → SpMV
  Explicit,  ///< F̃ᵢ assembled once per time step, applied as dense GEMV/GEMM
};

/// Where the heavy lifting runs.
enum class ExecDevice : std::uint8_t {
  Cpu,
  Gpu,
  Hybrid,  ///< assembly on the CPU (Schur path), application on the GPU
};

/// Storage/apply precision of the assembled local dual operators F̃ᵢ.
/// F64 is the default everywhere; F32 assembles in fp64 as usual, demotes
/// the persistent F̃ storage to fp32, and applies in fp32 with fp64
/// accumulation (the dual-vector reduction and the whole PCPG iteration
/// stay fp64). Valid only for the explicit representation — the implicit
/// families hold no F̃ storage to demote.
enum class Precision : std::uint8_t {
  F64,
  F32,
};

const char* to_string(Representation r);
const char* to_string(ExecDevice d);
const char* to_string(Precision p);

/// Inverse of to_string; also accepts the "impl"/"expl" key abbreviations.
Representation parse_representation(std::string_view s);
ExecDevice parse_exec_device(std::string_view s);
/// Accepts "f64"/"fp64"/"double" and "f32"/"fp32"/"single".
Precision parse_precision(std::string_view s);

/// One point of the Table-III design space. Only some tuples are valid:
/// the GPU paths need exported factors (simplicial backend) and the hybrid
/// path is the explicit supernodal Schur assembly married to GPU
/// application.
struct ApproachAxes {
  Representation repr = Representation::Implicit;
  ExecDevice device = ExecDevice::Cpu;
  sparse::Backend backend = sparse::Backend::Supernodal;
  /// Sparse API generation; meaningful only when device != Cpu.
  gpu::sparse::Api api = gpu::sparse::Api::Legacy;
  /// F̃ storage/apply precision; F32 is valid only with Explicit.
  Precision precision = Precision::F64;
  /// Sparsity-aware assembly: restrict the K⁻¹ solve to the boundary DOF
  /// columns (the column support of B̃ᵢ) instead of the full dense RHS
  /// panel. The assembled F̃ᵢ, scatter/gather, and the apply phase are
  /// unchanged — only the per-step assembly cost shrinks with the boundary
  /// fraction. Valid only with Explicit (the implicit families never form
  /// an RHS panel).
  bool sparsity = false;

  bool operator==(const ApproachAxes&) const = default;

  [[nodiscard]] bool valid() const;
  /// The registry key, e.g. "impl mkl" or "expl legacy": the family key,
  /// then " sp" for the sparsity-aware variant and " f32" for F32
  /// precision, in that order ("expl legacy sp f32").
  /// Requires valid().
  [[nodiscard]] std::string key() const;
  /// Human-readable axis dump, e.g. "explicit/gpu/simplicial/legacy".
  [[nodiscard]] std::string describe() const;
};

/// Parses a registry key ("expl legacy", "impl cholmod", "expl mkl f32",
/// "expl legacy sp", "expl hybrid sp f32", ...) back into its axis
/// tuple; parse_axes(k).key() == k for every accepted key. Throws
/// std::invalid_argument for unknown or non-canonical spellings.
ApproachAxes parse_axes(std::string_view key);

// ---------------------------------------------------------------------------
// Explicit GPU assembly parameters (Table I)
// ---------------------------------------------------------------------------

/// Assembly path for the explicit GPU operator (Table I / Section IV-C).
enum class Path : std::uint8_t {
  Trsm,  ///< F = B (U^{-1} (U^{-T} B^T)): two TRSMs + SpMM
  Syrk,  ///< F = (U^{-T} B^T)^T (U^{-T} B^T): one TRSM + SYRK
};

/// Sparse vs dense triangular solve (cuSPARSE vs cuBLAS kernels).
enum class FactorStorage : std::uint8_t { Sparse, Dense };

/// Where the dual-vector scatter/gather runs (Section IV-C).
enum class SgLocation : std::uint8_t { Cpu, Gpu };

const char* to_string(Path p);
const char* to_string(FactorStorage s);
const char* to_string(SgLocation s);

/// The full Table-I parameter set for the explicit GPU assembly.
struct ExplicitGpuOptions {
  Path path = Path::Syrk;
  FactorStorage fwd_storage = FactorStorage::Dense;
  FactorStorage bwd_storage = FactorStorage::Dense;  ///< TRSM path only
  la::Layout fwd_order = la::Layout::ColMajor;
  la::Layout bwd_order = la::Layout::ColMajor;
  la::Layout rhs_order = la::Layout::RowMajor;
  SgLocation scatter_gather = SgLocation::Gpu;
  /// Number of CUDA streams (the paper uses one per OpenMP thread).
  int streams = 4;
  /// Footnote 1 of the paper: when F̃ᵢ is symmetric (SYRK path), store only
  /// one triangle and pack two opposite triangles of equally sized
  /// subdomains into a single allocation.
  bool symmetric_pack = false;

  [[nodiscard]] std::string describe() const;
};

// ---------------------------------------------------------------------------
// Dual-operator configuration
// ---------------------------------------------------------------------------

struct DualOpConfig {
  /// Registry key of the implementation ("impl mkl", "expl legacy sp",
  /// ...); set it directly or by axes via select().
  std::string key = "impl mkl";
  ExplicitGpuOptions gpu;  ///< consumed by the Expl{Legacy,Modern} operators
  sparse::OrderingKind ordering = sparse::OrderingKind::MinimumDegree;

  /// Selects the implementation for an axis tuple (sets `key`).
  void select(const ApproachAxes& axes) { key = axes.key(); }

  /// The axis tuple `key` spells.
  [[nodiscard]] ApproachAxes axes() const { return parse_axes(key); }
};

}  // namespace feti::core
