#pragma once

// Internal factory functions for the concrete dual-operator
// implementations (one per Table-III family, the explicit ones templated
// on the F̃ storage precision) and the per-file registration entry points
// the DualOperatorRegistry pulls in on first use. Exposed for white-box
// tests.

#include "core/dual_operator.hpp"
#include "sparse/solver.hpp"

namespace feti::core {

class DualOperatorRegistry;

/// Registers the four CPU families: impl mkl, impl cholmod, expl mkl and
/// expl cholmod. Defined in dualop_cpu.cpp.
void register_cpu_dual_operators(DualOperatorRegistry& registry);

/// Registers the five device-backed families: impl legacy, impl modern,
/// expl legacy, expl modern and expl hybrid. Defined in dualop_gpu.cpp.
void register_gpu_dual_operators(DualOperatorRegistry& registry);

std::unique_ptr<DualOperator> make_implicit_cpu(
    const decomp::FetiProblem& p, sparse::Backend backend,
    sparse::OrderingKind ordering);

// The explicit factories take the F̃ storage/apply precision: F64 keeps
// the assembled fp64 blocks, F32 assembles in fp64 scratch, demotes the
// persistent storage to fp32, and applies with fp64 accumulation. The
// trailing `sparsity` flag selects the boundary-restricted assembly (the
// " sp" keys): the K⁻¹ solve panel shrinks from the m dual columns to the
// nb boundary DOF columns of the subdomain; the assembled F̃ and the apply
// phase are identical.

/// expl mkl: augmented Schur complement on the CPU.
std::unique_ptr<DualOperator> make_explicit_cpu_schur(
    const decomp::FetiProblem& p, sparse::OrderingKind ordering,
    Precision precision, bool sparsity);

/// expl cholmod: factor extraction + dense-RHS TRSM on the CPU.
std::unique_ptr<DualOperator> make_explicit_cpu_trsm(
    const decomp::FetiProblem& p, sparse::OrderingKind ordering,
    Precision precision, bool sparsity);

// The GPU factories take an ExecutionContext (device + stream pool +
// workspace policy); the operator runs every subdomain on that one device.

std::unique_ptr<DualOperator> make_implicit_gpu(
    const decomp::FetiProblem& p, gpu::sparse::Api api,
    sparse::OrderingKind ordering, gpu::ExecutionContext& context,
    int streams);

std::unique_ptr<DualOperator> make_explicit_gpu(
    const decomp::FetiProblem& p, gpu::sparse::Api api,
    const ExplicitGpuOptions& options, sparse::OrderingKind ordering,
    gpu::ExecutionContext& context, Precision precision, bool sparsity);

/// expl hybrid: Schur assembly on CPU, application on the GPU.
std::unique_ptr<DualOperator> make_hybrid(const decomp::FetiProblem& p,
                                          const ExplicitGpuOptions& options,
                                          sparse::OrderingKind ordering,
                                          gpu::ExecutionContext& context,
                                          Precision precision, bool sparsity);

}  // namespace feti::core
