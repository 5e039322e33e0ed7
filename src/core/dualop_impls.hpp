#pragma once

// Internal factory functions for the concrete dual-operator
// implementations (one per Table-III family, the explicit ones templated
// on the F̃ storage precision), the sharded multi-device wrapper the
// registry composes " xN" keys from, and the per-file registration entry
// points the DualOperatorRegistry pulls in on first use. Exposed for
// white-box tests.

#include <functional>

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

/// Builds the partial operator of one shard over its owned subdomains.
using ShardFactory = std::function<std::unique_ptr<DualOperator>(
    gpu::ExecutionContext&, std::vector<idx>)>;

/// Partitions the subdomains across `shards` virtual devices split from
/// `context`'s budget and sums one partial operator per shard (partial
/// operators sum to the full F because the dual gather is additive).
/// `make_shard` is called synchronously, once per non-empty shard.
/// Defined in dualop_gpu.cpp.
std::unique_ptr<DualOperator> make_sharded(const decomp::FetiProblem& p,
                                           int shards,
                                           gpu::ExecutionContext& context,
                                           const ShardFactory& make_shard);

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
// workspace policy) and a subdomain subset `owned`: an empty subset means
// "all subdomains", a non-empty one restricts the operator to those
// subdomains (the building block of the sharded variants).

std::unique_ptr<DualOperator> make_implicit_gpu(
    const decomp::FetiProblem& p, gpu::sparse::Api api,
    sparse::OrderingKind ordering, gpu::ExecutionContext& context,
    int streams, std::vector<idx> owned);

std::unique_ptr<DualOperator> make_explicit_gpu(
    const decomp::FetiProblem& p, gpu::sparse::Api api,
    const ExplicitGpuOptions& options, sparse::OrderingKind ordering,
    gpu::ExecutionContext& context, std::vector<idx> owned,
    Precision precision, bool sparsity);

/// expl hybrid: Schur assembly on CPU, application on the GPU.
std::unique_ptr<DualOperator> make_hybrid(const decomp::FetiProblem& p,
                                          const ExplicitGpuOptions& options,
                                          sparse::OrderingKind ordering,
                                          gpu::ExecutionContext& context,
                                          std::vector<idx> owned,
                                          Precision precision, bool sparsity);

}  // namespace feti::core
