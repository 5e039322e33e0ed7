#pragma once

// The solve-job vocabulary of the service layer: what a tenant submits
// (SolveJob), what it gets back (JobResult), and the fingerprint that keys
// the operator pool and decides which jobs may share a batched wave.

#include <cstdint>
#include <string>
#include <vector>

#include "core/feti_solver.hpp"

namespace feti::service {

/// One tenant's solve request: one FETI step on one problem. Independent
/// jobs may target different problems, sizes, operator keys, precisions,
/// and right-hand sides; the service packs the compatible ones into
/// batched solve_step_many waves.
struct SolveJob {
  /// The tenant's assembled problem. Must outlive the service (or at least
  /// every job and pooled operator referring to it), and must not be
  /// mutated while one of its jobs is in flight — mark value changes
  /// between submissions, never during them.
  const decomp::FetiProblem* problem = nullptr;

  /// Registry key for the dual operator ("expl legacy", "expl mkl sp f32",
  /// ...). Empty = the service autotunes a key per job from the problem
  /// shape and the current pool occupancy (see SolverService::plan_key).
  std::string key;

  /// PCPG options for this job. Jobs must agree on these (and on the
  /// fingerprint) to share a wave — solve_step_many iterates one option
  /// set for the whole block.
  core::PcpgOptions pcpg;

  /// Optional custom dual right-hand side (length num_lambdas): a load
  /// case, residual probe, or deflation vector playing the role of the d
  /// vector of eq. (7). Empty = the physical d computed from the problem's
  /// current f via DualOperator::compute_d.
  std::vector<double> dual_rhs;

  /// Tenant tag, echoed into JobResult for bookkeeping; not interpreted.
  std::uint64_t tenant = 0;
};

/// Per-job outcome: the FetiStepResult of the step that served the job
/// plus the service-level accounting (queueing, batching, pooling).
struct JobResult : core::FetiStepResult {
  std::uint64_t job_id = 0;     ///< service-assigned, in submission order
  std::uint64_t tenant = 0;     ///< copied from the job
  std::uint64_t fingerprint = 0;  ///< pool key the job resolved to
  std::string key;              ///< operator key that served the job
  std::size_t shard = 0;        ///< device shard that served the job
  int wave_size = 1;            ///< jobs packed into the same batched wave
  /// True when the serving operator came prepared from the pool (no
  /// symbolic preparation paid); whether the numeric refresh was also
  /// skipped is the inherited values_cached / refreshed_subdomains.
  bool pool_hit = false;
  double queue_seconds = 0.0;    ///< submission → worker pickup
  double solve_seconds = 0.0;    ///< worker pickup → results ready
  double latency_seconds = 0.0;  ///< submission → results ready
};

/// The pool/wave key of a job: FNV-1a over the problem instance's identity,
/// the resolved operator key, and the normalized preconditioner key
/// (reusing the change-detection hash machinery of decomp). Two jobs with
/// equal fingerprints target the same problem object through the same
/// operator implementation AND the same preconditioner, so they can share
/// one pooled, prepared solver — value freshness within the pairing is
/// then the dirty-tracking cache's business, which is why a repeated
/// fingerprint with unchanged K skips update_values() entirely. Distinct
/// precision variants ("expl legacy" vs "expl legacy f32") and distinct
/// preconditioner keys hash to distinct entries by construction — a pooled
/// FetiSolver would otherwise tear down and rebuild its preconditioner on
/// every alternating checkout.
[[nodiscard]] std::uint64_t job_fingerprint(const decomp::FetiProblem& problem,
                                            std::string_view key,
                                            std::string_view precond_key = "");

}  // namespace feti::service
