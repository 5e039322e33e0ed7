#pragma once

// Shared staged-lifecycle machinery: the time-step cache counters and the
// per-subdomain dirty tracking consumed by every component that follows the
// prepare()/update_values() contract — the dual operators (core) and the
// preconditioners (precond). The rules are documented in
// docs/ARCHITECTURE.md; this header only factors the mechanism so both
// families track values identically.

#include <atomic>
#include <cstdint>
#include <vector>

#include "decomp/feti_problem.hpp"

namespace feti::core {

/// Time-step cache effectiveness counters, exposed by
/// DualOperator::cache_stats() and Preconditioner::cache_stats(). Like
/// loop_fallback_count(), the counters accumulate from construction and
/// never reset — callers that want per-step deltas snapshot before/after
/// (FetiSolver::solve_step does exactly that to fill FetiStepResult).
struct CacheStats {
  long steps = 0;                 ///< update_values() calls
  long skipped_steps = 0;         ///< steps that refreshed no subdomain
  long refreshed_subdomains = 0;  ///< per-subdomain refactorizations done
  long skipped_subdomains = 0;    ///< per-subdomain refreshes avoided
};

/// Atomic backing storage of CacheStats. Counter writes happen on the
/// lifecycle thread (update_values / apply); readers may snapshot from any
/// thread at any time — the service layer polls a tenant's counters while
/// another tenant's solve is in flight. Each counter is individually
/// atomic; a snapshot taken mid-update may be ahead on one counter and
/// behind on another, which is fine for monotonic statistics (the
/// lifecycle calls themselves are externally serialized per operator — see
/// the thread-safety contract in docs/ARCHITECTURE.md).
struct AtomicCacheStats {
  std::atomic<long> steps{0};
  std::atomic<long> skipped_steps{0};
  std::atomic<long> refreshed_subdomains{0};
  std::atomic<long> skipped_subdomains{0};

  [[nodiscard]] CacheStats snapshot() const {
    CacheStats s;
    s.steps = steps.load(std::memory_order_relaxed);
    s.skipped_steps = skipped_steps.load(std::memory_order_relaxed);
    s.refreshed_subdomains =
        refreshed_subdomains.load(std::memory_order_relaxed);
    s.skipped_subdomains = skipped_subdomains.load(std::memory_order_relaxed);
    return s;
  }
};

/// The dirty-set decision of one update_values() call: the subdomains
/// whose K values changed since the last committed refresh
/// (ascending indices), plus their new content hashes under
/// ValueTracking::Hashed.
struct UpdatePlan {
  std::vector<idx> dirty;
  std::vector<std::uint64_t> hash;
  [[nodiscard]] bool skip() const { return dirty.empty(); }
};

/// Per-component change-detection state: the last values versions/hashes a
/// component refreshed against, indexed by global subdomain (0 = never
/// seen, so the first step after prepare() is all-dirty). begin() computes
/// the dirty subset at the top of an update_values() implementation and
/// counts the step in `stats` (an empty dirty set counts as skipped);
/// end() commits the refreshed versions/hashes at the bottom of a
/// successful refresh — not reached on exception, so a failed refresh is
/// retried in full on the next step.
class ValueTracker {
 public:
  UpdatePlan begin(const decomp::FetiProblem& p, AtomicCacheStats& stats);
  void end(const decomp::FetiProblem& p, const UpdatePlan& plan,
           AtomicCacheStats& stats);

 private:
  std::vector<std::uint64_t> seen_version_;
  std::vector<std::uint64_t> seen_hash_;
};

}  // namespace feti::core
