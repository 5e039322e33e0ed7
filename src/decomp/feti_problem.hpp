#pragma once

// The assembled Total FETI problem: everything the dual-operator
// implementations and the PCPG solver need, per subdomain and cluster-wide.

#include <cstdint>
#include <vector>

#include "decomp/kernel.hpp"
#include "decomp/lagrange.hpp"
#include "decomp/regularization.hpp"
#include "fem/assembler.hpp"
#include "mesh/grid.hpp"

namespace feti::decomp {

/// How dual operators detect per-step stiffness changes in update_values()
/// (the time-step caching contract; see docs/ARCHITECTURE.md):
///
///  - Hashed (default): each update additionally hashes the K_reg values of
///    every subdomain and refreshes on any mismatch. Safe for callers
///    that mutate values in place without marking; costs one O(nnz) pass
///    per subdomain per step.
///  - Versioned: operators trust the per-subdomain values-version counters
///    alone (bumped by mark_values_changed). Zero per-step detection cost,
///    but an unmarked in-place mutation of K_reg is NOT picked up.
enum class ValueTracking {
  Versioned,
  Hashed,
};

struct FetiSubdomain {
  fem::SubdomainSystem sys;    ///< K (singular), f, local Dirichlet DOFs
  la::Csr k_reg;               ///< regularized SPD stiffness
  la::DenseMatrix r;           ///< orthonormal kernel basis (ndof x rdim)
  la::Csr b;                   ///< local gluing matrix B̃ᵢ
  std::vector<idx> lm_l2c;     ///< local λ -> cluster λ
  std::vector<idx> fixing_dofs;
  std::vector<idx> dof_l2g;    ///< local DOF -> global DOF
  /// Numeric-values generation of K/K_reg; operators compare their stored
  /// copy against this in update_values() and skip clean subdomains. Starts
  /// at 1 so a freshly prepared operator (stored version 0) always
  /// refreshes its first step.
  std::uint64_t values_version = 1;

  [[nodiscard]] idx ndof() const { return sys.ndof; }
  [[nodiscard]] idx num_local_lambdas() const { return b.nrows(); }
  [[nodiscard]] idx kernel_dim() const { return r.cols(); }
};

struct FetiProblem {
  fem::Physics physics = fem::Physics::HeatTransfer;
  int dim = 2;
  idx num_lambdas = 0;          ///< cluster-wide dual dimension
  idx global_dofs = 0;
  std::vector<double> c;        ///< constraint right-hand side
  std::vector<FetiSubdomain> sub;
  /// Change-detection policy consumed by DualOperator::update_values().
  ValueTracking tracking = ValueTracking::Hashed;

  /// Declares that subdomain `s`'s stiffness values (K/K_reg) were mutated
  /// in place; the next update_values() of every operator on this problem
  /// refreshes exactly the marked subdomains. Only K matters here: the
  /// right-hand side f and the constraint c are read fresh every step and
  /// need no marking. Pattern changes are not supported — rebuild the
  /// problem (and the operators) instead.
  void mark_values_changed(idx s) {
    check(s >= 0 && s < num_subdomains(),
          "mark_values_changed: subdomain index out of range");
    ++sub[static_cast<std::size_t>(s)].values_version;
  }
  /// Whole-problem variant: marks every subdomain dirty.
  void mark_values_changed() {
    for (auto& s : sub) ++s.values_version;
  }

  [[nodiscard]] idx num_subdomains() const {
    return static_cast<idx>(sub.size());
  }
  [[nodiscard]] idx total_kernel_dim() const {
    idx t = 0;
    for (const auto& s : sub) t += s.kernel_dim();
    return t;
  }
  /// Largest subdomain primal dimension (the paper's per-subdomain DOFs).
  [[nodiscard]] idx max_subdomain_dofs() const {
    idx t = 0;
    for (const auto& s : sub) t = std::max(t, s.ndof());
    return t;
  }
};

/// Assembles the complete FETI problem from a mesh decomposition.
FetiProblem build_feti_problem(const mesh::Decomposition& dec,
                               fem::Physics physics,
                               const fem::Material& material = {},
                               Redundancy redundancy = Redundancy::Full);

/// Per-subdomain-material variant: materials[s] assembles subdomain s
/// (size must equal the subdomain count). This is the route to
/// heterogeneous-coefficient benchmarks — see decomp/heterogeneous.hpp for
/// the checkerboard generator that exercises the preconditioners.
FetiProblem build_feti_problem(const mesh::Decomposition& dec,
                               fem::Physics physics,
                               const std::vector<fem::Material>& materials,
                               Redundancy redundancy = Redundancy::Full);

/// Multi-step support: scales all stiffness values by `factor` (pattern
/// unchanged), emulating material coefficients that change between time
/// steps; K_reg is updated consistently. The right-hand side is scaled too,
/// so the exact solution is step-invariant (handy for validation). Marks
/// every subdomain's values changed.
void scale_step(FetiProblem& p, double factor);

/// Single-subdomain analogue of scale_step: scales one subdomain's K,
/// K_reg, and f by `factor` and marks only that subdomain changed — the
/// building block of localized material updates (operators refresh exactly
/// this subdomain on the next update_values()).
void scale_subdomain(FetiProblem& p, idx sub, double factor);

// FNV-1a building blocks behind the change-detection hashes, exposed so
// other layers fingerprint their own state with the same machinery (the
// service layer keys its operator pool with these). One 64-bit word per
// round; chain with h = fnv1a_word(h, w) starting from kFnv1aOffset.
inline constexpr std::uint64_t kFnv1aOffset = 14695981039346656037ull;
inline constexpr std::uint64_t kFnv1aPrime = 1099511628211ull;
[[nodiscard]] inline constexpr std::uint64_t fnv1a_word(std::uint64_t h,
                                                        std::uint64_t word) {
  return (h ^ word) * kFnv1aPrime;
}

/// FNV-1a content hash of a subdomain's K_reg numeric values — the
/// ValueTracking::Hashed change detector. Pattern and B are fixed by the
/// lifecycle contract, and f never feeds cached operator state, so the
/// K_reg value array is the complete cache key.
[[nodiscard]] std::uint64_t k_values_hash(const FetiSubdomain& s);

/// Gathers the subdomain solution vectors into a global solution, averaging
/// the (identical, up to solver tolerance) interface copies.
std::vector<double> gather_solution(
    const FetiProblem& p, const std::vector<std::vector<double>>& u_local);

}  // namespace feti::decomp
