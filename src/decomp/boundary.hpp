#pragma once

// Boundary DOF detection shared by the Dirichlet preconditioner and the
// sparsity-aware explicit dual operators: the boundary set of a subdomain
// is the column support of its gluing matrix B̃ᵢ — exactly the DOFs that
// couple into the dual space. Everything interface-local (the Dirichlet
// Schur complement, the boundary-restricted RHS panel of the "sp" assembly
// variants) is indexed in the ascending boundary-local order this helper
// fixes.

#include <vector>

#include "decomp/feti_problem.hpp"
#include "la/csr.hpp"

namespace feti::decomp {

/// The boundary support of one subdomain's B̃ᵢ in ascending local-DOF
/// order, plus the derived structures both consumers need.
struct BoundaryDofs {
  /// Ascending local DOF indices in supp(B̃ᵢᵀ).
  std::vector<idx> dofs;
  /// local DOF -> boundary-local index (-1 for interior DOFs); size ndof.
  std::vector<idx> map;
  /// B̃ᵢ with its columns renumbered to boundary-local indices (the
  /// ascending remap keeps the sorted-column invariant). Shape m × nb.
  la::Csr b_b;

  [[nodiscard]] idx count() const { return static_cast<idx>(dofs.size()); }
};

/// Computes the boundary set of subdomain `s` from its gluing matrix. An
/// empty B̃ᵢ (no rows or no stored entries) yields an empty boundary; a
/// fully coupled subdomain yields dofs == [0, ndof).
[[nodiscard]] BoundaryDofs boundary_dofs(const FetiSubdomain& s);

/// The nb × ndof boundary selection matrix E_b: row r holds a single 1.0
/// in column boundary.dofs[r], so E_b x restricts a primal vector to its
/// boundary entries and E_bᵀ scatters them back. This is the sparse RHS
/// panel of the boundary-restricted assembly: G_bb = E_b K⁻¹ E_bᵀ.
[[nodiscard]] la::Csr boundary_selection(const BoundaryDofs& boundary,
                                         idx ndof);

/// Expands the boundary-restricted Gram block G_bb = E_b K⁻¹ E_bᵀ (with
/// only the `stored` triangle valid on entry; the other one is mirrored in
/// place) into the full F̃ target of the sparsity-aware explicit operators:
/// F̃ = B_b G_bb B_bᵀ via two sparse multiplies, reusing the first
/// product's storage as the transposed view for the second (the same trick
/// as the Dirichlet preconditioner's B_b S B_bᵀ). Writes the whole m × m
/// rectangle of `target`.
void expand_boundary(const la::Csr& b_b, la::DenseView g, la::Uplo stored,
                     la::DenseView target);

}  // namespace feti::decomp
