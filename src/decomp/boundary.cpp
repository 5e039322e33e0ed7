#include "decomp/boundary.hpp"

#include "la/blas_sparse.hpp"

namespace feti::decomp {

BoundaryDofs boundary_dofs(const FetiSubdomain& s) {
  const la::Csr& b = s.b;
  const idx n = s.ndof();
  BoundaryDofs out;
  std::vector<char> on_boundary(static_cast<std::size_t>(n), 0);
  for (idx e = 0; e < b.nnz(); ++e)
    on_boundary[static_cast<std::size_t>(b.colidx()[e])] = 1;
  out.map.assign(static_cast<std::size_t>(n), -1);
  idx nb = 0;
  for (idx d = 0; d < n; ++d) {
    if (!on_boundary[static_cast<std::size_t>(d)]) continue;
    out.dofs.push_back(d);
    out.map[static_cast<std::size_t>(d)] = nb++;
  }
  // B̃ᵢ with columns renumbered boundary-local; the remap is monotone, so
  // each row's column order stays sorted.
  std::vector<idx> b_colidx(b.colidx());
  for (idx& c : b_colidx) c = out.map[static_cast<std::size_t>(c)];
  out.b_b =
      la::Csr(b.nrows(), nb, b.rowptr(), std::move(b_colidx), b.vals());
  return out;
}

la::Csr boundary_selection(const BoundaryDofs& boundary, idx ndof) {
  const idx nb = boundary.count();
  std::vector<idx> rowptr(static_cast<std::size_t>(nb) + 1);
  for (idx r = 0; r <= nb; ++r) rowptr[static_cast<std::size_t>(r)] = r;
  std::vector<idx> colidx(boundary.dofs);
  std::vector<double> vals(static_cast<std::size_t>(nb), 1.0);
  return la::Csr(nb, ndof, std::move(rowptr), std::move(colidx),
                 std::move(vals));
}

void expand_boundary(const la::Csr& b_b, la::DenseView g, la::Uplo stored,
                     la::DenseView target) {
  la::symmetrize_from(g, stored);
  const idx m = target.rows;
  const idx nb = g.rows;
  la::DenseMatrix t(m, nb, la::Layout::RowMajor);
  la::spmm(1.0, b_b, la::Trans::No, la::ConstDenseView(g), 0.0, t.view());
  const la::ConstDenseView t_trans{t.data(), nb, m, t.ld(),
                                   la::Layout::ColMajor};
  la::spmm(1.0, b_b, la::Trans::No, t_trans, 0.0, target);
}

}  // namespace feti::decomp
