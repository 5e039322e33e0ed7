#include "la/csr.hpp"

#include <algorithm>
#include <cmath>

namespace feti::la {

Csr::Csr(idx nrows, idx ncols, std::vector<idx> rowptr,
         std::vector<idx> colidx, std::vector<double> vals)
    : nrows_(nrows), ncols_(ncols), rowptr_(std::move(rowptr)),
      colidx_(std::move(colidx)), vals_(std::move(vals)) {
  check(rowptr_.size() == static_cast<std::size_t>(nrows_) + 1,
        "Csr: rowptr size mismatch");
  check(colidx_.size() == static_cast<std::size_t>(rowptr_.back()),
        "Csr: colidx size mismatch");
  check(vals_.empty() || vals_.size() == colidx_.size(),
        "Csr: vals size mismatch");
}

double Csr::at(idx r, idx c) const {
  const idx b = rowptr_[r], e = rowptr_[r + 1];
  const auto it = std::lower_bound(colidx_.begin() + b, colidx_.begin() + e, c);
  if (it != colidx_.begin() + e && *it == c)
    return vals_[static_cast<std::size_t>(it - colidx_.begin())];
  return 0.0;
}

Csr Csr::from_triplets(idx nrows, idx ncols, std::vector<Triplet> t) {
  std::sort(t.begin(), t.end(), [](const Triplet& a, const Triplet& b) {
    return a.row != b.row ? a.row < b.row : a.col < b.col;
  });
  Csr m;
  m.nrows_ = nrows;
  m.ncols_ = ncols;
  m.rowptr_.assign(static_cast<std::size_t>(nrows) + 1, 0);
  m.colidx_.reserve(t.size());
  m.vals_.reserve(t.size());
  for (std::size_t k = 0; k < t.size();) {
    const idx r = t[k].row, c = t[k].col;
    check(r >= 0 && r < nrows && c >= 0 && c < ncols,
          "from_triplets: index out of range");
    double sum = 0.0;
    while (k < t.size() && t[k].row == r && t[k].col == c) sum += t[k++].val;
    m.colidx_.push_back(c);
    m.vals_.push_back(sum);
    m.rowptr_[static_cast<std::size_t>(r) + 1] += 1;
  }
  for (idx r = 0; r < nrows; ++r)
    m.rowptr_[static_cast<std::size_t>(r) + 1] +=
        m.rowptr_[static_cast<std::size_t>(r)];
  return m;
}

Csr Csr::from_dense(ConstDenseView a, double drop_tol) {
  std::vector<Triplet> t;
  for (idx r = 0; r < a.rows; ++r)
    for (idx c = 0; c < a.cols; ++c)
      if (std::fabs(a.at(r, c)) > drop_tol) t.push_back({r, c, a.at(r, c)});
  return from_triplets(a.rows, a.cols, std::move(t));
}

Csr Csr::transposed() const {
  Csr t;
  t.nrows_ = ncols_;
  t.ncols_ = nrows_;
  t.rowptr_.assign(static_cast<std::size_t>(ncols_) + 1, 0);
  t.colidx_.resize(colidx_.size());
  t.vals_.resize(vals_.size());
  for (idx k = 0; k < nnz(); ++k)
    t.rowptr_[static_cast<std::size_t>(colidx_[k]) + 1] += 1;
  for (idx c = 0; c < ncols_; ++c)
    t.rowptr_[static_cast<std::size_t>(c) + 1] +=
        t.rowptr_[static_cast<std::size_t>(c)];
  std::vector<idx> next(t.rowptr_.begin(), t.rowptr_.end() - 1);
  const bool with_vals = !vals_.empty();
  for (idx r = 0; r < nrows_; ++r) {
    for (idx k = rowptr_[r]; k < rowptr_[r + 1]; ++k) {
      const idx pos = next[colidx_[k]]++;
      t.colidx_[pos] = r;
      if (with_vals) t.vals_[pos] = vals_[k];
    }
  }
  return t;
}

void Csr::to_dense(DenseView out) const {
  check(out.rows == nrows_ && out.cols == ncols_,
        "to_dense: dimension mismatch");
  if (out.layout == Layout::RowMajor) {
    for (idx r = 0; r < nrows_; ++r)
      std::fill_n(out.data + static_cast<widx>(r) * out.ld, ncols_, 0.0);
  } else {
    for (idx c = 0; c < ncols_; ++c)
      std::fill_n(out.data + static_cast<widx>(c) * out.ld, nrows_, 0.0);
  }
  for (idx r = 0; r < nrows_; ++r)
    for (idx k = rowptr_[r]; k < rowptr_[r + 1]; ++k)
      out.at(r, colidx_[k]) = vals_[k];
}

DenseMatrix Csr::to_dense(Layout layout) const {
  DenseMatrix m(nrows_, ncols_, layout);
  to_dense(m.view());
  return m;
}

Csr Csr::permuted_symmetric(const std::vector<idx>& perm) const {
  check(nrows_ == ncols_, "permuted_symmetric: matrix must be square");
  check(perm.size() == static_cast<std::size_t>(nrows_),
        "permuted_symmetric: permutation size mismatch");
  const std::vector<idx> iperm = invert_permutation(perm);
  std::vector<Triplet> t;
  t.reserve(static_cast<std::size_t>(nnz()));
  for (idx r = 0; r < nrows_; ++r)
    for (idx k = rowptr_[r]; k < rowptr_[r + 1]; ++k)
      t.push_back({iperm[r], iperm[colidx_[k]],
                   vals_.empty() ? 0.0 : vals_[k]});
  Csr out = from_triplets(nrows_, ncols_, std::move(t));
  if (vals_.empty()) out.vals_.clear();
  return out;
}

Csr Csr::triangle(Uplo uplo) const {
  std::vector<Triplet> t;
  for (idx r = 0; r < nrows_; ++r)
    for (idx k = rowptr_[r]; k < rowptr_[r + 1]; ++k) {
      const idx c = colidx_[k];
      if ((uplo == Uplo::Upper && c >= r) || (uplo == Uplo::Lower && c <= r))
        t.push_back({r, c, vals_.empty() ? 0.0 : vals_[k]});
    }
  Csr out = from_triplets(nrows_, ncols_, std::move(t));
  if (vals_.empty()) out.vals_.clear();
  return out;
}

void Csr::validate() const {
  check(rowptr_.size() == static_cast<std::size_t>(nrows_) + 1,
        "validate: rowptr size");
  check(rowptr_.front() == 0, "validate: rowptr[0] != 0");
  for (idx r = 0; r < nrows_; ++r) {
    check(rowptr_[r] <= rowptr_[r + 1], "validate: rowptr not monotone");
    for (idx k = rowptr_[r]; k < rowptr_[r + 1]; ++k) {
      check(colidx_[k] >= 0 && colidx_[k] < ncols_,
            "validate: column index out of range");
      if (k > rowptr_[r])
        check(colidx_[k - 1] < colidx_[k], "validate: columns not sorted");
    }
  }
  check(colidx_.size() == static_cast<std::size_t>(nnz()), "validate: colidx");
  check(vals_.empty() || vals_.size() == colidx_.size(), "validate: vals");
}

std::vector<idx> invert_permutation(const std::vector<idx>& perm) {
  std::vector<idx> inv(perm.size(), -1);
  for (std::size_t i = 0; i < perm.size(); ++i) {
    check(perm[i] >= 0 && static_cast<std::size_t>(perm[i]) < perm.size(),
          "invert_permutation: entry out of range");
    check(inv[perm[i]] == -1, "invert_permutation: not a permutation");
    inv[perm[i]] = static_cast<idx>(i);
  }
  return inv;
}

Csr permute_columns(const Csr& b, const std::vector<idx>& perm) {
  const std::vector<idx> iperm = invert_permutation(perm);
  std::vector<Triplet> t;
  t.reserve(static_cast<std::size_t>(b.nnz()));
  for (idx r = 0; r < b.nrows(); ++r)
    for (idx k = b.row_begin(r); k < b.row_end(r); ++k)
      t.push_back({r, iperm[b.col(k)], b.val(k)});
  return Csr::from_triplets(b.nrows(), b.ncols(), std::move(t));
}

namespace {

/// First stored column of every row of `panel` (ncols for an empty row).
std::vector<idx> first_columns(const Csr& panel) {
  std::vector<idx> first(static_cast<std::size_t>(panel.nrows()));
  for (idx r = 0; r < panel.nrows(); ++r)
    first[r] = panel.row_begin(r) < panel.row_end(r)
                   ? panel.col(panel.row_begin(r))
                   : panel.ncols();
  return first;
}

}  // namespace

std::vector<idx> staircase_order(const Csr& panel) {
  // Counting sort by first column: stable, and linear in the panel size.
  const std::vector<idx> first = first_columns(panel);
  std::vector<idx> start(static_cast<std::size_t>(panel.ncols()) + 2, 0);
  for (idx f : first) ++start[f + 1];
  for (std::size_t c = 1; c < start.size(); ++c) start[c] += start[c - 1];
  std::vector<idx> order(first.size());
  for (idx r = 0; r < panel.nrows(); ++r) order[start[first[r]]++] = r;
  return order;
}

Csr permute_rows(const Csr& b, const std::vector<idx>& order) {
  check(static_cast<idx>(order.size()) == b.nrows(),
        "permute_rows: order size mismatch");
  std::vector<idx> rowptr(order.size() + 1, 0);
  std::vector<idx> colidx;
  std::vector<double> vals;
  colidx.reserve(static_cast<std::size_t>(b.nnz()));
  vals.reserve(colidx.capacity());
  for (std::size_t k = 0; k < order.size(); ++k) {
    const idx r = order[k];
    for (idx e = b.row_begin(r); e < b.row_end(r); ++e) {
      colidx.push_back(b.col(e));
      vals.push_back(b.val(e));
    }
    rowptr[k + 1] = static_cast<idx>(colidx.size());
  }
  return Csr(b.nrows(), b.ncols(), std::move(rowptr), std::move(colidx),
             std::move(vals));
}

long staircase_solve_work(const Csr& upper, const Csr& panel) {
  if (panel.nrows() == 0) return 0;
  check(upper.nrows() == panel.ncols(),
        "staircase_solve_work: factor and panel disagree");
  // last[k]: one past the last panel row whose first column is k; the
  // live width at pivot k is the running maximum of last[0..k].
  const std::vector<idx> first = first_columns(panel);
  std::vector<idx> last(static_cast<std::size_t>(upper.nrows()), 0);
  for (idx r = 0; r < panel.nrows(); ++r)
    if (first[r] < panel.ncols()) last[first[r]] = r + 1;
  long work = 0;
  idx live = 0;
  for (idx k = 0; k < upper.nrows(); ++k) {
    live = std::max(live, last[k]);
    work += static_cast<long>(upper.row_end(k) - upper.row_begin(k)) * live;
  }
  return work;
}

}  // namespace feti::la
