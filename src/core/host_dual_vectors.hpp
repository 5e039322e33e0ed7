#pragma once

// The host apply path shared by the CPU dual operators and the CPU block
// preconditioners: a cluster-wide dual block is scattered into
// per-subdomain panels, one local kernel runs per subdomain across the
// host threads, and the panels gather back into the cluster block. This is
// the host counterpart of core/gpu_dual_vectors.hpp and owns the same
// decisions — panel layout, width-1 contiguity, the optional weight
// diagonals and the gather's accumulation order — so the callers only
// supply their local kernel.
//
// Panels are grow-only column-major m × capacity blocks with leading
// dimension m, so a draining lockstep batch reuses their leading columns
// and a width-1 apply hands the local kernel the first column, which is
// already a contiguous m-vector. Families take their vector kernel
// (SYMV/SpMV) at lam.cols == 1 and their block kernel above; column j of a
// batch is bitwise equal to a width-1 apply of that column.
//
// The scatter runs inside the parallel loop and downcasts to the panel
// scalar T; the gather runs serially in subdomain order and accumulates in
// fp64, so every cluster entry sums its subdomain contributions in one
// fixed order whatever the width or the thread count. Optional
// per-subdomain weight diagonals D turn the round trip into the scaled
// restriction/prolongation Σᵢ B̃ᵢ D (·) D B̃ᵢᵀ of the block
// preconditioners; unweighted callers scale by an exact 1.0. The static
// scatter/gather bodies take panels of either layout: they also stage the
// CPU placement of GpuDualVectorsT and serve DualOperator::compute_d and
// primal_solution.

#include <algorithm>
#include <utility>
#include <vector>

#include "decomp/feti_problem.hpp"
#include "la/dense.hpp"
#include "util/parallel.hpp"

namespace feti::core {

/// The first `cols` columns of a grow-only column-major panel held in
/// `buf` with leading dimension `rows`. Growing keeps the layout, so a
/// narrower call reuses the leading columns without reallocating.
template <typename U>
[[nodiscard]] la::DenseViewT<U> grow_panel(std::vector<U>& buf, idx rows,
                                           idx cols) {
  const std::size_t need =
      static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols);
  if (buf.size() < need) buf.resize(need);
  return {buf.data(), rows, cols, rows, la::Layout::ColMajor};
}

/// Per-subdomain host panels over every subdomain of a problem, the
/// optional weight diagonals, and the scatter/gather bodies. Subdomains
/// without multipliers (m = 0) are skipped.
///
/// `T` is the local-panel scalar: fp64 for the default operators, fp32 for
/// the mixed-precision explicit families. The cluster-wide dual vectors
/// always stay fp64.
template <typename T>
class HostDualVectorsT {
 public:
  /// The m × nrhs views a local kernel reads (lam) and writes (q).
  using Panel = la::DenseViewT<T>;

  /// lam(i, j) = T(w[i] · x[map[i] + j·ldx]) for every column j of `lam`;
  /// a null `w` scales by 1.
  static void scatter(const std::vector<idx>& map, const double* x,
                      std::size_t ldx, const double* w, Panel lam) {
    for (idx j = 0; j < lam.cols; ++j) {
      const double* xj = x + static_cast<std::size_t>(j) * ldx;
      for (std::size_t i = 0; i < map.size(); ++i) {
        const double wi = w != nullptr ? w[i] : 1.0;
        lam.at(static_cast<idx>(i), j) = static_cast<T>(wi * xj[map[i]]);
      }
    }
  }

  /// y[map[i] + j·ldy] += w[i] · q(i, j) in fp64 for every column j of
  /// `q`; a null `w` scales by 1. Callers serialize across subdomains.
  static void gather_add(const std::vector<idx>& map,
                         la::ConstDenseViewT<T> q, const double* w,
                         double* y, std::size_t ldy) {
    for (idx j = 0; j < q.cols; ++j) {
      double* yj = y + static_cast<std::size_t>(j) * ldy;
      for (std::size_t i = 0; i < map.size(); ++i) {
        const double wi = w != nullptr ? w[i] : 1.0;
        yj[map[i]] += wi * static_cast<double>(q.at(static_cast<idx>(i), j));
      }
    }
  }

  /// Binds the problem whose subdomains the panels follow (pattern only).
  void prepare(const decomp::FetiProblem& p) {
    p_ = &p;
    lam_.assign(p.sub.size(), {});
    q_.assign(p.sub.size(), {});
  }

  /// Per-subdomain weight diagonals D (length m each, indexed by
  /// subdomain); empty means unweighted.
  void set_weights(std::vector<std::vector<double>> w) {
    weights_ = std::move(w);
  }

  /// Y = Σₛ scatterₛᵀ D local D scatterₛ X over nrhs contiguous cluster
  /// columns (leading dimension num_lambdas). `local(s, lam, q)` writes
  /// q = Aₛ lam for subdomain s; it runs concurrently for distinct s.
  template <typename Local>
  void apply(const double* x, double* y, idx nrhs, Local&& local) {
    const std::size_t ld = static_cast<std::size_t>(p_->num_lambdas);
    parallel_for(static_cast<idx>(lam_.size()), [&](idx s) {
      const idx m = p_->sub[static_cast<std::size_t>(s)].num_local_lambdas();
      if (m == 0) return;
      const Panel lam = grow_panel(lam_[static_cast<std::size_t>(s)], m, nrhs);
      const Panel q = grow_panel(q_[static_cast<std::size_t>(s)], m, nrhs);
      scatter(map(s), x, ld, weight(s), lam);
      local(s, lam, q);
    });
    std::fill_n(y, ld * static_cast<std::size_t>(nrhs), 0.0);
    for (std::size_t s = 0; s < lam_.size(); ++s) {
      const idx m = p_->sub[s].num_local_lambdas();
      if (m == 0) continue;
      const la::ConstDenseViewT<T> q(q_[s].data(), m, nrhs, m,
                                     la::Layout::ColMajor);
      gather_add(map(static_cast<idx>(s)), q, weight(static_cast<idx>(s)), y,
                 ld);
    }
  }

 private:
  [[nodiscard]] const std::vector<idx>& map(idx s) const {
    return p_->sub[static_cast<std::size_t>(s)].lm_l2c;
  }
  [[nodiscard]] const double* weight(idx s) const {
    return weights_.empty() ? nullptr
                            : weights_[static_cast<std::size_t>(s)].data();
  }

  const decomp::FetiProblem* p_ = nullptr;
  std::vector<std::vector<T>> lam_, q_;  ///< grow-only m × capacity panels
  std::vector<std::vector<double>> weights_;
};

using HostDualVectors = HostDualVectorsT<double>;

}  // namespace feti::core
