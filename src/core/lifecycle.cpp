#include "core/lifecycle.hpp"

#include "util/parallel.hpp"

namespace feti::core {

UpdatePlan ValueTracker::begin(const decomp::FetiProblem& p,
                               AtomicCacheStats& stats) {
  const std::size_t nsub = p.sub.size();
  if (seen_version_.size() != nsub) seen_version_.assign(nsub, 0);
  const bool hashed = p.tracking == decomp::ValueTracking::Hashed;
  if (hashed && seen_hash_.size() != nsub) seen_hash_.assign(nsub, 0);

  // Hashing is the only per-step cost a fully cached step pays under
  // Hashed tracking, so it runs parallel across the subdomains (the same
  // shape as the refresh loops it guards).
  std::vector<std::uint64_t> hashes;
  if (hashed) {
    hashes.resize(nsub);
    parallel_for(static_cast<idx>(nsub), [&](idx k) {
      hashes[static_cast<std::size_t>(k)] =
          decomp::k_values_hash(p.sub[static_cast<std::size_t>(k)]);
    });
  }

  UpdatePlan plan;
  for (std::size_t s = 0; s < nsub; ++s) {
    const auto& fs = p.sub[s];
    bool dirty = seen_version_[s] != fs.values_version;
    std::uint64_t h = 0;
    if (hashed) {
      h = hashes[s];
      dirty = dirty || h != seen_hash_[s];
    }
    if (dirty) {
      plan.dirty.push_back(static_cast<idx>(s));
      plan.hash.push_back(h);
    }
  }
  ++stats.steps;
  stats.skipped_subdomains += static_cast<long>(nsub - plan.dirty.size());
  if (plan.dirty.empty()) ++stats.skipped_steps;
  return plan;
}

void ValueTracker::end(const decomp::FetiProblem& p, const UpdatePlan& plan,
                       AtomicCacheStats& stats) {
  const bool hashed = p.tracking == decomp::ValueTracking::Hashed;
  for (std::size_t i = 0; i < plan.dirty.size(); ++i) {
    const std::size_t s = static_cast<std::size_t>(plan.dirty[i]);
    seen_version_[s] = p.sub[s].values_version;
    if (hashed) seen_hash_[s] = plan.hash[i];
  }
  stats.refreshed_subdomains += static_cast<long>(plan.dirty.size());
}

}  // namespace feti::core
