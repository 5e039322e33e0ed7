#include "service/operator_pool.hpp"

#include <algorithm>

namespace feti::service {

std::uint64_t job_fingerprint(const decomp::FetiProblem& problem,
                              std::string_view key,
                              std::string_view precond_key) {
  // The problem *instance* is the identity: a pooled operator holds
  // references into the problem's CSR storage, so content-identical but
  // distinct problem objects must map to distinct entries. Fold in the
  // pattern summary as a guard against address reuse across rebuilds.
  std::uint64_t h = decomp::kFnv1aOffset;
  h = decomp::fnv1a_word(h, reinterpret_cast<std::uintptr_t>(&problem));
  h = decomp::fnv1a_word(h, static_cast<std::uint64_t>(problem.num_lambdas));
  h = decomp::fnv1a_word(h,
                         static_cast<std::uint64_t>(problem.num_subdomains()));
  for (char c : key)
    h = decomp::fnv1a_word(h, static_cast<unsigned char>(c));
  // A separator keeps ("expl a", "b") and ("expl ab", "") distinct; an
  // empty preconditioner key hashes as its normalized spelling so legacy
  // two-argument callers land on the same entry as explicit "none".
  h = decomp::fnv1a_word(h, 0xffu);
  if (precond_key.empty()) precond_key = "none";
  for (char c : precond_key)
    h = decomp::fnv1a_word(h, static_cast<unsigned char>(c));
  return h;
}

std::size_t estimate_solver_bytes(const decomp::FetiProblem& problem) {
  std::size_t bytes = 0;
  for (const auto& s : problem.sub) {
    bytes += 2 * static_cast<std::size_t>(s.k_reg.nnz()) * sizeof(double);
    bytes += static_cast<std::size_t>(s.ndof()) *
             static_cast<std::size_t>(s.kernel_dim()) * sizeof(double);
  }
  return bytes;
}

OperatorPool::OperatorPool(gpu::DevicePool& devices, std::size_t budget_bytes)
    : devices_(devices), budget_bytes_(budget_bytes) {}

OperatorPool::Entry* OperatorPool::find_locked(std::uint64_t fingerprint) {
  for (Entry& e : entries_)
    if (e.fingerprint == fingerprint) return &e;
  return nullptr;
}

void OperatorPool::evict_over_budget_locked() {
  if (budget_bytes_ == 0) return;
  while (resident_bytes_ > budget_bytes_) {
    auto victim = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->state != State::Idle) continue;
      if (victim == entries_.end() || it->last_used < victim->last_used)
        victim = it;
    }
    if (victim == entries_.end()) return;  // everything pinned — overshoot
    resident_bytes_ -= victim->bytes;
    ++evictions_;
    entries_.erase(victim);
  }
}

OperatorPool::Checkout OperatorPool::checkout(std::uint64_t fingerprint,
                                              const SolverFactory& make) {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    Entry* e = find_locked(fingerprint);
    if (e == nullptr) break;  // miss — build below
    if (e->state == State::Idle) {
      e->state = State::CheckedOut;
      e->last_used = ++tick_;
      ++hits_;
      Checkout out;
      out.solver = e->solver.get();
      out.fingerprint = fingerprint;
      out.shard = e->shard;
      out.hit = true;
      lock.unlock();
      out.lease = devices_.acquire(out.shard);
      return out;
    }
    // Preparing or CheckedOut by another worker: one wave at a time.
    cv_.wait(lock);
  }

  ++misses_;
  entries_.push_back(Entry{fingerprint, State::Preparing, nullptr, 0, 0, 0});
  lock.unlock();

  // Build + prepare outside the pool lock — preparation is the expensive
  // phase pooling exists to amortize, and other fingerprints must keep
  // flowing while this one factorizes. Waiters on *this* fingerprint stay
  // blocked via the Preparing state.
  gpu::DevicePool::Lease lease = devices_.acquire();
  std::unique_ptr<core::FetiSolver> solver;
  try {
    solver = make(lease.context());
    solver->prepare();
  } catch (...) {
    lock.lock();
    entries_.remove_if(
        [&](const Entry& e) { return e.fingerprint == fingerprint; });
    cv_.notify_all();
    throw;
  }

  std::size_t bytes = solver->dual_operator().apply_bytes();
  if (bytes == 0) bytes = estimate_solver_bytes(solver->dual_operator().problem());

  lock.lock();
  Entry* e = find_locked(fingerprint);
  e->solver = std::move(solver);
  e->state = State::CheckedOut;
  e->shard = lease.shard();
  e->bytes = bytes;
  e->last_used = ++tick_;
  resident_bytes_ += bytes;
  evict_over_budget_locked();

  Checkout out;
  out.solver = e->solver.get();
  out.fingerprint = fingerprint;
  out.shard = e->shard;
  out.hit = false;
  out.lease = std::move(lease);
  return out;
}

void OperatorPool::give_back(std::uint64_t fingerprint) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry* e = find_locked(fingerprint);
  check(e != nullptr && e->state == State::CheckedOut,
        "OperatorPool::give_back: fingerprint is not checked out");
  e->state = State::Idle;
  e->last_used = ++tick_;
  evict_over_budget_locked();
  cv_.notify_all();
}

PoolStats OperatorPool::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  PoolStats s;
  s.hits = hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  s.entries = entries_.size();
  s.resident_bytes = resident_bytes_;
  s.budget_bytes = budget_bytes_;
  return s;
}

std::size_t OperatorPool::remaining_budget() const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (budget_bytes_ == 0) return 0;
  return budget_bytes_ > resident_bytes_ ? budget_bytes_ - resident_bytes_ : 0;
}

}  // namespace feti::service
