#pragma once

// The one host-side parallel loop. Subdomains are handled by host threads
// (Sec. IV of the paper: one parallel loop over the subdomains, each thread
// feeding its own stream), and every per-subdomain loop of the library —
// symbolic and numeric refresh, local applies, value hashing — runs through
// parallel_for, so this is the only OpenMP site.
//
// Exceptions must not leave an OpenMP region (the runtime calls
// std::terminate), so the first one any iteration throws is captured and
// rethrown on the caller after the join; the other iterations still run.
// Device-memory exhaustion inside the preparation loops is the practical
// case.

#include <exception>
#include <mutex>

#include "util/common.hpp"

namespace feti {

/// Runs body(i) for every i in [0, n), dynamically scheduled over the host
/// threads, and returns once all of them have finished. Rethrows the first
/// exception an iteration threw, with its type.
template <typename F>
void parallel_for(idx n, F&& body) {
  std::exception_ptr error;
  std::mutex mutex;
#pragma omp parallel for schedule(dynamic)
  for (idx i = 0; i < n; ++i) {
    try {
      body(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex);
      if (!error) error = std::current_exception();
    }
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace feti
