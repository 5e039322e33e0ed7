#pragma once

// String-keyed registry of dual-operator implementations.
//
// The registry stores the nine Table-III operator *families* ("impl mkl"
// … "expl hybrid"), each registered once with its factory and axis
// metadata (see register_cpu_dual_operators / register_gpu_dual_operators
// in dualop_cpu.cpp / dualop_gpu.cpp). Every selectable key is composed
// from a family by the key grammar of config.hpp (`<family>[ sp][ f32]`):
// the registry parses the key and hands the family factory the parsed
// axes. All construction and every
// capability query (uses_gpu, is_explicit, availability) is answered from
// the parsed axes and the family metadata, and every operator is named
// after the key it was created under.
//
// The lifecycle contract every registered operator must honor —
// prepare() once per pattern, update_values() per step with dirty-subdomain
// tracking, apply()/apply(X, Y, nrhs) per iteration — is documented in
// docs/ARCHITECTURE.md. In short, a factory must return an operator that:
//  * is constructed cheaply (no factorization, no device allocation; those
//    belong to prepare());
//  * refreshes only the subdomains the problem reports dirty in
//    update_values() (use DualOperator::begin_update/end_update, which also
//    maintain cache_stats());
//  * serves batched applies without degrading to a loop of single applies
//    (or accepts that loop_fallback_count() exposes the degradation).
// Counters (cache_stats(), loop_fallback_count()) accumulate from operator
// construction and never reset.

#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/config.hpp"

namespace feti::decomp {
struct FetiProblem;
}
namespace feti::gpu {
class ExecutionContext;
}

namespace feti::core {

class DualOperator;

/// Metadata of one key: registered with each family (key = family key),
/// composed by info() for every selectable key.
struct DualOperatorInfo {
  std::string key;      ///< registry key, e.g. "expl legacy sp f32"
  ApproachAxes axes;    ///< parse_axes(key)
  std::string summary;  ///< one-line description for listings
};

/// A family factory builds the family's operator for the parsed axes of
/// the requested key (sparsity and precision select the variant). The
/// execution context is required for device-backed families and null for
/// CPU ones.
using DualOperatorFactory = std::function<std::unique_ptr<DualOperator>(
    const decomp::FetiProblem&, const DualOpConfig&, const ApproachAxes&,
    gpu::ExecutionContext*)>;

class DualOperatorRegistry {
 public:
  /// The process-wide registry, with the built-in families registered on
  /// first use.
  static DualOperatorRegistry& instance();

  /// Registers an operator family under its family key (info.key, e.g.
  /// "expl legacy", with info.axes == parse_axes(info.key)). Throws
  /// std::invalid_argument on a duplicate family, a key that is not a
  /// family key (" sp"/" f32" variants are composed, not
  /// registered), or axes that do not match the key.
  void add(DualOperatorInfo info, DualOperatorFactory factory);

  /// The registered family keys, sorted.
  [[nodiscard]] std::vector<std::string> families() const;
  /// Every selectable key — each family × {dense, " sp"} × {f64, " f32"},
  /// filtered by ApproachAxes::valid() — sorted.
  [[nodiscard]] std::vector<std::string> keys() const;
  /// keys().size().
  [[nodiscard]] std::size_t size() const;

  /// Whether `key` parses and its family is registered.
  [[nodiscard]] bool contains(std::string_view key) const;
  /// Metadata of `key`, with the summary composed as `<family summary>[,
  /// boundary-restricted panel][, fp32 storage + fp64 accumulation]`.
  /// Throws std::invalid_argument for unknown keys.
  [[nodiscard]] DualOperatorInfo info(std::string_view key) const;

  // -- capability queries (axis-derived; throw for unknown keys) --

  [[nodiscard]] bool uses_gpu(std::string_view key) const;
  [[nodiscard]] bool is_explicit(std::string_view key) const;
  /// Whether the implementation can be constructed in this process given
  /// the (possibly null) execution context.
  [[nodiscard]] bool available(std::string_view key,
                               const gpu::ExecutionContext* context) const;

  /// Constructs the implementation `key` names, with name() == key. Throws
  /// std::invalid_argument for unknown keys and when the implementation
  /// requires an execution context but none is supplied. The returned
  /// operator is unprepared: call prepare() once, then update_values()
  /// before the first apply()/kplus_solve()/compute_d().
  [[nodiscard]] std::unique_ptr<DualOperator> create(
      std::string_view key, const decomp::FetiProblem& problem,
      const DualOpConfig& config,
      gpu::ExecutionContext* context = nullptr) const;

 private:
  struct Entry {
    DualOperatorInfo info;
    DualOperatorFactory factory;
  };
  /// A parsed key and a copy of its family's entry.
  struct Resolved {
    ApproachAxes axes;
    Entry family;
  };
  /// Requires mutex_ held.
  const Entry* find_locked(const ApproachAxes& axes) const;
  /// Parses `key` and copies its family out under mutex_; nullopt when the
  /// key does not parse or its family is not registered.
  std::optional<Resolved> lookup(std::string_view key) const;
  /// lookup() that throws std::invalid_argument for unknown keys.
  Resolved at(std::string_view key) const;

  /// add() is a public extension point, so lookups and registrations may
  /// race; families_ is guarded throughout.
  mutable std::mutex mutex_;
  std::vector<Entry> families_;
};

}  // namespace feti::core
