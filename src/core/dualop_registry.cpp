#include "core/dualop_registry.hpp"

#include <algorithm>
#include <mutex>
#include <stdexcept>

#include "core/dualop_impls.hpp"

namespace feti::core {

namespace {

/// The family tuple a key composes from: its composed axes at defaults.
ApproachAxes family_of(ApproachAxes axes) {
  axes.sparsity = false;
  axes.precision = Precision::F64;
  return axes;
}

}  // namespace

DualOperatorRegistry& DualOperatorRegistry::instance() {
  static DualOperatorRegistry registry;
  static std::once_flag builtin_once;
  std::call_once(builtin_once, [] {
    // One registration call per implementation file; the calls live next
    // to the implementations themselves (dualop_cpu.cpp / dualop_gpu.cpp).
    register_cpu_dual_operators(registry);
    register_gpu_dual_operators(registry);
  });
  return registry;
}

void DualOperatorRegistry::add(DualOperatorInfo info,
                               DualOperatorFactory factory) {
  check(info.axes.valid() && info.axes == family_of(info.axes) &&
            info.key == info.axes.key(),
        "DualOperatorRegistry::add: '" + info.key +
            "' is not the family key of its axes");
  check(static_cast<bool>(factory),
        "DualOperatorRegistry::add: null factory for key '" + info.key + "'");
  std::lock_guard<std::mutex> lock(mutex_);
  check(find_locked(info.axes) == nullptr,
        "DualOperatorRegistry::add: duplicate family '" + info.key + "'");
  families_.push_back({std::move(info), std::move(factory)});
}

const DualOperatorRegistry::Entry* DualOperatorRegistry::find_locked(
    const ApproachAxes& axes) const {
  const ApproachAxes family = family_of(axes);
  for (const Entry& e : families_)
    if (e.info.axes == family) return &e;
  return nullptr;
}

std::optional<DualOperatorRegistry::Resolved> DualOperatorRegistry::lookup(
    std::string_view key) const {
  ApproachAxes axes;
  try {
    axes = parse_axes(key);
  } catch (const std::invalid_argument&) {
    return std::nullopt;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  const Entry* e = find_locked(axes);
  if (e == nullptr) return std::nullopt;
  return Resolved{axes, *e};
}

DualOperatorRegistry::Resolved DualOperatorRegistry::at(
    std::string_view key) const {
  std::optional<Resolved> r = lookup(key);
  check(r.has_value(), "DualOperatorRegistry: unknown dual-operator key '" +
                           std::string(key) + "'");
  return std::move(*r);
}

std::vector<std::string> DualOperatorRegistry::families() const {
  std::vector<std::string> out;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    out.reserve(families_.size());
    for (const Entry& e : families_) out.push_back(e.info.key);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> DualOperatorRegistry::keys() const {
  std::vector<std::string> out;
  for (const std::string& family : families()) {
    ApproachAxes axes = parse_axes(family);
    for (bool sparsity : {false, true})
      for (Precision precision : {Precision::F64, Precision::F32}) {
        axes.sparsity = sparsity;
        axes.precision = precision;
        if (axes.valid()) out.push_back(axes.key());
      }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::size_t DualOperatorRegistry::size() const { return keys().size(); }

bool DualOperatorRegistry::contains(std::string_view key) const {
  return lookup(key).has_value();
}

DualOperatorInfo DualOperatorRegistry::info(std::string_view key) const {
  const Resolved r = at(key);
  DualOperatorInfo out{std::string(key), r.axes, r.family.info.summary};
  if (r.axes.sparsity) out.summary += ", boundary-restricted panel";
  if (r.axes.precision == Precision::F32)
    out.summary += ", fp32 storage + fp64 accumulation";
  return out;
}

bool DualOperatorRegistry::uses_gpu(std::string_view key) const {
  return at(key).axes.device != ExecDevice::Cpu;
}

bool DualOperatorRegistry::is_explicit(std::string_view key) const {
  return at(key).axes.repr == Representation::Explicit;
}

bool DualOperatorRegistry::available(std::string_view key,
                                     const gpu::ExecutionContext* context) const {
  const std::optional<Resolved> r = lookup(key);
  return r.has_value() &&
         (r->axes.device == ExecDevice::Cpu || context != nullptr);
}

std::unique_ptr<DualOperator> DualOperatorRegistry::create(
    std::string_view key, const decomp::FetiProblem& problem,
    const DualOpConfig& config, gpu::ExecutionContext* context) const {
  // The family entry is a copy, so the factory runs without the lock.
  const Resolved r = at(key);
  check(r.axes.device == ExecDevice::Cpu || context != nullptr,
        "DualOperatorRegistry::create: '" + std::string(key) +
            "' requires a GPU execution context");
  std::unique_ptr<DualOperator> op =
      r.family.factory(problem, config, r.axes, context);
  op->name_ = std::string(key);
  return op;
}

}  // namespace feti::core
