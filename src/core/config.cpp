#include "core/config.hpp"

#include <stdexcept>

#include "util/common.hpp"

namespace feti::core {

namespace {

std::string bad_token(std::string_view what, std::string_view s) {
  return std::string(what) + ": unknown value '" + std::string(s) + "'";
}

/// Short backend name as used inside Table-III keys.
const char* backend_key_name(sparse::Backend b) {
  return b == sparse::Backend::Supernodal ? "mkl" : "cholmod";
}

}  // namespace

// ---------------------------------------------------------------------------
// Axis enums
// ---------------------------------------------------------------------------

const char* to_string(Representation r) {
  return r == Representation::Implicit ? "implicit" : "explicit";
}

const char* to_string(ExecDevice d) {
  switch (d) {
    case ExecDevice::Cpu: return "cpu";
    case ExecDevice::Gpu: return "gpu";
    case ExecDevice::Hybrid: return "hybrid";
  }
  return "?";
}

const char* to_string(Precision p) {
  return p == Precision::F64 ? "f64" : "f32";
}

Representation parse_representation(std::string_view s) {
  if (s == "implicit" || s == "impl") return Representation::Implicit;
  if (s == "explicit" || s == "expl") return Representation::Explicit;
  throw std::invalid_argument(bad_token("parse_representation", s));
}

ExecDevice parse_exec_device(std::string_view s) {
  if (s == "cpu" || s == "CPU") return ExecDevice::Cpu;
  if (s == "gpu" || s == "GPU") return ExecDevice::Gpu;
  if (s == "hybrid") return ExecDevice::Hybrid;
  throw std::invalid_argument(bad_token("parse_exec_device", s));
}

Precision parse_precision(std::string_view s) {
  if (s == "f64" || s == "fp64" || s == "double") return Precision::F64;
  if (s == "f32" || s == "fp32" || s == "single") return Precision::F32;
  throw std::invalid_argument(bad_token("parse_precision", s));
}

// ---------------------------------------------------------------------------
// ApproachAxes
// ---------------------------------------------------------------------------

bool ApproachAxes::valid() const {
  // fp32 storage demotes assembled F̃ blocks; the implicit families have no
  // such persistent storage, so the precision axis is explicit-only.
  if (precision == Precision::F32 && repr != Representation::Explicit)
    return false;
  // Sparsity-aware assembly restricts the RHS panel of the explicit
  // assembly solve; the implicit families never form that panel.
  if (sparsity && repr != Representation::Explicit) return false;
  switch (device) {
    case ExecDevice::Cpu:
      return true;  // any representation x backend pairing exists on the CPU
    case ExecDevice::Gpu:
      // Both GPU paths consume exported factors — simplicial only.
      return backend == sparse::Backend::Simplicial;
    case ExecDevice::Hybrid:
      // Hybrid = explicit Schur assembly (supernodal) + GPU application.
      return repr == Representation::Explicit &&
             backend == sparse::Backend::Supernodal;
  }
  return false;
}

std::string ApproachAxes::key() const {
  check(valid(), "ApproachAxes::key: invalid axis combination " + describe());
  std::string out = repr == Representation::Implicit ? "impl " : "expl ";
  switch (device) {
    case ExecDevice::Cpu: out += backend_key_name(backend); break;
    case ExecDevice::Gpu: out += gpu::sparse::to_string(api); break;
    case ExecDevice::Hybrid: out += "hybrid"; break;
  }
  if (sparsity) out += " sp";
  if (precision == Precision::F32) out += " f32";
  return out;
}

std::string ApproachAxes::describe() const {
  std::string out = to_string(repr);
  out += '/';
  out += to_string(device);
  out += '/';
  out += sparse::axis_name(backend);
  if (device != ExecDevice::Cpu) {
    out += '/';
    out += gpu::sparse::to_string(api);
  }
  out += '/';
  out += to_string(precision);
  if (sparsity) out += "/sp";
  return out;
}

ApproachAxes parse_axes(std::string_view key) {
  const std::string_view full_key = key;
  const auto fail = [&] {
    throw std::invalid_argument(bad_token("parse_axes", full_key));
  };
  // "<repr> <variant>[ sp][ f32]": strip the optional suffixes from the
  // back, then parse the family key. Non-canonical spellings (suffixes out
  // of order) fail the final round-trip check.
  ApproachAxes axes;
  const auto strip = [&key](std::string_view suffix) {
    if (key.size() <= suffix.size() || !key.ends_with(suffix)) return false;
    key.remove_suffix(suffix.size());
    return true;
  };
  if (strip(" f32")) axes.precision = Precision::F32;
  axes.sparsity = strip(" sp");
  const std::size_t space = key.find(' ');
  if (space == std::string_view::npos) fail();
  const std::string_view repr_tok = key.substr(0, space);
  const std::string_view variant = key.substr(space + 1);
  if (repr_tok != "impl" && repr_tok != "expl") fail();
  axes.repr = repr_tok == "impl" ? Representation::Implicit
                                 : Representation::Explicit;
  if (variant == "mkl" || variant == "cholmod") {
    axes.device = ExecDevice::Cpu;
    axes.backend = variant == "mkl" ? sparse::Backend::Supernodal
                                    : sparse::Backend::Simplicial;
  } else if (variant == "legacy" || variant == "modern") {
    axes.device = ExecDevice::Gpu;
    axes.backend = sparse::Backend::Simplicial;
    axes.api = gpu::sparse::parse_api(variant);
  } else if (variant == "hybrid") {
    axes.device = ExecDevice::Hybrid;
    axes.backend = sparse::Backend::Supernodal;
  } else {
    fail();
  }
  if (!axes.valid() || axes.key() != full_key) fail();
  return axes;
}

// ---------------------------------------------------------------------------
// Explicit GPU assembly parameters
// ---------------------------------------------------------------------------

const char* to_string(Path p) { return p == Path::Trsm ? "TRSM" : "SYRK"; }

const char* to_string(FactorStorage s) {
  return s == FactorStorage::Sparse ? "sparse" : "dense";
}

const char* to_string(SgLocation s) { return s == SgLocation::Cpu ? "CPU" : "GPU"; }

std::string ExplicitGpuOptions::describe() const {
  std::string out;
  out += "path=";
  out += to_string(path);
  out += " fwd=";
  out += to_string(fwd_storage);
  out += "/";
  out += la::to_string(fwd_order);
  if (path == Path::Trsm) {
    out += " bwd=";
    out += to_string(bwd_storage);
    out += "/";
    out += la::to_string(bwd_order);
  }
  out += " rhs=";
  out += la::to_string(rhs_order);
  out += " sg=";
  out += to_string(scatter_gather);
  return out;
}

}  // namespace feti::core
