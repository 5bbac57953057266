// Access descriptors for op_par_loop arguments (paper Figure 2a).
//
// Access modes are COMPILE-TIME facts. OP2's code generator specializes each
// parallel loop by substituting literal constants for access modes and
// arities (paper section 5); this engine gets the same effect by carrying
// the mode as a non-type template parameter of the argument descriptor, so
// every gather/scatter branch in the engine is an `if constexpr`.
//
// The mode is spelled as an explicit template argument,
// `opv::arg<opv::READ>(dat, idx, map)` (see core/arg.hpp).
#pragma once

#include <limits>

namespace opv {

/// How a parallel-loop argument is accessed by the elementary kernel.
/// READ/WRITE/RW/INC apply to datasets; READ/INC/MIN/MAX to globals.
enum class AccessMode {
  READ,   ///< read-only
  WRITE,  ///< kernel fully overwrites the element's values
  RW,     ///< read-modify-write
  INC,    ///< kernel adds contributions (commutative/associative)
  MIN,    ///< global reduction: minimum
  MAX,    ///< global reduction: maximum
};

/// Namespace-level constants for the explicit-template spelling
/// (`arg<opv::READ>(...)`).
inline constexpr AccessMode READ = AccessMode::READ;
inline constexpr AccessMode WRITE = AccessMode::WRITE;
inline constexpr AccessMode RW = AccessMode::RW;
inline constexpr AccessMode INC = AccessMode::INC;
inline constexpr AccessMode MIN = AccessMode::MIN;
inline constexpr AccessMode MAX = AccessMode::MAX;

/// Valid modes for dataset arguments (MIN/MAX reductions are global-only).
constexpr bool dat_access_ok(AccessMode a) {
  return a == AccessMode::READ || a == AccessMode::WRITE || a == AccessMode::RW ||
         a == AccessMode::INC;
}

/// Valid modes for global arguments (no element-wise WRITE/RW on globals).
constexpr bool gbl_access_ok(AccessMode a) {
  return a == AccessMode::READ || a == AccessMode::INC || a == AccessMode::MIN ||
         a == AccessMode::MAX;
}

/// True if the mode observes existing values (drives halo freshness).
constexpr bool access_reads(AccessMode a) {
  return a == AccessMode::READ || a == AccessMode::RW;
}

/// True if the mode, applied INDIRECTLY, is a data-driven race the plan
/// must color away (and the distributed layer must halo-execute for).
constexpr bool access_conflicting(AccessMode a) {
  return a == AccessMode::INC || a == AccessMode::RW || a == AccessMode::WRITE;
}

/// True if the mode modifies values (drives halo dirtiness).
constexpr bool access_writes(AccessMode a) { return a != AccessMode::READ; }

/// The value a partial of global reduction A (INC, MIN or MAX) starts from.
template <AccessMode A, class T>
constexpr T reduction_identity() {
  if constexpr (A == AccessMode::INC) return T(0);
  else if constexpr (A == AccessMode::MIN) return std::numeric_limits<T>::max();
  else return std::numeric_limits<T>::lowest();
}

/// Fold partial `v` into `acc` under global reduction A (INC, MIN or MAX).
template <AccessMode A, class T>
constexpr T reduction_combine(T acc, T v) {
  if constexpr (A == AccessMode::INC) return acc + v;
  else if constexpr (A == AccessMode::MIN) return acc < v ? acc : v;
  else return acc > v ? acc : v;
}

/// Human-readable access name ("OP_INC" style, for diagnostics).
constexpr const char* access_name(AccessMode a) {
  switch (a) {
    case AccessMode::READ: return "READ";
    case AccessMode::WRITE: return "WRITE";
    case AccessMode::RW: return "RW";
    case AccessMode::INC: return "INC";
    case AccessMode::MIN: return "MIN";
    case AccessMode::MAX: return "MAX";
  }
  return "?";
}

}  // namespace opv
