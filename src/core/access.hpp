// Access descriptors for op_par_loop arguments (paper Figure 2a).
//
// Access modes are COMPILE-TIME facts. OP2's code generator specializes each
// parallel loop by substituting literal constants for access modes and
// arities (paper section 5); this engine gets the same effect by carrying
// the mode as a non-type template parameter of the argument descriptor, so
// every gather/scatter branch in the engine is an `if constexpr`.
//
// Two spellings build the same typed descriptor (`fixed` is a FixedDat,
// which supplies the arity; see core/arg.hpp):
//
//   opv::arg<opv::READ>(fixed, idx, map)      explicit template argument
//   opv::arg(fixed, idx, map, Access::READ)   tag argument (OP2-style shape)
//
// `Access::READ` is not an enum value but a constexpr tag object of type
// `AccessTag<AccessMode::READ>`, so the second spelling is exactly as
// compile-time as the first — the historical op_arg_dat call shape keeps
// compiling, but the mode now travels in the type system.
#pragma once

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

/// Typed access tag: carries the mode in the type so overload deduction can
/// lift it into a template parameter. Implicitly converts to AccessMode for
/// runtime contexts (diagnostics, halo bookkeeping).
template <AccessMode M>
struct AccessTag {
  static constexpr AccessMode mode = M;
  constexpr operator AccessMode() const { return M; }  // NOLINT(google-explicit-constructor)
};

/// Namespace-like holder so the OP2-era `Access::READ` spelling (and the
/// common `using A = Access; A::READ` alias) resolves to typed tags.
struct Access {
  static constexpr AccessTag<AccessMode::READ> READ{};
  static constexpr AccessTag<AccessMode::WRITE> WRITE{};
  static constexpr AccessTag<AccessMode::RW> RW{};
  static constexpr AccessTag<AccessMode::INC> INC{};
  static constexpr AccessTag<AccessMode::MIN> MIN{};
  static constexpr AccessTag<AccessMode::MAX> MAX{};
};

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
