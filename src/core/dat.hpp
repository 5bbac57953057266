// op_dat: data attached to every element of a set, with fixed arity (dim).
//
// Dat<T> is the storage: a runtime dim, a layout policy and the typed
// values. FixedDat<T, N> is what an application declares and a loop binds:
// its arity is part of the TYPE, so every descriptor built from it carries
// a compile-time Dim (core/arg.hpp). Plain Dat<T> storage backs contexts
// internally (e.g. the dist rank replicas) and the type-erased machinery.
#pragma once

#include <cstring>
#include <span>
#include <string>
#include <typeinfo>
#include <utility>

#include "common/aligned.hpp"
#include "common/error.hpp"
#include "core/layout.hpp"
#include "core/reorder.hpp"
#include "core/set.hpp"

namespace opv {

/// Largest per-element arity the engine supports (scratch buffers in the
/// vector paths are sized to it; compile-time Dim descriptors are bounded
/// by it at the type level).
inline constexpr int kMaxDim = 8;

/// Type-erased base so plan/halo machinery can handle datasets generically.
class DatBase {
 public:
  DatBase(std::string name, const Set& set, int dim)
      : name_(std::move(name)), set_(&set), dim_(dim) {
    OPV_REQUIRE(dim_ >= 1 && dim_ <= kMaxDim,
                "dat '" << name_ << "': dim must be in [1," << kMaxDim << "]");
  }
  virtual ~DatBase() = default;
  DatBase(const DatBase&) = delete;
  DatBase& operator=(const DatBase&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const Set& set() const { return *set_; }
  [[nodiscard]] int dim() const { return dim_; }
  [[nodiscard]] virtual std::size_t elem_bytes() const = 0;
  [[nodiscard]] virtual void* raw() = 0;
  [[nodiscard]] virtual const void* raw() const = 0;

  // ---- layout policy (core/layout.hpp) ------------------------------------
  // set_layout() records the REQUESTED layout; the physical relayout happens
  // at context finalize (apply_layout), after renumbering — exactly like the
  // renumbering pass itself, declarations first, transform once. After the
  // layout is applied any further set_layout throws: the engine's bound
  // access paths and pinned plans read the physical layout, so changing it
  // underneath a running loop would corrupt every subsequent gather.

  /// The physical layout of the storage (AoS until apply_layout runs).
  [[nodiscard]] Layout layout() const { return layout_; }
  /// Padded row count backing SoA addressing (0 while AoS).
  [[nodiscard]] idx_t plane() const { return plane_; }
  /// The layout apply_layout() will install at finalize.
  [[nodiscard]] Layout requested_layout() const { return requested_; }
  /// True once the layout was explicitly chosen (a context default never
  /// overrides an explicit per-dat request).
  [[nodiscard]] bool layout_explicit() const { return layout_explicit_; }

  /// Request a layout for this dat. Legal until apply_layout() (the owning
  /// context's finalize).
  void set_layout(Layout l) {
    OPV_REQUIRE(!layout_frozen_, "dat '" << name_
                                         << "': layout is frozen (set_layout must happen "
                                            "before the context is finalized)");
    requested_ = l;
    layout_explicit_ = true;
  }

  /// Physically convert the storage to the requested layout and freeze it.
  /// Contexts call this at finalize, AFTER renumbering (the renumber pass
  /// permutes AoS rows).
  void apply_layout() {
    OPV_REQUIRE(!layout_frozen_, "dat '" << name_ << "': layout already applied");
    layout_frozen_ = true;
    if (requested_ == Layout::AoS) return;
    relayout_storage(requested_);
    layout_ = requested_;
    plane_ = padded_rows(set_->total_size());
  }

 protected:
  /// Typed storage conversion AoS -> l, implemented by Dat<T>.
  virtual void relayout_storage(Layout l) = 0;

 private:
  std::string name_;
  const Set* set_ = nullptr;
  int dim_ = 0;
  Layout layout_ = Layout::AoS;     ///< physical layout of the storage
  Layout requested_ = Layout::AoS;  ///< layout apply_layout() installs
  idx_t plane_ = 0;                 ///< padded rows (non-AoS only)
  bool layout_explicit_ = false;
  bool layout_frozen_ = false;
};

/// Typed dataset: total_size()*dim values of T in 64-byte-aligned storage.
template <class T>
class Dat : public DatBase {
 public:
  using value_type = T;

  Dat(std::string name, const Set& set, int dim)
      : DatBase(std::move(name), set, dim),
        data_(static_cast<std::size_t>(set.total_size()) * dim, T{}) {}

  Dat(std::string name, const Set& set, int dim, aligned_vector<T> init)
      : DatBase(std::move(name), set, dim), data_(std::move(init)) {
    OPV_REQUIRE(data_.size() == static_cast<std::size_t>(set.total_size()) * dim,
                "dat '" << this->name() << "': init size mismatch");
  }

  [[nodiscard]] T* data() { return data_.data(); }
  [[nodiscard]] const T* data() const { return data_.data(); }
  [[nodiscard]] std::size_t size() const { return data_.size(); }
  [[nodiscard]] std::span<T> span() { return {data_.data(), data_.size()}; }
  [[nodiscard]] std::span<const T> span() const { return {data_.data(), data_.size()}; }

  /// Value c of element e (layout-aware: correct under any physical layout).
  [[nodiscard]] T& at(idx_t e, int c = 0) {
    return data_[layout_offset(layout(), e, c, dim(), plane())];
  }
  [[nodiscard]] const T& at(idx_t e, int c = 0) const {
    return data_[layout_offset(layout(), e, c, dim(), plane())];
  }

  [[nodiscard]] std::size_t elem_bytes() const override { return sizeof(T) * dim(); }
  [[nodiscard]] void* raw() override { return data_.data(); }
  [[nodiscard]] const void* raw() const override { return data_.data(); }

  void fill(T v) { std::fill(data_.begin(), data_.end(), v); }

 protected:
  /// AoS -> l conversion into padded storage via the type-erased reorder
  /// machinery (padding rows stay zero, so vector code may harmlessly load
  /// them).
  void relayout_storage(Layout l) override {
    const idx_t n = set().total_size();
    const idx_t pl = padded_rows(n);
    aligned_vector<T> out(static_cast<std::size_t>(pl) * dim(), T{});
    reorder::convert_layout_bytes(data_.data(), Layout::AoS, out.data(), l, n, pl, dim(),
                                  sizeof(T));
    data_ = std::move(out);
  }

 private:
  aligned_vector<T> data_;
};

/// Dataset whose arity is part of the TYPE: `arg<A>(fixed)` takes the
/// descriptor's compile-time Dim from N (core/arg.hpp).
template <class T, int N>
class FixedDat final : public Dat<T> {
  static_assert(N >= 1 && N <= kMaxDim, "FixedDat: dim must be in [1,kMaxDim]");

 public:
  FixedDat(std::string name, const Set& set) : Dat<T>(std::move(name), set, N) {}
  FixedDat(std::string name, const Set& set, aligned_vector<T> init)
      : Dat<T>(std::move(name), set, N, std::move(init)) {}
};

}  // namespace opv
