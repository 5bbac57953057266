// op_dat: data attached to every element of a set, with fixed arity (dim).
//
// Dat<T> is the storage: a runtime dim, the physical layout and the typed
// values, built once in their final numbering and layout (materialize(), or
// the layout constructor for storage that starts final). FixedDat<T, N> is
// what an application declares and a loop binds: its arity is part of the
// TYPE, so every descriptor built from it carries a compile-time Dim
// (core/arg.hpp). Plain Dat<T> storage backs contexts internally (e.g. the
// dist rank replicas) and the type-erased machinery.
#pragma once

#include <cstring>
#include <string>
#include <typeinfo>
#include <utility>

#include "common/aligned.hpp"
#include "common/error.hpp"
#include "core/layout.hpp"
#include "core/set.hpp"

namespace opv {

/// Largest per-element arity the engine supports (scratch buffers in the
/// vector paths are sized to it; compile-time Dim descriptors are bounded
/// by it at the type level).
inline constexpr int kMaxDim = 8;

/// Type-erased base so plan/halo machinery can handle datasets generically.
/// A dat is declared as AoS rows in declaration order until materialize()
/// builds its final storage; one constructed in its layout (the dist rank
/// replicas) starts final.
class DatBase {
 public:
  DatBase(std::string name, const Set& set, int dim)
      : name_(std::move(name)), set_(&set), dim_(dim) {
    OPV_REQUIRE(dim_ >= 1 && dim_ <= kMaxDim,
                "dat '" << name_ << "': dim must be in [1," << kMaxDim << "]");
  }
  DatBase(std::string name, const Set& set, int dim, Layout l)
      : DatBase(std::move(name), set, dim) {
    adopt(l);
  }
  virtual ~DatBase() = default;
  DatBase(const DatBase&) = delete;
  DatBase& operator=(const DatBase&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const Set& set() const { return *set_; }
  [[nodiscard]] int dim() const { return dim_; }
  [[nodiscard]] virtual std::size_t elem_bytes() const = 0;

  /// The physical layout of the storage (AoS until materialized otherwise).
  [[nodiscard]] Layout layout() const { return layout_; }
  /// Padded row count backing SoA addressing (0 under AoS).
  [[nodiscard]] idx_t plane() const { return plane_; }

  /// Build the final storage from the declared rows in one pass: declared
  /// row e becomes row perm[e] (perm may be null: numbering kept) under
  /// layout l. Contexts call it at finalize, after renumbering; loops bind
  /// the result, so a second call throws.
  void materialize(const aligned_vector<idx_t>* perm, Layout l) {
    OPV_REQUIRE(!final_, "dat '" << name_ << "': storage is already materialized");
    OPV_REQUIRE(perm == nullptr || perm->size() == static_cast<std::size_t>(set_->total_size()),
                "dat '" << name_ << "': permutation size does not match the set");
    adopt(l);
    if (perm != nullptr || l != Layout::AoS) rebuild(perm);
  }

  /// Copy the owned rows out in declaration order as AoS values
  /// (set().size() * elem_bytes() bytes), whatever the numbering and
  /// layout: row e is stored at row perm[e] (perm may be null). The
  /// canonical form of fetch() and of checkpoints.
  virtual void export_rows(const aligned_vector<idx_t>* perm, void* out) const = 0;
  /// The inverse of export_rows.
  virtual void import_rows(const aligned_vector<idx_t>* perm, const void* in) = 0;

 protected:
  /// Move the declared AoS rows to their rows under layout()/plane().
  virtual void rebuild(const aligned_vector<idx_t>* perm) = 0;

 private:
  void adopt(Layout l) {
    final_ = true;
    layout_ = l;
    plane_ = l == Layout::SoA ? padded_rows(set_->total_size()) : 0;
  }

  std::string name_;
  const Set* set_ = nullptr;
  int dim_ = 0;
  Layout layout_ = Layout::AoS;  ///< physical layout of the storage
  idx_t plane_ = 0;              ///< padded rows (SoA only)
  bool final_ = false;           ///< materialized, or built in its layout
};

/// Typed dataset: total_size()*dim values of T in 64-byte-aligned storage
/// (padded_rows(total_size())*dim under SoA; the padding rows stay zero, so
/// vector code may harmlessly load them).
template <class T>
class Dat : public DatBase {
 public:
  using value_type = T;

  /// Declared storage, zero-initialized.
  Dat(std::string name, const Set& set, int dim)
      : DatBase(std::move(name), set, dim),
        data_(static_cast<std::size_t>(set.total_size()) * dim, T{}) {}

  /// Declared storage holding `init` (AoS rows in declaration order).
  Dat(std::string name, const Set& set, int dim, aligned_vector<T> init)
      : DatBase(std::move(name), set, dim), data_(std::move(init)) {
    OPV_REQUIRE(data_.size() == static_cast<std::size_t>(set.total_size()) * dim,
                "dat '" << this->name() << "': init size mismatch");
  }

  /// Final storage, zero-initialized directly in layout l.
  Dat(std::string name, const Set& set, int dim, Layout l)
      : DatBase(std::move(name), set, dim, l), data_(storage_size(), T{}) {}

  [[nodiscard]] T* data() { return data_.data(); }
  [[nodiscard]] const T* data() const { return data_.data(); }
  [[nodiscard]] std::size_t size() const { return data_.size(); }

  /// Value c of element e (layout-aware: correct under any physical layout).
  [[nodiscard]] T& at(idx_t e, int c = 0) {
    return data_[layout_offset(layout(), e, c, dim(), plane())];
  }
  [[nodiscard]] const T& at(idx_t e, int c = 0) const {
    return data_[layout_offset(layout(), e, c, dim(), plane())];
  }

  [[nodiscard]] std::size_t elem_bytes() const override { return sizeof(T) * dim(); }

  void fill(T v) { std::fill(data_.begin(), data_.end(), v); }

  void export_rows(const aligned_vector<idx_t>* perm, void* out) const override {
    auto* o = static_cast<unsigned char*>(out);
    if (perm == nullptr && layout() == Layout::AoS) return copy(o, data_.data());
    each_value(perm, set().size(), [&](std::size_t i, std::size_t at) {
      std::memcpy(o + i * sizeof(T), &data_[at], sizeof(T));
    });
  }

  void import_rows(const aligned_vector<idx_t>* perm, const void* in) override {
    const auto* p = static_cast<const unsigned char*>(in);
    if (perm == nullptr && layout() == Layout::AoS) return copy(data_.data(), p);
    each_value(perm, set().size(), [&](std::size_t i, std::size_t at) {
      std::memcpy(&data_[at], p + i * sizeof(T), sizeof(T));
    });
  }

 protected:
  void rebuild(const aligned_vector<idx_t>* perm) override {
    aligned_vector<T> out(storage_size(), T{});
    each_value(perm, set().total_size(),
               [&](std::size_t i, std::size_t at) { out[at] = data_[i]; });
    data_ = std::move(out);
  }

 private:
  [[nodiscard]] std::size_t storage_size() const {
    const idx_t rows = layout() == Layout::SoA ? plane() : set().total_size();
    return static_cast<std::size_t>(rows) * dim();
  }

  /// f(i, at) for each value of the first n rows: i its index in
  /// declaration-order AoS, at its storage offset.
  template <class F>
  void each_value(const aligned_vector<idx_t>* perm, idx_t n, F&& f) const {
    for (idx_t e = 0; e < n; ++e) {
      const idx_t row = perm ? (*perm)[static_cast<std::size_t>(e)] : e;
      for (int c = 0; c < dim(); ++c)
        f(static_cast<std::size_t>(e) * dim() + c, layout_offset(layout(), row, c, dim(), plane()));
    }
  }

  /// The owned rows in one memcpy (unpermuted AoS).
  void copy(void* dst, const void* src) const {
    const std::size_t bytes = static_cast<std::size_t>(set().size()) * elem_bytes();
    if (bytes > 0) std::memcpy(dst, src, bytes);
  }

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
