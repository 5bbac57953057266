// LocalCtx: the single-process execution context.
//
// Application drivers are written once against the Context concept
// (decl_set / decl_map / decl_dat / arg / loop / fetch — the op_decl_* API),
// and instantiated with either LocalCtx (this file) or dist::DistCtx (the
// rank simulator). This mirrors how a single OP2 application source runs on
// every backend.
#pragma once

#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/op2.hpp"
#include "core/snapshot.hpp"

namespace opv {

class LocalCtx;

/// Context-bound persistent loop handle: an opv::Loop whose run() with no
/// argument executes under the owning LocalCtx's CURRENT configuration —
/// the local analog of dist::Loop::run(), so drivers templated over the
/// context concept hold `auto loop = ctx.make_loop(...)` and call
/// loop.run() each timestep on either context. Being an opv::Loop, it joins
/// a LoopChain as it is.
template <class Kernel, class... Args>
class CtxLoop : public Loop<Kernel, Args...> {
 public:
  CtxLoop(LocalCtx& ctx, Kernel kernel, const char* name, const Set& set, Args... args)
      : Loop<Kernel, Args...>(std::move(kernel), name, set, args...), ctx_(&ctx) {}

  using Loop<Kernel, Args...>::run;
  /// Execute under the context's current configuration.
  void run();

 private:
  LocalCtx* ctx_;
};

/// Lifecycle (shared with dist::DistCtx): declarations — decl_*,
/// set_partition_coords, set_default_layout, set_renumber — are legal until
/// finalize(); finalize() computes the opt-in renumbering and builds every
/// dat once in its final numbering and layout. The first make_loop(), loop(),
/// fetch() or permutation query finalizes implicitly, so a loop never sees a
/// numbering or layout that could still change underneath its pinned plan.
class LocalCtx {
 public:
  using SetHandle = Set*;
  using MapHandle = Map*;
  template <class T, int N>
  using FixedDatHandle = FixedDat<T, N>*;

  explicit LocalCtx(ExecConfig cfg = {}) : cfg_(cfg) {}

  ExecConfig& config() { return cfg_; }
  const ExecConfig& config() const { return cfg_; }

  SetHandle decl_set(const std::string& name, idx_t size) {
    require_open("decl_set");
    sets_.push_back(std::make_unique<Set>(name, size));
    return sets_.back().get();
  }

  /// Partition hint; locally it only records the primary set — the seed of
  /// the opt-in renumbering pass (set_renumber). The optional coordinate
  /// dimensionality matches DistCtx's signature (ignored here).
  void set_partition_coords(SetHandle s, const double*, int = 2) {
    require_open("set_partition_coords");
    primary_ = s;
  }

  MapHandle decl_map(const std::string& name, SetHandle from, SetHandle to, int dim,
                     aligned_vector<idx_t> data) {
    require_open("decl_map");
    maps_.push_back(std::make_unique<Map>(name, *from, *to, dim, std::move(data)));
    return maps_.back().get();
  }

  /// `decl_dat<double, 4>(...)` yields a FixedDat handle, so every
  /// `ctx.arg<A>(d, ...)` built from it carries a compile-time arity
  /// (fully-unrolled gathers with literal strides) with no per-argument Dim
  /// spelling at the loop sites. An empty `init` means zero-initialized.
  template <class T, int N>
  FixedDatHandle<T, N> decl_dat(const std::string& name, SetHandle set,
                                const aligned_vector<T>& init = {}) {
    require_open("decl_dat");
    auto d = init.empty() ? std::make_unique<FixedDat<T, N>>(name, *set)
                          : std::make_unique<FixedDat<T, N>>(name, *set, init);
    FixedDat<T, N>* h = d.get();
    dats_.push_back(std::move(d));
    return h;
  }

  /// Opt into the context-level renumbering pass (core/reorder.hpp):
  /// finalize() then renumbers around the primary set declared through
  /// set_partition_coords.
  void set_renumber(bool on) {
    require_open("set_renumber");
    renumber_on_finalize_ = on;
  }

  /// Context-level layout (core/layout.hpp): every multi-component dat is
  /// built in it at finalize() (dim-1 dats stay AoS). Pair with
  /// default_layout(backend) to follow the per-backend heuristic:
  /// `ctx.set_default_layout(default_layout(be))`.
  void set_default_layout(Layout l) {
    require_open("set_default_layout");
    layout_ = l;
  }

  /// Close the declarations, compute the opt-in renumbering (maps are
  /// relabeled in place), then build every dat's final storage from its
  /// declared rows in one pass; the distributed context additionally
  /// partitions. Idempotent; called implicitly by the first make_loop(),
  /// loop(), fetch() or permutation query.
  void finalize() {
    if (finalized_) return;
    OPV_REQUIRE(!renumber_on_finalize_ || primary_ != nullptr,
                "LocalCtx::finalize: set_renumber(true) requires a primary set "
                "(call set_partition_coords)");
    finalized_ = true;
    if (renumber_on_finalize_) renumber();
    for (const auto& d : dats_)
      d->materialize(perm_of(&d->set()), d->dim() > 1 ? layout_ : Layout::AoS);
  }

  /// The permutation (old declaration id -> new id) the renumbering pass
  /// applied to a set, or nullptr if the set kept its numbering. Finalizes.
  [[nodiscard]] const aligned_vector<idx_t>* permutation(const Set* s) {
    finalize();
    return perm_of(s);
  }

  /// Every non-identity permutation applied, keyed by set name (test and
  /// tooling introspection — e.g. replaying the pass as a manual relayout).
  /// Finalizes.
  [[nodiscard]] std::map<std::string, aligned_vector<idx_t>> applied_permutations() {
    finalize();
    std::map<std::string, aligned_vector<idx_t>> out;
    for (const auto& [set, perm] : perms_) out.emplace(set->name(), perm);
    return out;
  }

  // Typed argument builders: the access mode travels as a template
  // parameter and the arity comes from the FixedDat handle's type.
  template <AccessMode A, class T, int N>
  auto arg(FixedDatHandle<T, N> d, int idx, MapHandle m) {
    return opv::arg<A>(*d, idx, *m);
  }
  template <AccessMode A, class T, int N>
  auto arg(FixedDatHandle<T, N> d) {
    return opv::arg<A>(*d);
  }
  template <AccessMode A, class T>
  auto arg_gbl(T* p, int dim) {
    return opv::arg_gbl<A>(p, dim);
  }

  /// One-shot execution (finalizes the context first).
  template <class Kernel, class... Args>
  void loop(Kernel k, const char* name, SetHandle set, Args... args) {
    finalize();
    par_loop(std::move(k), name, *set, cfg_, args...);
  }

  /// Build a persistent loop handle bound to this context (the Context-
  /// concept spelling shared with DistCtx::make_loop): finalizes the
  /// context, then conflict analysis at construction, plan and stats slot
  /// pinned on first run, and run() follows the context's current
  /// configuration.
  template <class Kernel, class... Args>
  CtxLoop<Kernel, Args...> make_loop(Kernel k, const char* name, SetHandle set, Args... args) {
    finalize();
    return CtxLoop<Kernel, Args...>(*this, std::move(k), name, *set, args...);
  }

  /// Copy a dataset's owned values into an array in the ORIGINAL declaration
  /// order and AoS component order (renumbering and layout are inverted
  /// here — the caller never observes the internal numbering or the physical
  /// layout). Finalizes, as DistCtx::fetch does.
  template <class T, int N>
  void fetch(FixedDatHandle<T, N> d, aligned_vector<T>& out) {
    finalize();
    out.resize(static_cast<std::size_t>(d->set().size()) * N);
    d->export_rows(perm_of(&d->set()), out.data());
  }

  /// Append one "dat/NNN/<name>" section per declared dat to `out`, each
  /// holding the dat's values in the ORIGINAL declaration order and AoS
  /// component order (the canonical form fetch() returns, through the same
  /// DatBase::export_rows). Snapshots are therefore portable across contexts
  /// that made different renumber/layout choices for the same declarations,
  /// and restore() is exact — byte-identical values round-trip bitwise.
  void snapshot(Checkpoint& out) const {
    int i = 0;
    for (const auto& d : dats_) {
      const idx_t rows = d->set().size();
      const int dim = d->dim();
      const std::size_t vb = d->elem_bytes() / static_cast<std::size_t>(dim);
      ByteWriter w;
      w.put<std::int64_t>(rows);
      w.put<std::int32_t>(dim);
      w.put<std::uint32_t>(static_cast<std::uint32_t>(vb));
      d->export_rows(perm_of(&d->set()),
                     w.extend(static_cast<std::size_t>(rows) * d->elem_bytes()));
      out.add(dat_section_name(i++, d->name()), w.take());
    }
  }

  /// Write a snapshot's values back into the declared dats, through the
  /// context's CURRENT permutation and physical layout. The snapshot must
  /// come from an identically-declared context (same dats in order, same
  /// shapes) — any mismatch throws opv::Error instead of silently writing
  /// misaligned bytes. Maps, plans, and loop handles are untouched: derived
  /// schedule state keys on mesh topology, which a checkpoint never changes.
  void restore(const Checkpoint& in) {
    OPV_REQUIRE(in.sections.size() >= dats_.size(),
                "LocalCtx::restore: checkpoint has " << in.sections.size() << " sections but "
                                                     << dats_.size() << " dats are declared");
    int i = 0;
    for (const auto& d : dats_) {
      const std::string name = dat_section_name(i, d->name());
      const Checkpoint::Section* s = in.find(name);
      OPV_REQUIRE(s != nullptr, "LocalCtx::restore: checkpoint is missing section '" << name << "'");
      const idx_t rows = d->set().size();
      const int dim = d->dim();
      const std::size_t vb = d->elem_bytes() / static_cast<std::size_t>(dim);
      ByteReader r(s->bytes, name);
      const auto srows = r.get<std::int64_t>();
      const auto sdim = r.get<std::int32_t>();
      const auto svb = r.get<std::uint32_t>();
      OPV_REQUIRE(srows == rows && sdim == dim && svb == vb,
                  "LocalCtx::restore: section '"
                      << name << "' shape mismatch (checkpoint " << srows << "x" << sdim << "x"
                      << svb << " vs declared " << rows << "x" << dim << "x" << vb << ")");
      d->import_rows(perm_of(&d->set()),
                     r.view(static_cast<std::size_t>(rows) * d->elem_bytes()));
      ++i;
    }
  }

 private:
  /// Stable checkpoint section name: declaration index + dat name.
  static std::string dat_section_name(int index, const std::string& name) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "dat/%03d/", index);
    return buf + name;
  }

  void require_open(const char* what) const {
    OPV_REQUIRE(!finalized_, "LocalCtx::" << what << ": context already finalized");
  }

  /// The permutation applied to a set (nullptr: numbering kept).
  [[nodiscard]] const aligned_vector<idx_t>* perm_of(const Set* s) const {
    const auto it = perms_.find(s);
    return it == perms_.end() ? nullptr : &it->second;
  }

  /// The context-level renumbering pass around the primary set (paper
  /// sections 6.2/6.4; core/reorder.hpp), finalize()'s first step: every
  /// declared Map is row-permuted and target-relabeled in place, and the
  /// per-set permutations are kept for materializing the dats and for
  /// fetch(). No loop has run yet — a loop handle pins its coloring plan
  /// against the map contents it first ran with.
  void renumber() {
    std::map<const Set*, int> index;
    std::vector<idx_t> sizes;
    for (const auto& s : sets_) {
      index[s.get()] = static_cast<int>(sizes.size());
      sizes.push_back(s->size());
    }
    std::vector<reorder::MapView> views;
    views.reserve(maps_.size());
    for (const auto& m : maps_)
      views.push_back({index.at(&m->from()), index.at(&m->to()), m->dim(), m->mutable_data()});

    const reorder::Permutations p = reorder::compute(sizes, views, index.at(primary_));
    reorder::apply_to_maps(p, views, sizes);
    for (const auto& s : sets_) {
      const int i = index.at(s.get());
      if (!p.identity(i)) perms_.emplace(s.get(), p.of(i));
    }
  }

  ExecConfig cfg_;
  std::deque<std::unique_ptr<Set>> sets_;
  std::deque<std::unique_ptr<Map>> maps_;
  std::deque<std::unique_ptr<DatBase>> dats_;
  SetHandle primary_ = nullptr;
  bool renumber_on_finalize_ = false;
  bool finalized_ = false;
  Layout layout_ = Layout::AoS;  ///< layout of every multi-component dat
  std::map<const Set*, aligned_vector<idx_t>> perms_;  ///< old -> new, per set
};

template <class Kernel, class... Args>
void CtxLoop<Kernel, Args...>::run() {
  this->run(ctx_->config());
}

}  // namespace opv
