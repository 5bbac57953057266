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

/// Context-bound persistent loop handle: an opv::Loop whose run() executes
/// under the owning LocalCtx's CURRENT configuration — the local analog of
/// dist::Loop::run(), so drivers templated over the context concept can
/// hold `auto loop = ctx.make_loop(...)` and call loop.run() each timestep
/// on either context.
template <class Kernel, class... Args>
class CtxLoop {
 public:
  CtxLoop(LocalCtx& ctx, Kernel kernel, const char* name, const Set& set, Args... args)
      : ctx_(&ctx), loop_(std::move(kernel), name, set, args...) {}

  /// Execute under the context's current configuration.
  void run();

  /// The underlying engine handle (plan/tuner introspection).
  [[nodiscard]] Loop<Kernel, Args...>& inner() { return loop_; }

 private:
  LocalCtx* ctx_;
  Loop<Kernel, Args...> loop_;
};

class LocalCtx {
 public:
  using SetHandle = Set*;
  using MapHandle = Map*;
  template <class T>
  using DatHandle = Dat<T>*;
  template <class T, int N>
  using FixedDatHandle = FixedDat<T, N>*;

  explicit LocalCtx(ExecConfig cfg = {}) : cfg_(cfg) {}

  ExecConfig& config() { return cfg_; }
  const ExecConfig& config() const { return cfg_; }

  SetHandle decl_set(const std::string& name, idx_t size) {
    require_not_renumbered("decl_set");
    sets_.push_back(std::make_unique<Set>(name, size));
    return sets_.back().get();
  }

  /// Partition hint; locally it only records the primary set — the default
  /// seed for the opt-in renumbering pass (set_renumber). The optional
  /// coordinate dimensionality matches DistCtx's signature (ignored here).
  void set_partition_coords(SetHandle s, const double*, int = 2) { primary_ = s; }

  /// Request a memory layout for one dataset — the context-concept spelling
  /// shared with DistCtx::set_layout, so drivers templated over the context
  /// pick layouts the same way on both. Locally it forwards to the dat.
  template <detail::DatLike D>
  void set_layout(D* d, Layout l) {
    d->set_layout(l);
  }

  MapHandle decl_map(const std::string& name, SetHandle from, SetHandle to, int dim,
                     aligned_vector<idx_t> data) {
    require_not_renumbered("decl_map");
    maps_.push_back(std::make_unique<Map>(name, *from, *to, dim, std::move(data)));
    return maps_.back().get();
  }

  template <class T>
  DatHandle<T> decl_dat(const std::string& name, SetHandle set, int dim,
                        const aligned_vector<T>& init) {
    require_not_renumbered("decl_dat");
    dats_.push_back(std::make_unique<Dat<T>>(name, *set, dim, init));
    return finish_decl_dat<Dat<T>>();
  }
  template <class T>
  DatHandle<T> decl_dat(const std::string& name, SetHandle set, int dim) {
    require_not_renumbered("decl_dat");
    dats_.push_back(std::make_unique<Dat<T>>(name, *set, dim));
    return finish_decl_dat<Dat<T>>();
  }

  /// Statically-dimensioned declaration: `decl_dat<double, 4>(...)` yields a
  /// FixedDat handle, so every `ctx.arg<A>(d, ...)` built from it carries a
  /// compile-time arity (fully-unrolled gathers with literal strides) with
  /// no per-argument Dim spelling at the loop sites.
  template <class T, int N>
  FixedDatHandle<T, N> decl_dat(const std::string& name, SetHandle set,
                                const aligned_vector<T>& init) {
    require_not_renumbered("decl_dat");
    dats_.push_back(std::make_unique<FixedDat<T, N>>(name, *set, init));
    return finish_decl_dat<FixedDat<T, N>>();
  }
  template <class T, int N>
  FixedDatHandle<T, N> decl_dat(const std::string& name, SetHandle set) {
    require_not_renumbered("decl_dat");
    dats_.push_back(std::make_unique<FixedDat<T, N>>(name, *set));
    return finish_decl_dat<FixedDat<T, N>>();
  }

  /// Opt into the context-level renumbering pass (core/reorder.hpp):
  /// finalize() then renumbers around the primary set declared through
  /// set_partition_coords. Must be set before finalize().
  void set_renumber(bool on) {
    OPV_REQUIRE(!finalized_, "LocalCtx::set_renumber: context already finalized");
    renumber_on_finalize_ = on;
  }

  /// Context-level layout default (core/layout.hpp): applied at finalize (or
  /// the first loop execution) to every multi-component dat that did not get
  /// an explicit set_layout. Pair with default_layout(backend) to follow the
  /// per-backend heuristic: `ctx.set_default_layout(default_layout(be))`.
  void set_default_layout(Layout l) {
    OPV_REQUIRE(!layouts_applied_,
                "LocalCtx::set_default_layout: layouts already materialized "
                "(finalize / first loop execution)");
    default_layout_ = l;
    have_default_layout_ = true;
  }

  /// Locally finalize() applies the opt-in renumbering pass and then
  /// materializes the per-dat layout policy (renumber permutes AoS rows, so
  /// it must run first); the distributed context additionally partitions.
  void finalize() {
    if (finalized_) return;
    finalized_ = true;
    if (renumber_on_finalize_) {
      OPV_REQUIRE(primary_ != nullptr,
                  "LocalCtx::finalize: set_renumber(true) requires a primary set "
                  "(call set_partition_coords)");
      renumber(primary_);
    }
    materialize_layouts();
  }

  /// Apply the context-level renumbering pass around `seed` (paper sections
  /// 6.2/6.4; core/reorder.hpp): every declared Map is row-permuted and
  /// target-relabeled, every Dat row-permuted, in place. Legal once, after
  /// all declarations and BEFORE any loop executes — a loop handle pins its
  /// coloring plan against the map contents it first ran with, so
  /// renumbering underneath it would leave a stale (racy) schedule. Loops
  /// run through this context's API are tracked and rejected here; fetch()
  /// keeps returning values in the original declaration order.
  void renumber(SetHandle seed) {
    OPV_REQUIRE(!renumbered_, "LocalCtx::renumber: context already renumbered");
    OPV_REQUIRE(!loops_ran_,
                "LocalCtx::renumber: a loop already executed on this context; renumber "
                "before the first loop (its pinned coloring plan would go stale)");
    OPV_REQUIRE(!layouts_applied_,
                "LocalCtx::renumber: layouts already materialized; renumber permutes AoS "
                "rows, so it must precede finalize / the first loop execution");
    renumbered_ = true;

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

    const reorder::Permutations p = reorder::compute(sizes, views, index.at(seed));
    reorder::apply_to_maps(p, views, sizes);
    for (const auto& d : dats_) {
      const int s = index.at(&d->set());
      if (!p.identity(s)) reorder::permute_rows_bytes(p.of(s), d->raw(), d->elem_bytes());
    }
    for (const auto& s : sets_) {
      const int i = index.at(s.get());
      if (!p.identity(i)) perms_.emplace(s.get(), p.of(i));
    }
  }

  /// The permutation (old declaration id -> new id) the renumbering pass
  /// applied to a set, or nullptr if the set kept its numbering.
  [[nodiscard]] const aligned_vector<idx_t>* permutation(SetHandle s) const {
    const auto it = perms_.find(s);
    return it == perms_.end() ? nullptr : &it->second;
  }

  /// Every non-identity permutation applied, keyed by set name (test and
  /// tooling introspection — e.g. replaying the pass as a manual relayout).
  [[nodiscard]] std::map<std::string, aligned_vector<idx_t>> applied_permutations() const {
    std::map<std::string, aligned_vector<idx_t>> out;
    for (const auto& [set, perm] : perms_) out.emplace(set->name(), perm);
    return out;
  }

  // Typed argument builders: the access mode and the arity Dim travel as
  // template parameters. `ctx.arg<opv::READ, 4>(d, ...)` builds a Dim-4 descriptor (checked
  // against the dat's declared dim); a FixedDat handle supplies Dim itself,
  // so `ctx.arg<opv::READ>(fixed, ...)` needs no spelling.
  template <AccessMode A, int Dim, detail::DatLike D>
  auto arg(D* d, int idx, MapHandle m) -> decltype(opv::arg<A, Dim>(*d, idx, *m)) {
    return opv::arg<A, Dim>(*d, idx, *m);
  }
  template <AccessMode A, int Dim, detail::DatLike D>
  auto arg(D* d) -> decltype(opv::arg<A, Dim>(*d)) {
    return opv::arg<A, Dim>(*d);
  }
  template <AccessMode A, detail::FixedDatLike D>
  auto arg(D* d, int idx, MapHandle m) {
    return opv::arg<A>(*d, idx, *m);
  }
  template <AccessMode A, detail::FixedDatLike D>
  auto arg(D* d) {
    return opv::arg<A>(*d);
  }
  template <AccessMode A, class T>
  auto arg_gbl(T* p, int dim) {
    return opv::arg_gbl<A>(p, dim);
  }

  template <class Kernel, class... Args>
  void loop(Kernel k, const char* name, SetHandle set, Args... args) {
    note_loops_ran();
    par_loop(std::move(k), name, *set, cfg_, args...);
  }

  /// Record that loops are about to execute outside the context's own
  /// loop()/CtxLoop::run() paths — e.g. a LoopChain driving CtxLoop inner()
  /// handles directly. Closes the renumbering window exactly like a tracked
  /// loop execution would (the chain pins tile plans against map contents),
  /// and materializes the layout policy so access paths never see a dat
  /// whose requested layout was silently left unapplied.
  void note_loops_ran() {
    if (!loops_ran_) materialize_layouts();
    loops_ran_ = true;
  }

  /// Build a persistent loop handle bound to this context (the Context-
  /// concept spelling shared with DistCtx::make_loop): conflict analysis at
  /// construction, plan and stats slot pinned on first run, and run()
  /// follows the context's current configuration.
  template <class Kernel, class... Args>
  CtxLoop<Kernel, Args...> make_loop(Kernel k, const char* name, SetHandle set, Args... args) {
    return CtxLoop<Kernel, Args...>(*this, std::move(k), name, *set, args...);
  }

  /// Copy a dataset's owned values into an array in the ORIGINAL declaration
  /// order and AoS component order (renumbering AND relayout, when applied,
  /// are inverted here — the caller never observes the internal numbering or
  /// the physical layout).
  template <class T>
  void fetch(DatHandle<T> d, aligned_vector<T>& out) const {
    const auto it = perms_.find(&d->set());
    const aligned_vector<idx_t>* perm = it == perms_.end() ? nullptr : &it->second;
    if (perm == nullptr && d->layout() == Layout::AoS) {
      out.assign(d->data(), d->data() + static_cast<std::size_t>(d->set().size()) * d->dim());
      return;
    }
    const int dim = d->dim();
    out.resize(static_cast<std::size_t>(d->set().size()) * dim);
    for (idx_t e = 0; e < d->set().size(); ++e) {
      const idx_t src = perm ? (*perm)[static_cast<std::size_t>(e)] : e;
      for (int c = 0; c < dim; ++c)
        out[static_cast<std::size_t>(e) * dim + c] = d->at(src, c);
    }
  }

  /// Append one "dat/NNN/<name>" section per declared dat to `out`, each
  /// holding the dat's values in the ORIGINAL declaration order and AoS
  /// component order (the canonical form fetch() returns: renumbering and
  /// physical layout are inverted through the same permutation/offset
  /// machinery). Snapshots are therefore portable across contexts that made
  /// different renumber/layout choices for the same declarations, and
  /// restore() is exact — byte-identical values round-trip bitwise.
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
      const auto* perm = permutation_of(d->set());
      const auto* base = static_cast<const unsigned char*>(d->raw());
      if (perm == nullptr && d->layout() == Layout::AoS) {
        w.put_bytes(base, static_cast<std::size_t>(rows) * d->elem_bytes());
      } else {
        for (idx_t e = 0; e < rows; ++e) {
          const idx_t src = perm ? (*perm)[static_cast<std::size_t>(e)] : e;
          for (int c = 0; c < dim; ++c)
            w.put_bytes(base + layout_offset(d->layout(), src, c, dim, d->plane()) * vb, vb);
        }
      }
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
      const auto* perm = permutation_of(d->set());
      auto* base = static_cast<unsigned char*>(d->raw());
      if (perm == nullptr && d->layout() == Layout::AoS) {
        r.get_bytes(base, static_cast<std::size_t>(rows) * d->elem_bytes());
      } else {
        for (idx_t e = 0; e < rows; ++e) {
          const idx_t dst = perm ? (*perm)[static_cast<std::size_t>(e)] : e;
          for (int c = 0; c < dim; ++c)
            r.get_bytes(base + layout_offset(d->layout(), dst, c, dim, d->plane()) * vb, vb);
        }
      }
      ++i;
    }
  }

 private:
  template <class Kernel, class... Args>
  friend class CtxLoop;  // marks loops_ran_ on run()

  /// Stable checkpoint section name: declaration index + dat name.
  static std::string dat_section_name(int index, const std::string& name) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "dat/%03d/", index);
    return buf + name;
  }

  [[nodiscard]] const aligned_vector<idx_t>* permutation_of(const Set& s) const {
    const auto it = perms_.find(&s);
    return it == perms_.end() ? nullptr : &it->second;
  }

  void require_not_renumbered(const char* what) const {
    OPV_REQUIRE(!renumbered_, "LocalCtx::" << what
                                           << ": declarations are closed once the context is "
                                              "renumbered (declare everything first)");
  }

  /// Return the just-declared dat as its concrete type; a dat declared after
  /// layout materialization stays AoS with its layout frozen immediately, so
  /// a late set_layout fails loudly instead of silently never applying.
  template <class D>
  D* finish_decl_dat() {
    D* d = static_cast<D*>(dats_.back().get());
    if (layouts_applied_) d->freeze_layout();
    return d;
  }

  /// One-shot layout materialization: resolve the context default onto
  /// non-explicit multi-component dats, then physically convert and freeze
  /// every dat. Runs at finalize() or, for drivers that never finalize, at
  /// the first tracked loop execution.
  void materialize_layouts() {
    if (layouts_applied_) return;
    layouts_applied_ = true;
    for (const auto& d : dats_) {
      if (have_default_layout_ && !d->layout_explicit() && d->dim() > 1)
        d->set_layout(default_layout_);
      d->apply_layout();
    }
  }

  ExecConfig cfg_;
  std::deque<std::unique_ptr<Set>> sets_;
  std::deque<std::unique_ptr<Map>> maps_;
  std::deque<std::unique_ptr<DatBase>> dats_;
  SetHandle primary_ = nullptr;
  bool renumber_on_finalize_ = false;
  bool finalized_ = false;
  bool renumbered_ = false;
  bool loops_ran_ = false;  ///< a loop executed: renumbering is no longer legal
  Layout default_layout_ = Layout::AoS;
  bool have_default_layout_ = false;
  bool layouts_applied_ = false;  ///< layout policy materialized and frozen
  std::map<const Set*, aligned_vector<idx_t>> perms_;  ///< old -> new, per set
};

template <class Kernel, class... Args>
void CtxLoop<Kernel, Args...>::run() {
  ctx_->note_loops_ran();
  loop_.run(ctx_->config());
}

}  // namespace opv
