// DistCtx: the distributed-rank execution context (OP2's MPI model as a
// single-process rank simulator).
//
// Application drivers written against the Context concept (decl_set /
// decl_map / decl_dat / arg / loop / fetch) run unchanged: DistCtx
// partitions the primary set geometrically at finalize(), derives ownership
// of every other set through the maps, builds owned/exec/non-exec halo
// layouts (halo.hpp), and replicates each dataset per rank.
//
// Execution goes through dist::Loop handles (dist/loop.hpp): a Loop pins the
// halo-exchange plan, the per-rank argument bindings and one opv::Loop per
// rank at construction, so steady-state run() does zero setup. The context's
// loop(...) member is a one-shot wrapper over a throwaway Loop — exactly the
// relationship opv::par_loop has to opv::Loop. The execution model:
//   * owner-compute redundant execution: loops with indirect increments
//     execute the import halo so owned data gets every contribution locally;
//   * dirty-bit lazy halo exchange: a dataset's halo copies are refreshed
//     only when a loop will actually read them and a previous loop has
//     modified the dataset (exchanges are recorded as "<loop>/halo" in the
//     stats registry). The bytes move through a pluggable Exchanger
//     (exchange.hpp); the default is the in-process MemcpyExchanger;
//   * interior/boundary phased execution (paper section 6.5): loops whose
//     exchange can legally overlap compute begin it, run each rank's core
//     range while the driver thread waits for it, then run the boundary —
//     hiding exchange latency behind the halo-independent majority of each
//     rank's work (set_exchange_mode selects Overlap / Phased / Blocking);
//   * cross-rank global reductions merged after the rank barrier.
#pragma once

#include <cstdint>
#include <deque>
#include <exception>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/worker_pool.hpp"
#include "core/op2.hpp"
#include "dist/exchange.hpp"
#include "dist/halo.hpp"
#include "dist/partition.hpp"

namespace opv::dist {

/// The rank gang (promoted to common/worker_pool.hpp so serve/ and dist/
/// share one pool implementation); re-exported here for existing dist code
/// and tests that name dist::WorkerPool.
using opv::WorkerPool;

// ---- rank-addressable argument descriptors ---------------------------------

/// Dataset argument by handle: resolved to a typed opv::Arg on each rank's
/// replica when a dist::Loop is constructed. Access/arity/directness are
/// compile-time, like opv::Arg.
template <class T, AccessMode A, int Dim, bool Ind>
  requires(arg_dim_ok(Dim))
struct DistArgDat {
  using scalar_type = T;
  static constexpr AccessMode access = A;
  static constexpr int dim = Dim;
  static constexpr bool indirect = Ind;
  static constexpr bool is_gbl = false;
  int dat = -1;
  int map = -1;
  int idx = -1;
};

template <class T, AccessMode A>
struct DistArgGbl {
  using scalar_type = T;
  static constexpr AccessMode access = A;
  static constexpr bool indirect = false;
  static constexpr bool is_gbl = true;
  T* ptr = nullptr;
  int dim = 1;
};

template <class Kernel, class... DArgs>
class Loop;

class DistCtx {
 public:
  using SetHandle = int;
  using MapHandle = int;
  /// Dataset handle: carries the compile-time arity N, so arg builders
  /// produce Dim == N descriptors without a per-argument Dim spelling (the
  /// dist counterpart of LocalCtx's FixedDat handles).
  template <class T, int N>
  struct FixedDatHandle {
    int id = -1;
  };

  DistCtx(int nranks, ExecConfig cfg) : nranks_(nranks), cfg_(cfg), pool_(nranks) {
    OPV_REQUIRE(nranks >= 1, "DistCtx: need at least one rank");
  }

  ExecConfig& config() { return cfg_; }
  [[nodiscard]] const ExecConfig& config() const { return cfg_; }
  [[nodiscard]] int nranks() const { return nranks_; }

  // ---- declaration phase ---------------------------------------------------

  SetHandle decl_set(const std::string& name, idx_t size) {
    require_open("decl_set");
    return spec_.add_set(name, size);
  }

  /// Mark `s` as the primary (partitioned) set with interleaved ndims-D
  /// element coordinates (ndims is 2 or 3). Required before finalize().
  /// 3D meshes should pass their full xyz centroids with ndims == 3 so RCB
  /// bisects the true 3D bounding box instead of an xy projection.
  void set_partition_coords(SetHandle s, const double* coords, int ndims = 2) {
    require_open("set_partition_coords");
    OPV_REQUIRE(ndims == 2 || ndims == 3,
                "DistCtx::set_partition_coords: ndims must be 2 or 3, got " << ndims);
    primary_ = s;
    ndims_ = ndims;
    coords_.assign(coords,
                   coords + static_cast<std::size_t>(spec_.sets[s].size) * ndims);
  }

  MapHandle decl_map(const std::string& name, SetHandle from, SetHandle to, int dim,
                     const aligned_vector<idx_t>& data) {
    require_open("decl_map");
    return spec_.add_map(name, from, to, dim, data.data());
  }

  /// Declaration mirroring LocalCtx::decl_dat<T, N>: the handle carries the
  /// arity in its type, so arg<A>(d, ...) builds compile-time-Dim
  /// descriptors on every rank with no Dim at the loop sites. An empty
  /// `init` means zero-initialized.
  template <class T, int N>
  FixedDatHandle<T, N> decl_dat(const std::string& name, SetHandle set,
                                const aligned_vector<T>& init = {}) {
    static_assert(arg_dim_ok(N), "decl_dat: dim must be in [1,kMaxDim]");
    require_open("decl_dat");
    OPV_REQUIRE(init.empty() || init.size() == static_cast<std::size_t>(spec_.sets[set].size) * N,
                "decl_dat '" << name << "': init size mismatch");
    auto e = std::make_unique<DatEntry<T>>();
    e->name = name;
    e->set = set;
    e->dim = N;
    e->init = init;
    dats_.push_back(std::move(e));
    return {static_cast<int>(dats_.size()) - 1};
  }

  /// Context-level layout (core/layout.hpp): every rank replica of a
  /// multi-component dat is built in it at finalize() (dim-1 dats stay AoS)
  /// — the same policy LocalCtx::set_default_layout implements locally. Pair
  /// with default_layout(backend) for the per-backend heuristic.
  void set_default_layout(Layout l) {
    require_open("set_default_layout");
    layout_ = l;
  }

  /// Opt into the global renumbering pass (core/reorder.hpp): finalize()
  /// then renumbers the declared universe around the primary set BEFORE
  /// RCB partitioning, so each rank's owned elements also form contiguous
  /// RCM ranges. Must be set before finalize().
  void set_renumber(bool on) {
    require_open("set_renumber");
    renumber_on_finalize_ = on;
  }

  /// Partition, derive ownership, build halos, replicate datasets —
  /// preceded by the opt-in global renumbering pass.
  /// Idempotent; called implicitly by the first loop() or fetch().
  void finalize() {
    if (finalized_) return;
    OPV_REQUIRE(primary_ >= 0,
                "DistCtx::finalize: no partition coordinates declared "
                "(call set_partition_coords on the primary set)");
    inv_.resize(spec_.sets.size());
    if (renumber_on_finalize_) apply_renumber();
    const auto primary_owner =
        partition_rcb(coords_.data(), spec_.sets[primary_].size, nranks_, ndims_);
    auto owner = derive_ownership(spec_, primary_, primary_owner, nranks_);
    part_ = std::make_unique<Partitioned>(spec_, owner, nranks_);
    // Build every rank replica in its final layout, filled from the
    // declaration-order values (the view the exchangers use is stamped with
    // the layout and the per-rank plane strides there).
    for (int i = 0; i < static_cast<int>(dats_.size()); ++i) {
      DatEntryBase& d = *dats_[i];
      d.materialize(i, *part_, d.dim > 1 ? layout_ : Layout::AoS, inv_[d.set]);
    }
    finalized_ = true;
  }

  /// The permutation (old declaration id -> new global id) the renumbering
  /// pass applied to a set, or nullptr if the set kept its numbering.
  [[nodiscard]] const aligned_vector<idx_t>* permutation(SetHandle s) {
    finalize();
    if (perms_.perm.empty() || perms_.identity(s)) return nullptr;
    return &perms_.of(s);
  }

  /// Every non-identity permutation applied, keyed by set name (test and
  /// tooling introspection — e.g. replaying the pass as a manual relayout).
  [[nodiscard]] std::map<std::string, aligned_vector<idx_t>> applied_permutations() {
    finalize();
    std::map<std::string, aligned_vector<idx_t>> out;
    for (int s = 0; s < static_cast<int>(spec_.sets.size()); ++s)
      if (!perms_.perm.empty() && !perms_.identity(s))
        out.emplace(spec_.sets[s].name, perms_.of(s));
    return out;
  }

  [[nodiscard]] const Partitioned& partitioned() const {
    OPV_REQUIRE(part_, "DistCtx::partitioned: finalize() has not run yet");
    return *part_;
  }

  // ---- halo-exchange transport --------------------------------------------

  /// Swap the halo-exchange transport. The default is the in-process
  /// MemcpyExchanger; a real MPI transport implements the same interface and
  /// replaces it here without touching the loop API.
  void set_exchanger(std::unique_ptr<Exchanger> e) {
    OPV_REQUIRE(e != nullptr, "DistCtx::set_exchanger: null exchanger");
    exchanger_ = std::move(e);
  }
  [[nodiscard]] Exchanger& exchanger() { return *exchanger_; }

  /// How loops schedule their exchange relative to compute (paper section
  /// 6.5). The default is Overlap: loops whose ExchangePlan permits it run
  /// begin -> interior (caller thread: wait) -> boundary; loops that cannot legally
  /// overlap always fall back to Blocking regardless of this setting.
  /// Phased keeps the two-phase schedule but exchanges up front — the
  /// bitwise-identical control for measuring what the overlap buys.
  void set_exchange_mode(ExchangeMode m) { exchange_mode_ = m; }
  [[nodiscard]] ExchangeMode exchange_mode() const { return exchange_mode_; }

  // ---- typed argument builders --------------------------------------------
  // The handle's compile-time arity N is the descriptor Dim, so loop sites
  // spell no Dim at all.

  template <AccessMode A, class T, int N>
    requires(dat_access_ok(A))
  DistArgDat<T, A, N, true> arg(FixedDatHandle<T, N> d, int idx, MapHandle m) {
    OPV_REQUIRE(idx >= 0 && idx < spec_.maps[m].dim,
                "arg: map index " << idx << " out of range for map '" << spec_.maps[m].name
                                  << "'");
    OPV_REQUIRE(spec_.maps[m].to == dats_[d.id]->set,
                "arg: map '" << spec_.maps[m].name << "' does not target dat '"
                             << dats_[d.id]->name << "'s set");
    return {d.id, m, idx};
  }
  template <AccessMode A, class T, int N>
    requires(dat_access_ok(A))
  DistArgDat<T, A, N, false> arg(FixedDatHandle<T, N> d) {
    return {d.id, -1, -1};
  }
  template <AccessMode A, class T>
    requires(gbl_access_ok(A))
  DistArgGbl<T, A> arg_gbl(T* p, int dim) {
    OPV_REQUIRE(dim >= 1 && dim <= kMaxDim,
                "arg_gbl: dim must be in [1," << kMaxDim << "]");
    return {p, dim};
  }

  // ---- execution -----------------------------------------------------------

  /// One-shot execution: construct a dist::Loop, run it once, discard it.
  /// Steady-state callers (timestep-driven applications) should construct
  /// the Loop themselves and run() it repeatedly (dist/loop.hpp). Defined in
  /// loop.hpp.
  template <class Kernel, class... DArgs>
  void loop(Kernel kernel, const char* name, SetHandle set, DArgs... dargs);

  /// Build a persistent dist::Loop handle (the Context-concept spelling
  /// shared with LocalCtx::make_loop, so drivers templated over the context
  /// construct their handles once and run() them every timestep). Defined
  /// in loop.hpp.
  template <class Kernel, class... DArgs>
  Loop<Kernel, DArgs...> make_loop(Kernel kernel, const char* name, SetHandle set,
                                   DArgs... dargs);

  /// Copy a dataset's owned values into an array in the ORIGINAL declaration
  /// order (the global renumbering, when applied, is inverted here — the
  /// caller never observes the internal numbering).
  template <class T, int N>
  void fetch(FixedDatHandle<T, N> d, aligned_vector<T>& out) {
    finalize();
    auto& e = entry<T>(d.id);
    const aligned_vector<idx_t>& inv = inv_[e.set];
    out.assign(static_cast<std::size_t>(spec_.sets[e.set].size) * N, T{});
    for (int r = 0; r < nranks_; ++r) {
      const LocalLayout& L = part_->layout(r, e.set);
      const Dat<T>& dat = e.rank[r];
      for (idx_t l = 0; l < L.nowned; ++l) {
        const idx_t g = L.local_to_global[l];
        const idx_t orig = inv.empty() ? g : inv[static_cast<std::size_t>(g)];
        for (int c = 0; c < N; ++c) out[static_cast<std::size_t>(orig) * N + c] = dat.at(l, c);
      }
    }
  }

 private:
  template <class Kernel, class... DArgs>
  friend class Loop;

  // ---- dataset storage -----------------------------------------------------

  struct DatEntryBase {
    std::string name;
    int set = -1;
    int dim = 0;
    bool dirty = false;  ///< halo copies stale relative to owner data
    DatHaloView view;    ///< type-erased transport view, pinned at materialize
    virtual ~DatEntryBase() = default;
    /// Build every rank replica in layout l. `inv` maps a (renumbered)
    /// global id to its declaration id; empty when the set kept its
    /// numbering.
    virtual void materialize(int id, const Partitioned& part, Layout l,
                             const aligned_vector<idx_t>& inv) = 0;
  };

  template <class T>
  struct DatEntry final : DatEntryBase {
    aligned_vector<T> init;   ///< declaration-order initial values (empty = zeros)
    std::deque<Dat<T>> rank;  ///< per-rank replica, local layout order

    void materialize(int id, const Partitioned& part, Layout l,
                     const aligned_vector<idx_t>& inv) override {
      for (int r = 0; r < part.nranks(); ++r) {
        // Allocated directly in the final layout, so the layout-aware at()
        // fills the final physical form in one pass.
        Dat<T>& d = rank.emplace_back(name, part.set(r, set), dim, l);
        if (init.empty()) continue;
        const LocalLayout& L = part.layout(r, set);
        for (idx_t i = 0; i < L.ntotal; ++i) {
          const idx_t g = L.local_to_global[i];
          const idx_t row = inv.empty() ? g : inv[static_cast<std::size_t>(g)];
          for (int c = 0; c < dim; ++c)
            d.at(i, c) = init[static_cast<std::size_t>(row) * dim + c];
        }
      }
      view.dat = id;
      view.set = set;
      view.dim = dim;
      view.value_bytes = sizeof(T);
      view.layout = l;
      view.rank_base.clear();
      view.rank_plane.clear();
      for (int r = 0; r < part.nranks(); ++r) {
        view.rank_base.push_back(reinterpret_cast<unsigned char*>(rank[r].data()));
        view.rank_plane.push_back(rank[r].plane());
      }
    }
  };

  template <class T>
  DatEntry<T>& entry(int id) {
    return *static_cast<DatEntry<T>*>(dats_[id].get());
  }

  // ---- halo management (called by dist::Loop) ------------------------------

  /// Refresh the listed datasets' halos through the exchanger, dirty ones
  /// only; returns the number of scalar values moved. A transport failure
  /// surfaces as opv::Error naming the dat and the transport (so an
  /// ensemble scheduler or driver knows WHAT failed, not just that
  /// something threw); the dat stays dirty for a clean retry.
  std::int64_t refresh_halos(const std::vector<int>& dat_ids) {
    std::int64_t exchanged = 0;
    for (int id : dat_ids) {
      DatEntryBase& d = *dats_[id];
      if (!d.dirty) continue;
      try {
        exchanged += exchanger_->exchange(*part_, d.view);
      } catch (const std::exception& e) {
        throw exchange_failure("exchange", d, e);
      }
      d.dirty = false;
    }
    return exchanged;
  }

  /// Start a non-blocking refresh of the listed datasets' halos (dirty ones
  /// only), appending each started dat to `pending` for the matching
  /// wait_halos call. Dats whose begin() threw are NOT appended — their
  /// halos stay dirty and no orphaned wait() is owed for them — but the
  /// dats begun before the throw are, and the caller still owes them their
  /// wait_halos.
  void begin_halos(const std::vector<int>& dat_ids, std::vector<int>& pending) {
    for (int id : dat_ids) {
      DatEntryBase& d = *dats_[id];
      if (!d.dirty) continue;
      try {
        exchanger_->begin(*part_, d.view);
      } catch (const std::exception& e) {
        throw exchange_failure("begin", d, e);
      }
      pending.push_back(id);
    }
  }

  /// Complete the refreshes started by begin_halos; clears the dirty bits
  /// and returns the number of scalar values moved. Every pending dat is
  /// waited for, even after a failure, before the first error is rethrown;
  /// dats whose wait() failed stay dirty.
  std::int64_t wait_halos(const std::vector<int>& pending) {
    std::int64_t exchanged = 0;
    std::exception_ptr first;
    for (int id : pending) {
      DatEntryBase& d = *dats_[id];
      try {
        exchanged += exchanger_->wait(*part_, d.view);
        d.dirty = false;
      } catch (const std::exception& e) {
        if (!first) first = std::make_exception_ptr(exchange_failure("wait", d, e));
      }
    }
    if (first) std::rethrow_exception(first);
    return exchanged;
  }

  void mark_dirty(const std::vector<int>& dat_ids) {
    for (int id : dat_ids) dats_[id]->dirty = true;
  }

  /// Wrap a transport exception with the halo-exchange context: which
  /// operation, which dat, which transport. The dat's dirty bit is left
  /// set by every caller, so a recovered instance re-exchanges cleanly.
  [[nodiscard]] Error exchange_failure(const char* op, const DatEntryBase& d,
                                       const std::exception& e) const {
    return Error(std::string("halo ") + op + " failed for dat '" + d.name + "' via transport '" +
                 exchanger_->name() + "': " + e.what());
  }

  void require_open(const char* what) const {
    OPV_REQUIRE(!finalized_, "DistCtx::" << what << ": context already finalized");
  }

  /// The global renumbering pass (core/reorder.hpp), run at finalize()
  /// before partitioning: RCM on the primary set, from-sets sorted by their
  /// renumbered targets; spec maps relabeled/permuted and partition
  /// coordinates row-permuted. Dat initial values stay in declaration order:
  /// the inverses kept here fill the rank replicas and serve fetch().
  void apply_renumber() {
    std::vector<idx_t> sizes;
    sizes.reserve(spec_.sets.size());
    for (const auto& s : spec_.sets) sizes.push_back(s.size);
    std::vector<reorder::MapView> views;
    views.reserve(spec_.maps.size());
    for (auto& m : spec_.maps) views.push_back({m.from, m.to, m.dim, m.data.data()});

    perms_ = reorder::compute(sizes, views, primary_);
    reorder::apply_to_maps(perms_, views, sizes);
    if (!perms_.identity(primary_))
      reorder::permute_rows(perms_.of(primary_), coords_.data(), ndims_);
    for (int s = 0; s < static_cast<int>(spec_.sets.size()); ++s)
      if (!perms_.identity(s)) inv_[static_cast<std::size_t>(s)] = reorder::invert(perms_.of(s));
  }

  int nranks_;
  ExecConfig cfg_;
  WorkerPool pool_;
  GlobalSpec spec_;
  int primary_ = -1;
  int ndims_ = 2;  ///< partition-coordinate dimensionality (2 or 3)
  aligned_vector<double> coords_;
  Layout layout_ = Layout::AoS;  ///< layout of every multi-component dat
  std::vector<std::unique_ptr<DatEntryBase>> dats_;
  std::unique_ptr<Partitioned> part_;
  std::unique_ptr<Exchanger> exchanger_ = std::make_unique<MemcpyExchanger>();
  ExchangeMode exchange_mode_ = ExchangeMode::Overlap;
  bool renumber_on_finalize_ = false;
  reorder::Permutations perms_;          ///< old -> new per set (renumbering)
  std::vector<aligned_vector<idx_t>> inv_;  ///< new -> old per set (empty: kept)
  bool finalized_ = false;
};

}  // namespace opv::dist

// The Loop handle and the DistCtx::loop wrapper it backs live in a sibling
// header so either include order works (both are #pragma once).
#include "dist/loop.hpp"  // IWYU pragma: keep
