// Halo-exchange transport seam for the distributed layer.
//
// The paper's MPI results (section 6.5) hinge on making halo exchange cheap
// and overlappable; the first step is separating WHAT a loop exchanges from
// HOW the bytes move, the second is splitting WHEN: a dist::Loop pins an
// ExchangePlan at construction (which dats it reads stale, which it
// dirties, and whether it may overlap), and all traffic flows through the
// context's Exchanger as a non-blocking begin()/wait() pair so interior
// compute — each rank's core range (halo.hpp) — runs while the bytes move.
// Blocking-only transports implement exchange() alone and inherit the
// default adapter (begin = no-op, wait = exchange). In-tree transports:
//   * MemcpyExchanger — every rank replica lives in one address space, so a
//     halo slot is refreshed by direct memcpy from the owner;
//   * StagedExchanger — packs per-neighbor send buffers and unpacks them
//     into halo slots on a background thread between begin() and wait(),
//     the two-sided staging shape a real MPI transport (Isend/Irecv + Wait)
//     needs, with a real overlap.
// A real MPI transport implements the same interface and drops in via
// DistCtx::set_exchanger without touching the loop API.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <future>
#include <unordered_map>
#include <vector>

#include "common/error.hpp"
#include "core/layout.hpp"
#include "dist/halo.hpp"

namespace opv::dist {

/// Type-erased per-rank storage view of one dataset: everything a transport
/// needs to move halo values without knowing the value type. The rank base
/// pointers are pinned when the dataset is materialized (rank replicas are
/// never reallocated after finalize()).
///
/// Rank replicas inherit the dat's layout policy (core/layout.hpp), so an
/// element's dim values are contiguous only under AoS; the layout plus the
/// per-rank plane stride let transports address individual components of
/// any physical layout.
struct DatHaloView {
  int dat = -1;                ///< dat id (diagnostics)
  int set = -1;                ///< set the dat lives on (selects layouts)
  int dim = 0;                 ///< values per element
  std::size_t value_bytes = 0; ///< sizeof one scalar value
  Layout layout = Layout::AoS; ///< physical layout of every rank replica
  std::vector<unsigned char*> rank_base;  ///< per-rank replica base pointer
  std::vector<idx_t> rank_plane;          ///< per-rank SoA plane stride
};

/// Address of value c of local element e in rank r's replica.
inline unsigned char* halo_value_ptr(const DatHaloView& v, int r, idx_t e, int c) {
  return v.rank_base[static_cast<std::size_t>(r)] +
         layout_offset(v.layout, e, c, v.dim,
                       v.rank_plane.empty() ? 0 : v.rank_plane[static_cast<std::size_t>(r)]) *
             v.value_bytes;
}

/// Copy one element's dim values between rank replicas: a single contiguous
/// memcpy under AoS, per-component copies otherwise (the components of one
/// element are plane-strided apart).
inline void halo_copy_row(const DatHaloView& v, int dst_rank, idx_t dst_e, int src_rank,
                          idx_t src_e) {
  if (v.layout == Layout::AoS) {
    std::memcpy(halo_value_ptr(v, dst_rank, dst_e, 0), halo_value_ptr(v, src_rank, src_e, 0),
                v.value_bytes * static_cast<std::size_t>(v.dim));
    return;
  }
  for (int c = 0; c < v.dim; ++c)
    std::memcpy(halo_value_ptr(v, dst_rank, dst_e, c), halo_value_ptr(v, src_rank, src_e, c),
                v.value_bytes);
}

/// Pack one element's dim values into a contiguous (AoS-order) message slot —
/// the wire format stays layout-independent, so a receiving transport never
/// needs to know the sender's physical layout.
inline void halo_pack_row(const DatHaloView& v, int r, idx_t e, unsigned char* buf) {
  if (v.layout == Layout::AoS) {
    std::memcpy(buf, halo_value_ptr(v, r, e, 0), v.value_bytes * static_cast<std::size_t>(v.dim));
    return;
  }
  for (int c = 0; c < v.dim; ++c)
    std::memcpy(buf + static_cast<std::size_t>(c) * v.value_bytes, halo_value_ptr(v, r, e, c),
                v.value_bytes);
}

/// Unpack a contiguous message slot into one element of rank r's replica.
inline void halo_unpack_row(const DatHaloView& v, int r, idx_t e, const unsigned char* buf) {
  if (v.layout == Layout::AoS) {
    std::memcpy(halo_value_ptr(v, r, e, 0), buf, v.value_bytes * static_cast<std::size_t>(v.dim));
    return;
  }
  for (int c = 0; c < v.dim; ++c)
    std::memcpy(halo_value_ptr(v, r, e, c), buf + static_cast<std::size_t>(c) * v.value_bytes,
                v.value_bytes);
}

/// A loop's pinned halo-exchange schedule, derived once at dist::Loop
/// construction from the argument types (compile-time access modes) and the
/// runtime dat identities:
///   * read_dats — datasets the loop consumes halo values of (indirect
///     reads always; direct reads/increments too when the loop redundantly
///     executes the import halo), refreshed before the run if dirty;
///   * write_dats — datasets the loop modifies, whose halo copies are
///     invalidated after the run;
///   * can_overlap — whether the exchange may legally overlap the interior
///     (each rank's core range [0, ncore), which touches no halo slot). It
///     is false when the loop has nothing to exchange, or when a dat appears
///     in both lists: the transport may read owner values any time between
///     begin() and wait(), so a loop writing what it reads stale must take
///     the blocking path.
struct ExchangePlan {
  std::vector<int> read_dats;
  std::vector<int> write_dats;
  bool can_overlap = false;
};

/// How a dist::Loop schedules its halo exchange relative to compute.
enum class ExchangeMode {
  Blocking,  ///< exchange, then one contiguous full run (the classic path)
  Phased,    ///< exchange, then interior slice, then boundary slice —
             ///< the overlapped schedule with a blocking exchange (its
             ///< bitwise-identical control)
  Overlap,   ///< begin exchange, interior slice while the caller waits,
             ///< then boundary slice
};

constexpr const char* exchange_mode_name(ExchangeMode m) {
  switch (m) {
    case ExchangeMode::Blocking: return "Blocking";
    case ExchangeMode::Phased: return "Phased";
    case ExchangeMode::Overlap: return "Overlap";
  }
  return "?";
}

/// Transport interface: refresh every halo slot of one dataset from its
/// owning rank. Implementations are exchange mechanisms only — the dirty
/// tracking and the decision of WHICH dats to refresh stay with the context
/// and the loop's ExchangePlan.
class Exchanger {
 public:
  virtual ~Exchanger() = default;

  /// Blocking: fill halo slots [nowned, ntotal) of `view`'s dat on every
  /// rank from the owner replica; returns the number of scalar values
  /// copied.
  virtual std::int64_t exchange(const Partitioned& part, const DatHaloView& view) = 0;

  /// Non-blocking pair. Contract: every begin(view) is matched by exactly
  /// one wait(view) before any consumer reads the halo slots; between the
  /// two calls the transport may read owner slots and write halo slots of
  /// the dat at any time. Both calls come from the thread that runs the
  /// loop, and wait() may run while the ranks compute the interior. The
  /// default adapter keeps blocking-only transports working: begin is a
  /// no-op and wait performs the blocking exchange — on the caller thread,
  /// overlapped with the interior.
  virtual void begin(const Partitioned& part, const DatHaloView& view) {
    (void)part;
    (void)view;
  }
  /// Complete the exchange started by begin(); returns values copied.
  virtual std::int64_t wait(const Partitioned& part, const DatHaloView& view) {
    return exchange(part, view);
  }

  [[nodiscard]] virtual const char* name() const = 0;
};

/// The in-process transport: all rank replicas share one address space, so a
/// halo slot is refreshed with a single memcpy from the owner's storage.
class MemcpyExchanger final : public Exchanger {
 public:
  std::int64_t exchange(const Partitioned& part, const DatHaloView& view) override {
    std::int64_t copied = 0;
    for (int r = 0; r < part.nranks(); ++r) {
      const LocalLayout& L = part.layout(r, view.set);
      const idx_t nhalo = L.ntotal - L.nowned;
      for (idx_t i = 0; i < nhalo; ++i) {
        halo_copy_row(view, r, L.nowned + i, L.src_rank[i], L.src_local[i]);
        copied += view.dim;
      }
    }
    return copied;
  }

  [[nodiscard]] const char* name() const override { return "memcpy"; }
};

/// Two-sided staging transport: each destination rank's halo values are
/// packed into per-neighbor send buffers (halo slots grouped by owning
/// rank — one contiguous run per (owner, destination) pair, exactly the
/// message an MPI_Isend would carry) and unpacked into the halo slots.
/// begin() hands the pack+unpack to a background task and wait() joins it,
/// so the copy truly runs while interior compute proceeds — legal because
/// an overlapping loop never writes a dat it reads stale
/// (ExchangePlan::can_overlap) and its interior elements touch no halo
/// slot. exchange() is begin()+wait().
class StagedExchanger final : public Exchanger {
 public:
  void begin(const Partitioned& part, const DatHaloView& view) override {
    Pending& p = pending_[view.dat];
    OPV_REQUIRE(!p.task.valid(), "StagedExchanger: begin() without a matching wait() for dat "
                                     << view.dat);
    const Staging& st = staging(part, view.set);
    p.task = std::async(std::launch::async,
                        [this, &part, view, &st, &p] { return transfer(part, view, st, p); });
  }

  std::int64_t wait(const Partitioned& part, const DatHaloView& view) override {
    (void)part;
    auto it = pending_.find(view.dat);
    OPV_REQUIRE(it != pending_.end() && it->second.task.valid(),
                "StagedExchanger: wait() without a matching begin() for dat " << view.dat);
    return it->second.task.get();  // leaves the future invalid, even on a throw
  }

  std::int64_t exchange(const Partitioned& part, const DatHaloView& view) override {
    begin(part, view);
    return wait(part, view);
  }

  [[nodiscard]] const char* name() const override { return "staged"; }

  /// Number of point-to-point messages one exchange of a dat on `set`
  /// would need (the (owner, destination) pairs with a non-empty halo run).
  [[nodiscard]] int message_count(const Partitioned& part, int set) {
    return staging(part, set).nmessages;
  }

 private:
  /// Pinned per-set pack order: for each destination rank, its halo slot
  /// indices grouped by owning rank (ascending), with one run per owner.
  struct Staging {
    struct Dest {
      aligned_vector<idx_t> order;    ///< halo slot indices, grouped by owner
      std::vector<idx_t> run_offset;  ///< per-owner run bounds into `order`
      std::vector<int> run_owner;     ///< owning rank of each run
    };
    std::vector<Dest> dest;  ///< per destination rank
    int nmessages = 0;
  };

  struct Pending {
    std::vector<unsigned char> buf;  ///< packed send data, all destinations
    std::future<std::int64_t> task;  ///< valid from begin() until wait()
  };

  const Staging& staging(const Partitioned& part, int set) {
    auto it = staging_.find(set);
    if (it != staging_.end()) return it->second;
    Staging st;
    st.dest.resize(static_cast<std::size_t>(part.nranks()));
    for (int r = 0; r < part.nranks(); ++r) {
      const LocalLayout& L = part.layout(r, set);
      const idx_t nhalo = L.ntotal - L.nowned;
      Staging::Dest& d = st.dest[static_cast<std::size_t>(r)];
      d.order.resize(static_cast<std::size_t>(nhalo));
      for (idx_t i = 0; i < nhalo; ++i) d.order[i] = i;
      std::stable_sort(d.order.begin(), d.order.end(),
                       [&](idx_t a, idx_t b) { return L.src_rank[a] < L.src_rank[b]; });
      for (idx_t j = 0; j < nhalo; ++j) {
        const int owner = L.src_rank[d.order[j]];
        if (d.run_owner.empty() || d.run_owner.back() != owner) {
          d.run_owner.push_back(owner);
          d.run_offset.push_back(j);
          ++st.nmessages;
        }
      }
      d.run_offset.push_back(nhalo);
    }
    return staging_.emplace(set, std::move(st)).first->second;
  }

  /// Pack every (owner -> destination) message, then unpack into the halo
  /// slots — the Isend/Irecv payload round-trip, collapsed in-process.
  std::int64_t transfer(const Partitioned& part, const DatHaloView& view, const Staging& st,
                        Pending& p) {
    const std::size_t stride = view.value_bytes * static_cast<std::size_t>(view.dim);
    std::size_t total = 0;
    for (const auto& d : st.dest) total += d.order.size() * stride;
    p.buf.resize(total);

    std::size_t off = 0;
    for (int r = 0; r < part.nranks(); ++r) {  // pack (the send side)
      const LocalLayout& L = part.layout(r, view.set);
      const Staging::Dest& d = st.dest[static_cast<std::size_t>(r)];
      for (idx_t j = 0; j < static_cast<idx_t>(d.order.size()); ++j) {
        const idx_t i = d.order[j];
        halo_pack_row(view, L.src_rank[i], L.src_local[i], p.buf.data() + off);
        off += stride;
      }
    }

    std::int64_t copied = 0;
    off = 0;
    for (int r = 0; r < part.nranks(); ++r) {  // unpack (the receive side)
      const LocalLayout& L = part.layout(r, view.set);
      const Staging::Dest& d = st.dest[static_cast<std::size_t>(r)];
      for (idx_t j = 0; j < static_cast<idx_t>(d.order.size()); ++j) {
        halo_unpack_row(view, r, L.nowned + d.order[j], p.buf.data() + off);
        off += stride;
        copied += view.dim;
      }
    }
    return copied;
  }

  std::unordered_map<int, Staging> staging_;   ///< per set, pinned
  std::unordered_map<int, Pending> pending_;   ///< per dat
};

}  // namespace opv::dist
